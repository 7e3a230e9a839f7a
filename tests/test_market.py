"""Market generation: RNG streams, outcome sampling, stages, CSV replay, and the per-round reference."""

import dataclasses
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from auctionlab import (
    ConfigError,
    ContractViolation,
    MarketConfig,
    MechanismConfig,
    MissingInputError,
    SchemaError,
    TruthfulAgent,
    generate_market,
    run_auction,
    sample_outcomes,
    stage_starts,
    write_market_csv,
)
from auctionlab.csvio import CHUNK_ROWS
from auctionlab.market import (
    MARKET_CSV_HEADER,
    MAX_MARKET_BYTES,
    MarketLog,
    _uniform_doubles,
    philox4x64,
    read_market_csv,
)
from reference import RoundOutcome, sample_round, stage_of, validate_allocation

_MASK = (1 << 64) - 1


def _philox_ref(key, counter):
    """Scalar 10-round Philox-4x64 in pure Python integers.

    Written independently from the vectorized implementation so the two can
    cross-check each other: plain big-int multiplies instead of 32-bit limbs.
    """
    m0 = 0xD2E7470EE14C6C93
    m1 = 0xCA5A826395121157
    w0 = 0x9E3779B97F4A7C15
    w1 = 0xBB67AE8584CAA73B
    x0, x1, x2, x3 = counter
    k0, k1 = key
    for _ in range(10):
        p0 = m0 * x0
        p1 = m1 * x2
        x0, x1, x2, x3 = (p1 >> 64) ^ x1 ^ k0, p1 & _MASK, (p0 >> 64) ^ x3 ^ k1, p0 & _MASK
        k0 = (k0 + w0) & _MASK
        k1 = (k1 + w1) & _MASK
    return x0, x1, x2, x3


def _tiny_config(**kw):
    base = dict(
        num_bidders=3,
        num_rounds=6,
        num_slots=2,
        stage_plan=(3, 3),
        ctr_range=(0.3, 0.9),
        cvr_range=(0.05, 0.15),
        value_range=(1.0, 5.0),
        tcpa_range=(1.0, 10.0),
        seed=7,
    )
    base.update(kw)
    return MarketConfig(**base)


@pytest.mark.parametrize("bidders,slots", [(1, 1), (50, 5), (7, 3)])
def test_market_is_capped_by_the_bytes_of_its_rate_arrays(bidders, slots):
    # ctr is (N, M, K), cvr and value are (N, M): N·M·(K + 2)·8 bytes. Only
    # the config is built here, so nothing of that size is allocated.
    per_round = bidders * (slots + 2) * 8
    rounds = MAX_MARKET_BYTES // per_round
    fits = dict(num_bidders=bidders, num_slots=slots)
    _tiny_config(num_rounds=rounds, stage_plan=(rounds,), **fits)
    with pytest.raises(ConfigError) as err:
        _tiny_config(num_rounds=rounds + 1, stage_plan=(rounds + 1,), **fits)
    assert all(key in str(err.value) for key in ("num_rounds", "num_bidders", "num_slots"))


def test_philox_block_matches_scalar_reference():
    meta = np.random.Generator(np.random.PCG64(123))
    for _ in range(50):
        key = tuple(int(v) for v in meta.integers(0, 1 << 64, size=2, dtype=np.uint64))
        ctr = tuple(int(v) for v in meta.integers(0, 1 << 64, size=4, dtype=np.uint64))
        got = philox4x64(key, tuple(np.array([c], dtype=np.uint64) for c in ctr))
        want = _philox_ref(key, ctr)
        assert tuple(int(g[0]) for g in got) == want


def test_philox_block_matches_numpy_random_raw():
    # numpy's Philox advances its counter before emitting the first block, so
    # counter=[0, k, m, n] there corresponds to counter word 0 == 1 here.
    for seed, k, m, n in [(0, 0, 0, 0), (7, 1, 2, 3), (2**63, 4, 50, 55799), (99, 0, 9, 1)]:
        raw = np.random.Philox(key=[seed, 5], counter=[0, k, m, n]).random_raw(4)
        ours = philox4x64(
            (seed, 5),
            tuple(np.array([c], dtype=np.uint64) for c in (1, k, m, n)),
        )
        assert [int(w[0]) for w in ours] == [int(r) for r in raw]


def test_philox_vectorization_matches_elementwise():
    meta = np.random.Generator(np.random.PCG64(5))
    c = tuple(meta.integers(0, 1 << 64, size=32, dtype=np.uint64) for _ in range(4))
    batch = philox4x64((11, 22), c)
    for i in range(32):
        single = philox4x64((11, 22), tuple(np.array([w[i]]) for w in c))
        assert all(int(batch[j][i]) == int(single[j][0]) for j in range(4))


def _numpy_block(key, counter):
    """numpy's Philox output for counter words 0..3 (word 0 >= 1): numpy
    increments word 0 before emitting, so it starts one below."""
    c0, c1, c2, c3 = (int(c) for c in counter)
    # As uint64 arrays: numpy turns a list holding an int of 2**63 or more into float64.
    key = np.array(key, dtype=np.uint64)
    counter = np.array([c0 - 1, c1, c2, c3], dtype=np.uint64)
    return [int(r) for r in np.random.Philox(key=key, counter=counter).random_raw(4)]


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def test_philox_blocks_match_block_by_block_and_numpy():
    block = 16384
    n = 3 * block + 5
    meta = np.random.Generator(np.random.PCG64(17))
    counter = _read_only(*(meta.integers(1, 1 << 64, size=n, dtype=np.uint64) for _ in range(4)))
    before = [c.copy() for c in counter]
    key = (2**63 + 5, 77)
    words = philox4x64(key, counter)
    assert all(np.array_equal(c, b) for c, b in zip(counter, before))
    assert all(w.shape == (n,) and w.dtype == np.uint64 for w in words)
    for start in range(0, n, block):
        part = philox4x64(key, tuple(c[start:start + block] for c in counter))
        for w, p in zip(words, part):
            np.testing.assert_array_equal(w[start:start + block], p)
    edges = [0, block - 1, block, 2 * block + 1, n - 5, n - 1]
    for i in edges + meta.integers(0, n, size=20).tolist():
        assert [int(w[i]) for w in words] == _numpy_block(key, [c[i] for c in counter])


def test_philox_broadcasts_2d_counter_words():
    slots = np.arange(3, dtype=np.uint64)[None, :]
    bidders = np.arange(4, dtype=np.uint64)[:, None]
    rounds = np.array([[7], [8], [55799], [0]], dtype=np.int64)
    _read_only(slots, bidders, rounds)
    key = (31, 5)
    words = philox4x64(key, (1, slots, bidders, rounds))
    assert all(w.shape == (4, 3) and w.dtype == np.uint64 for w in words)
    full = tuple(np.broadcast_to(np.asarray(c, dtype=np.uint64), (4, 3)).ravel() for c in (1, slots, bidders, rounds))
    for w, f in zip(words, philox4x64(key, full)):
        np.testing.assert_array_equal(w.ravel(), f)
    for m in range(4):
        for k in range(3):
            assert [int(w[m, k]) for w in words] == _numpy_block(key, (1, k, m, rounds[m, 0]))


def test_generation_streams_match_numpy_generators():
    cfg = _tiny_config()
    log = generate_market(cfg)
    M, N, K = cfg.num_bidders, cfg.num_rounds, cfg.num_slots

    def stream(purpose):
        return np.random.Generator(np.random.Philox(key=[cfg.seed, purpose]))

    def scale(u, rng):
        return rng[0] + (rng[1] - rng[0]) * u

    np.testing.assert_array_equal(log.tcpa, scale(stream(1).random(M), cfg.tcpa_range))
    raw_ctr = scale(stream(2).random((N, M, K)), cfg.ctr_range)
    np.testing.assert_array_equal(log.ctr, -np.sort(-raw_ctr, axis=2))
    np.testing.assert_array_equal(log.cvr, scale(stream(3).random((N, M)), cfg.cvr_range))
    np.testing.assert_array_equal(log.value, scale(stream(4).random((N, M)), cfg.value_range))


def test_outcome_uniforms_match_numpy_counter_streams():
    for n, m, k in [(0, 0, 0), (5, 2, 1), (1799, 49, 4)]:
        w0, w1, _, _ = philox4x64((31, 5), (1, np.array([k]), np.array([m]), np.array([n])))
        u_click, u_conv = _uniform_doubles(w0), _uniform_doubles(w1)
        gen = np.random.Generator(np.random.Philox(key=[31, 5], counter=[0, k, m, n]))
        want = gen.random(2)
        assert float(u_click[0]) == float(want[0])
        assert float(u_conv[0]) == float(want[1])


def test_ctr_weakly_decreasing_across_slots():
    log = generate_market(_tiny_config(num_rounds=40, stage_plan=(40,), num_slots=4))
    assert np.all(np.diff(log.ctr, axis=2) <= 0)


def test_generation_bit_identical_across_calls():
    a = generate_market(_tiny_config(seed=99))
    b = generate_market(_tiny_config(seed=99))
    for name in ("tcpa", "ctr", "cvr", "value"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    c = generate_market(_tiny_config(seed=100))
    assert c.ctr.tobytes() != a.ctr.tobytes()


def test_seeds_from_two_to_the_63_keep_every_bit():
    # Generation streams are keyed by a uint64 array: a Python list holding a
    # seed of 2**63 or more would become float64 and lose the low bits.
    a = generate_market(_tiny_config(seed=2**63))
    b = generate_market(_tiny_config(seed=2**63 + 5))
    for name in ("tcpa", "ctr", "cvr", "value"):
        assert getattr(a, name).tobytes() != getattr(b, name).tobytes(), name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = generate_market(_tiny_config(seed=2**64 - 1))
    lo, hi = top.config.tcpa_range
    u = np.random.Generator(np.random.Philox(key=np.array([2**64 - 1, 1], dtype=np.uint64))).random(3)
    np.testing.assert_array_equal(top.tcpa, lo + (hi - lo) * u)


def test_seeds_below_two_to_the_63_keep_their_list_keyed_streams():
    for seed in (7, 2**63 - 1):
        log = generate_market(_tiny_config(seed=seed))
        lo, hi = log.config.tcpa_range
        u = np.random.Generator(np.random.Philox(key=[seed, 1])).random(3)
        np.testing.assert_array_equal(log.tcpa, lo + (hi - lo) * u)


def test_replaced_market_starts_with_an_empty_outcome_memo():
    market = generate_market(_tiny_config())
    agents = [TruthfulAgent() for _ in range(market.num_bidders)]
    before = run_auction(market, MechanismConfig("CFP"), agents)
    assert len(market.outcome_memo) == len(market.config.stage_plan)
    assert "outcome_memo" not in repr(market)

    twin = dataclasses.replace(market, ctr=market.ctr * 0.5)
    assert len(twin.outcome_memo) == 0 and twin.outcome_memo is not market.outcome_memo
    after = run_auction(twin, MechanismConfig("CFP"), agents)
    direct = MarketLog(market.config, market.tcpa, market.ctr * 0.5, market.cvr, market.value)
    want = run_auction(direct, MechanismConfig("CFP"), agents)
    assert after.rounds.score.tobytes() == want.rounds.score.tobytes()
    assert after.rounds.score.tobytes() != before.rounds.score.tobytes()


def test_degenerate_ranges_force_exact_values():
    cfg = MarketConfig(
        num_bidders=1,
        num_rounds=1,
        num_slots=1,
        stage_plan=(1,),
        ctr_range=(0.3, 0.3),
        cvr_range=(0.05, 0.05),
    )
    log = generate_market(cfg)
    assert log.ctr[0, 0, 0] == 0.3
    assert log.cvr[0, 0] == 0.05


def test_outcomes_respect_conversion_requires_click():
    log = generate_market(_tiny_config(num_rounds=200, stage_plan=(200,)))
    N, M, K = log.num_rounds, log.num_bidders, log.num_slots
    rr, mm, kk = np.meshgrid(np.arange(N), np.arange(M), np.arange(K), indexing="ij")
    y, z = sample_outcomes(log, rr, mm, kk)
    assert np.all(z <= y)
    assert set(np.unique(y)) <= {0, 1}
    # Re-sampling the same triples gives the same outcomes: counter addressed.
    y2, z2 = sample_outcomes(log, rr, mm, kk)
    np.testing.assert_array_equal(y, y2)
    np.testing.assert_array_equal(z, z2)


def test_click_and_conversion_rates_within_three_sigma():
    cfg = MarketConfig(
        num_bidders=10,
        num_rounds=2000,
        num_slots=2,
        stage_plan=(2000,),
        ctr_range=(0.6, 0.6),
        cvr_range=(0.1, 0.1),
        seed=13,
    )
    log = generate_market(cfg)
    rr, mm, kk = np.meshgrid(
        np.arange(cfg.num_rounds), np.arange(cfg.num_bidders), np.arange(cfg.num_slots), indexing="ij"
    )
    y, z = sample_outcomes(log, rr, mm, kk)
    n = y.size
    assert abs(y.mean() - 0.6) < 3 * np.sqrt(0.6 * 0.4 / n)
    clicks = int(y.sum())
    assert abs(z.sum() / clicks - 0.1) < 3 * np.sqrt(0.1 * 0.9 / clicks)


def test_sample_round_composition():
    log = generate_market(_tiny_config())
    alloc = np.zeros((3, 2), dtype=np.uint8)
    alloc[1, 0] = 1
    alloc[2, 1] = 1
    out = sample_round(log, 4, alloc)
    assert isinstance(out, RoundOutcome)
    assert np.all(out.click <= out.allocation)
    assert np.all(out.conversion <= out.click)
    assert out.click[0].sum() == 0
    y, z = sample_outcomes(log, np.array([4, 4]), np.array([1, 2]), np.array([0, 1]))
    assert out.click[1, 0] == y[0] and out.click[2, 1] == y[1]
    assert out.conversion[1, 0] == z[0] and out.conversion[2, 1] == z[1]


def test_round_outcome_rejects_orphan_conversion():
    x = np.ones((1, 1), dtype=np.uint8)
    with pytest.raises(ContractViolation):
        RoundOutcome(
            allocation=x,
            click=np.zeros_like(x),
            conversion=np.ones_like(x),
            payment=np.zeros((1, 1)),
        )
    with pytest.raises(ContractViolation):
        RoundOutcome(
            allocation=np.zeros_like(x),
            click=x,
            conversion=np.zeros_like(x),
            payment=np.zeros((1, 1)),
        )


def test_validate_allocation_rules():
    validate_allocation(np.array([[1, 0], [0, 1], [0, 0]]), 2)
    with pytest.raises(ContractViolation):
        validate_allocation(np.array([[1, 1], [0, 0]]), 2)
    with pytest.raises(ContractViolation):
        validate_allocation(np.array([[1, 0], [1, 0]]), 2)
    with pytest.raises(ContractViolation):
        validate_allocation(np.array([[2, 0], [0, 0]]), 2)
    with pytest.raises(ContractViolation):
        validate_allocation(np.array([1, 0]), 2)


@pytest.mark.parametrize(
    "bad",
    [
        dict(num_bidders=0),
        dict(num_rounds=0, stage_plan=()),
        dict(stage_plan=(2, 2)),
        dict(stage_plan=(6, 0), num_rounds=6),
        dict(ctr_range=(0.0, 0.9)),
        dict(ctr_range=(0.9, 0.3)),
        dict(ctr_range=(0.3, 1.5)),
        dict(cvr_range=(0.05, 0.5)),
        dict(value_range=(-1.0, 5.0)),
        dict(tcpa_range=(0.0, 10.0)),
        dict(seed=-1),
        dict(seed=2**64),
    ],
)
def test_config_validation_rejects(bad):
    with pytest.raises(ConfigError):
        _tiny_config(**bad)


def test_stage_of_boundaries():
    plan = (3, 3)
    assert [stage_of(i, plan) for i in (0, 2, 3, 5)] == [0, 0, 1, 1]
    with pytest.raises(IndexError):
        stage_of(6, plan)
    with pytest.raises(IndexError):
        stage_of(-1, plan)
    plan = (2, 5, 4)
    assert [stage_of(i, plan) for i in (0, 1, 2, 6, 7, 10)] == [0, 0, 1, 1, 2, 2]


def test_stage_starts_values():
    np.testing.assert_array_equal(stage_starts((2, 5, 4)), [0, 2, 7])
    np.testing.assert_array_equal(stage_starts((4,)), [0])


def test_market_csv_roundtrip(tmp_path):
    cfg = _tiny_config(seed=21)
    log = generate_market(cfg)
    path = str(tmp_path / "market.csv")
    write_market_csv(log, path)
    back = read_market_csv(path, cfg.stage_plan, log.tcpa, seed=cfg.seed)
    np.testing.assert_array_equal(back.ctr, log.ctr)
    np.testing.assert_array_equal(back.cvr, log.cvr)
    np.testing.assert_array_equal(back.value, log.value)
    np.testing.assert_array_equal(back.tcpa, log.tcpa)
    assert back.click_override is not None and back.conv_override is not None
    # Replayed outcomes equal live sampling for every triple.
    N, M, K = cfg.num_rounds, cfg.num_bidders, cfg.num_slots
    rr, mm, kk = np.meshgrid(np.arange(N), np.arange(M), np.arange(K), indexing="ij")
    y_live, z_live = sample_outcomes(log, rr, mm, kk)
    y_replay, z_replay = sample_outcomes(back, rr, mm, kk)
    np.testing.assert_array_equal(y_live, y_replay)
    np.testing.assert_array_equal(z_live, z_replay)


def test_market_csv_without_outcome_columns(tmp_path):
    cfg = _tiny_config(seed=3)
    log = generate_market(cfg)
    full = str(tmp_path / "full.csv")
    write_market_csv(log, full)
    lines = Path(full).read_text().splitlines()
    bare = str(tmp_path / "bare.csv")
    with open(bare, "w") as fh:
        fh.write("round,bidder,slot,ctr,cvr,value\n")
        for line in lines[1:]:
            fh.write(",".join(line.split(",")[:6]) + "\n")
    back = read_market_csv(bare, cfg.stage_plan, log.tcpa, seed=cfg.seed)
    assert back.click_override is None and back.conv_override is None
    np.testing.assert_array_equal(back.ctr, log.ctr)


def _write_lines(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_market_csv_schema_errors(tmp_path):
    cfg = _tiny_config(seed=5)
    log = generate_market(cfg)
    path = str(tmp_path / "m.csv")
    write_market_csv(log, path)
    lines = Path(path).read_text().splitlines()

    bad = str(tmp_path / "bad.csv")
    _write_lines(bad, ["round,bidder,slot,ctr"] + lines[1:])
    with pytest.raises(SchemaError):
        read_market_csv(bad, cfg.stage_plan, log.tcpa)

    _write_lines(bad, [lines[0]] + lines[1:-1])  # drop one grid row
    with pytest.raises(SchemaError):
        read_market_csv(bad, cfg.stage_plan, log.tcpa)

    _write_lines(bad, lines[:1] + [lines[1] + ",9"])
    with pytest.raises(SchemaError):
        read_market_csv(bad, cfg.stage_plan, log.tcpa)

    # Swap the two slot rows of one (round, bidder) pair: ctr now increases.
    rows = [line.split(",") for line in lines[1:]]
    rows[0][3], rows[1][3] = rows[1][3], rows[0][3]
    if float(rows[0][3]) == float(rows[1][3]):
        rows[1][3] = repr(float(rows[0][3]) + 0.01)
    _write_lines(bad, [lines[0]] + [",".join(r) for r in rows])
    with pytest.raises(SchemaError):
        read_market_csv(bad, cfg.stage_plan, log.tcpa)

    # cvr must be constant across slots.
    rows = [line.split(",") for line in lines[1:]]
    rows[0][4] = repr(float(rows[0][4]) / 2)
    _write_lines(bad, [lines[0]] + [",".join(r) for r in rows])
    with pytest.raises(SchemaError):
        read_market_csv(bad, cfg.stage_plan, log.tcpa)

    # Conversion without click.
    rows = [line.split(",") for line in lines[1:]]
    for r in rows:
        r[6], r[7] = "0", "1"
    _write_lines(bad, [lines[0]] + [",".join(r) for r in rows])
    with pytest.raises(SchemaError):
        read_market_csv(bad, cfg.stage_plan, log.tcpa)

    with pytest.raises(SchemaError):
        read_market_csv(path, cfg.stage_plan, log.tcpa[:-1])

    with pytest.raises(SchemaError, match="m.csv"):
        read_market_csv(path, (3, 4), log.tcpa)  # the plan sums to 7, the CSV has 6 rounds

    _write_lines(bad, [lines[0]])
    with pytest.raises(SchemaError):
        read_market_csv(bad, cfg.stage_plan, log.tcpa)

    # No rounds, no bidders, or a scalar tcpa: nothing to read the file into.
    for plan, tcpa in (((), log.tcpa), (cfg.stage_plan, log.tcpa[:0]), (cfg.stage_plan, log.tcpa[0])):
        with pytest.raises(SchemaError, match="give no grid"):
            read_market_csv(path, plan, tcpa)


def test_market_csv_skips_blank_lines(tmp_path):
    cfg = _tiny_config(seed=8)
    log = generate_market(cfg)
    path = str(tmp_path / "m.csv")
    write_market_csv(log, path)
    lines = Path(path).read_text().splitlines()
    spaced = str(tmp_path / "spaced.csv")
    with open(spaced, "w") as fh:
        fh.writelines(line + "\n\n  \n" for line in lines)
    back = read_market_csv(spaced, cfg.stage_plan, log.tcpa)
    np.testing.assert_array_equal(back.ctr, log.ctr)
    np.testing.assert_array_equal(back.click_override, read_market_csv(path, cfg.stage_plan, log.tcpa).click_override)


def _edit_cell(lines, row, col, value):
    cells = lines[row].split(",")
    cells[col] = value
    return lines[:row] + [",".join(cells)] + lines[row + 1:]


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda lines: [], id="empty_file"),
        pytest.param(lambda lines: lines[:1], id="header_only"),
        pytest.param(lambda lines: lines[:1] + ["", "  "], id="header_and_blank_lines"),
        pytest.param(lambda lines: _edit_cell(lines, 3, 3, "high"), id="non_numeric_cell"),
        pytest.param(lambda lines: _edit_cell(lines, 2, 0, "0.5"), id="fractional_round"),
        pytest.param(lambda lines: _edit_cell(lines, 2, 1, "-1"), id="negative_bidder"),
        pytest.param(lambda lines: _edit_cell(lines, 2, 2, "inf"), id="infinite_slot"),
        pytest.param(lambda lines: _edit_cell(lines, 2, 0, "1e300"), id="huge_round"),
        pytest.param(lambda lines: _edit_cell(lines, 2, 2, "1e12"), id="huge_slot"),
        pytest.param(lambda lines: _edit_cell(lines, 2, 4, "nan"), id="nan_rate"),
        pytest.param(lambda lines: _edit_cell(lines, 2, 6, "2"), id="click_not_binary"),
        pytest.param(lambda lines: lines[:4] + [lines[4].rsplit(",", 1)[0]] + lines[5:], id="short_row"),
        pytest.param(lambda lines: lines[:1] + [",".join(line.split(",")[:6]) for line in lines[1:]],
                     id="every_row_cut_to_six_cells"),
        pytest.param(lambda lines: lines[:1] + ["#" + lines[1]] + lines[2:], id="comment_row"),
        pytest.param(lambda lines: lines[:1] + lines[1:3] + lines[2:-1], id="duplicate_row"),
        pytest.param(lambda lines: _edit_cell(lines, 1, 3, "1.5"), id="ctr_above_one"),
        pytest.param(lambda lines: _edit_cell(_edit_cell(lines, 1, 5, "-1"), 2, 5, "-1"), id="negative_value"),
    ],
)
def test_market_csv_hostile_inputs(tmp_path, edit):
    cfg = _tiny_config(seed=8)
    log = generate_market(cfg)
    path = str(tmp_path / "m.csv")
    write_market_csv(log, path)
    bad = str(tmp_path / "bad.csv")
    with open(bad, "w") as fh:
        fh.writelines(line + "\n" for line in edit(Path(path).read_text().splitlines()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError):
            read_market_csv(bad, cfg.stage_plan, log.tcpa)


@pytest.mark.parametrize("slot_major", [False, True])
def test_market_csv_duplicate_row_leaves_a_named_gap(tmp_path, slot_major):
    # The last slot-1 row is replaced by a copy of another. Slot-major order
    # reads a first chunk of slot 0 alone, so slot 1 arrives after the
    # grids have been widened.
    cfg = _tiny_config(num_bidders=4, num_rounds=4200, stage_plan=(2100, 2100), seed=9)
    log = generate_market(cfg)
    path = tmp_path / "m.csv"
    write_market_csv(log, str(path))
    header, *rows = path.read_text().splitlines()
    if slot_major:
        rows.sort(key=lambda line: int(line.split(",")[2]))
        assert all(line.split(",")[2] == "0" for line in rows[:CHUNK_ROWS])
    assert rows[-1].split(",")[2] == "1"
    path.write_text("\n".join([header, *rows[:-1], rows[-3]]) + "\n")
    with pytest.raises(SchemaError, match="duplicate rows left gaps"):
        read_market_csv(str(path), cfg.stage_plan, log.tcpa)


def test_market_csv_header_only_for_a_one_cell_grid_has_no_data_rows(tmp_path):
    # A 1x1 grid fits the file's size, so the reader gets as far as counting rows.
    path = tmp_path / "m.csv"
    path.write_text(MARKET_CSV_HEADER + "\n")
    with pytest.raises(SchemaError, match="m.csv has no data rows"):
        read_market_csv(str(path), (1,), np.array([2.0]))


@pytest.mark.parametrize("where", ["header", "later_chunk"])
def test_market_csv_that_is_not_utf8_is_a_schema_error(tmp_path, where):
    # The later-chunk byte sits in the last row of a file of two chunks,
    # past the first chunk's text; either way the error names the CSV.
    cfg = _tiny_config(num_bidders=4, num_slots=2, num_rounds=2100, stage_plan=(1000, 1100), seed=3)
    log = generate_market(cfg)
    path = tmp_path / "m.csv"
    write_market_csv(log, str(path))
    raw = path.read_bytes()
    assert raw.count(b"\n") > CHUNK_ROWS + 1
    at = 2 if where == "header" else raw.rindex(b",", 0, len(raw) - 1) + 1
    bad = tmp_path / "bad.csv"
    bad.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
    with pytest.raises(SchemaError, match="bad.csv.*not UTF-8"):
        read_market_csv(str(bad), cfg.stage_plan, log.tcpa)


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_market_csv_path_that_is_not_a_file_is_a_missing_input(tmp_path, kind):
    path = tmp_path / "m.csv"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(MissingInputError, match="m.csv"):
        read_market_csv(str(path), (3, 3), np.ones(3))


def _assert_replays_live(back, log):
    """back holds log's rates and targets, and its outcome overrides equal
    live sampling for every (round, bidder, slot) triple."""
    for name in ("ctr", "cvr", "value", "tcpa"):
        np.testing.assert_array_equal(getattr(back, name), getattr(log, name), err_msg=name)
    rr, mm, kk = (a.ravel() for a in np.indices(log.ctr.shape))
    for live, replayed in zip(sample_outcomes(log, rr, mm, kk), sample_outcomes(back, rr, mm, kk)):
        np.testing.assert_array_equal(live, replayed)


# (bidders, slots) that divide each row count: 16,383 = 5,461 x 3 x 1,
# 16,384 = 1,024 x 4 x 4 and 16,385 = 3,277 x 5 x 1 rows.
@pytest.mark.parametrize("rows,bidders,slots", [
    (CHUNK_ROWS - 1, 3, 1), (CHUNK_ROWS, 4, 4), (CHUNK_ROWS + 1, 5, 1),
])
def test_market_csv_roundtrip_at_chunk_boundaries(tmp_path, rows, bidders, slots):
    N = rows // (bidders * slots)
    cfg = _tiny_config(num_bidders=bidders, num_slots=slots, num_rounds=N, stage_plan=(N // 2, N - N // 2), seed=rows)
    log = generate_market(cfg)
    path = tmp_path / "m.csv"
    write_market_csv(log, str(path))
    assert path.read_text().count("\n") == rows + 1
    _assert_replays_live(read_market_csv(str(path), cfg.stage_plan, log.tcpa, seed=cfg.seed), log)


@pytest.mark.parametrize("order", ["shuffled", "by_slot"])
def test_market_csv_rows_in_any_order(tmp_path, order):
    # 36,000 rows, three chunks. Sorted by slot, the first chunk holds no
    # slot-2 row, so the grid widens after rows have been scattered into it.
    cfg = _tiny_config(num_bidders=4, num_slots=3, num_rounds=3000, stage_plan=(1000, 2000), seed=4)
    log = generate_market(cfg)
    path = str(tmp_path / "m.csv")
    write_market_csv(log, path)
    header, *rows = Path(path).read_text().splitlines()
    if order == "shuffled":
        rows = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    else:
        rows.sort(key=lambda row: int(row.split(",")[2]))
    reordered = str(tmp_path / "reordered.csv")
    _write_lines(reordered, [header] + rows)
    back = read_market_csv(reordered, cfg.stage_plan, log.tcpa, seed=cfg.seed)
    in_order = read_market_csv(path, cfg.stage_plan, log.tcpa, seed=cfg.seed)
    for name in ("ctr", "cvr", "value", "tcpa", "click_override", "conv_override"):
        np.testing.assert_array_equal(getattr(back, name), getattr(in_order, name), err_msg=name)
    _assert_replays_live(back, log)


def test_market_csv_refuses_a_grid_larger_than_the_file(tmp_path):
    # The grids are sized from stage_plan and tcpa before a row is read; a
    # plan of 10**15 rounds is refused, not allocated.
    cfg = _tiny_config(seed=8)
    log = generate_market(cfg)
    path = str(tmp_path / "m.csv")
    write_market_csv(log, path)
    with pytest.raises(SchemaError, match="m.csv"):
        read_market_csv(path, (10 ** 15,), log.tcpa)


def test_market_csv_round_trip_memory_is_bounded(tmp_path):
    # Twelve chunks of rows (6,144 rounds x 8 bidders x 4 slots). The writer
    # holds one chunk of rows and their text, whatever the table's length;
    # the reader holds its grids, a small multiple of the arrays it returns,
    # plus one chunk of lines and parsed values.
    cfg = _tiny_config(num_bidders=8, num_slots=4, num_rounds=6144, stage_plan=(3072, 3072), seed=12)
    log = generate_market(cfg)
    path = str(tmp_path / "m.csv")
    tracemalloc.start()
    try:
        write_market_csv(log, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_market_csv(path, cfg.stage_plan, log.tcpa, seed=cfg.seed)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in (back.ctr, back.cvr, back.value, back.click_override, back.conv_override))
    assert write_peak < 640 * CHUNK_ROWS, write_peak  # 10 MiB
    assert read_peak < 3 * returned + 256 * CHUNK_ROWS, (read_peak, returned)


def test_replay_overrides_gate_conversions_by_click():
    cfg = _tiny_config(num_bidders=1, num_rounds=2, num_slots=1, stage_plan=(2,))
    log = generate_market(cfg)
    log = MarketLog(
        config=cfg,
        tcpa=log.tcpa,
        ctr=log.ctr,
        cvr=log.cvr,
        value=log.value,
        click_override=np.array([[[0]], [[1]]], dtype=np.uint8),
        conv_override=np.array([[[1]], [[1]]], dtype=np.uint8),
    )
    y, z = sample_outcomes(log, np.array([0, 1]), np.array([0, 0]), np.array([0, 0]))
    assert list(y) == [0, 1]
    assert list(z) == [0, 1]
