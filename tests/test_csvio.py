"""write_table against the per-row f-string writer it replaced."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from auctionlab.csvio import _KERNEL_MIN, CHUNK_ROWS, TableWriter, _format_column, _repr_cells, write_table
from auctionlab.errors import ContractViolation


def reference_write(path, header, columns):
    """The per-row, per-cell writer the artifact CSVs were first written with:
    repr(float(v)) for float columns, int(v) for integer ones."""
    kinds = [np.asarray(c).dtype.kind for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            cells = [repr(float(v)) if kind == "f" else f"{int(v)}" for v, kind in zip(row, kinds)]
            fh.write(f"{','.join(cells)}\n")


def assert_same_bytes(tmp_path, header, columns):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_table(str(got), header, columns)
    reference_write(str(want), header, columns)
    assert got.read_bytes() == want.read_bytes()


SPECIAL_FLOATS = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-05, 0.1 + 0.2, 1.0, -2.5]


@pytest.mark.parametrize("repeats", [1, 40])
def test_special_floats(tmp_path, repeats):
    # 40 repeats make the column mostly repeated values, the format-once path.
    values = np.array(SPECIAL_FLOATS * repeats)
    assert_same_bytes(tmp_path, "x,y", [values, values[::-1].copy()])


@pytest.mark.parametrize(
    "values",
    [
        [1.5, 0.0, 2.25] * 100,  # repeated values, no -0.0
        [1.5, -0.0, 2.25] * 100,  # -0.0 alongside ...
        [1.5, -0.0, 0.0, 2.25] * 100,  # ... and together with 0.0
        [1.5, np.nan, 2.25] * 100,
        list(np.random.default_rng(0).random(1000)),  # all distinct
    ],
)
def test_repeated_and_distinct_float_columns(tmp_path, values):
    assert_same_bytes(tmp_path, "v", [np.array(values)])


def test_repeated_floats_keep_zeros_and_nans_apart(tmp_path):
    # Each value four times in a row: the format-once path, keyed on the bits,
    # with more distinct values than the kernel's cut-off. Both zeros, both
    # infinities, a negative nan and a nan with a payload.
    special = np.array([1 << 63, 0, 0x7FF << 52, 0xFFF << 52, 0xFFF8 << 48, 0x7FF0000000000123], dtype=np.uint64)
    distinct = np.concatenate([special.view(np.float64), np.random.default_rng(31).standard_normal(2 * _KERNEL_MIN)])
    assert_same_bytes(tmp_path, "v", [np.repeat(distinct, 4)])


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
def test_narrow_and_wide_float_columns(tmp_path, dtype):
    # Written as float(v) prints each value: float16/32 widened exactly,
    # longdouble rounded to a double. Mostly distinct, and each value of the
    # first _KERNEL_MIN four times in a row.
    values = (np.random.default_rng(5).standard_normal(4 * _KERNEL_MIN) * 1000).astype(dtype) / dtype(3)
    values[:5] = [-0.0, 0.0, np.inf, -np.inf, np.nan]
    assert_same_bytes(tmp_path, "distinct,repeated", [values, np.repeat(values[:_KERNEL_MIN], 4)])


@pytest.mark.parametrize(
    "values",
    [np.arange(5), np.array([3, 10 ** 6]), np.array([True, False]), np.array([0.5] * 600), np.array(["é", ""])],
)
def test_cells_are_one_uint8_matrix(values):
    cells = _format_column(values, ",")
    assert cells.dtype == np.uint8 and cells.shape[0] == values.size and cells.ndim == 2


def test_integer_columns(tmp_path):
    near = 2 ** 53
    big = np.array([near - 1, near, near + 1, -near, 0, 2 ** 63 - 1, -(2 ** 63)] * 3, dtype=np.int64)
    small = np.arange(big.size, dtype=np.int64) % 4
    assert_same_bytes(tmp_path, "big,small", [big, small])


# n = 300 values spanning 2n - 1 (each offset formatted once) or 2n (the other
# paths), from the bottom and the top of each dtype's range.
@pytest.mark.parametrize(
    "dtype,lo",
    [(np.int64, -(2 ** 63)), (np.int64, -7), (np.int64, 2 ** 63 - 601), (np.uint64, 0),
     (np.uint64, 2 ** 64 - 601), (np.int16, 32767 - 600)],
)
def test_dense_integer_ranges(tmp_path, dtype, lo):
    n = 300
    offsets = np.random.default_rng(lo % 1000).integers(0, 2 * n - 1, size=n)
    columns = []
    for top in (2 * n - 1, 2 * n):
        offsets[:2] = (0, top)
        columns.append(np.array([lo + int(o) for o in offsets], dtype=dtype))
    assert_same_bytes(tmp_path, "dense,wide", columns)


def test_narrow_integer_dtypes(tmp_path):
    u8 = np.array([0, 1, 255, 7, 1, 0] * 50, dtype=np.uint8)
    i8 = np.array([-100, 100, 0, -1] * 75, dtype=np.int8)
    i16 = np.array([-32768, 32767] * 150, dtype=np.int16)
    flag = np.array([True, False, False] * 100)
    assert_same_bytes(tmp_path, "u8,i8,i16,flag", [u8, i8, i16, flag])


def test_header_only_table(tmp_path):
    empty = np.zeros(0)
    assert_same_bytes(tmp_path, "a,b", [empty, empty.astype(np.int64)])
    assert (tmp_path / "got.csv").read_text() == "a,b\n"


# A table one chunk long, and one of 65,536 rows (four whole chunks, the
# chunk size before it became 16,384), each one row short and one row over.
@pytest.mark.parametrize("rows", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 65535, 65536, 65537])
def test_chunk_boundaries(tmp_path, rows):
    rng = np.random.default_rng(rows)
    index = np.arange(rows, dtype=np.int64)
    score = rng.random(rows)
    bid = rng.choice([0.5, 1.25, 3.0], size=rows)
    click = (rng.random(rows) < 0.5).astype(np.uint8)
    assert_same_bytes(tmp_path, "round,score,bid,click", [index, score, bid, click])


def test_string_columns_and_lists(tmp_path):
    # A str cell is written as its UTF-8 text, an empty one as nothing.
    write_table(str(tmp_path / "t.csv"), "name,rate", [["per_stage", "checkpoint", "DFP:débito", ""], [0.5, float("nan"), 1.0, 2.0]])
    assert (tmp_path / "t.csv").read_bytes() == "name,rate\nper_stage,0.5\ncheckpoint,nan\nDFP:débito,1.0\n,2.0\n".encode()


def test_mismatched_columns_are_refused(tmp_path):
    with pytest.raises(ContractViolation):
        write_table(str(tmp_path / "t.csv"), "a,b", [np.zeros(3)])
    with pytest.raises(ContractViolation):
        write_table(str(tmp_path / "t.csv"), "a,b", [np.zeros(3), np.zeros(2)])


def test_table_writer_appends_each_write(tmp_path):
    # Rows written in uneven pieces, empty ones and one longer than a chunk
    # among them, give write_table's bytes for the whole columns.
    rng = np.random.default_rng(5)
    n = CHUNK_ROWS + 700
    columns = [np.arange(n), rng.random(n), (rng.random(n) < 0.5).astype(np.uint8)]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_table(str(want), "a,b,c", columns)
    edges = [0, 0, 3, 600, 600, CHUNK_ROWS + 650, n]
    with TableWriter(str(got), "a,b,c") as out:
        for lo, hi in zip(edges, edges[1:]):
            out.write([c[lo:hi] for c in columns])
    assert got.read_bytes() == want.read_bytes()
    # A refused write adds nothing to the rows written before it.
    with TableWriter(str(got), "a,b,c") as out:
        out.write([c[:3] for c in columns])
        with pytest.raises(ContractViolation):
            out.write([columns[0][3:5], columns[1][3:6], columns[2][3:6]])
        with pytest.raises(ContractViolation):
            out.write(columns[:2])
    assert got.read_bytes().splitlines() == want.read_bytes().splitlines()[:4]


# The float kernel against repr. Every set holds at least _KERNEL_MIN values,
# so the kernel formats it rather than its small-chunk repr path.
@functools.cache
def _kernel_sets() -> dict:
    rng = np.random.default_rng(29)
    bits = rng.integers(0, 2 ** 63, 200_000, dtype=np.uint64) * np.uint64(2)
    bits += rng.integers(0, 2, 200_000, dtype=np.uint64)
    decades = np.concatenate([10.0 ** k * (1 + 9 * rng.random(2000)) for k in range(-6, 18)])
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    digits = [str(rng.integers(1, 10 ** int(rng.integers(1, 18)))) for _ in range(20_000)]
    decimal_strings = [f"{d}e{int(rng.integers(-30, 22))}" if i % 2 else f"0.{d}" for i, d in enumerate(digits)]
    return {
        # Every exponent, nan payloads, subnormals and both signs.
        "bit_patterns": bits.view(np.float64),
        "decades": np.concatenate([decades, np.nextafter(decades, -np.inf), np.nextafter(decades, np.inf)]),
        "powers_of_two": np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers]),
        # At most 17 digits: digit removal, down to one digit, and the strip
        # of repr's trailing zeros.
        "decimal_strings": np.array([float(v) for v in decimal_strings]),
        "special": np.tile(SPECIAL_FLOATS, _KERNEL_MIN // len(SPECIAL_FLOATS) + 1),
        # float32 widens exactly, as tolist does.
        "float32": np.concatenate([rng.integers(0, 2 ** 32, 50_000, dtype=np.uint64).astype(np.uint32).view(np.float32),
                                   rng.random(5000).astype(np.float32)]),
    }


def assert_repr_cells(values):
    got = [row.tobytes().replace(b"\0", b"").decode() for row in _repr_cells(values, "\n")]
    want = [repr(v) + "\n" for v in values.tolist()]
    assert len(got) == len(want)
    assert [(w, g) for w, g in zip(want, got) if w != g][:5] == []


def test_kernel_sets_cover_what_they_name():
    sets = _kernel_sets()
    assert min(v.size for v in sets.values()) >= _KERNEL_MIN
    bits = sets["bit_patterns"].view(np.uint64)
    assert np.unique(bits >> np.uint64(52) & np.uint64(0x7FF)).size == 2048
    assert (np.isnan(sets["bit_patterns"]) & (bits << np.uint64(13) != 0)).sum() > 10  # payloads beyond the quiet bit
    assert np.signbit(sets["bit_patterns"]).any() and not np.signbit(sets["bit_patterns"]).all()


@pytest.mark.parametrize("name", list(_kernel_sets()))
def test_kernel_matches_repr(name):
    assert_repr_cells(_kernel_sets()[name])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(arrays(np.float64, st.integers(_KERNEL_MIN, 3 * _KERNEL_MIN), elements=st.floats()))
def test_kernel_matches_repr_on_any_floats(values):
    assert_repr_cells(values)


@pytest.mark.parametrize("rows", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_kernel_columns_write_reference_bytes(tmp_path, rows):
    # Plain float columns, a float32 one, and one whose repeated values take
    # the format-once path with more distinct values than the cut-off.
    sets = _kernel_sets()
    rng = np.random.default_rng(rows)
    columns = [rng.choice(sets[name], rows) for name in ("bit_patterns", "decades", "decimal_strings", "float32")]
    columns.append(np.repeat(sets["decades"], 4)[:rows])
    assert_same_bytes(tmp_path, "bits,decades,decimal,f32,repeated", columns)
