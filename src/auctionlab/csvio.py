"""The one CSV writer behind every artifact table.

A cell holds ``repr`` of its value when the column is floating point (the
shortest string that reads back as the same double) and ``str`` otherwise,
exactly what a per-row ``f"{int(v)}"``/``f"{repr(float(v))}"`` writer prints.
The same table therefore always gives the same bytes.

Tables are written one chunk of rows at a time. Each column of a chunk is
formatted whole into one cell matrix: zero-padded uint8, one row per cell
holding its UTF-8 text and separator ("," or, in the last column, a
newline). The chunk is its matrices side by side with the zero bytes
dropped, so memory holds one chunk's cells and no Python string per cell.
One writer, ``TableWriter``, takes the rows as they come: open it, write
columns as often as rows are ready (each write sliced CHUNK_ROWS rows at a
time), and leave its ``with`` block to close it. A caller that builds its
rows as it goes (the market CSV, a streamed rounds table) therefore never
holds the whole table; ``write_table`` is one write of whole columns.
Integer cells are built from the float kernel's ASCII digit words, with
no Python string per value; an integer chunk whose values span less than
twice its length formats each value of the span once and gathers rows by
offset; a float chunk that
repeats few distinct values (told apart by their bits) formats each once
and gathers rows by index. A bool column prints 1/0.

``_repr_cells`` prints exactly ``repr``'s text for a float chunk, computed
in NumPy in one pass over the chunk: Ryū's shortest round-trip digits from
64 x 128-bit products on uint64 lanes of 32-bit halves, then the digits as
ASCII words in one zero-padded matrix, the chunk's cell matrix. Values
off the path it verifies (nan, inf, zero-exponent and huge values, exact
powers of two, Ryū's trailing-zero case, and exponent-form text) and every
chunk below ``_KERNEL_MIN`` values keep ``repr``.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from types import SimpleNamespace

import numpy as np

from .errors import ContractViolation

CHUNK_ROWS = 1 << 14
# Float columns whose first _PROBE values are at most half distinct take the
# format-once path; a mostly distinct column would only pay for the sort.
_PROBE = 256

# The float kernel (_repr_cells) costs about 0.13 ms per pass before its
# per-value work; measured, it first beats map(repr) between 256 and 512
# values, so smaller chunks keep repr.
_KERNEL_MIN = 512
_M32 = np.uint64(0xFFFFFFFF)
_TEN = np.uint64(10)


def _mul128(a0: np.ndarray, a1: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high uint64 words of (a0 + a1 * 2**32) * d, for a0, a1 < 2**32:
    four 32 x 32-bit products, so every step is exact in uint64."""
    d0 = d & _M32
    d1 = d >> 32
    ll = a0 * d0
    lh = a0 * d1
    hl = a1 * d0
    d1 *= a1
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    ll &= _M32
    ll |= mid << 32
    d1 += (lh >> 32) + (hl >> 32) + (mid >> 32)
    return ll, d1


def _ryu_scaled(mv: np.ndarray, t: SimpleNamespace, E: np.ndarray) -> tuple[np.ndarray, ...]:
    """Ryū's vm, vr, vp: floor((mv + d) * C / 2**j) for d = -2, 0, 2, where
    C is the 125-bit multiplier 5**i * 2**-k of each value's exponent E."""
    cl, ch, s, r = t.cl[E], t.ch[E], t.s[E], t.r[E]
    a0, a1 = mv & _M32, mv >> 32
    lo, hi = _mul128(a0, a1, cl)
    h0, h1 = _mul128(a0, a1, ch)
    h0 += hi
    h1 += h0 < hi
    # (mv +- 2) * C = mv * C +- 2C, added to the 192-bit (lo, h0, h1) with carries.
    kl, kh = cl << 1, (ch << 1) | (cl >> 63)
    up = kh + ((lo + kl) < kl)
    h0p = h0 + up
    down = kh + (lo < kl)
    return (((h0 - down) >> s) | ((h1 - (h0 < down)) << r), (h0 >> s) | (h1 << r),
            (h0p >> s) | ((h1 + (h0p < up)) << r))


@functools.cache
def _ryu_tables() -> SimpleNamespace:
    """The kernel's tables, built on its first call (not at import).

    Per biased exponent E of a double with e2 = E - 1077 < 0 (Ryū's e2,
    two bits below the mantissa) and q = floor(log10(5**-e2)) - 1 >= 2:
    Ryū's 125-bit 5**i multiplier (i = -e2 - q) as two uint64 words, the
    shift j as s = j - 64 and r = 128 - j, the mask that finds a trailing-
    zero vr (4 * m2 a multiple of 2**q), e10 = q + e2, and where vr gains a
    digit (so decpt = dec + (vr >= thr)). Every other E has zeros: its
    values take repr. Also the ASCII words of 4-digit groups and the masks
    that blank a group's leading digits."""
    i = np.arange(326)
    bits5 = (i * 1217359 >> 19) + 1  # bit length of 5**i
    pow5 = [5 ** k >> b - 125 if b > 125 else 5 ** k << 125 - b for k, b in enumerate(bits5.tolist())]
    E = np.arange(2048)
    e2 = np.minimum(E - 1077, -2)
    q = ((-e2 * 732923) >> 20) - 1
    ii = np.clip(-e2 - q, 0, 325)
    j = q + 125 - bits5[ii]
    valid = (E >= 1) & (q >= 2)  # e2 <= -5, so |x| < 2**50

    def per_exponent(values, dtype=np.uint64):
        return np.where(valid, values, 0).astype(dtype)

    t = SimpleNamespace(
        cl=per_exponent(np.array([c & 2 ** 64 - 1 for c in pow5], np.uint64)[ii]),
        ch=per_exponent(np.array([c >> 64 for c in pow5], np.uint64)[ii]),
        s=per_exponent(j - 64), r=per_exponent(128 - j),
        qmask=per_exponent((np.uint64(1) << np.minimum(q, 63).astype(np.uint64)) - np.uint64(1)),
        e10=per_exponent(q + e2, np.int64),
        p10=np.array([10 ** k for k in range(20)], np.uint64),
    )
    # vr of the smallest mantissa sets each exponent's digit count; vr below
    # twice that adds at most one digit.
    low = _ryu_scaled(np.full(2048, 1 << 54, np.uint64), t, E)[1]
    digits = np.searchsorted(t.p10, low, side="right")
    t.dec = per_exponent(digits + q + e2, np.int64)
    t.thr = per_exponent(t.p10[np.minimum(digits, 19)])
    d = np.arange(10000, dtype=np.uint16)  # small temporaries: RSS keeps a build's peak
    ascii4 = (np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1) + 48).astype(np.uint8)
    t.words = ascii4.view(np.uint32).ravel()
    # A field's lowest group holds 3 digits and then "." (the whole part) or
    # the cell's separator, "," or "\n" (the fraction, which ends the cell).
    t.low = {end: np.concatenate([ascii4[:1000, 1:], np.full((1000, 1), ord(end), np.uint8)], axis=1)
             .view(np.uint32).ravel() for end in ".,\n"}
    # Row 32 + k of masks[width] keeps a group's last k digits (all from
    # k = width on), and a 3-digit group's end byte always.
    k = np.arange(160)[:, None] - 32
    pos = np.arange(4)
    t.masks = {width: np.where((pos >= width - k) | (pos >= width), 255, 0).astype(np.uint8)
               .view(np.uint32).ravel() for width in (3, 4)}
    t.minus = np.frombuffer(b"\0\0\0-", np.uint32)[0]
    return t


def _digit_words(mat: np.ndarray, right: int, groups: int, val: np.ndarray, n: np.ndarray,
                 shown: np.ndarray, low: np.ndarray, t: SimpleNamespace) -> None:
    """Write val's last n digits (n >= its digit count, zero-filled) into
    the groups word columns of mat that end at column right, leading bytes
    zero: first a 3-digit group with low's end byte, then 4-digit groups
    leftwards. Only groups that some shown cell ends inside are masked."""
    nmin = int(n.min(where=shown, initial=99))
    for g in range(groups):
        width, first, base = (3, 0, np.uint64(1000)) if g == 0 else (4, 4 * g - 1, np.uint64(10000))
        q = val // base
        val -= q * base
        word = (low if g == 0 else t.words)[val.view(np.int64)]
        if nmin < first + width:
            word &= t.masks[width][n + (32 - first)]
        mat[:, right - g] = word
        val = q


def _repr_cells(values: np.ndarray, end: str) -> np.ndarray:
    """The cell matrix of ``repr(float(v)) + end`` for each v of a float array:
    the text computed in one pass over the whole array by Ryū's shortest
    round-trip digits (Adams, PLDI 2018) in integer NumPy arithmetic, so it
    is the same on every CPU. Every writer slices its columns to CHUNK_ROWS
    rows, which bounds a pass's uint64 temporaries to 128 KiB each. Chunks
    below _KERNEL_MIN values keep repr."""
    x = _float64(values)
    if x.size < _KERNEL_MIN:
        return _text_matrix(map(repr, x.tolist()), end)
    t = _ryu_tables()
    bits = x.view(np.uint64)
    E = (bits >> 52).view(np.int64) & 0x7FF
    mant = bits & np.uint64((1 << 52) - 1)
    mv = (mant | np.uint64(1 << 52)) << 2
    vm, vr, vp = _ryu_scaled(mv, t, E)
    decpt = t.dec[E] + (vr >= t.thr[E])
    # Off the verified path, repr writes the cell: zero or subnormal,
    # inf or nan or |x| >= 2**50 (all through the tables' zeros), an exact
    # power of two (a lower bound half as far), a trailing-zero vr (where
    # Ryū needs its general path), and decpt outside repr's fixed notation.
    ok = (mant != 0) & ((mv & t.qmask[E]) != 0) & (decpt >= -3) & (decpt <= 16)
    # Drop digits while (vm, vp] still holds a multiple of ten: the count is
    # where floor(vp / 10**k) > floor(vm / 10**k) stops holding, and once it
    # fails for a lane it fails for every larger k. Every verified lane
    # drops at least one.
    removed = np.ones(x.size, np.int64)
    p, m = vp // _TEN, vm // _TEN
    while True:
        p //= _TEN
        m //= _TEN
        more = p > m
        if not more.any():
            break
        removed += more
    kept = vr // t.p10[removed - 1]
    vr = kept // _TEN
    out = vr + ((vr == vm // t.p10[removed]) | (kept - vr * _TEN >= 5))
    shown = ok | ((bits << 1) == 0)  # zeros go through the kernel as 0.0 and -0.0
    out *= ok
    exp = (t.e10[E] + removed) * ok
    # The cell is [-] whole "." fraction: the fraction has -exp digits
    # (at least one), the whole part decpt (at least one).
    frac = np.maximum(-exp, 0)
    p = t.p10[np.minimum(frac, 19)]  # out < 10**17: a longer fraction has whole part 0
    whole = out // p
    fraction = out - whole * p
    whole *= t.p10[np.maximum(exp, 0)]
    fields = [(whole, np.maximum(decpt, 1), "."), (fraction, np.maximum(frac, 1), end)]
    # Word groups of 3, 4, 4, ... digits, enough for the longest shown field.
    groups = [1 + (max(int(n.max(where=shown, initial=1)) - 3, 0) + 3) // 4 for _, n, _ in fields]
    neg = (bits >> 63).astype(bool)
    sign = int(neg.any())  # a first word for "-" when some cell needs one
    mat = np.zeros((x.size, sign + sum(groups)), np.uint32)
    if sign:
        mat[neg, 0] = t.minus
    right = sign - 1
    for (val, n, sep), count in zip(fields, groups):
        right += count
        _digit_words(mat, right, count, val, n, shown, t.low[sep], t)
    cells = mat.view(np.uint8)
    if not shown.all():
        # repr over the lanes off the verified path, widened on the left to fit.
        text = _text_matrix(map(repr, x[~shown].tolist()), end)
        width = max(cells.shape[1], text.shape[1])
        cells = np.pad(cells, ((0, 0), (width - cells.shape[1], 0)))
        cells[~shown] = np.pad(text, ((0, 0), (width - text.shape[1], 0)))
    return cells


def _int_cells(values: np.ndarray, end: str) -> np.ndarray:
    """The cell matrix of str(v) + end for each v of an integer array: its
    decimal digits as the float kernel's ASCII words, after a "-" word in
    every row when some value is negative."""
    t = _ryu_tables()
    neg = values < 0
    # Magnitudes as uint64, where -(2**63) and 2**64 - 1 both fit.
    mag = values.astype(np.int64 if values.dtype.kind == "i" else np.uint64).view(np.uint64)
    np.negative(mag, out=mag, where=neg)
    n = np.maximum(np.searchsorted(t.p10, mag, side="right"), 1)
    groups = 1 + (max(int(n.max()) - 3, 0) + 3) // 4
    sign = int(neg.any())
    mat = np.zeros((values.size, sign + groups), np.uint32)
    if sign:
        mat[neg, 0] = t.minus
    _digit_words(mat, sign + groups - 1, groups, mag, n, True, t.low[end], t)
    return mat.view(np.uint8)


def _text_matrix(texts: Iterable[str], end: str) -> np.ndarray:
    """One zero-padded uint8 row per text, its UTF-8 bytes followed by end."""
    cells = np.array([(text + end).encode() for text in texts], dtype=bytes)
    return cells.view(np.uint8).reshape(cells.size, -1)


def _float64(values: np.ndarray) -> np.ndarray:
    """values as contiguous float64, as float(v) reads each (a signalling
    nan's quiet bit is set on the way, which float(v) does silently too)."""
    with np.errstate(invalid="ignore"):
        return np.ascontiguousarray(values, dtype=np.float64)


def _format_column(col: np.ndarray, end: str) -> np.ndarray:
    """The cell matrix of one nonempty chunk of a column, top to bottom,
    each row ending in end."""
    if col.dtype.kind == "b":
        col = col.view(np.uint8)  # 1/0, as int(v) prints a bool
    kind = col.dtype.kind
    if kind in "iu":
        lo, hi = col.min(), col.max()
        if int(hi) - int(lo) >= 2 * col.size:
            return _int_cells(col, end)
        # A dense range: format each value in it once and take rows (take is
        # faster than indexing) by the offset from lo, in the unsigned type
        # of the same width, where it cannot overflow.
        unsigned = np.dtype(f"u{col.itemsize}")
        base = np.asarray(lo).view(unsigned)
        offset = col.view(unsigned) - base
        span = (np.arange(int(hi) - int(lo) + 1, dtype=unsigned) + base).view(col.dtype)
        return _int_cells(span, end).take(offset, axis=0)
    if kind == "f":
        # Keyed on the float64 bits, so -0.0 and 0.0, and each nan, stay
        # apart. A set counts the head's distinct values: np.unique without
        # indices imports numpy.ma (14 ms, 0.5 MB) in the middle of a table.
        bits = _float64(col).view(np.uint64)
        head = bits[:_PROBE]
        if 2 * len(set(head.tolist())) <= head.size:
            distinct, inverse = np.unique(bits, return_inverse=True)
            return _repr_cells(distinct.view(np.float64), end).take(inverse, axis=0)
        return _repr_cells(bits.view(np.float64), end)
    return _text_matrix(map(str, col.tolist()), end)


def _column_length(header: str, cols: list[np.ndarray]) -> int:
    """The common length of the columns, one per header field."""
    if len(cols) != header.count(",") + 1:
        raise ContractViolation(f"header {header!r} does not name {len(cols)} columns")
    lengths = {len(c) for c in cols}
    if len(lengths) > 1:
        raise ContractViolation(f"columns under {header!r} differ in length: {sorted(lengths)}")
    return lengths.pop()


class TableWriter:
    """A CSV table written as its rows become ready: the header line when
    opened, then each ``write``'s rows. A context manager, which closes the
    file on any exit.

    Args:
        path: output file, overwritten.
        header: the first line, without its newline.
    """

    def __init__(self, path: str, header: str) -> None:
        self.header = header
        self._fh = open(path, "wb")
        self._fh.write(f"{header}\n".encode())

    def write(self, columns: Sequence) -> None:
        """Append rows: one array-like per header field, all the same
        length (none is fine), formatted CHUNK_ROWS rows at a time, so memory
        holds one chunk's cell matrices (see the module docstring).

        Raises:
            ContractViolation: column count or lengths do not match; nothing
                of this write reaches the file.
        """
        cols = [np.asarray(c) for c in columns]
        n = _column_length(self.header, cols)
        ends = [","] * (len(cols) - 1) + ["\n"]
        for start in range(0, n, CHUNK_ROWS):
            cells = [_format_column(c[start:start + CHUNK_ROWS], end) for c, end in zip(cols, ends)]
            # bytes.translate drops the zero bytes faster than np.compress does.
            self._fh.write(np.hstack(cells).tobytes().translate(None, b"\0"))

    def __enter__(self) -> TableWriter:
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()


def write_table(path: str, header: str, columns: Sequence) -> None:
    """Write equal-length columns under a comma-separated header line: one
    ``TableWriter`` write of whole columns.

    Args:
        path: output file, overwritten.
        header: the first line, without its newline.
        columns: one array-like per header field, all the same length.

    Raises:
        ContractViolation: column count or lengths do not match; the
            columns are checked before the file is opened.
    """
    cols = [np.asarray(c) for c in columns]
    _column_length(header, cols)
    with TableWriter(path, header) as out:
        out.write(cols)
