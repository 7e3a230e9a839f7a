"""The one CSV writer behind every artifact table.

A cell holds ``repr`` of its value when the column is floating point (the
shortest string that reads back as the same double) and ``str`` otherwise,
exactly what a per-row ``f"{int(v)}"``/``f"{repr(float(v))}"`` writer prints.
The same table therefore always gives the same bytes.

Tables are written one chunk of rows at a time: each chunk's columns are
formatted whole (``tolist`` plus ``map``) and joined into one string, so peak
memory holds one chunk's cells rather than a Python string per cell of the
whole table. Whole columns are sliced CHUNK_ROWS rows at a time; a caller
that builds its rows as it goes (the market CSV) passes an iterator of
chunks instead, so the whole table never exists at once. An integer chunk
whose values span less than twice its length formats each value of the span
once and gathers the strings by offset; any other numeric chunk that repeats
few distinct values formats each of them once and gathers the strings by
index. A bool column prints 1/0.

A column may also be given as one ``str``, its cells joined by newlines:
text formatted once can then be written into later tables as it is. A float
chunk with mostly distinct values (a rounds table's ``score``) costs one
``repr`` per cell, the bulk of writing a table; ``write_rounds_csv`` keeps
that text with the market's outcome passes and passes it back this way. A
chunk from an iterator may also give a column as a list of ready cells
(``str``): ``write_market_csv`` formats each (round, bidder) pair's cvr and
value once and repeats the text over the pair's slots.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .errors import ContractViolation

CHUNK_ROWS = 1 << 14
# Numeric columns whose first _PROBE values are at most half distinct take the
# format-once path; a mostly distinct column would only pay for the sort.
_PROBE = 256


def _format_column(col: np.ndarray) -> list[str]:
    """The cells of one nonempty chunk of a column, top to bottom."""
    if col.dtype.kind == "b":
        col = col.view(np.uint8)  # 1/0, as int(v) prints a bool
    kind = col.dtype.kind
    if kind not in "iuf":
        return list(map(str, col.tolist()))
    if kind in "iu":
        lo, hi = col.min(), col.max()
        if int(hi) - int(lo) < 2 * col.size:
            # A dense range: format each value in it once and gather by the
            # offset from lo, taken in the unsigned type of the same width,
            # where it cannot overflow.
            unsigned = np.dtype(f"u{col.itemsize}")
            offset = col.view(unsigned) - np.asarray(lo).view(unsigned)
            return np.array(list(map(str, range(int(lo), int(hi) + 1))), dtype=object)[offset].tolist()
    to_str = repr if kind == "f" else str
    head = col[:_PROBE]
    if (
        # A set counts the head's distinct values: np.unique without indices
        # imports numpy.ma (14 ms, 0.5 MB) in the middle of a table.
        2 * len(set(head.tolist())) <= head.size
        # np.unique merges -0.0 into 0.0; nan gets the plain path too.
        and not (kind == "f" and (np.isnan(col).any() or (np.signbit(col) & (col == 0.0)).any()))
    ):
        distinct, inverse = np.unique(col, return_inverse=True)
        return np.array(list(map(to_str, distinct.tolist())), dtype=object)[inverse].tolist()
    return list(map(to_str, col.tolist()))


def _chunk_length(header: str, cols: list) -> int:
    """The common length of one chunk's columns (arrays or lists of str
    cells), one per header field."""
    if len(cols) != header.count(",") + 1:
        raise ContractViolation(f"header {header!r} does not name {len(cols)} columns")
    lengths = {len(c) for c in cols}
    if len(lengths) > 1:
        raise ContractViolation(f"columns under {header!r} differ in length: {sorted(lengths)}")
    return lengths.pop()


def write_table(path: str, header: str, columns: Sequence | Iterator[Iterable]) -> None:
    """Write equal-length columns under a comma-separated header line.

    Args:
        path: output file, overwritten.
        header: the first line, without its newline.
        columns: one array-like per header field, all the same length; or
            an iterator of such lists, one per chunk of rows, written in
            turn. A chunk of at most CHUNK_ROWS rows keeps memory to one
            chunk's cells. A column given as one ``str`` holds its cells
            joined by newlines and is written as it is; so is a chunk's
            column given as a list of str cells.

    Raises:
        ContractViolation: column count or lengths do not match; whole
            columns are checked before the file is opened.
    """
    if not isinstance(columns, Iterator):
        cols = [np.asarray(c.split("\n") if isinstance(c, str) else c) for c in columns]
        n = _chunk_length(header, cols)
        columns = ([c[start:start + CHUNK_ROWS] for c in cols] for start in range(0, n, CHUNK_ROWS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for chunk in columns:
            block = [c.split("\n") if isinstance(c, str) else c if isinstance(c, list) else np.asarray(c)
                     for c in chunk]
            if _chunk_length(header, block):
                cells = [c if isinstance(c, list) else _format_column(c) for c in block]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
