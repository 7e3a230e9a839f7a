"""The one CSV writer behind every artifact table.

A cell holds ``repr`` of its value when the column is floating point (the
shortest string that reads back as the same double) and ``str`` otherwise,
exactly what a per-row ``f"{int(v)}"``/``f"{repr(float(v))}"`` writer prints.
The same table therefore always gives the same bytes.

Tables are written CHUNK_ROWS rows at a time: each chunk's columns are
formatted whole (``tolist`` plus ``map``) and joined into one string, so peak
memory holds one chunk's cells rather than a Python string per cell of the
whole table. A numeric column that repeats few distinct values formats each
of them once and gathers the strings by index. A bool column prints 1/0.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import ContractViolation

CHUNK_ROWS = 1 << 16
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
    to_str = repr if kind == "f" else str
    head = col[:_PROBE]
    if (
        2 * np.unique(head).size <= head.size
        # np.unique merges -0.0 into 0.0; nan gets the plain path too.
        and not (kind == "f" and (np.isnan(col).any() or (np.signbit(col) & (col == 0.0)).any()))
    ):
        distinct, inverse = np.unique(col, return_inverse=True)
        return np.array(list(map(to_str, distinct.tolist())), dtype=object)[inverse].tolist()
    return list(map(to_str, col.tolist()))


def write_table(path: str, header: str, columns: Sequence) -> None:
    """Write equal-length columns under a comma-separated header line.

    Args:
        path: output file, overwritten.
        header: the first line, without its newline.
        columns: one array-like per header field, all the same length.

    Raises:
        ContractViolation: column count or lengths do not match.
    """
    cols = [np.asarray(c) for c in columns]
    if len(cols) != header.count(",") + 1:
        raise ContractViolation(f"header {header!r} does not name {len(cols)} columns")
    lengths = {c.shape[0] for c in cols}
    if len(lengths) > 1:
        raise ContractViolation(f"columns under {header!r} differ in length: {sorted(lengths)}")
    n = lengths.pop()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, n, CHUNK_ROWS):
            cells = [_format_column(c[start:start + CHUNK_ROWS]) for c in cols]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
