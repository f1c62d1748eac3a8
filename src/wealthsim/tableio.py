"""Plain-text tables: CSV with '#'-prefixed metadata, lossless floats.

Every exported file follows the same shape::

    # params_hash: 5f1c2b...
    # seed: 17
    # units: t=days, mean_wealth=currency
    t,mean_wealth
    0,1000
    30,1000.0000000000001

Metadata lines come before the header, one ``# key: value`` each. Floats are
serialized with 17 significant digits so that reading a file back reproduces
the written float64 values bit-for-bit; integer-valued columns are written
and read as integers (seeds are 64-bit, wider than a float64 mantissa).

``format_value`` is the one definition of a cell. A column is int64 or
float64 in native byte order, the two dtypes ``read_table`` returns;
``write_table`` refuses every other dtype, str included, and writes the
columns through the backend's ``backends.write_rows``, which gives the
bytes ``format_value`` gives. Rows are formatted and written in blocks of
about ``BLOCK_CELLS`` cells, so the text held in memory stays small however
long or wide the table is.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import backends
from ._kernels_py import format_value
from .errors import ParseError

_INT_RE = re.compile(r"^[+-]?\d+$")

# Cells formatted and written at a time, in blocks of whole rows
# (BLOCK_CELLS // columns); bounds the text held in memory.
BLOCK_CELLS = 16384


def _check_writable(header: Sequence[str], cols: Sequence[np.ndarray],
                    metadata: Dict[str, str]) -> None:
    """Refuse what read_table could not return intact: it splits lines at
    commas, strips header names and metadata, ends a metadata key at the
    first ':', keys columns by name, skips blank lines and lines starting
    with '#', and returns every column as native int64 or float64."""
    line = ",".join(header)
    if not line.strip() or line.startswith("#"):
        raise ValueError(f"header {header!r} would read as a blank or comment line")
    for name in header:
        if any(ch in name for ch in ",\n\r") or name != name.strip():
            raise ValueError(f"header name {name!r} contains a comma, a newline "
                             "or surrounding whitespace")
    if len(set(header)) != len(header):
        raise ValueError(f"header {header!r} repeats a name")
    for key, value in metadata.items():
        key, value = str(key), str(value)
        if (any(ch in key + value for ch in "\n\r") or ":" in key
                or key != key.strip() or value != value.strip()):
            raise ValueError(f"metadata entry {key!r}: {value!r} contains a newline, "
                             "a ':' in the key or surrounding whitespace")
    for name, c in zip(header, cols):
        if c.dtype not in (np.int64, np.float64):
            raise ValueError(f"column {name!r} has dtype {c.dtype}; a column must be "
                             "int64 or float64 in native byte order")


def write_table(path, header: Sequence[str], columns: Sequence[np.ndarray],
                metadata: Dict[str, str]) -> None:
    """Write a metadata-headed CSV with '\\n' newlines. Columns must be 1-d,
    equally long, and int64 or float64 in native byte order: the columns
    read_table returns.

    Raises ValueError, before the file is opened, for any other shape or
    dtype and for a table that would not read back (see ``_check_writable``).
    """
    if len(header) != len(columns):
        raise ValueError("one header name per column required")
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0]) if cols and cols[0].ndim else 0
    for c in cols:
        if c.shape != (n,):
            raise ValueError("all columns must be 1-d and equally long")
    _check_writable(header, cols, metadata)
    cols = [np.ascontiguousarray(c) for c in cols]  # after the shape check: 0-d -> (1,)
    with open(path, "wb") as fh:
        head = [f"# {k}: {v}\n" for k, v in metadata.items()] + [",".join(header), "\n"]
        fh.write("".join(head).encode("utf-8"))
        backends.write_rows(fh, cols, max(1, BLOCK_CELLS // len(cols)))


def read_table(path) -> Tuple[Dict[str, str], List[str], Dict[str, np.ndarray]]:
    """Read a table written by write_table.

    Returns (metadata, header, columns); a column is int64 when every one of
    its cells is a plain integer literal, else float64. Raises ParseError for
    ragged rows, a missing header and a cell that is neither (naming its
    column).
    """
    metadata: Dict[str, str] = {}
    header: List[str] = []
    rows: List[List[str]] = []
    problems: List[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                if header:
                    continue  # stray comment after header: ignore
                body = line[1:].strip()
                key, sep, value = body.partition(":")
                if sep:
                    metadata[key.strip()] = value.strip()
                continue
            cells = line.split(",")
            if not header:
                header = [c.strip() for c in cells]
                continue
            if len(cells) != len(header):
                problems.append(f"line {ln}: expected {len(header)} cells, got {len(cells)}")
                continue
            rows.append(cells)
    if not header:
        problems.append("no header line found")
    if problems:
        raise ParseError(problems)

    columns = {name: _typed_column(name, [r[j] for r in rows])
               for j, name in enumerate(header)}
    return metadata, header, columns


def _typed_column(name: str, cells: List[str]) -> np.ndarray:
    """Column ``name`` as read_table types it: int64 when every cell is a
    plain integer literal, else float64. Raises ParseError naming the column
    for an integer literal outside int64 or a cell float() does not parse."""
    if cells and all(_INT_RE.match(c) for c in cells):
        try:
            return np.array([int(c) for c in cells], dtype=np.int64)
        except OverflowError:
            raise ParseError([f"column {name!r} holds an integer outside int64"]) from None
    try:
        return np.array([float(c) for c in cells], dtype=np.float64)
    except ValueError as exc:
        raise ParseError([f"column {name!r}: {exc}"]) from None
