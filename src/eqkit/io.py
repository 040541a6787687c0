"""Matrix file I/O.

Two formats, chosen by extension:

* ``.mtx`` — Matrix Market array format (dense, column-major values);
* anything else — CSV, one row per line, with an optional leading
  ``# rows cols`` header.

Values are written with 17 significant digits so a write/read round trip
reproduces the float64 entries exactly.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import IoError, ParseError


def _parse_csv(text: str, path: str) -> np.ndarray:
    rows = []
    expected = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            if expected is None and len(fields) == 2:
                try:
                    expected = (int(fields[0]), int(fields[1]))
                except ValueError:
                    pass  # plain comment
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{path}: ragged rows")
    m = np.asarray(rows, dtype=float)
    if expected is not None and m.shape != expected:
        raise ParseError(f"{path}: header says {expected}, data is {m.shape}")
    return m


def _parse_matrix_market(text: str, path: str) -> np.ndarray:
    lines = iter(text.splitlines())
    try:
        header = next(lines)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    fields = header.lower().split()
    if len(fields) < 4 or fields[0] != "%%matrixmarket" or fields[1] != "matrix":
        raise ParseError(f"{path}: not a Matrix Market file")
    if fields[2] != "array" or fields[3] != "real":
        raise ParseError(f"{path}: only 'array real' Matrix Market files are supported")
    dims = None
    values = []
    for lineno, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if dims is None:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'rows cols'")
            dims = (int(parts[0]), int(parts[1]))
            continue
        try:
            values.extend(float(tok) for tok in line.split())
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if dims is None:
        raise ParseError(f"{path}: missing size line")
    r, c = dims
    if len(values) != r * c:
        raise ParseError(f"{path}: expected {r * c} values, found {len(values)}")
    # Matrix Market array data runs down the columns.
    return np.asarray(values, dtype=float).reshape((c, r)).T


def read_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if os.path.splitext(path)[1].lower() == ".mtx":
        M = _parse_matrix_market(text, path)
    else:
        M = _parse_csv(text, path)
    bad = np.argwhere(~np.isfinite(M))
    if bad.size:
        i, j = bad[0]
        raise ParseError(f"{path}: entry ({i + 1}, {j + 1}) is {M[i, j]}, not a finite number")
    return M


def write_matrix(path: str, M) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            if os.path.splitext(path)[1].lower() == ".mtx":
                fh.write("%%MatrixMarket matrix array real general\n")
                fh.write(f"{M.shape[0]} {M.shape[1]}\n")
                for j in range(M.shape[1]):
                    for i in range(M.shape[0]):
                        fh.write(f"{M[i, j]:.17g}\n")
            else:
                fh.write(f"# {M.shape[0]} {M.shape[1]}\n")
                for row in M:
                    fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
