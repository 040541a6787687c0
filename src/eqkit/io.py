"""Matrix file I/O.

Two formats, chosen by extension:

* ``.mtx`` — Matrix Market array format (dense, column-major values);
* anything else — CSV, one row per line, with an optional leading
  ``# rows cols`` header.

Values are written with 17 significant digits so a write/read round trip
reproduces the float64 entries exactly.

Both readers first hand the data lines to one ``np.loadtxt`` call, which
converts each field with the C function ``float`` uses: CSV the rows after an
optional ``#`` header, split at commas; ``.mtx`` the lines after the size line,
split at whitespace, as one column-major value stream.  What numpy refuses
(non-ASCII, ``_``, quotes, a comment or blank line among the data, a ragged
CSV row), an all-blank body and lines holding ``\\x1f``, which numpy strips
and ``float`` does not, are left to the line loop, the second parser.  It
reads what ``float`` accepts and reports a failing line as
``path:lineno: ...``.  A file that is not UTF-8 is a ``ParseError``.  The
writer formats the whole matrix with one ``%``-format.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import IoError, ParseError


def _csv_header(line: str):
    """(rows, cols) from a stripped ``# rows cols`` line, or None for a plain comment."""
    fields = line[1:].split()
    if len(fields) == 2:
        try:
            return int(fields[0]), int(fields[1])
        except ValueError:
            pass
    return None


def _bulk(rows: list[str], delimiter):
    """The matrix numpy's reader makes of ``rows`` when it takes each as one row, else None."""
    # numpy's reader warns when every row is blank, and strips \x1f, which float() keeps.
    if any(r.strip() for r in rows) and not any("\x1f" in r for r in rows):
        try:
            m = np.loadtxt(rows, dtype=float, delimiter=delimiter, comments=None, ndmin=2)
        except ValueError:
            return None
        if len(m) == len(rows):  # it skips blank lines; the line loop reads those texts
            return m
    return None


def _loop_csv(lines: list[str], path: str):
    rows = []
    expected = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if expected is None:
                expected = _csv_header(line)
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
    return np.asarray(rows, dtype=float), expected


def _parse_csv(text: str, path: str) -> np.ndarray:
    lines = text.splitlines()
    head = lines[0].strip() if lines else ""
    has_head = head.startswith("#")
    m = _bulk(lines[1:] if has_head else lines, ",")
    if m is None:
        m, expected = _loop_csv(lines, path)
    else:
        expected = _csv_header(head) if has_head else None
    if expected is not None and m.shape != expected:
        raise ParseError(f"{path}: header says {expected}, data is {m.shape}")
    return m


def _mtx_dims(line: str) -> tuple[int, int]:
    """(rows, cols) from a size line; ValueError unless it is two nonnegative integers."""
    parts = line.split()
    if len(parts) != 2:
        raise ValueError("expected 'rows cols'")
    try:
        dims = int(parts[0]), int(parts[1])
        if min(dims) >= 0:
            return dims
    except ValueError:
        pass
    raise ValueError(f"size line {line.strip()!r} is not two nonnegative integers")


def _loop_mtx(lines: list[str], path: str):
    dims = None
    values = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        try:
            if dims is None:
                dims = _mtx_dims(line)
            else:
                values.extend(float(tok) for tok in line.split())
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if dims is None:
        raise ParseError(f"{path}: missing size line")
    return values, dims


def _parse_matrix_market(text: str, path: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    fields = lines[0].lower().split()
    if len(fields) < 4 or fields[0] != "%%matrixmarket" or fields[1] != "matrix":
        raise ParseError(f"{path}: not a Matrix Market file")
    if fields[2] != "array" or fields[3] != "real":
        raise ParseError(f"{path}: only 'array real' Matrix Market files are supported")
    try:
        dims = _mtx_dims(lines[1]) if len(lines) > 2 else None
    except ValueError:
        dims = None
    m = _bulk(lines[2:], None) if dims else None
    values, (r, c) = (m.ravel(), dims) if m is not None else _loop_mtx(lines, path)
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
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
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
    r, c = M.shape
    if os.path.splitext(path)[1].lower() == ".mtx":
        head = f"%%MatrixMarket matrix array real general\n{r} {c}\n"
        body = ("%.17g\n" * (r * c)) % tuple(M.ravel(order="F").tolist())
    else:
        head = f"# {r} {c}\n"
        body = ((",".join(["%.17g"] * c) + "\n") * r) % tuple(M.ravel().tolist())
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head + body)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
