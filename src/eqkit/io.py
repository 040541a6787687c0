"""Matrix file I/O.

Two formats, chosen by extension:

* ``.mtx`` — Matrix Market array format (dense, column-major values);
* anything else — CSV, one row per line, with an optional leading
  ``# rows cols`` header.

Values are written with 17 significant digits so a write/read round trip
reproduces the float64 entries exactly.

Both readers first try a bulk path: the data section is split once and
converted with Python's ``float``, so it accepts the same values as the
line loop.  The ``.mtx`` bulk path cuts only the header and size lines off
the text and never splits the data into lines.  Any irregularity (a
comment or blank line among the data, a ragged row, a bad token) sends the
text through the line loop, which reports the failing line as
``path:lineno: ...``.  A file that is not UTF-8 is a ``ParseError``.  The writer formats the
whole matrix with one ``%``-format of a ``%.17g`` template.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import IoError, ParseError

# The line boundaries of ``str.splitlines``.
_LINE_END = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


def _csv_header(line: str):
    """(rows, cols) from a stripped ``# rows cols`` line, or None for a plain comment."""
    fields = line[1:].split()
    if len(fields) == 2:
        try:
            return int(fields[0]), int(fields[1])
        except ValueError:
            pass
    return None


def _bulk_csv(lines: list[str]):
    """(matrix, header) when every line after an optional leading ``#`` line is a
    data row of one common width, else None."""
    head = lines[0].strip() if lines else ""
    has_head = head.startswith("#")
    rows = lines[1:] if has_head else lines
    if not rows:
        return None
    commas = rows[0].count(",")
    if any(r.count(",") != commas for r in rows):
        return None
    try:
        values = list(map(float, ",".join(rows).split(",")))
    except ValueError:
        return None
    return np.array(values).reshape(len(rows), commas + 1), (_csv_header(head) if has_head else None)


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
    m, expected = _bulk_csv(lines) or _loop_csv(lines, path)
    if expected is not None and m.shape != expected:
        raise ParseError(f"{path}: header says {expected}, data is {m.shape}")
    return m


def _mtx_dims(line: str) -> tuple[int, int]:
    """(rows, cols) from a size line; ValueError unless it is two nonnegative integers."""
    parts = line.split()
    if len(parts) != 2:
        raise ValueError("expected 'rows cols'")
    bad = ValueError(f"size line {line.strip()!r} is not two nonnegative integers")
    try:
        dims = (int(parts[0]), int(parts[1]))
    except ValueError:
        raise bad from None
    if min(dims) < 0:
        raise bad
    return dims


def _bulk_mtx(text: str):
    """(values, dims) when line 2 is the size line and no later line is a comment, else None.

    Lines 1 and 2 are cut off at the boundaries ``str.splitlines`` uses, and
    ``str.split`` treats each of those as whitespace, so the rest splits into
    the same tokens as its lines would, without a string per line.
    """
    head = _LINE_END.search(text)
    size = head and _LINE_END.search(text, head.end())
    if not size:
        return None
    try:
        dims = _mtx_dims(text[head.end():size.start()])
        return list(map(float, text[size.end():].split())), dims
    except ValueError:
        return None


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
    if not text:
        raise ParseError(f"{path}: empty file")
    head = _LINE_END.search(text)
    fields = text[: head.start() if head else len(text)].lower().split()
    if len(fields) < 4 or fields[0] != "%%matrixmarket" or fields[1] != "matrix":
        raise ParseError(f"{path}: not a Matrix Market file")
    if fields[2] != "array" or fields[3] != "real":
        raise ParseError(f"{path}: only 'array real' Matrix Market files are supported")
    values, (r, c) = _bulk_mtx(text) or _loop_mtx(text.splitlines(), path)
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
