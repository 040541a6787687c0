"""Bulk matrix-file I/O against the line-loop reader and writer it replaced.

The reference functions below are the per-line reader and per-value writer
``eqkit.io`` used before its bulk paths.  Every file the writer produces must
match the reference byte for byte, every text the reference reads must give
the same matrix, and every text it rejects must give the same ``ParseError``
message, line number included.
"""

import os

import numpy as np
import pytest

from eqkit import io as eqio
from eqkit.errors import ParseError
from eqkit.io import read_matrix, write_matrix

# ---- reference: the line loops --------------------------------------------


def ref_parse_csv(text, path):
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


def ref_parse_matrix_market(text, path):
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
    return np.asarray(values, dtype=float).reshape((c, r)).T


def ref_read(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if os.path.splitext(path)[1].lower() == ".mtx":
        M = ref_parse_matrix_market(text, path)
    else:
        M = ref_parse_csv(text, path)
    bad = np.argwhere(~np.isfinite(M))
    if bad.size:
        i, j = bad[0]
        raise ParseError(f"{path}: entry ({i + 1}, {j + 1}) is {M[i, j]}, not a finite number")
    return M


def ref_write(path, M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
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


# ---- helpers ---------------------------------------------------------------

EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            0.1, -0.1, 1.0 / 3.0, 2.2250738585072014e-308, 1e22, 123456789.0]


def bits(M):
    return np.ascontiguousarray(M, dtype=float).view(np.uint64)


def outcome(read, path):
    try:
        return "ok", read(str(path))
    except ParseError as exc:
        return "ParseError", str(exc)


def assert_same_read(path):
    new, ref = outcome(read_matrix, path), outcome(ref_read, path)
    assert new[0] == ref[0], (new, ref)
    if new[0] == "ok":
        assert new[1].shape == ref[1].shape
        assert np.array_equal(bits(new[1]), bits(ref[1]))  # -0.0 included
    else:
        assert new[1] == ref[1]


# ---- writer ----------------------------------------------------------------


@pytest.mark.parametrize("ext", ["csv", "mtx"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 3), (3, 5), (40, 40)])
def test_writer_matches_reference_bytes(tmp_path, rng, ext, shape):
    M = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    flat = M.ravel()
    flat[: len(EXTREMES)] = EXTREMES[: flat.size]
    write_matrix(str(tmp_path / f"new.{ext}"), M)
    ref_write(str(tmp_path / f"ref.{ext}"), M)
    assert (tmp_path / f"new.{ext}").read_bytes() == (tmp_path / f"ref.{ext}").read_bytes()


@pytest.mark.parametrize("ext", ["csv", "mtx"])
@pytest.mark.parametrize("M", [np.arange(4.0), [[1.5]], np.zeros((2, 0)),
                               [[np.nan, np.inf, -np.inf]]], ids=["1-D", "list", "empty", "non-finite"])
def test_writer_matches_reference_bytes_on_odd_inputs(tmp_path, ext, M):
    write_matrix(str(tmp_path / f"new.{ext}"), M)
    ref_write(str(tmp_path / f"ref.{ext}"), M)
    assert (tmp_path / f"new.{ext}").read_bytes() == (tmp_path / f"ref.{ext}").read_bytes()


# ---- round trip ------------------------------------------------------------


@pytest.mark.parametrize("ext", ["csv", "mtx"])
def test_round_trip_is_bit_exact(tmp_path, rng, ext):
    M = np.concatenate([EXTREMES, rng.standard_normal(12 * 12 - len(EXTREMES))]).reshape(12, 12)
    p = str(tmp_path / f"m.{ext}")
    write_matrix(p, M)
    back = read_matrix(p)
    assert back.shape == M.shape
    assert np.array_equal(bits(back), bits(M))
    assert np.signbit(back.ravel()[0])  # -0.0 keeps its sign


# ---- reader: accepted inputs -----------------------------------------------

ACCEPTED = [
    ("m.csv", "1,2\n3,4\n"),
    ("m.csv", "# 2 2\n1,2\n3,4\n"),
    ("m.csv", "# 2 2\n1,2\n3,4"),
    ("m.csv", "\n1,2\n\n3,4\n\n"),
    ("m.csv", "# made by hand\n1,2\n# 2 2\n3,4\n"),
    ("m.csv", "# note\n1,2\n3,4\n"),
    ("m.csv", "1,2\n# trailing comment\n"),
    ("m.csv", "1,2\n# 3,4\n5,6\n"),
    ("m.csv", "  1 ,\t2\n 3,  4  \n"),
    ("m.csv", "1,2\r\n3,4\r\n"),
    ("m.csv", "   # 1 2\n1,2\n"),
    ("m.csv", "1e-3,-0.0,+5,1_000\n"),
    ("m.csv", "\xa01,2\xa0\n"),
    ("m.mtx", "%%MatrixMarket matrix array real general\n2 2\n1\n3\n2\n4\n"),
    ("m.mtx", "%%MatrixMarket matrix array real general\n% made by hand\n2 2\n1\n3\n2\n4\n"),
    ("m.mtx", "%%MatrixMarket matrix array real general\n2 2\n1\n% inside the data\n3\n\n2\n4\n"),
    ("m.mtx", "%%MatrixMarket matrix array real general\n2 1\n1\n% 7\n3\n"),
    ("m.mtx", "%%MatrixMarket matrix array real general\n2 3\n1 2 3\n4 5\n6\n"),
    ("m.mtx", "%%MatrixMarket matrix array real general\n\n2 1\n  1  \n\t-0.0\n"),
    ("m.mtx", "%%MatrixMarket Matrix Array Real General\r\n1 2\r\n5e-324\r\n-1.7976931348623157e308\r\n"),
    ("m.mtx", "%%MatrixMarket matrix array real\n1 1\n7"),
]


@pytest.mark.parametrize("name, text", ACCEPTED)
def test_reader_accepts_what_the_line_loop_accepts(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8", newline="")
    assert outcome(ref_read, p)[0] == "ok"
    assert_same_read(p)


# ---- reader: rejected inputs -----------------------------------------------

REJECTED = [
    ("m.csv", "1,2\n3,x\n"),                  # bad token
    ("m.csv", "1,2\n3,4,\n"),                 # empty token
    ("m.csv", "1,2\n3\n"),                    # ragged row
    ("m.csv", "1,2\n3,4,5\n6\n"),             # ragged rows with the right total count
    ("m.csv", "# 2 2\n1,2\n"),                # header mismatch
    ("m.csv", "# 3 1\n1,2\n3,4\n"),
    ("m.csv", ""),                            # no data rows
    ("m.csv", "# 1 2\n"),
    ("m.csv", "1,2\n3,nan\n"),                # non-finite
    ("m.csv", "1,-inf\n"),
    ("m.csv", "1,2\n\n3,Infinity\n"),
    ("m.mtx", ""),
    ("m.mtx", "just some text\n2 2\n1\n2\n3\n4\n"),
    ("m.mtx", "%%MatrixMarket matrix coordinate real general\n2 2\n"),
    ("m.mtx", "%%MatrixMarket matrix array real general\n"),          # no size line
    ("m.mtx", "%%MatrixMarket matrix array real general\n2 2 2\n1\n"),
    ("m.mtx", "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n"),      # wrong count
    ("m.mtx", "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n5\n"),
    ("m.mtx", "%%MatrixMarket matrix array real general\n2 1\n1\n2x\n"),        # bad token
    ("m.mtx", "%%MatrixMarket matrix array real general\n% c\n2 1\n1\n\nbad\n"),
    ("m.mtx", "%%MatrixMarket matrix array real general\n2 1\n1\nnan\n"),       # non-finite
    ("m.mtx", "%%MatrixMarket matrix array real general\n1 2\n-inf 1\n"),
]


@pytest.mark.parametrize("name, text", REJECTED)
def test_reader_rejects_with_the_line_loop_message(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8", newline="")
    assert outcome(ref_read, p)[0] == "ParseError"
    assert_same_read(p)


def test_bad_token_message_names_its_line(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("# 3 2\n1,2\n3,4\n5,oops\n")
    with pytest.raises(ParseError, match=r"m\.csv:4: could not convert string to float: 'oops'"):
        read_matrix(str(p))


# ---- the bulk paths are the ones taken -------------------------------------


@pytest.mark.parametrize("ext, loop", [("csv", "_loop_csv"), ("mtx", "_loop_mtx")])
def test_written_files_are_read_without_the_line_loop(tmp_path, rng, monkeypatch, ext, loop):
    M = rng.standard_normal((30, 20))
    p = str(tmp_path / f"m.{ext}")
    write_matrix(p, M)

    def refuse(*args):
        raise AssertionError("line loop used on a well-formed file")

    monkeypatch.setattr(eqio, loop, refuse)
    assert np.array_equal(read_matrix(p), M)


# ---- .mtx line boundaries --------------------------------------------------

# Every line boundary of str.splitlines; str.split treats each as whitespace.
LINE_ENDS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("head_end", LINE_ENDS, ids=[repr(e) for e in LINE_ENDS])
def test_mtx_header_and_size_line_end_in_any_line_boundary(tmp_path, monkeypatch, head_end):
    """The bulk reader cuts lines 1 and 2 off where splitlines would.  Reading a
    file turns \\r and \\r\\n into \\n, so the text is also parsed as it is."""
    p = tmp_path / "m.mtx"
    head = "%%MatrixMarket matrix array real general" + head_end
    for size_end in LINE_ENDS:
        text = f"{head}2 2{size_end}1 3{size_end}2 4{head_end}"
        assert eqio._bulk_mtx(text) == ([1.0, 3.0, 2.0, 4.0], (2, 2))
        p.write_text(text, encoding="utf-8", newline="")
        assert_same_read(p)
        with monkeypatch.context() as m:
            m.setattr(eqio, "_loop_mtx", None)  # the bulk path reads it
            assert np.array_equal(read_matrix(str(p)), [[1.0, 2.0], [3.0, 4.0]])
        for bad in ["2 2 2", "", "% c"]:  # fall back to the line loop
            p.write_text(f"{head}{bad}{size_end}1 3{size_end}2 4\n", encoding="utf-8", newline="")
            assert_same_read(p)


@pytest.mark.parametrize("name, data", [
    ("m.csv", b"1,2\n3,\xff\n"),
    ("m.mtx", b"%%MatrixMarket matrix array real general\n1 1\n\xe9\n"),
])
def test_non_utf8_file_is_a_parse_error(tmp_path, name, data):
    p = tmp_path / name
    p.write_bytes(data)
    with pytest.raises(ParseError, match=rf"^{p}: not UTF-8 text \(invalid .* at byte \d+\)$"):
        read_matrix(str(p))
