"""Bulk matrix-file I/O against the line-loop reader and writer it replaced.

The reference functions below are the per-line reader and per-value writer
``eqkit.io`` used before its bulk paths.  Every file the writer produces must
match the reference byte for byte, every text the reference reads must give
the same matrix, and every text it rejects must give the same ``ParseError``
message, line number included.
"""

import os
import sys
import unicodedata

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
    if len(fields) > 4 and fields[4] != "general":  # symmetric files store one triangle
        raise ParseError(f"{path}: only 'general' Matrix Market files are supported, not {fields[4]!r}")
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
            try:
                dims = (int(parts[0]), int(parts[1]))
                if min(dims) < 0:
                    raise ValueError
            except ValueError:
                raise ParseError(f"{path}:{lineno}: size line {line!r} is not two nonnegative integers") from None
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
    ("m.mtx", "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n"),        # one triangle
    ("m.mtx", "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n2\n3\n"),    # full, still not general
    ("m.mtx", "%%MatrixMarket matrix array real skew-symmetric\n2 2\n0\n1\n-1\n0\n"),
]


@pytest.mark.parametrize("name, text", REJECTED)
def test_reader_rejects_with_the_line_loop_message(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8", newline="")
    assert outcome(ref_read, p)[0] == "ParseError"
    assert_same_read(p)


@pytest.mark.parametrize("qualifier", ["symmetric", "skew-symmetric", "hermitian"])
def test_mtx_symmetry_qualifier_is_named(tmp_path, qualifier):
    # Read as general, a symmetric file's n^2 values would pass for the full matrix.
    p = tmp_path / "m.mtx"
    p.write_text(f"%%MatrixMarket matrix array real {qualifier.upper()}\n2 2\n1\n2\n2\n3\n")
    message = f"{p}: only 'general' Matrix Market files are supported, not '{qualifier}'"
    assert outcome(ref_read, p) == outcome(read_matrix, p) == ("ParseError", message)


def test_negative_mtx_size_line_is_rejected_as_the_reference_rejects_it(tmp_path):
    """Found by tests/test_fuzz_cli.py: the reference once read '-1 -1' as a
    size and reported a value count instead of the size-line rule."""
    p = tmp_path / "m.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n-1 -1\n1 1\n1\n")
    message = f"{p}:2: size line '-1 -1' is not two nonnegative integers"
    assert outcome(ref_read, p) == outcome(read_matrix, p) == ("ParseError", message)


def test_bad_token_message_names_its_line(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("# 3 2\n1,2\n3,4\n5,oops\n")
    with pytest.raises(ParseError, match=r"m\.csv:4: could not convert string to float: 'oops'"):
        read_matrix(str(p))


# ---- where numpy's reader and float() could differ -------------------------

# numpy's reader parses each field with the function float() uses, but it
# refuses non-ASCII text and '_', skips blank lines and strips \x1f as
# whitespace.  Whatever it refuses or skips, and any row holding \x1f, is left
# to the line loop.  The CSV rows come first, then the .mtx rows.
MM = "%%MatrixMarket matrix array real general\n"
C_READER_EDGES = [
    ("quote", '"1",2\n3,4\n'),
    ("NUL", "1,2\n3,\x004\n"),
    ("NUL_alone", "1,2\n3,\x00\n"),
    ("BOM", "\ufeff1,2\n3,4\n"),
    ("BOM_before_header", "\ufeff# 2 2\n1,2\n3,4\n"),
    ("arabic_digit", "\u0661,2\n3,4\n"),
    ("underscore", "1_0,2\n3,4\n"),
    ("nan_payload", "nan(1),2\n3,4\n"),
    ("hex_float", "0x1p3,2\n3,4\n"),
    ("empty_field", "1,,2\n3,4,5\n"),
    ("trailing_comma", "1,2,\n3,4,\n"),
    ("tab", "1\t,\t2\n\t3,4\t\n"),
    ("unit_separator_at_line_ends", "\x1f1,2\x1f\n3,4\n"),
    ("unit_separator_inside_a_line", "1,\x1f2\n3\x1f,4\n"),  # float() does not strip it; numpy would
    ("no_break_space", "\xa01,2\n3,\xa04\n"),
    ("ideographic_space", "\u30001,2\n3,4\u3000\n"),
    ("CRLF", "# 2 2\r\n1,2\r\n3,4\r\n"),
    ("blank_row", "# 2 2\n1,2\n\n3,4\n"),
    ("whitespace_row", "# 2 2\n1,2\n \t \n3,4\n"),
    ("whitespace_row_one_column", "1\n  \n2\n"),
    ("header_no_rows", "# 2 2\n"),
    ("header_blank_rows", "# 2 2\n\n\n"),
    ("blank_rows", "\n\n"),
    ("single_row", "# 1 3\n1,2,3\n"),
    ("single_column", "# 3 1\n1\n2\n3\n"),
    ("single_entry", "-0.0"),
    ("signs_and_case", "+5,-0.0,.5,5.,1E-3,-4.9e-324\n"),
    ("overflow", "1e999,2\n"),
    ("nan_signed", "-nan,2\n"),
    ("inside_space", "1 2,3\n"),
    ("mtx_quote", MM + '2 1\n"1"\n2\n'),
    ("mtx_NUL", MM + "2 1\n1\n\x002\n"),
    ("mtx_BOM", MM + "2 1\n\ufeff1\n2\n"),
    ("mtx_BOM_before_banner", "\ufeff" + MM + "1 1\n1\n"),
    ("mtx_arabic_digit", MM + "2 1\n\u0661\n2\n"),
    ("mtx_underscore", MM + "2 1\n1_0\n2\n"),
    ("mtx_nan_payload", MM + "2 1\nnan(1)\n2\n"),
    ("mtx_hex_float", MM + "2 1\n0x1p3\n2\n"),
    ("mtx_comma", MM + "2 1\n1,2\n"),
    ("mtx_hash_comment", MM + "1 1\n# 5\n"),
    ("mtx_comment_after_data", MM + "1 1\n5\n% end\n"),
    ("mtx_tab", MM + "2 1\n\t1\t\n2\n"),
    ("mtx_tab_between", MM + "1 2\n1\t2\n"),
    ("mtx_unit_separator_at_line_ends", MM + "2 1\n\x1f1\x1f\n2\n"),
    ("mtx_unit_separator_between", MM + "1 2\n1\x1f2\n"),  # str.split splits at it
    ("mtx_no_break_space_between", MM + "1 2\n1\xa02\n"),
    ("mtx_ideographic_space", MM + "2 1\n\u30001\n2\u3000\n"),
    ("mtx_CRLF", MM.replace("\n", "\r\n") + "2 1\r\n1\r\n2\r\n"),
    ("mtx_blank_row", MM + "2 1\n1\n\n2\n"),
    ("mtx_whitespace_row", MM + "2 1\n1\n \t \n2\n"),
    ("mtx_whitespace_row_last", MM + "1 1\n5\n   \n"),
    ("mtx_whitespace_body", MM + "1 1\n \n"),  # numpy would warn "input contained no data"
    ("mtx_whitespace_body_rows", MM + "1 1\n\t\n \n\n"),
    ("mtx_whitespace_body_empty_matrix", MM + "0 0\n \n"),
    ("mtx_empty_matrix", MM + "0 3\n"),
    ("mtx_ragged_rows", MM + "2 3\n1 2 3\n4 5\n6\n"),
    ("mtx_one_row", MM + "2 2\n1 3 2 4\n"),
    ("mtx_size_line_last", MM + "1 1"),
    ("mtx_signs_and_case", MM + "6 1\n+5\n-0.0\n.5\n5.\n1E-3\n-4.9e-324\n"),
    ("mtx_overflow", MM + "1 1\n1e999\n"),
    ("mtx_nan_signed", MM + "1 1\n-nan\n"),
]


@pytest.mark.parametrize("name, text", [("m.mtx" if i.startswith("mtx_") else "m.csv", t) for i, t in C_READER_EDGES],
                         ids=[i for i, _ in C_READER_EDGES])
def test_reader_matches_the_line_loop_where_numpy_and_float_differ(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8", newline="")
    assert_same_read(p)


# Every code point that is Latin-1, whitespace, a decimal digit or a control or
# format character, placed before, inside, after and instead of a value.
SWEEP_CODE_POINTS = [chr(c) for c in range(sys.maxunicode + 1)
                     if c < 256 or chr(c).isspace() or chr(c).isdecimal()
                     or unicodedata.category(chr(c)) in ("Cc", "Cf")]
SWEEP_PLACES = {
    "m.csv": ["{}1,2\n3,4\n", "1,{}2\n3,4\n", "1,2{}\n3,4\n", "1{}0,2\n3,4\n", "{},2\n3,4\n",
              "# 2 2\n1,2\n{}\n3,4\n"],
    "m.mtx": [MM + "2 1\n{}1\n2\n", MM + "2 1\n1{}\n2\n", MM + "1 2\n1{}2\n", MM + "2 1\n1{}0\n2\n",
              MM + "1 1\n{}\n", MM + "2 1\n1\n{}\n2\n", MM + "1 1\n5\n{}\n"],
}


def parse_outcome(parse, text, name):
    try:
        return "ok", bits(parse(text, name)).tolist()
    except ParseError as exc:
        return "ParseError", str(exc)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(SWEEP_PLACES))
def test_code_point_sweep_matches_the_line_loop(name):
    """Each text is parsed as it is, without a file's newline translation."""
    new, ref = ((eqio._parse_matrix_market, ref_parse_matrix_market) if name == "m.mtx"
                else (eqio._parse_csv, ref_parse_csv))
    bad = [(place, ch) for place in SWEEP_PLACES[name] for ch in SWEEP_CODE_POINTS
           if parse_outcome(new, place.format(ch), name) != parse_outcome(ref, place.format(ch), name)]
    assert bad == [], f"{len(bad)} mismatches, first {bad[:5]}"


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


@pytest.mark.parametrize("ext, loop", [("csv", "_loop_csv"), ("mtx", "_loop_mtx")])
@pytest.mark.parametrize("shape", [(30, 20), (1, 5), (5, 1), (1, 1)])
def test_written_file_is_one_loadtxt_call(tmp_path, rng, monkeypatch, ext, loop, shape):
    M = rng.standard_normal(shape)
    p = str(tmp_path / f"m.{ext}")
    write_matrix(p, M)
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    monkeypatch.setattr(eqio, loop, None)  # never reached
    back = read_matrix(p)
    assert len(calls) == 1
    assert back.shape == M.shape and np.array_equal(bits(back), bits(M))


# ---- .mtx line boundaries --------------------------------------------------

# Every line boundary of str.splitlines; str.split treats each as whitespace.
LINE_ENDS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("head_end", LINE_ENDS, ids=[repr(e) for e in LINE_ENDS])
def test_mtx_header_and_size_line_end_in_any_line_boundary(tmp_path, monkeypatch, head_end):
    """The bulk reader takes the header, size and data lines where splitlines
    ends them.  Reading a file turns \\r and \\r\\n into \\n, so the text is
    also parsed as it is."""
    p = tmp_path / "m.mtx"
    head = "%%MatrixMarket matrix array real general" + head_end
    for size_end in LINE_ENDS:
        text = f"{head}2 2{size_end}1 3{size_end}2 4{head_end}"
        p.write_text(text, encoding="utf-8", newline="")
        assert_same_read(p)
        with monkeypatch.context() as m:
            m.setattr(eqio, "_loop_mtx", None)  # the bulk path reads it
            assert np.array_equal(eqio._parse_matrix_market(text, "m.mtx"), [[1.0, 2.0], [3.0, 4.0]])
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
