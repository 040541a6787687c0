"""Property-based fuzz test of the command-line contract.

Every run goes in-process through ``cli.main`` over all six subcommands, on
small matrices with entries from 1e-300 to 1e300, zeros and repeated columns,
half of them with one column and ``.mtx`` ones also with no rows or columns,
on broken files (ragged, empty, not UTF-8, holding NaN, mangled text) and on
extreme ``--alpha``, ``--theta``, ``--tol`` and ``--n``.  Whatever the input:

* the exit code is 0, 1 or a documented code >= 10;
* with 0 or 1, stdout is one strict (RFC 8259) JSON report;
* otherwise stdout is empty and stderr is the one line ``eqkit <command>: ...``,
  which never names one of the run's own output files;
* an ``sr`` report on a one-column S has ``alpha_certified`` 0.0 or null;
* no exception escapes ``main``, which a console run would print as a
  traceback and exit 1;
* no warning is issued, which a console run would print on stderr: each run
  turns warnings into errors.

A second property reads mangled matrix texts with ``read_matrix`` and with the
line-loop reference of ``test_io``: both give the same bits or the same
``ParseError``.  Example counts come from the hypothesis profiles registered in
``conftest.py``: a small derandomized one by default, ``--hypothesis-profile=ci``
for a longer run.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest

from eqkit import errors
from eqkit.cli import main
from eqkit.io import read_matrix
from test_io import LINE_ENDS, assert_same_read

given = pytest.importorskip("hypothesis").given
st = pytest.importorskip("hypothesis.strategies")

DOCUMENTED = {0, 1} | {
    cls.exit_code
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.EqkitError) and cls.exit_code >= 10
}

# ---- inputs ------------------------------------------------------------------

# Entries near DBL_MAX, where a column norm plus one entry passes DBL_MAX.  The
# scaled bases below stop at 1e308 and DBL_MAX/2: 1.25 * 2^1023 overflows.
TOP = [1e308, -1e308, 2.0**1023, np.finfo(float).max / 2]

entries = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0, 0.5] + TOP),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False),
)


@st.composite
def matrices(draw, max_side=6, square=False, min_side=1):
    """Matrices of min_side..max_side rows and columns, half of them with one column."""
    c = draw(st.one_of(st.just(1), st.integers(min_side, max_side)))
    r = c if square else draw(st.integers(min_side, max_side))
    if draw(st.booleans()):  # a well-conditioned base, scaled: most ops get past their checks
        M = np.eye(r, c) + 0.25 * np.array(draw(st.lists(
            st.floats(-1, 1), min_size=r * c, max_size=r * c))).reshape(r, c)
        M *= draw(st.sampled_from([1.0, 1e-300, 1e-160, 1e160, 1e300, -3.0, 1e308, -1e308, np.finfo(float).max / 2]))
    else:
        M = np.array(draw(st.lists(entries, min_size=r * c, max_size=r * c))).reshape(r, c)
    if c > 1 and draw(st.integers(0, 4)) == 0:
        i, j = draw(st.permutations(range(c)))[:2]
        M[:, j] = M[:, i]  # a repeated column
    return M


def matrix_text(M, ext):
    """The text ``write_matrix`` writes for M."""
    r, c = M.shape
    if ext == "mtx":
        return f"%%MatrixMarket matrix array real general\n{r} {c}\n" + "".join(
            "%.17g\n" % v for v in M.ravel(order="F"))
    return f"# {r} {c}\n" + "".join(",".join("%.17g" % v for v in row) + "\n" for row in M)


SNIPPETS = ["nan", "inf", "-inf", "x", ",", " ", "%", "% 7\n", "#", "# 2 2\n", "\n", "1", "-0.0",
            "1e999", "1_0", "\xa0", "\x1f", "%%MatrixMarket matrix array real general\n", "2 x\n", "-1 -1\n",
            '"', "\x00", "\ufeff", "\u0661", "nan(1)", "0x1p3", "\t", "\r\n"]


@st.composite
def mangled_texts(draw, square=False):
    """(extension, text): a written matrix with up to four edits."""
    ext = draw(st.sampled_from(["csv", "mtx"]))
    text = matrix_text(draw(matrices(max_side=4, square=square)), ext)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["line_end", "insert", "delete"]))
        if op == "line_end":  # the next line break becomes another boundary or whitespace
            j = text.find("\n", i)
            if j >= 0:
                text = text[:j] + draw(st.sampled_from(LINE_ENDS + ["\t", "  ", ""])) + text[j + 1:]
        elif op == "insert":
            text = text[:i] + draw(st.sampled_from(SNIPPETS)) + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    return ext, text


@st.composite
def input_files(draw, square=False):
    """(extension, bytes) of an input file: mostly well formed, some broken."""
    kind = draw(st.sampled_from(["matrix"] * 4 + ["mangled", "ragged", "empty", "latin-1", "nan"]))
    ext = draw(st.sampled_from(["csv", "mtx"]))
    if kind == "matrix":  # a .mtx size line may hold a 0; a CSV has at least one row
        return ext, matrix_text(draw(matrices(square=square, min_side=0 if ext == "mtx" else 1)), ext).encode()
    if kind == "mangled":
        ext, text = draw(mangled_texts(square=square))
        return ext, text.encode()
    if kind == "ragged":
        return "csv", b"1,2\n3\n"
    if kind == "empty":
        return ext, b""
    if kind == "latin-1":
        return ext, matrix_text(np.eye(2), ext).replace("1", "\xe9", 1).encode("latin-1")
    return ext, matrix_text(np.eye(2), ext).replace("0", "nan", 1).encode()


numbers = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 0.5, -0.2, 1.0, -1.0, 1 - 1e-16, -1 + 1e-16, 1e-300, 1e300, 90.0, 180.0]),
)
tolerances = st.one_of(st.floats(), st.sampled_from([1e-300, 1e-10, 1e-3, 1e300]))


def option(name, value):
    return f"--{name}={value!r}"  # '=' keeps '-inf' from reading as an option


# ---- the contract ------------------------------------------------------------


OUT = "out_"  # the prefix of every output file


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(workdir, command, file=None, *options):
    """Exit code, stdout and stderr of ``eqkit command [input] options``."""
    argv = [command]
    if file is not None:
        ext, data = file
        path = workdir / f"input.{ext}"
        path.write_bytes(data)
        argv.append(str(path))
    argv += [*options, f"--out={workdir}/{OUT}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach a console run's stderr
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def assert_contract(command, code, out, err):
    assert code in DOCUMENTED, (code, err)
    assert "Traceback" not in err
    if code in (0, 1):
        report = json.loads(out, parse_constant=reject_constant)
        assert report["command"] == command and report["passed"] is (code == 0)
    else:
        assert out == ""
        assert err.startswith(f"eqkit {command}: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert f"/{OUT}" not in err, err  # a file the run wrote itself reads back: the input is to blame


def angle_options(draw):
    which = draw(st.sampled_from(["alpha", "theta", None]))
    return [option(which, draw(numbers))] if which else []


def common_options(draw):
    opts = [f"--format={draw(st.sampled_from(['csv', 'mtx']))}"]
    if draw(st.booleans()):
        opts.append(option("tol", draw(tolerances)))
    return opts


@given(st.data())
def test_sr_contract(workdir, data):
    file = data.draw(input_files())
    opts = angle_options(data.draw) + common_options(data.draw)
    code, out, err = run(workdir, "sr", file, *opts)
    assert_contract("sr", code, out, err)
    report = json.loads(out) if code in (0, 1) else None
    if report and read_matrix(report["outputs"]["S"]).shape[1] == 1:
        # One unit vector is equiangular at every cosine; a column off unit length certifies at none.
        assert report["checks"]["alpha_certified"]["value"] in (0.0, None)


@given(st.data())
def test_dea_contract(workdir, data):
    file = data.draw(input_files(square=True))
    opts = angle_options(data.draw) + common_options(data.draw)
    assert_contract("dea", *run(workdir, "dea", file, *opts))


@given(st.data())
def test_inverse_contract(workdir, data):
    file = data.draw(st.one_of(st.none(), input_files(square=True)))
    opts = [f"--method={data.draw(st.sampled_from(['fast', 'generic']))}"] + common_options(data.draw)
    assert_contract("inverse", *run(workdir, "inverse", file, *opts))


@given(st.data())
def test_check_contract(workdir, data):
    file = data.draw(input_files())
    assert_contract("check", *run(workdir, "check", file, *common_options(data.draw)))


@given(st.data())
def test_sdst_contract(workdir, data):
    file = data.draw(input_files(square=True))
    if data.draw(st.booleans()):  # symmetric, the inputs sdst is meant for
        ext, _ = file
        M = data.draw(matrices(square=True))
        with np.errstate(over="ignore"):
            sym = M + M.T
        file = ext, matrix_text(sym if np.isfinite(sym).all() else M, ext).encode()
    which = data.draw(st.sampled_from(["alpha", "bound", None]))
    opts = common_options(data.draw)
    if which == "alpha":
        opts.append(option("alpha", data.draw(numbers)))
    elif which == "bound":
        opts.append("--find-alpha-bound")
    assert_contract("sdst", *run(workdir, "sdst", file, *opts))


@given(st.integers(-3, 64), st.one_of(st.none(), tolerances))
def test_frame_contract(workdir, n, tol):
    opts = [f"--n={n}"] + ([option("tol", tol)] if tol is not None else [])
    assert_contract("frame", *run(workdir, "frame", None, *opts))


# ---- the reader against the line loop ----------------------------------------


@given(mangled_texts())
def test_reader_matches_the_line_loop(workdir, ext_text):
    ext, text = ext_text
    path = workdir / f"read.{ext}"
    path.write_text(text, encoding="utf-8", newline="")
    assert_same_read(path)
