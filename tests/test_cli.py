"""End-to-end command-line tests.

Every subcommand runs in-process through ``main(argv)``; the smoke test of
the entry point declared in ``pyproject.toml`` and the tests that stderr stays
free of numpy warnings run ``python -m eqkit`` in a subprocess.  File parsing
gets its own section since every command leans on it.
"""

import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import eqkit
from eqkit import cli, errors
from eqkit.cli import build_parser, main
from eqkit.doubly import dea
from eqkit.ea import EquiangularMatrix, certify_equiangular, sr_decompose
from eqkit.factor import sdst_factor
from eqkit.frames import is_etf, simplex_frame
from eqkit.spectral import fast_inverse
from eqkit.errors import InvalidAlpha, InvalidAngle, InvalidShape, IoError, OutOfRange, ParseError
from eqkit.io import read_matrix, write_matrix


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


# ---- matrix files ----------------------------------------------------------


def test_csv_round_trip_exact(tmp_path, rng):
    M = rng.standard_normal((3, 5)) * 10.0 ** rng.integers(-8, 8, (3, 5))
    p = tmp_path / "m.csv"
    write_matrix(p, M)
    assert np.array_equal(read_matrix(p), M)  # 17 digits: bit-exact


def test_csv_headerless(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4\n")
    assert np.array_equal(read_matrix(p), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_header_is_checked(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("# 2 2\n1,2\n")
    with pytest.raises(ParseError, match="header says"):
        read_matrix(p)


def test_csv_comments_skipped(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("# produced by hand\n\n1,2\n")
    assert np.array_equal(read_matrix(p), [[1.0, 2.0]])


@pytest.mark.parametrize("text", ["1,2\n3\n", "1,x\n", "", "# 1 2\n"])
def test_csv_malformed(tmp_path, text):
    p = tmp_path / "m.csv"
    p.write_text(text)
    with pytest.raises(ParseError):
        read_matrix(p)


def test_mtx_round_trip(tmp_path, rng):
    for shape in [(1, 1), (4, 2), (3, 6)]:
        M = rng.standard_normal(shape)
        p = tmp_path / "m.mtx"
        write_matrix(p, M)
        assert np.array_equal(read_matrix(p), M)


def test_mtx_is_column_major(tmp_path):
    p = tmp_path / "m.mtx"
    write_matrix(p, [[1.0, 2.0], [3.0, 4.0]])
    body = [ln for ln in p.read_text().splitlines()[2:] if ln]
    assert [float(x) for x in body] == [1.0, 3.0, 2.0, 4.0]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "just some text\n2 2\n1\n2\n3\n4\n",
        "%%MatrixMarket matrix coordinate real general\n2 2\n",
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n",
    ],
)
def test_mtx_malformed(tmp_path, text):
    p = tmp_path / "m.mtx"
    p.write_text(text)
    with pytest.raises(ParseError):
        read_matrix(p)


@pytest.mark.parametrize(
    "name, text",
    [
        ("m.csv", "1,2\n3,nan\n"),
        ("m.csv", "1,-inf\n"),
        ("m.mtx", "%%MatrixMarket matrix array real general\n2 1\n1\ninf\n"),
    ],
)
def test_non_finite_values_are_parse_errors(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(ParseError, match=str(p)):
        read_matrix(p)


@pytest.mark.parametrize("size", ["2 x", "-1 -1", "1.5 2"], ids=["letter", "negative", "fraction"])
def test_bad_mtx_size_line_exits_11(tmp_path, capsys, size):
    # "-1 -1" with one value passes the count check, so it must be caught before the reshape.
    p = tmp_path / "bad.mtx"
    p.write_text(f"%%MatrixMarket matrix array real general\n{size}\n1\n")
    code, rep, err = run_cli(capsys, "check", p)
    assert code == ParseError.exit_code == 11
    assert rep is None
    assert err == f"eqkit check: {p}:2: size line '{size}' is not two nonnegative integers\n"


ZERO_DIMENSION_RUNS = {
    "sr": ["sr", "--alpha", "0.3"],
    "dea": ["dea", "--alpha", "0.3"],
    "inverse": ["inverse"],
    "sdst": ["sdst", "--alpha", "0.1"],
    "sdst-bound": ["sdst", "--find-alpha-bound"],
    "check": ["check"],
}


@pytest.mark.parametrize("fmt", ["csv", "mtx"])
@pytest.mark.parametrize("size", ["3 0", "0 0"])
@pytest.mark.parametrize("run", ZERO_DIMENSION_RUNS.values(), ids=ZERO_DIMENSION_RUNS.keys())
def test_zero_dimension_input_exits_27_and_writes_nothing(tmp_path, capsys, run, size, fmt):
    p = tmp_path / "empty.mtx"
    p.write_text(f"%%MatrixMarket matrix array real general\n{size}\n")
    command, *opts = run
    code, rep, err = run_cli(capsys, command, p, *opts, "--format", fmt, "--out", f"{tmp_path}/o_")
    assert (code, rep) == (InvalidShape.exit_code, None) == (27, None)
    r, c = size.split()
    assert err == f"eqkit {command}: {p} is a {r} x {c} matrix; it needs at least one row and one column\n"
    assert [q.name for q in tmp_path.iterdir()] == ["empty.mtx"]


def test_sdst_of_a_one_by_one_exits_27(tmp_path, capsys):
    p = tmp_path / "one.csv"
    write_matrix(p, [[2.0]])
    # One column has no cosine, so there is no bound on it either.
    for flags in (["--alpha", 0.1], ["--find-alpha-bound"]):
        code, rep, err = run_cli(capsys, "sdst", p, *flags, "--out", f"{tmp_path}/o_")
        assert (code, rep) == (27, None), flags
        assert err == "eqkit sdst: a basis at a common cosine needs n >= 2 columns, got a 1 x 1 matrix\n"
        assert [q.name for q in tmp_path.iterdir()] == ["one.csv"]


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        read_matrix(tmp_path / "nope.csv")


# ---- subcommands -----------------------------------------------------------


@pytest.fixture
def hfile(tmp_path, hilbert4):
    p = tmp_path / "hilbert.csv"
    write_matrix(p, hilbert4)
    return p


def test_sr_report_schema(tmp_path, hfile, hilbert4, capsys):
    code, rep, _ = run_cli(capsys, "sr", hfile, "--alpha", 0.5, "--out", f"{tmp_path}/")
    assert code == 0
    assert rep["command"] == "sr"
    assert rep["passed"] is True
    assert rep["parameters"] == {"alpha": 0.5}
    assert rep["input"]["sha256"] == hashlib.sha256(hfile.read_bytes()).hexdigest()
    assert set(rep["checks"]) == {"sr_residual", "alpha_certified", "r_diag_positive"}
    for chk in rep["checks"].values():
        assert chk["pass"] and chk["value"] <= chk["threshold"]
    S = read_matrix(rep["outputs"]["S"])
    R = read_matrix(rep["outputs"]["R"])
    assert np.linalg.norm(S @ R - hilbert4, 2) <= 1e-9
    assert np.min(np.diag(R)) > 0.0


def test_sr_theta_in_degrees(tmp_path, capsys):
    eye = tmp_path / "eye.csv"
    write_matrix(eye, np.eye(3))
    code, rep, _ = run_cli(capsys, "sr", eye, "--theta", 90, "--out", f"{tmp_path}/")
    assert code == 0
    assert abs(rep["parameters"]["alpha"]) <= 1e-15
    assert np.abs(read_matrix(rep["outputs"]["S"]) - np.eye(3)).max() <= 1e-9


@pytest.mark.parametrize("fmt", ["csv", "mtx"])
@pytest.mark.parametrize(
    "M, angle", [([[1.0], [2.0], [3.0]], ["--theta", 60]), ([[-4.0]], ["--alpha", 0.3])], ids=["3x1", "1x1"])
def test_sr_of_one_column_certifies_at_the_requested_cosine(tmp_path, capsys, M, angle, fmt):
    # One unit vector is equiangular at every cosine.
    p = tmp_path / "col.csv"
    write_matrix(p, M)
    code, rep, _ = run_cli(capsys, "sr", p, *angle, "--format", fmt, "--out", f"{tmp_path}/")
    assert code == 0 and rep["passed"] is True
    assert rep["checks"]["alpha_certified"]["value"] == 0.0


def test_sr_theta_alpha_exclusive(hfile):
    with pytest.raises(SystemExit) as exc:
        main(["sr", str(hfile), "--theta", "60", "--alpha", "0.5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["inverse", "--bench"], "--bench: not allowed with argument input"),
    (["sdst", "--alpha", "0.1", "--find-alpha-bound"], "--find-alpha-bound: not allowed with argument --alpha"),
], ids=["inverse", "sdst"])
def test_conflicting_modes_are_usage_errors(tmp_path, hfile, capsys, argv, message):
    # Neither mode may be dropped silently: inverse FILE --bench would report FILE as the input of a sweep.
    command, *opts = argv
    with pytest.raises(SystemExit) as exc:
        main([command, str(hfile), *opts, "--out", f"{tmp_path}/c_"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("c_*"))


@pytest.mark.parametrize("argv", [["sr", "m.csv"], ["dea", "m.csv"], ["sdst", "m.csv"], ["frame", "--n", "2"],
                                  ["check", "m.csv"]], ids=lambda argv: argv[0])
def test_seed_is_an_inverse_option_only(capsys, argv):
    assert build_parser().parse_args(["inverse", "--bench", "--seed", "3"]).seed == 3
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*argv, "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "abc", "1.5"])
def test_bad_seed_is_a_usage_error(tmp_path, capsys, seed):
    # np.random.default_rng raises an untyped ValueError for a negative seed.
    with pytest.raises(SystemExit) as exc:
        main(["inverse", "--bench", "--seed", seed, "--out", f"{tmp_path}/b_"])
    assert exc.value.code == 2
    assert f"argument --seed: expected a non-negative integer, got '{seed}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("b_*"))


def test_sr_angle_required(hfile, capsys):
    code, rep, err = run_cli(capsys, "sr", hfile)
    assert code == 13 and rep is None
    assert "eqkit sr" in err


def test_rank_deficient_writes_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    write_matrix(bad, np.ones((3, 3)))
    code, rep, err = run_cli(capsys, "sr", bad, "--alpha", 0.5, "--out", f"{tmp_path}/r_")
    assert code == 12 and rep is None
    assert not (tmp_path / "r_S.csv").exists()
    assert not (tmp_path / "r_R.csv").exists()


def test_missing_input_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sr", tmp_path / "absent.csv", "--alpha", 0.5)
    assert code == 10
    assert "cannot read" in err


def test_inverse_without_input_is_io_error(tmp_path, capsys):
    # No file to read is an I/O error, not an angle error.
    code = main(["inverse", "--out", f"{tmp_path}/o_"])
    captured = capsys.readouterr()
    assert code == IoError.exit_code == 10
    assert (captured.out, captured.err) == ("", "eqkit inverse: inverse needs an input file (or --bench)\n")
    assert list(tmp_path.iterdir()) == []


def test_readme_lists_every_exit_code():
    path = Path(__file__).resolve().parents[1] / "README.md"
    if not path.exists():
        pytest.skip("no README.md next to tests/")
    listed = dict(re.findall(r"^\| (\d+) \| `(\w+)` \|", path.read_text(encoding="utf-8"), re.M))
    classes = {
        str(cls.exit_code): cls.__name__
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.EqkitError) and cls is not errors.EqkitError
    }
    assert listed == classes


def test_readme_lists_every_etf_label():
    path = Path(__file__).resolve().parents[1] / "README.md"
    if not path.exists():
        pytest.skip("no README.md next to tests/")
    listed = re.findall(r"^\| `is_etf` \| `(\w+)` \|", path.read_text(encoding="utf-8"), re.M)
    # Twice e1 three times fails the Welch bound; twice a random frame fails constant coherence.
    emitted = [is_etf(2.0 * np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])).failed,
               is_etf(2.0 * np.random.default_rng(0).standard_normal((3, 5))).failed]
    assert sorted(set(sum(emitted, []))) == sorted(listed)
    for failed in emitted:
        assert failed == [label for label in listed if label in failed]  # in the table's order


def test_unparseable_input_exit_code(tmp_path, capsys):
    p = tmp_path / "m.csv"
    p.write_text("1,spam\n")
    code, _, _ = run_cli(capsys, "sr", p, "--alpha", 0.5)
    assert code == 11


@pytest.mark.parametrize(
    "command, value, code",
    [("sr", "2", 14), ("sr", "nan", 14), ("dea", "-1", 14), ("dea", "inf", 14)],
)
def test_bad_alpha_is_typed(hfile, capsys, command, value, code):
    got, rep, err = run_cli(capsys, command, hfile, "--alpha", value)
    assert got == code and rep is None
    assert err.startswith(f"eqkit {command}: --alpha") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
@pytest.mark.parametrize("command", ["sr", "frame"])
def test_bad_tol_is_typed(tmp_path, hfile, capsys, command, value):
    args = [hfile, "--alpha", 0.5] if command == "sr" else ["--n", 3]
    code, rep, err = run_cli(capsys, command, *args, "--tol", value, "--out", f"{tmp_path}/t_")
    assert code == 30 and rep is None
    assert err.startswith(f"eqkit {command}: --tol") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.glob("t_*"))


def test_failed_certification_is_strict_json(tmp_path, hfile, capsys):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    code = main(["sr", str(hfile), "--alpha", "0.5", "--tol", "1e-300", "--out", f"{tmp_path}/"])
    rep = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 1 and rep["passed"] is False
    assert rep["checks"]["alpha_certified"]["value"] is None
    assert rep["checks"]["alpha_certified"]["pass"] is False


def test_non_finite_input_is_typed(tmp_path, capsys):
    p = tmp_path / "nan.csv"
    p.write_text("1,nan\n3,4\n")
    code, rep, err = run_cli(capsys, "sr", p, "--alpha", 0.5, "--out", f"{tmp_path}/")
    assert code == 11 and rep is None
    assert str(p) in err and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "S.csv").exists()


def test_inverse_fast_vs_generic(tmp_path, rng, capsys):
    sfile = tmp_path / "s.csv"
    write_matrix(sfile, dea(rng.standard_normal((4, 4)), 0.3).mat)
    code, rep, _ = run_cli(
        capsys, "inverse", sfile, "--method", "fast", "--out", f"{tmp_path}/f_"
    )
    assert code == 0
    assert rep["parameters"]["method"] == "fast"
    assert rep["parameters"]["alpha"] == pytest.approx(0.3, abs=1e-9)
    assert rep["checks"]["inverse_residual"]["pass"]
    assert rep["wall_times"]["invert"] >= 0.0
    code, rep2, _ = run_cli(
        capsys, "inverse", sfile, "--method", "generic", "--out", f"{tmp_path}/g_"
    )
    assert code == 0
    fast = read_matrix(tmp_path / "f_inv.csv")
    gen = read_matrix(tmp_path / "g_inv.csv")
    assert np.abs(fast - gen).max() <= 1e-8


@pytest.mark.parametrize("fmt", ["csv", "mtx"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_inverse_of_a_one_by_one(tmp_path, capsys, sign, fmt):
    # One unit vector certifies at cosine 0, and G = [1] at every cosine, so S^-1 = S^T.
    p = tmp_path / f"one.{fmt}"
    write_matrix(p, [[sign]])
    for method in ("fast", "generic"):
        code, rep, _ = run_cli(capsys, "inverse", p, "--method", method, "--format", fmt,
                               "--out", f"{tmp_path}/{method}_")
        assert code == 0 and rep["passed"] is True
        assert rep["parameters"]["alpha"] == 0.0
        assert rep["checks"]["inverse_residual"]["value"] == 0.0
        assert read_matrix(rep["outputs"]["inverse"]).tolist() == [[sign]]


def test_inverse_rejects_non_equiangular(hfile, capsys):
    code, _, err = run_cli(capsys, "inverse", hfile)
    assert code == 15
    assert "does not certify" in err


def test_sr_calls_sr_decompose_once(tmp_path, hfile, capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return sr_decompose(*args)

    monkeypatch.setattr(cli, "sr_decompose", counted)
    code, _, _ = run_cli(capsys, "sr", hfile, "--alpha", 0.5, "--out", f"{tmp_path}/")
    assert code == 0 and len(calls) == 1


OUTPUT_RUNS = {
    "sr": ["sr", "--alpha", "0.3"],
    "inverse": ["inverse"],
    "sdst": ["sdst", "--alpha", "0.01"],
    "dea": ["dea", "--alpha", "0.3"],
    "frame": ["frame", "--n", "5"],
}


def _input_for(command, rng):
    if command == "inverse":  # equiangular
        return dea(rng.standard_normal((5, 5)), 0.4).mat
    if command == "sdst":  # symmetric with spectrum 1..5
        Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        return (Q * np.arange(1.0, 6.0)) @ Q.T
    return rng.standard_normal((5, 5))


def _library_outputs(command, A):
    """The matrices each subcommand of OUTPUT_RUNS writes, computed by the library, by file name."""
    if command == "sr":
        dec = sr_decompose(A, math.acos(0.3))
        return {"S": dec.S.mat, "R": dec.R}
    if command == "inverse":
        return {"inv": fast_inverse(EquiangularMatrix(A, certify_equiangular(A, 1e-10)))}
    if command == "sdst":
        fac = sdst_factor(A, 0.01)
        return {"S": fac.S.mat, "D": fac.D.reshape(1, -1)}
    if command == "dea":
        return {"S": dea(A, 0.3).mat}
    return {"S": simplex_frame(5).mat}


@pytest.mark.parametrize("fmt", ["csv", "mtx"])
@pytest.mark.parametrize("run", OUTPUT_RUNS.values(), ids=OUTPUT_RUNS.keys())
def test_output_files_are_the_library_results(tmp_path, capsys, run, fmt):
    command, *opts = run
    A, inputs = None, []
    if command != "frame":
        inputs = [tmp_path / f"a.{fmt}"]
        write_matrix(inputs[0], _input_for(command, np.random.default_rng(7)))
        A = read_matrix(inputs[0])
    code, _, _ = run_cli(capsys, command, *inputs, *opts, "--format", fmt, "--out", f"{tmp_path}/o_")
    assert code == 0
    want = _library_outputs(command, A)
    assert sorted(p.name for p in tmp_path.glob("o_*")) == sorted(f"o_{name}.{fmt}" for name in want)
    for name, M in want.items():
        ref = tmp_path / f"ref.{fmt}"
        write_matrix(ref, M)
        assert (tmp_path / f"o_{name}.{fmt}").read_bytes() == ref.read_bytes(), name


def test_sdst_command(tmp_path, capsys):
    afile = tmp_path / "a.csv"
    write_matrix(afile, np.diag([1.0, 2.0, 3.0]))
    code, rep, _ = run_cli(capsys, "sdst", afile, "--alpha", 0.1, "--out", f"{tmp_path}/")
    assert code == 0
    assert sum(rep["d"]) == pytest.approx(6.0, abs=1e-9)
    assert rep["checks"]["sdst_residual"]["pass"]
    assert rep["checks"]["trace_match"]["pass"]
    S = read_matrix(rep["outputs"]["S"])
    d = read_matrix(rep["outputs"]["D"]).ravel()
    assert np.linalg.norm(S @ np.diag(d) @ S.T - np.diag([1.0, 2.0, 3.0]), 2) <= 1e-7


def test_sdst_of_n_minus_1_zero_eigenvalues(tmp_path, capsys):
    """diag(0, 0, 1) factors at every cosine in (0, 1): its two zero eigenvalues are two roots d = 0."""
    afile = tmp_path / "a.csv"
    write_matrix(afile, np.diag([0.0, 0.0, 1.0]))
    code, rep, err = run_cli(capsys, "sdst", afile, "--alpha", 0.1, "--out", f"{tmp_path}/")
    assert (code, err) == (0, "")
    assert rep["passed"] is True
    assert rep["d"] == [0.0, 0.0, 1.0]
    assert read_matrix(rep["outputs"]["D"]).ravel().tolist() == [0.0, 0.0, 1.0]


def test_sdst_find_alpha_bound(tmp_path, capsys):
    afile = tmp_path / "a.csv"
    write_matrix(afile, np.diag([1.0, 2.0, 3.0]))
    code, rep, _ = run_cli(capsys, "sdst", afile, "--find-alpha-bound")
    assert code == 0
    assert rep["passed"] is True
    assert rep["checks"] == {}
    assert rep["alpha_real_root_bound"] == pytest.approx(0.18435064503288268, abs=1e-6)


def test_sdst_needs_alpha(tmp_path, capsys):
    afile = tmp_path / "a.csv"
    write_matrix(afile, np.diag([1.0, 2.0]))
    code, _, _ = run_cli(capsys, "sdst", afile)
    assert code == 13


def test_sdst_multiplicity_hint(tmp_path, capsys):
    afile = tmp_path / "a.csv"
    write_matrix(afile, np.diag([1.0, 1.0, 2.0]))
    code, _, err = run_cli(capsys, "sdst", afile, "--alpha", 0.2)
    assert code == 17
    assert "two_eigenvalue_factor" in err


def test_dea_then_check_round_trip(tmp_path, hfile, capsys):
    code, rep, _ = run_cli(capsys, "dea", hfile, "--alpha", 0.25, "--out", f"{tmp_path}/")
    assert code == 0
    assert set(rep["checks"]) == {"columns_gram", "rows_gram", "row_sums", "col_sums"}
    assert rep["certified_alpha"] == pytest.approx(0.25, abs=1e-9)
    code, chk, _ = run_cli(capsys, "check", rep["outputs"]["S"])
    assert code == 0 and chk["passed"] is True
    assert chk["equiangular_alpha"] == pytest.approx(0.25, abs=1e-9)
    assert chk["doubly_equiangular_alpha"] == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("alpha", [-0.9, 0.5])
def test_dea_one_by_one(tmp_path, capsys, alpha):
    p = tmp_path / "one.mtx"
    write_matrix(p, [[-2.5]])
    code, rep, _ = run_cli(capsys, "dea", p, "--alpha", alpha, "--out", f"{tmp_path}/")
    assert code == 0
    assert {k: v["pass"] for k, v in rep["checks"].items()} == dict.fromkeys(
        ["columns_gram", "rows_gram", "row_sums", "col_sums"], True)
    assert all(v["value"] == 0.0 for v in rep["checks"].values())


def test_check_orthonormal_is_etf(tmp_path, capsys):
    p = tmp_path / "q.csv"
    write_matrix(p, np.eye(3))
    code, rep, _ = run_cli(capsys, "check", p)
    assert code == 0
    assert rep["equiangular_alpha"] == pytest.approx(0.0, abs=1e-12)
    assert rep["etf"]["ok"] is True


def test_check_reports_failure_without_erroring(tmp_path, hfile, capsys):
    # `check` is a report, not a gate: non-equiangular input still exits 0
    code, rep, _ = run_cli(capsys, "check", hfile)
    assert code == 0
    assert rep["equiangular_alpha"] is None
    assert rep["etf"]["ok"] is False


def test_frame_command(tmp_path, capsys):
    code, rep, _ = run_cli(capsys, "frame", "--n", 3, "--out", f"{tmp_path}/")
    assert code == 0
    S = read_matrix(rep["outputs"]["S"])
    assert S.shape == (3, 4)
    assert set(rep["checks"]) == {"gram_offdiag", "unit_columns", "row_sums", "tight", "welch"}
    assert rep["passed"] is True


def test_frame_mtx_output(tmp_path, capsys):
    code, rep, _ = run_cli(
        capsys, "frame", "--n", 2, "--format", "mtx", "--out", f"{tmp_path}/"
    )
    assert code == 0
    assert rep["outputs"]["S"].endswith("S.mtx")
    S = read_matrix(rep["outputs"]["S"])
    assert np.abs(S - [[1.0, -0.5, -0.5], [0.0, math.sqrt(3) / 2, -math.sqrt(3) / 2]]).max() <= 1e-15


def test_inverse_bench(tmp_path, capsys):
    code, rep, _ = run_cli(capsys, "inverse", "--bench", "--out", f"{tmp_path}/")
    assert code == 0
    assert rep["checks"]["fast_exponent"]["pass"]       # ops slope <= 2.2
    assert rep["checks"]["generic_exponent_floor"]["pass"]  # ops slope >= 2.7
    assert rep["exponents"]["fast_ops"] <= 2.2
    assert rep["exponents"]["generic_ops"] >= 2.7
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[0] == "n,t_fast,t_generic"
    assert len(lines) == 5  # header + one row per size
    assert all(r["t_lapack"] > 0 for r in rep["bench"])  # np.linalg.inv, the dense baseline


def _run_module(*argv):
    """``python -m eqkit argv`` in a fresh process, against the same eqkit these
    tests imported and under Python's default warning filters."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    src = str(Path(eqkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "eqkit", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_console_script(tmp_path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["eqkit"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr, None) is main, target

    proc = _run_module("frame", "--n", "2", "--out", f"{tmp_path}/")
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["command"] == "frame" and rep["passed"] is True


# ---- inputs whose squares overflow, and files that are not UTF-8 -----------------


def _strict(out):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(out, parse_constant=reject)


@pytest.fixture
def huge(tmp_path):
    """diag(1e200, 1e200): finite, but its Gram products and spectrum powers overflow."""
    p = tmp_path / "huge.csv"
    write_matrix(p, np.diag([1e200, 1e200]))
    return p


@pytest.mark.parametrize("command", ["sr", "dea"])
def test_huge_identity_factors(tmp_path, capsys, huge, command):
    code = main([command, str(huge), "--alpha", "0.3", "--out", f"{tmp_path}/o_"])
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    assert _strict(captured.out)["passed"] is True


def test_check_of_an_overflowing_matrix(capsys, huge):
    code = main(["check", str(huge)])
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    rep = _strict(captured.out)
    assert rep["equiangular_alpha"] is None and rep["doubly_equiangular_alpha"] is None
    assert rep["etf"] == {"ok": False, "failed": ["unit_norms", "tight"], "coherence": 0.0,
                          "frame_constant": None}


def test_sdst_of_an_overflowing_spectrum(tmp_path, capsys, huge):
    # 1e200 I: the polynomial of r I has non-real roots at every scale.
    code, rep, err = run_cli(capsys, "sdst", huge, "--alpha", 0.3, "--out", f"{tmp_path}/o_")
    assert (code, rep) == (16, None)
    assert err == "eqkit sdst: 2 non-real roots at alpha=0.3\n"
    code = main(["sdst", str(huge), "--find-alpha-bound"])
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    assert _strict(captured.out)["alpha_real_root_bound"] == 0.0
    # A spectrum that factors still factors when scaled by 2**700.
    p = tmp_path / "big.csv"
    write_matrix(p, np.diag([1.0, 2.0, 3.0]) * 2.0**700)
    code, rep, _ = run_cli(capsys, "sdst", p, "--alpha", 0.1, "--out", f"{tmp_path}/o_")
    assert code == 0 and rep["passed"]


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["check"], 0, ""),
        (["sr", "--alpha", "0.3"], 0, ""),
        (["dea", "--alpha", "0.3"], 0, ""),
        (["sdst", "--find-alpha-bound"], 0, ""),
        (["sdst", "--alpha", "0.3"], 16, "eqkit sdst: 2 non-real roots at alpha=0.3\n"),
    ],
    ids=["check", "sr", "dea", "sdst_bound", "sdst_alpha"],
)
def test_overflow_warnings_stay_off_stderr(tmp_path, capsys, huge, argv, code, err):
    """numpy's overflow RuntimeWarnings from Gram products, column norms and
    spectrum powers of diag(1e200, 1e200) reached stderr before the report."""
    argv = [argv[0], huge, *argv[1:], "--out", f"{tmp_path}/o_"]
    proc = _run_module(*argv)
    assert (proc.returncode, proc.stderr) == (code, err)
    assert main([str(a) for a in argv]) == code
    assert proc.stdout == capsys.readouterr().out


TOP = np.array([[1e308, 1e308], [1e308, -1e308]])  # eigenvalues +-1.41e308; |a_11| + ||a_1|| > DBL_MAX


@pytest.mark.parametrize(
    "matrix, argv, code",
    [
        (np.diag([1e308, 2.0, 3.0]), ["sdst", "--find-alpha-bound"], 0),
        (TOP, ["sdst", "--alpha", "0.3"], 0),
        (TOP, ["sdst", "--alpha", "0.9"], OutOfRange.exit_code),
        (np.array([[1.2e308, 4e307], [4e307, 8e307]]), ["sdst", "--alpha", "0.05"], 0),  # trace(A) overflows
        (TOP, ["sr", "--alpha", "0.3"], 0),
        (TOP, ["dea", "--alpha", "0.3"], 0),
    ],
    ids=["sdst_bound", "sdst_alpha", "sdst_d_overflows", "sdst_trace", "sr", "dea"],
)
def test_top_of_the_float_range(tmp_path, capsys, matrix, argv, code):
    """sdst exited 1 with an OverflowError or a ValueError; sr and dea wrote inf
    into their S and then blamed their own output file."""
    p = tmp_path / "top.csv"
    write_matrix(p, matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach a console run's stderr
        got, rep, err = run_cli(capsys, argv[0], p, *argv[1:], "--out", f"{tmp_path}/o_")
    assert got == code
    if code:
        assert rep is None and err.startswith(f"eqkit {argv[0]}: ") and "/o_" not in err
    else:
        assert err == "" and rep["passed"] is True


@pytest.mark.parametrize(
    "text, failed",
    [
        ("# 4 2\n0,0\n0,0\n0,0\n1.0000000000000001e+300,1.0000000000000001e+300\n",
         ["unit_norms", "constant_coherence", "tight"]),
        ("# 1 3\n1e+160,5.879634035404517e+147,5.879634035404517e+147\n",
         ["unit_norms", "constant_coherence", "tight"]),
    ],
    ids=["coherence_inf_minus_inf", "coherence_mean_overflows"],
)
def test_etf_coherence_warnings_stay_off_stderr(tmp_path, text, failed):
    """Found by tests/test_fuzz_cli.py: is_etf's mean of overflowed |cosines|
    (and inf - inf in the deviation from it) printed a RuntimeWarning."""
    p = tmp_path / "m.csv"
    p.write_text(text)
    proc = _run_module("check", p, "--out", f"{tmp_path}/o_")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert _strict(proc.stdout)["etf"] == {"ok": False, "failed": failed, "coherence": None,
                                           "frame_constant": None}


@pytest.mark.parametrize("text", ["# 2 3\n1e300,1e300,0\n0,0,1\n", "# 2 2\n1e300,1e300\n0,0\n"],
                         ids=["welch_branch", "square"])
def test_check_of_overflowed_cosines_fails_constant_coherence(tmp_path, capsys, text):
    """An overflowed |cosine| made the coherence spread NaN, which passed the
    constant-coherence test and reached the Welch-bound test instead."""
    p = tmp_path / "m.csv"
    p.write_text(text)
    code, rep, err = run_cli(capsys, "check", p)
    assert (code, err) == (0, "")
    assert rep["etf"]["failed"] == ["unit_norms", "constant_coherence", "tight"]


@pytest.mark.parametrize("angle, code", [
    (["--alpha", "-0.6"], InvalidAlpha.exit_code),
    (["--alpha", "0.9999999999"], InvalidAlpha.exit_code),
    (["--theta", "150"], InvalidAlpha.exit_code),
    (["--theta", "180"], InvalidAngle.exit_code),
    ([], InvalidAngle.exit_code),
])
def test_sr_and_dea_reject_a_cosine_alike(tmp_path, capsys, angle, code):
    """sr exited 13 with its own message where dea exits 14 with GramParams'
    for a cosine that three columns cannot share."""
    p = tmp_path / "a3.csv"
    write_matrix(p, np.eye(3) + 0.1)
    errs = []
    for command in ("sr", "dea"):
        got, rep, err = run_cli(capsys, command, p, *angle, "--out", f"{tmp_path}/o_")
        assert (got, rep) == (code, None)
        assert err.startswith(f"eqkit {command}: ") and err.count("\n") == 1
        errs.append(err.split(": ", 1)[1])
    assert errs[0] == errs[1]
    assert not list(tmp_path.glob("o_*"))


def test_overflowed_threshold_is_null(tmp_path, capsys):
    """Found by tests/test_fuzz_cli.py: tol * ||A|| overflowed and was printed as Infinity."""
    p = tmp_path / "a.csv"
    write_matrix(p, [[179769314.0]])
    code = main(["sr", str(p), "--alpha", "0", "--tol", "1e300", "--out", f"{tmp_path}/o_"])
    rep = _strict(capsys.readouterr().out)
    assert code == 0
    assert rep["checks"]["sr_residual"] == {"value": 0.0, "threshold": None, "pass": True}


@pytest.mark.parametrize("command", ["sr", "check"])
def test_non_utf8_input_is_typed(tmp_path, capsys, command):
    p = tmp_path / "latin1.csv"
    p.write_bytes("1,2\n3,4 # \xe9\n".encode("latin-1"))
    args = [p, "--alpha", 0.5] if command == "sr" else [p]
    code, rep, err = run_cli(capsys, command, *args)
    assert (code, rep) == (ParseError.exit_code, None)
    assert err.startswith(f"eqkit {command}: {p}: not UTF-8 text") and err.count("\n") == 1
