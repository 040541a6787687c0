"""The benchmark's own tests: its inputs are right and its checks catch bad outputs.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cases
import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))


def test_inputs_come_from_the_seed_and_not_from_eqkit(tmp_path):
    code = (f"import sys, cases; cases.build('lib_compute', 3, {str(tmp_path)!r}); "
            "cases.cli_small(3, '.', write=False); print('eqkit' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": HERE})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
    saved = {p.name: np.load(p) for p in tmp_path.glob("lib_*.npy")}
    assert len(saved) == len(cases.LIB_ARRAYS)
    cases.write_lib_inputs(3, str(tmp_path))
    assert all(np.array_equal(np.load(tmp_path / name), M) for name, M in saved.items())
    a = gen.equiangular(np.random.default_rng(5), 8, 0.3)
    assert np.array_equal(a, gen.equiangular(np.random.default_rng(5), 8, 0.3))


def test_generated_inputs_have_their_closed_form_properties():
    rng = np.random.default_rng(0)
    S = gen.equiangular(rng, 20, 0.4)
    assert np.max(np.abs(S.T @ S - gen.gram(20, 0.4))) < 1e-13
    checks.check_doubly(gen.doubly_equiangular(rng, 20, 0.4), 0.4, tol=1e-13)
    checks.check_frame(gen.simplex(20), 20, tol=1e-13)
    lam = gen.sdst_spectrum(rng, 12)
    assert np.allclose(np.linalg.eigvalsh(gen.symmetric(rng, lam)), np.sort(lam))


def _corrupt(path):
    M = checks.read_matrix(path)
    M[1, 2] += 1e-6
    gen.write_matrix(path, M)


def _run_cli(case):
    import eqkit.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert eqkit.cli.main(case.argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("label, corrupted", [
    ("sr_rand", "S"), ("sr_rand", "R"), ("inverse_csv", "inv"), ("frame_mtx", "S"), ("sdst8", "S"),
])
def test_a_corrupted_output_file_is_caught(tmp_path, label, corrupted):
    case = next(c for c in cases.cli_small(7, str(tmp_path)) if c.label == label)
    report = _run_cli(case)
    assert cases.verify(case, report) is None
    _corrupt(next(p for p in case.outputs if os.path.basename(p).startswith(f"{label}_{corrupted}.")))
    assert cases.verify(case, report) is not None


@pytest.mark.parametrize("bad", ["Infinity", "NaN", "-Infinity"])
def test_a_non_strict_report_is_caught(bad):
    good = '{"command": "sr", "passed": true, "checks": {"r": {"value": 0.5}}}'
    assert checks.strict_report(good, "sr")["passed"] is True
    with pytest.raises(checks.CheckFailed):
        checks.strict_report(good.replace("0.5", bad), "sr")


def test_library_outputs_pass_and_corrupted_ones_fail():
    import eqkit

    rng = np.random.default_rng(1)
    A = rng.standard_normal((24, 24))
    dec = eqkit.sr_decompose(A, math.acos(0.3))
    checks.check_sr(A, 0.3, dec.S.mat, dec.R)
    for S, R in ((dec.S.mat + 1e-7, dec.R), (dec.S.mat, dec.R * (1 + 1e-7))):
        with pytest.raises(checks.CheckFailed):
            checks.check_sr(A, 0.3, S, R)
    S = gen.equiangular(rng, 24, 0.3)
    X = eqkit.fast_inverse(eqkit.EquiangularMatrix(S, 0.3))
    checks.check_inverse(S, X)
    with pytest.raises(checks.CheckFailed):
        checks.check_inverse(S, X + 1e-7)
    F = eqkit.simplex_frame(24).mat
    checks.check_frame(F, 24)
    with pytest.raises(checks.CheckFailed):
        checks.check_frame(F * (1 + 1e-7), 24)


def test_an_expected_failure_is_counted_but_keeps_the_run_correct():
    tally = cases.Tally()
    ok = cases.Case("sdst", "ok", check=lambda r: None, batch=3)
    bad = cases.Case("sdst", "bad", check=lambda r: None, expect_fail="NonRealRoots")
    tally.record(ok, 0.3, 0.4, None, None)
    tally.record(bad, 0.0, 0.0, "NonRealRoots: recovered spectrum does not match", None)
    assert (tally.attempted, tally.failed, tally.completed, tally.correct) == (4, 1, 3, True)
    assert tally.times["sdst"] == [pytest.approx(0.1)]
    tally.record(ok, 0.3, 0.4, "exit 1", None)
    assert not tally.correct
    for other in (TypeError("bad operand"), IndexError("index 16"), ValueError("NonRealRoots")):
        tally = cases.Tally()
        tally.record(bad, 0.0, 0.0, cases.failure(other), None)
        assert (tally.failed, tally.correct) == (1, False)
