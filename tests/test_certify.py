"""Library certificates against the eigensolve-based versions they replaced.

The reference functions below are ``certify_doubly``, ``is_etf`` and ``dea``
as they were before each Gram product was formed once, every 2-norm test went
through ``kernel.norm2_at_most``, and ``dea`` stopped computing the SR
residual it never used.  Outcomes must not change: the same cosine or None,
the same list of failed checks, and a bit-identical ``dea`` output.
"""

import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from eqkit.doubly import DoublyEquiangular, certify_doubly, dea, row_sum_params
from eqkit.ea import sr_decompose
from eqkit.errors import EqkitError, RankDeficient, Singular
from eqkit.frames import FrameSet, is_etf, simplex_frame
from eqkit.kernel import as_matrix, require_square, spectral_norm

# ---- reference: the eigensolve-based versions -------------------------------


def ref_certify_equiangular(M, tol):
    M = as_matrix(getattr(M, "mat", M))
    m = M.shape[1]
    if m == 0:
        return None
    G = M.T @ M
    if float(np.max(np.abs(np.diag(G) - 1.0))) > tol:
        return None
    if m == 1:
        return 0.0
    off = G[~np.eye(m, dtype=bool)]
    mean = float(off.mean())
    if float(np.max(np.abs(off - mean))) > tol:
        return None
    return mean


def ref_certify_doubly(M, tol=1e-8):
    M = require_square(as_matrix(getattr(M, "mat", M)))
    n = M.shape[0]
    a_cols = ref_certify_equiangular(M, tol)
    a_rows = ref_certify_equiangular(M.T, tol)
    if a_cols is None or a_rows is None or abs(a_cols - a_rows) > tol:
        return None
    alpha = 0.5 * (a_cols + a_rows)
    c2 = 1.0 + (n - 1) * alpha
    if c2 < 0:
        return None
    c = math.sqrt(c2)
    if float(np.max(np.abs(M.sum(axis=1) - c))) > tol or float(np.max(np.abs(M.sum(axis=0) - c))) > tol:
        return None
    if spectral_norm(M @ M.T - M.T @ M) > tol:
        return None
    return float(alpha)


def ref_is_etf(V, tol=1e-8):
    """(failed, coherence, frame_constant) of the old ``is_etf``."""
    V = as_matrix(V)
    n, m = V.shape
    failed = []
    G = V.T @ V
    if float(np.max(np.abs(np.diag(G) - 1.0))) > tol:
        failed.append("unit_norms")
    if m > 1:
        off = np.abs(G[~np.eye(m, dtype=bool)])
        coherence = float(off.mean())
        if float(np.max(np.abs(off - coherence))) > tol:
            failed.append("constant_coherence")
        elif m > n and abs(coherence - math.sqrt((m - n) / (n * (m - 1.0)))) > tol:
            failed.append("welch_bound")
    else:
        coherence = 0.0
    W = V @ V.T
    frame_constant = float(np.trace(W)) / n
    if spectral_norm(W - frame_constant * np.eye(n)) > tol * max(1.0, frame_constant):
        failed.append("tight")
    return failed, coherence, frame_constant


def ref_dea(A, alpha):
    A = require_square(as_matrix(A))
    n = A.shape[0]
    _, c = row_sum_params(n, alpha)
    try:
        S = sr_decompose(A, math.acos(alpha)).S.mat
    except RankDeficient as exc:
        raise Singular(str(exc)) from exc
    u = S.sum(axis=1) - c
    nu = float(u @ u)
    if math.sqrt(nu) <= 1e-12 * math.sqrt(n):
        return DoublyEquiangular(S, float(alpha))
    return DoublyEquiangular(S - np.outer(u, (2.0 / nu) * (u @ S)), float(alpha))


# ---- inputs ----------------------------------------------------------------

TOLS = [1e-12, 1e-10, 1e-8]


def square_inputs(seed):
    """Doubly equiangular matrices, the same perturbed by 1e-9 and column-permuted,
    and random matrices."""
    rng = np.random.default_rng([20260823, seed])
    out = {}
    for n, alpha in [(2, 0.5), (3, -0.3), (5, 0.0), (8, 0.3), (16, -0.05), (40, 0.7)]:
        D = dea(rng.standard_normal((n, n)), alpha).mat
        out[f"doubly n={n} a={alpha}"] = D
        out[f"perturbed n={n} a={alpha}"] = D + 1e-9 * rng.standard_normal((n, n))
        out[f"permuted n={n} a={alpha}"] = D[:, rng.permutation(n)]
        out[f"random n={n}"] = rng.standard_normal((n, n))
    out["unit-column random"] = (lambda X: X / np.linalg.norm(X, axis=0))(rng.standard_normal((6, 6)))
    return out


def frame_inputs(seed):
    rng = np.random.default_rng([20260823, 100 + seed])
    out = dict(square_inputs(seed))
    for n in (2, 5, 17):
        F = simplex_frame(n).mat
        out[f"simplex n={n}"] = F
        out[f"perturbed simplex n={n}"] = F + 1e-9 * rng.standard_normal(F.shape)
        out[f"permuted simplex n={n}"] = F[:, rng.permutation(n + 1)]
    out["orthonormal"] = np.linalg.qr(rng.standard_normal((7, 7)))[0]
    out["tall random"] = rng.standard_normal((9, 4))
    return out


# ---- outcomes match the reference --------------------------------------------


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("tol", TOLS)
def test_certify_doubly_matches_reference(seed, tol):
    outcomes = set()
    for name, M in square_inputs(seed).items():
        got, want = certify_doubly(M, tol), ref_certify_doubly(M, tol)
        assert got == want, (name, got, want)
        outcomes.add(got is None)
    assert outcomes == {True, False}  # both answers were exercised


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("tol", TOLS)
def test_is_etf_matches_reference(seed, tol):
    tight = set()
    for name, V in frame_inputs(seed).items():
        rep = is_etf(FrameSet(V), tol)
        failed, coherence, frame_constant = ref_is_etf(V, tol)
        assert rep.failed == failed, name
        assert rep.ok == (not failed), name
        assert rep.coherence == coherence and rep.frame_constant == frame_constant, name
        tight.add("tight" in failed)
    assert tight == {True, False}


@pytest.mark.parametrize("n", [1, 2, 5, 64])
@pytest.mark.parametrize("alpha", [-0.2, 0.0, 0.3, 0.9])
def test_dea_output_is_bit_identical(n, alpha):
    A = np.random.default_rng([n, int(alpha * 10) + 2]).standard_normal((n, n))
    try:
        want = ref_dea(A, alpha)
    except EqkitError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            dea(A, alpha)
        return
    got = dea(A, alpha)
    assert got.alpha == want.alpha
    assert got.mat.shape == want.mat.shape
    assert np.array_equal(got.mat.view(np.uint64), want.mat.view(np.uint64))


# ---- no dense work the outcome does not use ----------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("dense 2-norm computed")


def test_dea_never_computes_a_2_norm(rng, monkeypatch):
    A = rng.standard_normal((12, 12))
    want = ref_dea(A, 0.4).mat
    for name, mod in list(sys.modules.items()):
        if name.startswith("eqkit") and hasattr(mod, "spectral_norm"):
            monkeypatch.setattr(mod, "spectral_norm", _refuse)
    assert np.array_equal(dea(A, 0.4).mat, want)


def test_certificates_need_no_eigensolve(monkeypatch):
    """At n = 200 every 2-norm test of certify_doubly and is_etf is decided by
    the Frobenius or column-norm bound."""
    rng = np.random.default_rng(7)
    alpha = 0.3
    D = dea(rng.standard_normal((200, 200)), alpha).mat
    F = simplex_frame(200).mat
    want = (ref_certify_doubly(D), ref_is_etf(D), ref_is_etf(F))
    assert want[0] == pytest.approx(alpha, abs=1e-8)
    assert want[1][0] == ["tight"] and want[2][0] == []

    monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
    assert certify_doubly(D) == want[0]
    for V, (failed, coherence, frame_constant) in [(D, want[1]), (F, want[2])]:
        rep = is_etf(FrameSet(V))
        assert (rep.failed, rep.coherence, rep.frame_constant) == (failed, coherence, frame_constant)


def test_benchmark_patch_table_resolves():
    """perfbench/spans.py times layers by patching these names; each must exist."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    if not path.exists():
        pytest.skip("no perfbench/ next to tests/")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, _ in spans.SITES + spans.IO_SITES:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
