"""Acceptance suite: twelve release gates, one test per criterion.

Each test appends a ``[criterion NN] name: PASS/FAIL`` line to ``RESULTS``;
the conftest terminal-summary hook prints the list after the run.  Fixture
matrices printed to 4 decimal places are compared at ROUND4 = 1e-4; all
other tolerances are stated inline at the assertion that uses them.
"""

import functools
import math

import numpy as np
import pytest

from eqkit.doubly import dea
from eqkit.ea import (
    EquiangularMatrix,
    certify_equiangular,
    next_equiangular_obtuse,
    random_equiangular,
    sr_decompose,
    triangular_equiangular,
)
from eqkit.errors import DegenerateAngle, MultiplicityUnsupported, NonRealRoots
from eqkit.factor import (
    alpha_real_root_bound,
    build_poly,
    nonreal_root_certificate,
    sdst_factor,
    two_eigenvalue_factor,
)
from eqkit.frames import (
    frame_bounds,
    simplex_frame,
    tight_frame_identity_defect,
    welch_alpha,
)
from eqkit.gram import GramParams, gram_condition, gram_matrix, gram_principal_sqrt, gram_sqrt_variants
from eqkit.kernel import poly_roots
from eqkit.spectral import (
    benchmark_inverse,
    eig_relation_check,
    eigenvalue_bounds,
    fast_inverse,
    fit_exponent,
    inverse_geometry,
)

RESULTS: list[str] = []

ROUND4 = 1e-4

HILBERT = np.array([[1.0 / (i + j + 1) for j in range(4)] for i in range(4)])

HILBERT_S = np.array(
    [
        [0.8381, -0.0336, 0.3939, 0.2788],
        [0.4191, 0.5921, -0.2572, 0.4381],
        [0.2794, 0.5977, 0.4062, -0.3031],
        [0.2095, 0.5396, 0.7834, 0.7991],
    ]
)
HILBERT_R = np.array(
    [
        [1.1932, 0.6021, 0.3998, 0.2980],
        [0.0, 0.1369, 0.1426, 0.1318],
        [0.0, 0.0, 0.0076, 0.0117],
        [0.0, 0.0, 0.0, 0.0002],
    ]
)
TRIANGULAR_4 = np.array(
    [
        [1.0, 0.7071, 0.7071, 0.7071],
        [0.0, 0.7071, 0.2929, 0.2929],
        [0.0, 0.0, 0.6436, 0.1885],
        [0.0, 0.0, 0.0, 0.6154],
    ]
)
HILBERT_DEA = np.array(
    [
        [0.8517, 0.3048, 0.3774, 0.1981],
        [0.3976, 0.3942, 0.1205, 0.8198],
        [0.2399, 0.1863, 0.8189, 0.4869],
        [0.2429, 0.8468, 0.4152, 0.2273],
    ]
)
ORTHO_IN = 0.5 * np.array(
    [
        [-1.0, 1.0, 1.0, 1.0],
        [-1.0, 1.0, -1.0, -1.0],
        [-1.0, -1.0, 1.0, -1.0],
        [-1.0, -1.0, -1.0, 1.0],
    ]
)
ORTHO_OUT = np.array(
    [
        [-1 / 2, 1 / 2, 1 / 2, 1 / 2],
        [1 / 2, 5 / 6, -1 / 6, -1 / 6],
        [1 / 2, -1 / 6, 5 / 6, -1 / 6],
        [1 / 2, -1 / 6, -1 / 6, 5 / 6],
    ]
)


def criterion(num: int, label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append(f"[criterion {num:02d}] {label}: FAIL")
                raise
            RESULTS.append(f"[criterion {num:02d}] {label}: PASS")

        return run

    return wrap


@functools.lru_cache(maxsize=1)
def random_suite():
    """200 random square equiangular matrices, n in 3..50, shared by 4 and 5."""
    rng = np.random.default_rng(404)
    out = []
    for _ in range(200):
        n = int(rng.integers(3, 51))
        alpha = float(rng.uniform(-1.0 / (n - 1) + 0.05, 0.95))
        out.append(random_equiangular(n, alpha, rng))
    return out


@criterion(1, "hilbert sr fixture")
def test_criterion_01():
    dec = sr_decompose(HILBERT, math.pi / 3)
    assert np.abs(dec.S.mat - HILBERT_S).max() <= ROUND4
    assert np.abs(dec.R - HILBERT_R).max() <= ROUND4
    assert np.linalg.norm(HILBERT - dec.S.mat @ dec.R, 2) <= 1e-12


@criterion(2, "triangular fixture")
def test_criterion_02():
    p = GramParams(4, math.cos(math.pi / 4))
    shat = triangular_equiangular(p)
    assert np.abs(shat.mat - TRIANGULAR_4).max() <= ROUND4
    assert np.abs(shat.mat.T @ shat.mat - gram_matrix(p)).max() <= 1e-12


@criterion(3, "gram square-root fixture")
def test_criterion_03():
    p = GramParams(3, 0.5)
    params, M = gram_principal_sqrt(p)
    assert abs(params.s - 0.9428) <= ROUND4
    assert abs(params.t - 0.2357) <= ROUND4
    assert np.abs(M @ M - gram_matrix(p)).max() <= 1e-12
    expect = ([0.7071, 0.7071, 1.4142], [-0.7071, -0.7071, 1.4142])
    for var, want in zip(gram_sqrt_variants(p), expect):
        V = (var.s - var.t) * np.eye(3) + var.t * np.ones((3, 3))
        assert np.abs(np.sort(np.linalg.eigvalsh(V)) - np.sort(want)).max() <= ROUND4


@criterion(4, "fast inverse correctness and cost exponents")
def test_criterion_04():
    for S in random_suite():
        n = S.mat.shape[0]
        res = np.linalg.norm(fast_inverse(S) @ S.mat - np.eye(n), 2)
        assert res <= 1e-9 * n
    recs = benchmark_inverse((64, 128, 256, 512), repeats=3, seed=0)
    ns = [r["n"] for r in recs]
    assert fit_exponent(ns, [r["ops_fast"] for r in recs]) <= 2.2
    assert fit_exponent(ns, [r["ops_generic"] for r in recs]) >= 2.7


@criterion(5, "inverse row geometry")
def test_criterion_05():
    for S in random_suite():
        n = S.mat.shape[0]
        geo = inverse_geometry(GramParams(n, S.alpha))
        inv = fast_inverse(S)
        norms = np.linalg.norm(inv, axis=1)
        assert np.abs(norms - geo.row_norm).max() <= 1e-8
        C = (inv / norms[:, None]) @ (inv / norms[:, None]).T
        off = C[~np.eye(n, dtype=bool)]
        assert np.abs(off - geo.alpha_prime).max() <= 1e-8


@criterion(6, "eigenvalue bounds and modulus relation")
def test_criterion_06():
    rng = np.random.default_rng(606)
    n = 8
    for _ in range(100):
        alpha = float(rng.uniform(-1.0 / (n - 1) + 0.05, 0.95))
        S = random_equiangular(n, alpha, rng)
        lo, hi = eigenvalue_bounds(GramParams(n, alpha))
        w, V = np.linalg.eig(S.mat)
        mods = np.abs(w)
        assert mods.min() >= lo - 1e-8
        assert mods.max() <= hi + 1e-8
        for i in range(n):
            assert eig_relation_check(S, w[i], V[:, i]) <= 1e-8


@criterion(7, "condition number closed form")
def test_criterion_07():
    rng = np.random.default_rng(707)
    for n, alpha in [(5, 0.6), (4, -0.25), (9, 0.05), (3, -0.4)]:
        S = random_equiangular(n, alpha, rng)
        sv = np.linalg.svd(S.mat, compute_uv=False)
        kappa = sv[0] / sv[-1]
        closed = gram_condition(GramParams(n, alpha))
        assert abs(closed - kappa) <= 1e-6 * kappa


@criterion(8, "symmetric sdst factorization")
def test_criterion_08():
    A = np.diag([1.0, 2.0, 3.0])
    f = sdst_factor(A, 0.1)
    assert np.linalg.norm(f.S.mat @ np.diag(f.D) @ f.S.mat.T - A, 2) <= 1e-8
    assert abs(f.D.sum() - 6.0) <= 1e-10

    assert abs(alpha_real_root_bound([1.0, 2.0, 3.0]) - 0.1843) <= 5e-3

    with pytest.raises(MultiplicityUnsupported, match="two_eigenvalue_factor"):
        sdst_factor(np.diag([1.0, 1.0, 2.0]), 0.2)
    r, S = two_eigenvalue_factor(np.diag([1.0, 1.0, 2.0]))
    assert abs(r - 4.0 / 3.0) <= 1e-12
    assert abs(S.alpha - 0.25) <= 1e-12

    with pytest.raises((NonRealRoots, MultiplicityUnsupported)):
        sdst_factor(2.0 * np.eye(4), 0.3)
    with pytest.raises((NonRealRoots, MultiplicityUnsupported)):
        sdst_factor(np.diag([0.0, 1.0, 1.0]), 0.3)


@criterion(9, "non-real root sweeps")
def test_criterion_09():
    for n in range(2, 9):
        for r in (1.0, -1.0, 2.0, -2.0):
            for alpha in np.arange(0.1, 0.95, 0.1):
                assert nonreal_root_certificate(build_poly([r] * n, float(alpha))) >= 2
    # spectra with k equal values, 2 <= k <= n-2: refusal, plus a check that
    # the float64 candidate d, where its roots are real, misses the spectrum
    for n in (4, 5, 6):
        for k in range(2, n - 1):
            lam = np.array([1.0] * k + list(2.0 + np.arange(n - k)))
            for alpha in (0.05, 0.15, 0.3):
                with pytest.raises((NonRealRoots, MultiplicityUnsupported)):
                    sdst_factor(np.diag(lam), alpha)
                p = build_poly(lam, alpha)
                roots = poly_roots(p.coeffs)
                if np.any(roots.imag != 0.0):
                    continue  # honestly non-real: no candidate d at all
                _, sbar = gram_principal_sqrt(GramParams(n, alpha))
                M = sbar @ np.diag(np.sort(roots.real)) @ sbar
                assert np.abs(np.sort(np.linalg.eigvalsh(M)) - np.sort(lam)).max() > 1e-7


@criterion(10, "doubly equiangular construction")
def test_criterion_10():
    out = dea(HILBERT, 2.0 / 3.0)
    assert np.abs(out.mat - HILBERT_DEA).max() <= ROUND4

    q = dea(ORTHO_IN, 0.0)
    assert np.abs(q.mat - ORTHO_OUT).max() <= 1e-12

    rng = np.random.default_rng(1010)
    grid = (-0.2, 0.0, 0.3, 2.0 / 3.0, 0.9)
    count = 0
    while count < 100:
        n = int(rng.integers(3, 9))
        alpha = grid[count % len(grid)]
        if alpha <= -1.0 / (n - 1):
            alpha = 0.3
        M = dea(rng.standard_normal((n, n)), alpha).mat
        G = gram_matrix(GramParams(n, alpha))
        c = math.sqrt(1.0 + (n - 1) * alpha)
        assert np.abs(M @ M.T - G).max() <= 1e-10
        assert np.abs(M.T @ M - G).max() <= 1e-10
        assert np.abs(M.sum(axis=1) - c).max() <= 1e-10
        assert np.abs(M.sum(axis=0) - c).max() <= 1e-10
        count += 1


@criterion(11, "simplex frames")
def test_criterion_11():
    r3 = math.sqrt(3.0) / 2.0
    assert np.abs(simplex_frame(2).mat - [[1.0, -0.5, -0.5], [0.0, r3, -r3]]).max() <= 1e-15
    s3 = np.array(
        [
            [1.0, -1 / 3, -1 / 3, -1 / 3],
            [0.0, 2 * math.sqrt(2) / 3, -math.sqrt(2) / 3, -math.sqrt(2) / 3],
            [0.0, 0.0, math.sqrt(6) / 3, -math.sqrt(6) / 3],
        ]
    )
    assert np.abs(simplex_frame(3).mat - s3).max() <= 1e-15

    rng = np.random.default_rng(1111)
    for n in range(1, 65):
        sf = simplex_frame(n)
        S = sf.mat
        G = S.T @ S
        assert np.abs(np.diag(G) - 1.0).max() <= 1e-11
        assert np.abs(G[~np.eye(n + 1, dtype=bool)] + 1.0 / n).max() <= 1e-11
        assert np.abs(S.sum(axis=1)).max() <= 1e-11
        assert np.abs(S @ S.T - (n + 1.0) / n * np.eye(n)).max() <= 1e-11
        c1, c2 = frame_bounds(sf.as_frame())
        assert abs(c1 - (n + 1.0) / n) <= 1e-11
        assert abs(c2 - (n + 1.0) / n) <= 1e-11
        for _ in range(3):
            x = rng.standard_normal(n)
            assert tight_frame_identity_defect(sf, x) <= 1e-11 * max(1.0, x @ x)
        assert abs(welch_alpha(n, n + 1) - 1.0 / n) <= 1e-14


@criterion(12, "obtuse construction and degenerate angle")
def test_criterion_12():
    def grow(k, cos_theta):
        theta = math.acos(cos_theta)
        S = EquiangularMatrix(np.eye(k + 1)[:, :1], cos_theta)
        for j in range(1, k + 1):
            v = next_equiangular_obtuse(S, np.eye(k + 1)[:, j], theta)
            S = EquiangularMatrix(np.column_stack([S.mat, v]), cos_theta)
        return S

    rng = np.random.default_rng(1212)
    for k in (2, 3, 5, 8):
        for _ in range(4):
            c = float(rng.uniform(-1.0 / k + 1e-3, -1e-3))
            S = grow(k, c)
            assert S.mat.shape[1] == k + 1
            assert certify_equiangular(S, tol=1e-8) == pytest.approx(c, abs=1e-8)
            assert np.linalg.eigvalsh(S.mat.T @ S.mat)[0] > 0.0
        with pytest.raises(DegenerateAngle):
            grow(k, -1.0 / k)
