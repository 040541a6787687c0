"""One-vector equiangular extension and the SR decomposition.

Printed matrices from worked examples are pinned to 4 decimals (tolerance
1.5e-4, which absorbs last-digit rounding in the prints); everything else
is checked against exact Gram structure or residual oracles.
"""

import math

import numpy as np
import pytest

import eqkit.doubly as doubly
import eqkit.ea as ea
import eqkit.frames as frames
from eqkit.ea import (
    EquiangularMatrix,
    certify_equiangular,
    next_equiangular,
    next_equiangular_obtuse,
    polar_orthogonal_factor,
    random_equiangular,
    sr_decompose,
    triangular_equiangular,
)
from eqkit.errors import DegenerateAngle, InvalidAngle, NotSquare, RankDeficient
from eqkit.gram import GramParams, gram_matrix, gram_principal_sqrt, gram_sqrt_inverse

PRINT_TOL = 1.5e-4

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
CIRCULANT_Q = np.array([[3.0, -2.0, 6.0], [6.0, 3.0, -2.0], [-2.0, 6.0, 3.0]]) / 7.0
CIRCULANT_S = np.array(
    [
        [0.4286, -0.0332, 0.8317],
        [0.8571, 0.7997, 0.3190],
        [-0.2857, 0.5995, 0.4545],
    ]
)


def _unit_cols(rng, n, m):
    g = rng.standard_normal((n, m))
    return g / np.linalg.norm(g, axis=0)


# --- next_equiangular ------------------------------------------------------


def test_first_vector_is_normalized():
    S0 = EquiangularMatrix(np.empty((3, 0)), 0.5)
    v = next_equiangular(S0, np.array([0.0, 3.0, 4.0]), math.pi / 3)
    assert np.allclose(v, [0.0, 0.6, 0.8])


def test_two_dim_geometry():
    S1 = EquiangularMatrix(np.eye(2)[:, :1], 0.0)
    v = next_equiangular(S1, np.array([0.0, 1.0]), math.pi / 3)
    assert np.allclose(v, [0.5, math.sqrt(3) / 2], atol=1e-12)


def test_right_angle_limit():
    """As theta -> pi/2 the blend coefficient dies and s_{k+1} -> q_{k+1}."""
    S1 = EquiangularMatrix(np.eye(3)[:, :1], 0.0)
    a = np.array([0.3, 0.9, 0.1])
    q = next_equiangular(S1, a, math.pi / 2)
    assert abs(q[0]) <= 1e-12  # orthogonal to e_1
    near = next_equiangular(S1, a, math.pi / 2 - 1e-8)
    assert np.linalg.norm(near - q) <= 1e-6


def test_dependent_input_rejected():
    S1 = EquiangularMatrix(np.eye(3)[:, :1], 0.0)
    with pytest.raises(RankDeficient):
        next_equiangular(S1, np.array([2.0, 0.0, 0.0]), math.pi / 3)


@pytest.mark.parametrize("theta", [0.0, -0.1, math.pi / 2 + 0.2, math.pi])
def test_acute_angle_range(theta):
    S1 = EquiangularMatrix(np.eye(3)[:, :1], 0.0)
    with pytest.raises(InvalidAngle):
        next_equiangular(S1, np.array([0.0, 1.0, 0.0]), theta)


def test_growth_keeps_gram(rng):
    theta = math.acos(0.35)
    A = _unit_cols(rng, 6, 5)
    S = EquiangularMatrix(np.empty((6, 0)), 0.35)
    for j in range(5):
        v = next_equiangular(S, A[:, j], theta)
        S = EquiangularMatrix(np.column_stack([S.mat, v]), 0.35)
    G = S.mat.T @ S.mat
    assert np.abs(G - gram_matrix(GramParams(5, 0.35))).max() <= 1e-12


# --- the obtuse variant ----------------------------------------------------


def test_obtuse_two_dim():
    S1 = EquiangularMatrix(np.eye(2)[:, :1], 0.0)
    v = next_equiangular_obtuse(S1, np.array([0.0, 1.0]), 2 * math.pi / 3)
    assert np.allclose(v, [-0.5, math.sqrt(3) / 2], atol=1e-12)


def test_obtuse_third_vector():
    theta = math.acos(-0.25)
    S = EquiangularMatrix(np.eye(3)[:, :1], -0.25)
    for j in (1, 2):
        v = next_equiangular_obtuse(S, np.eye(3)[:, j], theta)
        S = EquiangularMatrix(np.column_stack([S.mat, v]), -0.25)
    assert np.abs(S.mat.T @ S.mat - gram_matrix(GramParams(3, -0.25))).max() <= 1e-12


@pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2, math.pi])
def test_obtuse_angle_range(theta):
    S1 = EquiangularMatrix(np.eye(3)[:, :1], 0.0)
    with pytest.raises(InvalidAngle):
        next_equiangular_obtuse(S1, np.array([0.0, 1.0, 0.0]), theta)


def test_obtuse_degenerate_boundary():
    # two vectors at cos(Theta) = -1/2 exist; a third does not
    S2 = sr_decompose(np.eye(3)[:, :2], math.acos(-0.5)).S
    with pytest.raises(DegenerateAngle):
        next_equiangular_obtuse(S2, np.eye(3)[:, 2], math.acos(-0.5))


def test_obtuse_width_guard_is_per_k(rng):
    # cos = -0.4 is fine for a 3rd vector (k=2, bound -0.5) but not a 4th (bound -1/3)
    theta = math.acos(-0.4)
    S = sr_decompose(_unit_cols(rng, 5, 3), theta).S
    with pytest.raises(DegenerateAngle):
        next_equiangular_obtuse(S, rng.standard_normal(5), theta)


# --- sr_decompose ----------------------------------------------------------


def test_hilbert_fixture(hilbert4):
    dec = sr_decompose(hilbert4, math.pi / 3)
    assert np.abs(dec.S.mat - HILBERT_S).max() <= PRINT_TOL
    assert np.abs(dec.R - HILBERT_R).max() <= PRINT_TOL
    assert np.linalg.norm(hilbert4 - dec.S.mat @ dec.R, 2) <= 1e-12
    assert certify_equiangular(dec.S) == pytest.approx(0.5, abs=1e-12)


def test_orthogonal_input_right_angle(rng):
    g = rng.standard_normal((5, 5))
    Q, r = np.linalg.qr(g)
    Q = Q * np.where(np.diag(r) < 0, -1.0, 1.0)
    dec = sr_decompose(Q, math.pi / 2)
    assert np.abs(dec.S.mat - Q).max() <= 1e-12
    assert np.abs(dec.R - np.eye(5)).max() <= 1e-12


def test_circulant_fixture():
    dec = sr_decompose(CIRCULANT_Q, math.pi / 3)
    assert np.abs(dec.S.mat - CIRCULANT_S).max() <= PRINT_TOL
    assert dec.R[0, 1] == pytest.approx(-0.5774, abs=PRINT_TOL)
    assert np.allclose(np.tril(dec.R, -1), 0.0) and np.all(np.diag(dec.R) > 0)


def test_certify_matches_requested_angle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(2, n + 1))
        alpha = float(rng.uniform(-1.0 / (m - 1) + 0.02, 0.97))
        A = rng.standard_normal((n, m))
        dec = sr_decompose(A, math.acos(alpha))
        got = certify_equiangular(dec.S, tol=1e-9)
        assert got is not None and abs(got - alpha) <= 1e-9
        residual = np.linalg.norm(A - dec.S.mat @ dec.R, 2)
        assert residual <= 1e-9 * max(1.0, np.linalg.norm(dec.S.mat @ dec.R, 2))


def test_span_preservation(rng):
    """Each prefix of S spans exactly the matching prefix of A."""
    A = rng.standard_normal((7, 5))
    S = sr_decompose(A, math.acos(0.3)).S.mat
    for k in range(1, 6):
        Qs, _ = np.linalg.qr(S[:, :k])
        Qa, _ = np.linalg.qr(A[:, :k])
        for j in range(k):
            a = A[:, j]
            assert np.linalg.norm(a - Qs @ (Qs.T @ a)) <= 1e-9 * np.linalg.norm(a)
            s = S[:, j]
            assert np.linalg.norm(s - Qa @ (Qa.T @ s)) <= 1e-9


def test_rank_deficient_rejected():
    A = np.ones((4, 3))
    with pytest.raises(RankDeficient):
        sr_decompose(A, math.pi / 3)
    with pytest.raises(RankDeficient, match="3 columns cannot be independent in dimension 2"):
        sr_decompose(np.eye(2, 3), math.pi / 3)


def test_angle_too_wide_for_columns():
    # 4 columns need cos(theta) > -1/3
    with pytest.raises((InvalidAngle, DegenerateAngle)):
        sr_decompose(np.eye(4), math.acos(-1.0 / 3.0))


# Cosines from comfortably acute to both ends of the admissible interval for
# up to 50 columns.
REFERENCE_ALPHAS = [0.5, 0.1, -0.05, 0.9999, -1.0 / 49.0 + 1e-6]


def _reference_sr(A, alpha):
    """S = Q T and R = T^-1 R_qr from numpy's QR and a dense Cholesky of G."""
    Q, Rq = np.linalg.qr(A)
    signs = np.where(np.diag(Rq) < 0, -1.0, 1.0)
    Q, Rq = Q * signs, Rq * signs[:, None]
    T = np.linalg.cholesky(gram_matrix(GramParams(A.shape[1], alpha))).T
    return Q @ T, np.linalg.solve(T, Rq)


@pytest.mark.parametrize("alpha", REFERENCE_ALPHAS)
@pytest.mark.parametrize("shape", [(20, 20), (60, 20)])
def test_sr_matches_qr_times_cholesky(rng, alpha, shape):
    A = rng.standard_normal(shape)
    dec = sr_decompose(A, math.acos(alpha))
    S_ref, R_ref = _reference_sr(A, alpha)
    assert np.abs(dec.S.mat - S_ref).max() <= 1e-12
    assert np.abs(dec.R - R_ref).max() <= 1e-10 * np.abs(R_ref).max()
    assert np.array_equal(dec.R, np.triu(dec.R)) and np.all(np.diag(dec.R) > 0)
    assert np.linalg.norm(A - dec.S.mat @ dec.R, 2) <= 1e-12 * np.linalg.norm(A, 2)


def test_sr_near_unit_cosine_against_mpmath():
    """At alpha = 0.9999 the residual, evaluated in 50 digits, stays at roundoff."""
    mpmath = pytest.importorskip("mpmath")
    alpha = 0.9999
    A = np.random.default_rng(66).standard_normal((6, 6))
    dec = sr_decompose(A, math.acos(alpha))
    with mpmath.workdps(50):
        Am = mpmath.matrix(A.tolist())
        Sm, Rm = mpmath.matrix(dec.S.mat.tolist()), mpmath.matrix(dec.R.tolist())
        residual = mpmath.mnorm(Am - Sm * Rm, 1)
        # The exact S: Gram-Schmidt q_k in 50 digits, times the exact T.
        Q = mpmath.matrix(6, 6)
        for k in range(6):
            v = Am[:, k]
            for i in range(k):
                v -= (Q[:, i].T * Am[:, k])[0] * Q[:, i]
            Q[:, k] = v / mpmath.norm(v)
        a = mpmath.mpf(alpha)
        G = mpmath.matrix(6, 6)
        for i in range(6):
            for j in range(6):
                G[i, j] = 1 if i == j else a
        S_exact = Q * mpmath.cholesky(G).T
        s_err = max(abs(S_exact[i, j] - Sm[i, j]) for i in range(6) for j in range(6))
    # ||.||_2 <= sqrt(n) ||.||_1 for a 6 x 6 matrix
    assert float(residual) * math.sqrt(6) <= 1e-12 * np.linalg.norm(A, 2)
    assert float(s_err) <= 1e-12


def test_single_column_at_any_angle():
    a = np.array([[3.0], [4.0]])
    for theta in (0.0, math.pi / 3, math.pi):
        dec = sr_decompose(a, theta)
        assert np.allclose(dec.S.mat, [[0.6], [0.8]]) and np.allclose(dec.R, [[5.0]])


@pytest.mark.parametrize("alpha", [0.35, -0.2])
def test_next_equiangular_is_sr_column(rng, alpha):
    theta = math.acos(alpha)
    extend = next_equiangular if alpha >= 0 else next_equiangular_obtuse
    A = rng.standard_normal((6, 4))
    S = sr_decompose(A, theta).S.mat
    for k in range(1, 4):
        v = extend(EquiangularMatrix(S[:, :k], alpha), A[:, k], theta)
        assert np.abs(v - S[:, k]).max() <= 1e-13


# --- triangular_equiangular ------------------------------------------------


def test_triangular_fixture():
    p = GramParams(4, math.cos(math.pi / 4))
    Shat = triangular_equiangular(p)
    assert np.abs(Shat.mat - TRIANGULAR_4).max() <= PRINT_TOL
    assert np.linalg.norm(Shat.mat.T @ Shat.mat - gram_matrix(p), 2) <= 1e-12


def test_triangular_derived_three():
    Shat = triangular_equiangular(GramParams(3, 0.5)).mat
    want = np.array([[1.0, 0.5, 0.5], [0.0, 0.8660, 0.2887], [0.0, 0.0, 0.8165]])
    assert np.abs(Shat - want).max() <= PRINT_TOL


def test_triangular_small_alpha_near_identity():
    Shat = triangular_equiangular(GramParams(5, 1e-9)).mat
    assert np.abs(Shat - np.eye(5)).max() <= 1e-8


def test_triangular_diagonal_closed_form():
    # d_k^2 = (1-a)(1+(k-1)a)/(1+(k-2)a)
    a = 0.37
    Shat = triangular_equiangular(GramParams(6, a)).mat
    for k in range(2, 7):
        want = (1 - a) * (1 + (k - 1) * a) / (1 + (k - 2) * a)
        assert Shat[k - 1, k - 1] ** 2 == pytest.approx(want, rel=1e-12)


def test_triangular_row_structure():
    # each row is constant to the right of the diagonal: s_ii - (1-a)/s_ii
    a = 0.6
    Shat = triangular_equiangular(GramParams(5, a)).mat
    for i in range(4):
        d = Shat[i, i]
        assert np.allclose(Shat[i, i + 1 :], d - (1 - a) / d, atol=1e-12)


@pytest.mark.parametrize("n, alpha", [(2, -0.9), (3, -0.4), (8, -0.1), (50, -1.0 / 49.0 + 1e-6)])
def test_triangular_obtuse(n, alpha):
    p = GramParams(n, alpha)
    Shat = triangular_equiangular(p).mat
    assert np.array_equal(Shat, np.triu(Shat)) and np.all(np.diag(Shat) > 0)
    assert np.linalg.norm(Shat.T @ Shat - gram_matrix(p), 2) <= 1e-14


def test_triangular_uniqueness_vs_sr():
    p = GramParams(4, math.cos(math.pi / 4))
    a = sr_decompose(np.eye(4), math.pi / 4).S.mat
    b = triangular_equiangular(p).mat
    assert np.abs(a - b).max() <= 1e-9


# --- certification and the polar bridge ------------------------------------


def test_certify_identity():
    assert certify_equiangular(np.eye(5)) == pytest.approx(0.0, abs=1e-15)


def test_certify_hilbert_none(hilbert4):
    assert certify_equiangular(hilbert4) is None


def test_certify_single_column():
    assert certify_equiangular(np.array([[0.6], [0.8]])) == 0.0


def test_certify_scaled_columns_none():
    assert certify_equiangular(2.0 * np.eye(3)) is None


def test_every_certificate_gram_goes_through_one_routine(monkeypatch):
    # certify_equiangular forms M^T M; certify_doubly and is_etf form M^T M and M M^T.
    calls, gram = [], ea._gram

    def counted(X):
        calls.append(X.shape)
        return gram(X)

    for module in (ea, doubly, frames):
        monkeypatch.setattr(module, "_gram", counted)
    M = doubly.dea(np.random.default_rng(4).standard_normal((5, 5)), 0.3).mat
    for certify, count in ((ea.certify_equiangular, 1), (doubly.certify_doubly, 2), (frames.is_etf, 2)):
        calls.clear()
        assert certify(M, 1e-8) is not None  # every step ran: is_etf reports "tight" failed here
        assert calls == [(5, 5)] * count, certify.__name__


def test_polar_of_principal_root_is_identity():
    _, S = gram_principal_sqrt(GramParams(4, 0.3))
    Q = polar_orthogonal_factor(EquiangularMatrix(S, 0.3))
    assert np.abs(Q - np.eye(4)).max() <= 1e-12


def test_polar_orthogonality_and_reconstruction(hilbert4):
    for S in (
        triangular_equiangular(GramParams(3, 0.5)),
        sr_decompose(hilbert4, math.pi / 3).S,
    ):
        Q = polar_orthogonal_factor(S)
        n = S.mat.shape[0]
        assert np.linalg.norm(Q.T @ Q - np.eye(n), 2) <= 1e-10
        _, sbar = gram_principal_sqrt(GramParams(n, S.alpha))
        assert np.linalg.norm(Q @ sbar - S.mat, 2) <= 1e-10


@pytest.mark.parametrize("alpha", [-0.9, 0.0, 0.3])
def test_polar_of_a_one_by_one_is_itself(alpha):
    for s in (1.0, -1.0):
        assert polar_orthogonal_factor(EquiangularMatrix(np.array([[s]]), alpha)).tolist() == [[s]]


def test_polar_needs_a_square_system():
    with pytest.raises(NotSquare):
        polar_orthogonal_factor(random_equiangular(3, 0.3, rng=0, m=2))


@pytest.mark.parametrize("n", [2, 3, 64, 1024])
def test_polar_factor_matches_the_dense_product(n):
    # Both products round at about u times the 2-norm condition number of S,
    # so entries of the orthogonal factor agree to 1e-15 at moderate kappa.
    rng = np.random.default_rng(n)
    for alpha in (0.3, -0.9 / (n - 1)):
        S = random_equiangular(n, alpha, rng)
        want = S.mat @ gram_sqrt_inverse(GramParams(n, alpha))
        assert np.abs(polar_orthogonal_factor(S) - want).max() <= 1e-15


def test_random_equiangular_seeded_and_certified():
    a = random_equiangular(6, 0.25, rng=42).mat
    b = random_equiangular(6, 0.25, rng=42).mat
    assert np.array_equal(a, b)
    assert certify_equiangular(a) == pytest.approx(0.25, abs=1e-10)
    tall = random_equiangular(8, -0.2, rng=0, m=4)
    assert tall.mat.shape == (8, 4)
    assert certify_equiangular(tall) == pytest.approx(-0.2, abs=1e-10)
