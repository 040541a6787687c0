import math

import numpy as np
import pytest

from eqkit.ea import EquiangularMatrix
from eqkit.errors import InvalidShape, NotSpanning
from eqkit.factor import two_eigenvalue_factor
from eqkit.frames import (
    FrameSet,
    SimplexFrame,
    augment_to_orthogonal,
    frame_bounds,
    is_etf,
    relate_to_sdst,
    simplex_frame,
    tight_frame_identity_defect,
    welch_alpha,
)
def test_base_case():
    sf = simplex_frame(1)
    assert np.array_equal(sf.mat, [[1.0, -1.0]])
    assert sf.alpha == -1.0


def test_simplex_frame_is_an_equiangular_matrix():
    sf = simplex_frame(4)
    assert isinstance(sf, EquiangularMatrix)
    assert (sf.n, sf.alpha, sf.mat.shape) == (4, -0.25, (4, 5))
    again = SimplexFrame(sf.mat, sf.alpha)
    assert again.n == 4 and again.as_frame().vectors is sf.mat


def test_s2_closed_form():
    r3 = math.sqrt(3.0) / 2.0
    want = np.array([[1.0, -0.5, -0.5], [0.0, r3, -r3]])
    assert np.abs(simplex_frame(2).mat - want).max() <= 1e-15


def _simplex_by_recursion(n):
    """S_1 = [1, -1]; prepend (1, -1/k, ..., -1/k) and scale the rest by sqrt(k^2 - 1)/k."""
    S = np.array([[1.0, -1.0]])
    for k in range(2, n + 1):
        top = np.full(k + 1, -1.0 / k)
        top[0] = 1.0
        S = np.vstack([top, np.hstack([np.zeros((k - 1, 1)), math.sqrt(k * k - 1.0) / k * S])])
    return S


@pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
def test_closed_form_matches_recursion(n):
    assert np.abs(simplex_frame(n).mat - _simplex_by_recursion(n)).max() <= 1e-14


def test_s3_closed_form():
    want = np.array(
        [
            [1.0, -1 / 3, -1 / 3, -1 / 3],
            [0.0, 2 * math.sqrt(2) / 3, -math.sqrt(2) / 3, -math.sqrt(2) / 3],
            [0.0, 0.0, math.sqrt(6) / 3, -math.sqrt(6) / 3],
        ]
    )
    assert np.abs(simplex_frame(3).mat - want).max() <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 5, 13, 32, 64])
def test_invariants(n):
    S = simplex_frame(n).mat
    G = S.T @ S
    assert np.abs(np.diag(G) - 1.0).max() <= 1e-11
    off = G[~np.eye(n + 1, dtype=bool)]
    assert np.abs(off + 1.0 / n).max() <= 1e-11
    assert np.abs(S.sum(axis=1)).max() <= 1e-11
    assert np.abs(S @ S.T - (n + 1.0) / n * np.eye(n)).max() <= 1e-11


@pytest.mark.parametrize("bad", [0, -3, 2.5])
def test_bad_dimension(bad):
    with pytest.raises(InvalidShape):
        simplex_frame(bad)


def test_bounds_orthonormal():
    assert frame_bounds(FrameSet(np.eye(4))) == pytest.approx((1.0, 1.0))


def test_bounds_simplex_tight():
    for n in (2, 3, 7):
        c1, c2 = frame_bounds(simplex_frame(n).as_frame())
        assert c1 == pytest.approx((n + 1.0) / n, abs=1e-12)
        assert c2 == pytest.approx((n + 1.0) / n, abs=1e-12)


def test_bounds_duplicated_column():
    base = np.eye(2)
    c1, c2 = frame_bounds(FrameSet(base))
    d1, d2 = frame_bounds(FrameSet(np.hstack([base, base[:, :1]])))
    assert d2 > c2  # duplicate pushes the top bound up
    assert d1 >= c1
    # oracle: frame operator is diag(2, 1)
    assert (d1, d2) == pytest.approx((1.0, 2.0), abs=1e-14)


def test_bounds_need_spanning():
    with pytest.raises(NotSpanning):
        frame_bounds(FrameSet(np.array([[1.0], [0.0]])))


def test_bound_optimality():
    # extreme eigenvectors saturate the bounds, so any tightening fails
    V = np.hstack([np.eye(2), np.eye(2)[:, :1]])
    c1, c2 = frame_bounds(FrameSet(V))
    power = lambda x: float(((V.T @ x) ** 2).sum())
    x_lo = np.array([0.0, 1.0])
    x_hi = np.array([1.0, 0.0])
    assert power(x_lo) < (c1 + 1e-6) * 1.0
    assert power(x_hi) > (c2 - 1e-6) * 1.0


def test_etf_simplex():
    rep = is_etf(simplex_frame(3).as_frame())
    assert rep.ok and bool(rep)
    assert rep.failed == []
    assert rep.coherence == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.frame_constant == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_etf_orthonormal():
    rep = is_etf(FrameSet(np.eye(5)))
    assert rep.ok
    assert rep.coherence == pytest.approx(0.0, abs=1e-15)


def test_etf_rejects_square_equiangular(rng):
    from eqkit.ea import random_equiangular

    S = random_equiangular(4, 0.3, rng=rng)
    rep = is_etf(FrameSet(S.mat))
    assert not rep
    assert rep.failed == ["tight"]


@pytest.mark.parametrize("shape", [(3, 0), (0, 0), (0, 3)])
def test_etf_rejects_an_empty_frame(shape):
    with pytest.raises(InvalidShape, match="at least one vector"):
        is_etf(FrameSet(np.zeros(shape)))


def test_etf_failure_reporting():
    rep = is_etf(FrameSet(2.0 * np.eye(3)))
    assert "unit_norms" in rep.failed
    V = np.array([[1.0, 0.6, 0.0], [0.0, 0.8, 1.0]])
    assert "constant_coherence" in is_etf(FrameSet(V)).failed


_PHI = (1.0 + math.sqrt(5.0)) / 2.0
# The six diagonals of the icosahedron: lines in R^3 whose |cosines| all equal 1/sqrt(5).
ICOSAHEDRON_DIAGONALS = np.array(
    [[0.0, 1.0, _PHI], [0.0, -1.0, _PHI], [1.0, _PHI, 0.0], [-1.0, _PHI, 0.0], [_PHI, 0.0, 1.0], [_PHI, 0.0, -1.0]]
).T / math.sqrt(1.0 + _PHI**2)


@pytest.mark.parametrize("m, failed", [(4, ["welch_bound", "tight"]), (5, ["welch_bound", "tight"]), (6, [])])
def test_etf_icosahedron_diagonals(m, failed):
    # 1/sqrt(5) is above the Welch bounds 1/3 (m = 4) and 1/sqrt(6) (m = 5) and equals it at m = 6.
    rep = is_etf(FrameSet(ICOSAHEDRON_DIAGONALS[:, :m]))
    assert rep.failed == failed
    assert rep.coherence == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-12)


@pytest.mark.parametrize(
    "n,m,want",
    [(3, 3, 0.0), (3, 4, 1.0 / 3.0), (2, 3, 0.5), (4, 16, math.sqrt(12.0 / 60.0))],
)
def test_welch_values(n, m, want):
    assert welch_alpha(n, m) == pytest.approx(want, abs=1e-15)


def test_welch_shape_check():
    with pytest.raises(InvalidShape):
        welch_alpha(4, 3)
    with pytest.raises(InvalidShape):
        welch_alpha(0, 2)


@pytest.mark.parametrize("n", range(2, 11))
def test_welch_matches_simplex_coherence(n):
    G = simplex_frame(n).mat.T @ simplex_frame(n).mat
    off = np.abs(G[~np.eye(n + 1, dtype=bool)])
    assert abs(off.mean() - welch_alpha(n, n + 1)) <= 1e-14


def test_defect_unit_probe():
    # power of e1 against S_2 is 1 + 1/4 + 1/4 = 3/2 exactly
    assert tight_frame_identity_defect(simplex_frame(2), [1.0, 0.0]) <= 1e-15


def test_defect_zero_probe():
    assert tight_frame_identity_defect(simplex_frame(4), np.zeros(4)) == 0.0


def test_defect_random_sweep(rng):
    worst = 0.0
    for n in range(2, 11):
        sf = simplex_frame(n)
        for _ in range(100):
            x = rng.standard_normal(n)
            worst = max(worst, tight_frame_identity_defect(sf, x) / (1.0 + x @ x))
    assert worst <= 1e-11


def test_augment_n2():
    M = augment_to_orthogonal(simplex_frame(2))
    assert np.allclose(M[-1], 1.0 / math.sqrt(2.0))
    assert np.abs(M.T @ M - 1.5 * np.eye(3)).max() <= 1e-12


def test_augment_n1():
    M = augment_to_orthogonal(simplex_frame(1))
    assert np.array_equal(M, [[1.0, -1.0], [1.0, 1.0]])
    assert np.abs(M.T @ M - 2.0 * np.eye(2)).max() <= 1e-15


@pytest.mark.parametrize("n", range(3, 9))
def test_augment_sweep(n):
    M = augment_to_orthogonal(simplex_frame(n))
    c = (n + 1.0) / n
    assert np.abs(M.T @ M - c * np.eye(n + 1)).max() <= 1e-12
    assert np.abs(M @ M.T - c * np.eye(n + 1)).max() <= 1e-12
    Q = math.sqrt(n / (n + 1.0)) * M
    assert np.abs(Q @ Q.T - np.eye(n + 1)).max() <= 1e-12


def test_relate_n2():
    S, A = relate_to_sdst(2)
    r3 = math.sqrt(3.0) / 2.0
    assert np.abs(S.mat - [[-0.5, -0.5], [r3, -r3]]).max() <= 1e-15
    assert np.allclose(A, np.diag([0.5, 1.5]))
    assert np.abs(S.mat @ S.mat.T - A).max() <= 1e-12


def test_relate_n3():
    S, A = relate_to_sdst(3)
    assert np.allclose(A, np.diag([1 / 3, 4 / 3, 4 / 3]))
    assert np.abs(S.mat @ S.mat.T - A).max() <= 1e-12
    assert S.alpha == pytest.approx(-1.0 / 3.0)


def test_relate_feeds_two_eigenvalue_factor():
    # the truncated simplex realizes the closed-form factorization of its
    # own frame operator: alpha = -1/n, scale 1
    for n in (3, 4, 6):
        _, A = relate_to_sdst(n)
        r, S = two_eigenvalue_factor(A)
        assert r == pytest.approx(1.0, abs=1e-10)
        assert S.alpha == pytest.approx(-1.0 / n, abs=1e-10)


def test_relate_shape_check():
    with pytest.raises(InvalidShape):
        relate_to_sdst(1)


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_no_room_for_another_line(n):
    # a hypothetical (n+2)-vector family at cosine -1/n would need this Gram
    # to be positive semidefinite, but its smallest eigenvalue is negative
    m = n + 2
    G = (1.0 + 1.0 / n) * np.eye(m) - (1.0 / n) * np.ones((m, m))
    lo = np.linalg.eigvalsh(G)[0]
    assert lo == pytest.approx(1.0 + (n + 1) * (-1.0 / n), abs=1e-12)
    assert lo < -1e-9


def test_simplex_gram_is_singular_boundary_case():
    # the (n+1)-column Gram at cosine -1/n sits exactly at the degenerate
    # boundary -1/(m-1): rank n, one zero eigenvalue
    S = simplex_frame(4).mat
    G = S.T @ S
    want = (1.0 + 0.25) * np.eye(5) - 0.25 * np.ones((5, 5))
    assert np.abs(G - want).max() <= 1e-12
    w = np.linalg.eigvalsh(G)
    assert abs(w[0]) <= 1e-12
    assert np.abs(w[1:] - 1.25).max() <= 1e-12
