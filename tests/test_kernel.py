import numpy as np
import pytest

from eqkit.errors import DegreeZero, NotSymmetric, RankDeficient, Singular
from eqkit.kernel import (
    OpCounter,
    generic_inverse,
    poly_roots,
    qr,
    real_schur,
    spectral_norm,
    sym_eig,
)


class TestQr:
    def test_identity(self):
        Q, R = qr(np.eye(3))
        assert np.allclose(Q, np.eye(3))
        assert np.allclose(R, np.eye(3))

    def test_single_column(self):
        Q, R = qr(np.array([[3.0], [4.0]]))
        assert np.allclose(Q, [[0.6], [0.8]])
        assert np.allclose(R, [[5.0]])

    def test_tall_residual(self, rng):
        A = rng.standard_normal((6, 4))
        Q, R = qr(A)
        assert np.linalg.norm(A - Q @ R, 2) <= 1e-12 * np.linalg.norm(A, 2)
        assert np.linalg.norm(Q.T @ Q - np.eye(4), 2) <= 1e-12
        assert np.all(np.diag(R) >= 0)
        assert np.allclose(np.tril(R, -1), 0)

    def test_rank_deficient(self):
        A = np.ones((4, 3))
        with pytest.raises(RankDeficient):
            qr(A)


class TestSymEig:
    def test_diagonal_sorted_ascending(self):
        Q, lam = sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(lam, [1.0, 2.0, 3.0])

    def test_gram_half(self):
        # unit diagonal, 1/2 off-diagonal: spectrum {1/2, 1/2, 2}
        G = 0.5 * np.eye(3) + 0.5 * np.ones((3, 3))
        _, lam = sym_eig(G)
        assert np.allclose(lam, [0.5, 0.5, 2.0])

    def test_random_residual(self, rng):
        A = rng.standard_normal((8, 8))
        A = A + A.T
        Q, lam = sym_eig(A)
        assert np.linalg.norm(A @ Q - Q @ np.diag(lam), 2) <= 1e-10
        assert np.linalg.norm(Q.T @ Q - np.eye(8), 2) <= 1e-10

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestRealSchur:
    def test_symmetric_gives_diagonal_t(self, rng):
        A = rng.standard_normal((5, 5))
        A = A + A.T
        Q, T = real_schur(A)
        assert np.abs(T - np.diag(np.diag(T))).max() <= 1e-8 * np.abs(T).max()

    def test_rotation_single_block(self):
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        Q, T = real_schur(A)
        # one 2x2 block carrying the pair +-i
        assert abs(T[1, 0]) > 0.5
        assert np.linalg.norm(A - Q @ T @ Q.T, 2) <= 1e-12

    def test_random_residual_and_trace(self, rng):
        A = rng.standard_normal((6, 6))
        Q, T = real_schur(A)
        assert np.linalg.norm(A - Q @ T @ Q.T, 2) <= 1e-9 * np.linalg.norm(A, 2)
        assert abs(np.trace(T) - np.trace(A)) <= 1e-9 * max(1.0, abs(np.trace(A)))


class TestPolyRoots:
    def test_quadratic(self):
        r = poly_roots([1.0, 0.0, -1.0])
        assert np.allclose(sorted(r.real), [-1.0, 1.0])
        assert np.allclose(r.imag, 0.0)

    def test_conjugate_pair(self):
        # x^2 - 2x + 1/(1 - 1/4): roots 1 +- (0.5/sqrt(0.75)) i
        r = poly_roots([1.0, -2.0, 1.0 / 0.75])
        want = 0.5 / np.sqrt(0.75)
        assert np.allclose(sorted(r.imag), [-want, want])
        assert np.allclose(r.real, 1.0)

    def test_evaluation_oracle(self, rng):
        c = rng.standard_normal(6)
        c[0] = 1.0
        for root in poly_roots(c):
            assert abs(np.polyval(c, root)) <= 1e-8

    def test_coefficient_round_trip(self, rng):
        roots = rng.standard_normal(12)
        c = np.poly(roots)
        back = poly_roots(c)
        assert np.abs(np.sort(back.real) - np.sort(roots)).max() <= 1e-7

    def test_constant_rejected(self):
        with pytest.raises(DegreeZero):
            poly_roots([2.0])

    def test_deterministic_ordering(self):
        a = poly_roots([1.0, -2.0, 1.0 / 0.75])
        b = poly_roots([1.0, -2.0, 1.0 / 0.75])
        assert np.array_equal(a, b)


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_matches_svd(rng):
    G = rng.standard_normal((7, 7))
    u, v = rng.standard_normal(7), rng.standard_normal(5)
    inputs = {
        "general": G,
        "symmetric indefinite": G + G.T,
        "tall": rng.standard_normal((9, 4)),
        "wide": rng.standard_normal((6, 7)),
        "rank one": np.outer(u, v),
    }
    for name, A in inputs.items():
        assert spectral_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-12), name


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_spectral_norm_tiny_and_huge(rng, scale):
    A = rng.standard_normal((6, 4)) * scale
    assert spectral_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-10, abs=0.0)
    assert spectral_norm(np.zeros((3, 2))) == 0.0


class TestGenericInverse:
    def test_diagonal(self):
        assert np.allclose(generic_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_well_conditioned_residual(self, rng):
        A = rng.standard_normal((20, 20)) + 5.0 * np.eye(20)
        X = generic_inverse(A)
        assert np.linalg.norm(A @ X - np.eye(20), 2) <= 1e-10

    def test_singular_rejected(self):
        with pytest.raises(Singular):
            generic_inverse(np.ones((3, 3)))

    def test_op_count_cubic(self):
        # the LU factor/solve tally should track (8/3) n^3 to leading order
        for n in (20, 40):
            ops = OpCounter()
            generic_inverse(np.eye(n) + 0.01 * np.arange(n * n).reshape(n, n), ops=ops)
            assert 2.0 * n**3 <= ops.total <= 3.5 * n**3
