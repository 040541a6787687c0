import numpy as np
import pytest

from eqkit.errors import DegreeZero, NotSymmetric, RankDeficient, Singular
from eqkit.kernel import (
    OpCounter,
    generic_inverse,
    norm2_at_most,
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

    @staticmethod
    def _rank_decision(A):
        try:
            qr(A)
        except RankDeficient as exc:
            return str(exc)
        return None

    def test_rank_decision_does_not_depend_on_scale(self):
        """2**k A gets the decision of A for k in [-1020, 1020], past where the
        squares of the column norms over- or underflow (|k| >= 550 here)."""
        rng = np.random.default_rng(20)
        ks = sorted(set(range(-1020, 1021, 17)) | {-1020, -551, -550, 550, 551, 1020})
        for t in range(20):
            A = rng.standard_normal((6, 6))
            if t % 4 == 1:
                A[:, 3] = A[:, 1]  # exactly dependent
            elif t % 4 == 2:
                A[:, 3] = A[:, 1] + 1e-13 * rng.standard_normal(6)  # dependent within RANK_RTOL
            elif t % 4 == 3:
                A[:, 3] = A[:, 1] + 1e-7 * rng.standard_normal(6)  # nearly dependent, independent
            want = self._rank_decision(A)
            assert want == (None if t % 4 in (0, 3) else "column 3 is dependent on the preceding columns")
            for k in ks:
                assert self._rank_decision(np.ldexp(A, k)) == want, (t, k)

    def test_huge_diagonal_is_independent(self):
        Q, R = qr(np.diag([1e200, 1e200]))
        assert np.array_equal(Q, np.eye(2)) and np.array_equal(R, np.diag([1e200, 1e200]))


class TestSymEig:
    def test_huge_entries(self):
        """Found by tests/test_fuzz_cli.py: eigh with vectors did not converge
        on this 1e300 matrix, and a non-symmetric one passed the symmetry test
        because both of its Frobenius norms overflowed."""
        M = np.zeros((5, 5))
        M[1, 0], M[3, 1], M[3, 4] = 1e300, 2.0, 2.0
        A = M + M.T
        Q, w = sym_eig(A)
        assert np.array_equal(w, sym_eig(np.ldexp(A, -997))[1] * 2.0**997)
        assert np.abs(Q @ np.diag(w) @ Q.T - A).max() <= 1e-15 * 1e300
        with pytest.raises(NotSymmetric):
            sym_eig(M + 1e300 * np.eye(5))

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
    @pytest.fixture(autouse=True)
    def _needs_scipy(self):
        pytest.importorskip("scipy")

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

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(DegreeZero, match="leading coefficient is zero"):
            poly_roots([0.0, 1.0, 2.0])

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


def _norm2_sweep_inputs(rng):
    G = rng.standard_normal((7, 7))
    return {
        "square": G,
        "tall": rng.standard_normal((9, 4)),
        "wide": rng.standard_normal((4, 9)),
        "symmetric": G + G.T,
        "rank one": np.outer(rng.standard_normal(6), rng.standard_normal(5)),
        "rank one square": np.outer(rng.standard_normal(5), rng.standard_normal(5)),
        "single column": rng.standard_normal((6, 1)),
        "1x1": rng.standard_normal((1, 1)),
        "orthogonal": np.linalg.qr(G)[0],
        "zero": np.zeros((4, 3)),
    }


def test_norm2_at_most_equals_the_exact_test(rng):
    """The bracket never changes the answer of ``spectral_norm(X) <= bound``,
    also at bounds on the 2-norm itself, on either end of the bracket and
    1e-9 away from the 2-norm."""
    checked = 0
    for seed in range(10):
        sweep = np.random.default_rng([20260823, seed])
        for name, X0 in _norm2_sweep_inputs(sweep).items():
            for scale in 10.0 ** np.arange(-14, 4):
                X = X0 * scale
                s = spectral_norm(X)
                fro = float(np.linalg.norm(X))
                col = float(np.linalg.norm(X, axis=0).max())
                for bound in (s * (1 - 1e-9), s * (1 + 1e-9), s, fro, col, 0.0, -1.0,
                              fro * (1 + 1e-12), col * (1 - 1e-12), np.nextafter(s, 0.0)):
                    assert norm2_at_most(X, bound) == (s <= bound), (seed, name, scale, bound)
                    checked += 1
    assert checked == 10 * 10 * 18 * 10


def test_norm2_at_most_needs_no_eigensolve_outside_the_bracket(rng, monkeypatch):
    X = rng.standard_normal((30, 20))
    fro = float(np.linalg.norm(X))
    col = float(np.linalg.norm(X, axis=0).max())

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert norm2_at_most(X, 1.01 * fro)
    assert not norm2_at_most(X, 0.99 * col)
    with pytest.raises(AssertionError, match="eigensolve"):
        norm2_at_most(X, 0.5 * (fro + col))  # inside the bracket


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_norm2_at_most_tiny_and_huge(rng, scale):
    X = rng.standard_normal((6, 4)) * scale
    s = spectral_norm(X)
    for bound in (s, s * (1 - 1e-9), s * (1 + 1e-9), 0.0):
        assert norm2_at_most(X, bound) == (s <= bound)


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

    def test_empty(self):
        ops = OpCounter()
        X = generic_inverse(np.zeros((0, 0)), ops=ops)
        assert X.shape == (0, 0) and ops.total == 0

    def test_op_count_cubic(self):
        # the LU factor/solve tally should track (8/3) n^3 to leading order
        for n in (20, 40):
            ops = OpCounter()
            generic_inverse(np.eye(n) + 0.01 * np.arange(n * n).reshape(n, n), ops=ops)
            assert 2.0 * n**3 <= ops.total <= 3.5 * n**3
