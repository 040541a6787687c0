import math

import numpy as np
import pytest

from eqkit.ea import EquiangularMatrix, certify_equiangular, random_equiangular, sr_decompose, triangular_equiangular
from eqkit.errors import NotEigenpair, NotSquare
from eqkit.gram import GramParams, dual_params, gram_matrix
from eqkit.kernel import OpCounter, generic_inverse
from eqkit.spectral import (
    benchmark_inverse,
    eig_relation_check,
    eigenvalue_bounds,
    fast_inverse,
    fit_exponent,
    inverse_geometry,
)


class TestFastInverse:
    def test_orthogonal_is_transpose(self, rng):
        g = rng.standard_normal((5, 5))
        Q, r = np.linalg.qr(g)
        Q = Q * np.where(np.diag(r) < 0, -1.0, 1.0)
        assert np.abs(fast_inverse(EquiangularMatrix(Q, 0.0)) - Q.T).max() <= 1e-12

    def test_two_by_two_fixture(self):
        S = triangular_equiangular(GramParams(2, 0.5))
        inv = fast_inverse(S)
        assert np.allclose(inv, [[1.0, -0.5774], [0.0, 1.1547]], atol=1.5e-4)

    def test_matches_generic_inverse(self):
        S = random_equiangular(50, 0.3, rng=1)
        assert np.linalg.norm(fast_inverse(S) - generic_inverse(S.mat), 2) <= 1e-9

    @pytest.mark.parametrize("alpha", [-0.9, 0.0, 0.3])
    def test_one_by_one_is_transpose(self, alpha):
        # G = [1] at every cosine, so the cosine a 1 x 1 S carries does not matter.
        for s in (1.0, -1.0):
            assert fast_inverse(EquiangularMatrix(np.array([[s]]), alpha)).tolist() == [[s]]

    def test_rectangular_rejected(self):
        S = random_equiangular(5, 0.2, rng=2, m=3)
        with pytest.raises(NotSquare):
            fast_inverse(S)

    def test_quadratic_op_count(self):
        for n in (30, 60):
            S = random_equiangular(n, 0.4, rng=n)
            ops = OpCounter()
            fast_inverse(S, ops=ops)
            assert ops.total <= 5 * n * n  # no hidden cubic path

    def test_dual_transpose_certifies(self, rng):
        # beta^{-1/2} S^{-T} is itself equiangular at alpha'
        for n, alpha in [(4, 0.5), (7, 0.2), (5, -0.15)]:
            S = random_equiangular(n, alpha, rng=rng)
            d = dual_params(GramParams(n, alpha))
            got = certify_equiangular(fast_inverse(S).T / math.sqrt(d.beta), tol=1e-8)
            assert got is not None and abs(got - d.alpha_prime) <= 1e-8


def test_rrt_of_orthogonal_sr_is_dual_gram():
    Q = np.array([[3.0, -2.0, 6.0], [6.0, 3.0, -2.0], [-2.0, 6.0, 3.0]]) / 7.0
    R = sr_decompose(Q, math.pi / 3).R
    d = dual_params(GramParams(3, 0.5))
    want = d.beta * gram_matrix(GramParams(3, d.alpha_prime))
    assert np.linalg.norm(R @ R.T - want, 2) <= 1e-9
    assert d.beta == pytest.approx(1.5) and d.alpha_prime == pytest.approx(-1.0 / 3.0)


def test_sst_spectrum_is_gram_spectrum(rng):
    for n, alpha in [(6, 0.3), (5, -0.2)]:
        S = random_equiangular(n, alpha, rng=rng).mat
        lam = np.sort(np.linalg.eigvalsh(S @ S.T))
        want = np.sort(np.r_[[1 - alpha] * (n - 1), 1 + (n - 1) * alpha])
        assert np.abs(lam - want).max() <= 1e-8


class TestInverseGeometry:
    def test_two_dim_flips_angle(self):
        geo = inverse_geometry(GramParams(2, 0.37))
        assert geo.alpha_prime == pytest.approx(-0.37, abs=1e-14)

    def test_orthogonal_trivial(self):
        geo = inverse_geometry(GramParams(6, 0.0))
        assert (geo.row_norm, geo.cos_tau, geo.alpha_prime) == pytest.approx((1.0, 1.0, 0.0))

    def test_pythagorean_relation(self):
        for alpha in (0.2, 0.5, 0.8, -0.1):
            geo = inverse_geometry(GramParams(4, alpha))
            assert geo.row_norm * geo.cos_tau == pytest.approx(1.0, abs=1e-12)

    def test_rows_of_actual_inverse(self, rng):
        geo = inverse_geometry(GramParams(4, 0.5))
        assert geo.row_norm == pytest.approx(math.sqrt(1.6), abs=1e-12)
        assert geo.alpha_prime == pytest.approx(-0.25, abs=1e-12)
        S = random_equiangular(4, 0.5, rng=rng).mat
        inv = generic_inverse(S)
        norms = np.linalg.norm(inv, axis=1)
        assert np.abs(norms - geo.row_norm).max() <= 1e-10
        C = (inv / norms[:, None]) @ (inv / norms[:, None]).T
        assert np.abs(C[~np.eye(4, dtype=bool)] - geo.alpha_prime).max() <= 1e-10
        # cos tau: angle between row i of S^-1 and column i of S
        for i in range(4):
            assert inv[i] @ S[:, i] / norms[i] == pytest.approx(geo.cos_tau, abs=1e-10)


class TestEigenvalueBounds:
    def test_fixture(self):
        lo, hi = eigenvalue_bounds(GramParams(3, 0.5))
        assert (lo, hi) == pytest.approx((0.7071, 1.4142), abs=1.5e-4)

    def test_orthogonal_degenerate(self):
        assert eigenvalue_bounds(GramParams(9, 0.0)) == pytest.approx((1.0, 1.0))

    def test_moduli_within_bounds(self, rng):
        for _ in range(10):
            alpha = float(rng.uniform(-0.1, 0.9))
            S = random_equiangular(8, alpha, rng=rng)
            lo, hi = eigenvalue_bounds(GramParams(8, alpha))
            mods = np.abs(np.linalg.eigvals(S.mat))
            assert np.all(mods >= lo - 1e-9) and np.all(mods <= hi + 1e-9)


class TestEigRelation:
    def test_ones_vector_hits_upper_bound(self):
        from eqkit.gram import gram_principal_sqrt

        n, alpha = 5, 0.4
        _, sbar = gram_principal_sqrt(GramParams(n, alpha))
        S = EquiangularMatrix(sbar, alpha)
        e = np.ones(n) / math.sqrt(n)
        lam = math.sqrt(1 + (n - 1) * alpha)
        assert eig_relation_check(S, lam, e) <= 1e-12

    def test_orthogonal_complement_hits_lower_bound(self):
        from eqkit.gram import gram_principal_sqrt

        n, alpha = 5, 0.4
        _, sbar = gram_principal_sqrt(GramParams(n, alpha))
        S = EquiangularMatrix(sbar, alpha)
        x = np.zeros(n)
        x[0], x[1] = 1.0, -1.0
        x /= np.linalg.norm(x)
        assert eig_relation_check(S, math.sqrt(1 - alpha), x) <= 1e-12

    def test_not_an_eigenpair(self):
        S = random_equiangular(4, 0.3, rng=9)
        with pytest.raises(NotEigenpair):
            eig_relation_check(S, 1.0, np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(NotEigenpair, match="zero eigenvector"):
            eig_relation_check(S, 1.0, np.zeros(4))

    def test_random_suite(self, rng):
        for _ in range(10):
            S = random_equiangular(6, 0.3, rng=rng)
            w, X = np.linalg.eig(S.mat)
            for i in range(6):
                assert eig_relation_check(S, w[i], X[:, i]) <= 1e-8


def test_fit_exponent_recovers_power_law():
    ns = [10, 20, 40, 80]
    assert fit_exponent(ns, [7.0 * n**3 for n in ns]) == pytest.approx(3.0, abs=1e-12)
    assert fit_exponent(ns, [0.2 * n**2 for n in ns]) == pytest.approx(2.0, abs=1e-12)


def test_benchmark_records_and_exponents():
    recs = benchmark_inverse(sizes=(16, 32, 64), repeats=2, seed=5)
    assert [r["n"] for r in recs] == [16, 32, 64]
    for r in recs:
        assert r["t_fast"] > 0 and r["t_generic"] > 0 and r["t_lapack"] > 0
    ns = [r["n"] for r in recs]
    assert fit_exponent(ns, [r["ops_fast"] for r in recs]) <= 2.2
    assert fit_exponent(ns, [r["ops_generic"] for r in recs]) >= 2.7
