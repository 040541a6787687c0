"""Tests for the one-reflection upgrade to doubly equiangular form."""

import math

import numpy as np
import pytest

from eqkit.doubly import (
    DoublyEquiangular,
    canonical_commuter,
    certify_doubly,
    dea,
    dem_product_params,
    row_sum_params,
)
from eqkit.ea import random_equiangular, sr_decompose
from eqkit.errors import InvalidAlpha, NotSquare, Singular
from eqkit.gram import GramParams, gram_matrix

# Matrices printed to 4 decimals round-trip within this.
PRINT_TOL = 1.5e-4

# dea(hilbert4, 2/3), long-established output rounded to 4 places.
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

CIRCULANT = np.array([[3.0, -2.0, 6.0], [6.0, 3.0, -2.0], [-2.0, 6.0, 3.0]]) / 7.0


def test_hilbert_fixture(hilbert4):
    out = dea(hilbert4, 2.0 / 3.0)
    assert np.abs(out.mat - HILBERT_DEA).max() <= PRINT_TOL
    assert np.allclose(out.mat.sum(axis=0), math.sqrt(3.0), atol=1e-12)
    assert np.allclose(out.mat.sum(axis=1), math.sqrt(3.0), atol=1e-12)
    assert certify_doubly(out) == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_orthogonal_fixture_exact():
    out = dea(ORTHO_IN, 0.0)
    assert np.abs(out.mat - ORTHO_OUT).max() <= 1e-12
    assert np.allclose(out.mat.sum(axis=1), 1.0, atol=1e-14)


def test_circulant_certifies_as_doubly_orthogonal():
    e = np.ones(3)
    assert np.allclose(CIRCULANT @ e, e)
    assert np.allclose(CIRCULANT.T @ e, e)
    assert certify_doubly(CIRCULANT) == pytest.approx(0.0, abs=1e-12)


def test_already_doubly_is_fixed_point(hilbert4):
    first = dea(hilbert4, 0.4)
    again = dea(first.mat, 0.4)
    # second pass takes the skip branch (u ~ 0), matrix unchanged
    assert np.abs(again.mat - first.mat).max() <= 1e-10


def test_reflection_preserves_both_grams(rng):
    for n, alpha in [(3, 0.5), (5, -0.2), (6, 0.85)]:
        A = rng.standard_normal((n, n))
        M = dea(A, alpha).mat
        G = gram_matrix(GramParams(n, alpha))
        assert np.abs(M.T @ M - G).max() <= 1e-12 * n
        assert np.abs(M @ M.T - G).max() <= 1e-12 * n


@pytest.mark.parametrize("n", [2, 4, 7])
@pytest.mark.parametrize("alpha", [-0.1, 0.0, 0.3, 0.9])
def test_certify_matches_requested_alpha(n, alpha, rng):
    if alpha <= -1.0 / (n - 1):
        pytest.skip("outside admissible interval for this n")
    out = dea(rng.standard_normal((n, n)), alpha)
    assert certify_doubly(out, tol=1e-10) == pytest.approx(alpha, abs=1e-10)


def test_quasi_doubly_stochastic_scaling(rng):
    # rows and columns of S / sqrt(1 + (n-1) alpha) each sum to one
    n, alpha = 5, 0.35
    M = dea(rng.standard_normal((n, n)), alpha).mat
    P = M / math.sqrt(1.0 + (n - 1) * alpha)
    assert np.allclose(P.sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)


def test_alpha_zero_output_is_orthogonal(rng):
    M = dea(rng.standard_normal((4, 4)), 0.0).mat
    assert np.abs(M @ M.T - np.eye(4)).max() <= 1e-12


def test_singular_input_rejected():
    with pytest.raises(Singular):
        dea(np.ones((3, 3)), 0.2)


@pytest.mark.parametrize("alpha", [1.0, -0.5, 2.0])
def test_alpha_outside_interval_rejected(alpha):
    with pytest.raises(InvalidAlpha):
        dea(np.eye(3), alpha)


def test_certify_rejections(rng):
    # plain (column-only) equiangular almost never certifies on both sides
    S = sr_decompose(rng.standard_normal((4, 4)), math.acos(0.3)).S.mat
    assert certify_doubly(S) is None
    assert certify_doubly(np.array([[1.0, 2.0], [0.0, 1.0]])) is None
    assert certify_doubly(np.zeros((0, 0))) is None
    with pytest.raises(NotSquare):
        certify_doubly(np.ones((2, 3)))


def test_certify_accepts_wrapper_object(hilbert4):
    out = dea(hilbert4, 0.25)
    assert isinstance(out, DoublyEquiangular)
    assert certify_doubly(out) is not None


class TestCanonicalCommuter:
    def test_identity_at_zero(self):
        assert np.allclose(canonical_commuter(GramParams(4, 0.0)), np.eye(4))

    def test_is_itself_doubly_equiangular(self):
        C = canonical_commuter(GramParams(5, 0.3))
        assert certify_doubly(C, tol=1e-9) == pytest.approx(0.3, abs=1e-9)

    def test_commutes_across_cosines(self, rng):
        # commutation holds even when the two cosines differ
        C = canonical_commuter(GramParams(4, 0.5))
        for alpha in (-0.25, 0.1, 0.8):
            M = dea(rng.standard_normal((4, 4)), alpha).mat
            assert np.linalg.norm(C @ M - M @ C, 2) <= 1e-10

    def test_doubly_stochastic_after_scaling(self):
        for n, alpha in [(3, 0.4), (6, 0.05), (4, 0.95)]:
            C = canonical_commuter(GramParams(n, alpha))
            P = C / math.sqrt(1.0 + (n - 1) * alpha)
            assert P.min() >= 0.0
            assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)


class TestProductLaw:
    def test_orthogonal_times_orthogonal(self):
        assert dem_product_params(0.0, 0.0, 4) == (1.0, 0.0)

    def test_fixture(self):
        c, alpha = dem_product_params(0.5, 0.25, 3)
        assert c == pytest.approx(1.25, abs=1e-15)
        assert alpha == pytest.approx(0.7, abs=1e-15)

    def test_against_actual_products(self, rng):
        for n, a1, a2 in [(3, 0.5, 0.25), (4, -0.2, 0.6), (5, 0.9, 0.9)]:
            c, alpha = dem_product_params(a1, a2, n)
            P = dea(rng.standard_normal((n, n)), a1).mat @ dea(rng.standard_normal((n, n)), a2).mat
            G = gram_matrix(GramParams(n, alpha))
            assert np.abs(P @ P.T - c * G).max() <= 1e-9
            assert np.linalg.norm(P @ P.T - P.T @ P, 2) <= 1e-9
            assert certify_doubly(P / math.sqrt(c)) == pytest.approx(alpha, abs=1e-8)

    def test_input_validation(self):
        with pytest.raises(InvalidAlpha):
            dem_product_params(1.5, 0.0, 3)
        with pytest.raises(InvalidAlpha):
            dem_product_params(0.0, -0.6, 3)


def test_random_equiangular_upgrade_path(rng):
    # end to end: random EA columns -> square -> doubly
    S = random_equiangular(6, 0.2, rng=rng)
    out = dea(S.mat, 0.2)
    assert certify_doubly(out, tol=1e-9) == pytest.approx(0.2, abs=1e-9)


@pytest.mark.parametrize("n, alpha", [(2, 0.3), (5, -0.2), (9, 0.7)])
def test_row_sum_params_use_the_gram_closed_form(n, alpha):
    p, c = row_sum_params(n, alpha)
    assert p == GramParams(n, alpha)
    assert c == math.sqrt(1.0 + (n - 1) * alpha)
    M = dea(np.random.default_rng(n).standard_normal((n, n)), alpha).mat
    assert np.abs(M.sum(axis=0) - c).max() <= 1e-12
    assert np.abs(M.T @ M - gram_matrix(p)).max() <= 1e-12


@pytest.mark.parametrize("a", [-2.5, 0.75])
@pytest.mark.parametrize("alpha", [-0.9, 0.0, 0.5])
def test_one_by_one_input(a, alpha):
    # one unit vector: G_alpha is [[1]] and the row sum is 1 at every alpha
    p, c = row_sum_params(1, alpha)
    assert c == 1.0 and gram_matrix(p)[:1, :1].tolist() == [[1.0]]
    assert dea(np.array([[a]]), alpha).mat.tolist() == [[1.0]]


@pytest.mark.parametrize("alpha", [1.0, -1.0, float("nan")])
def test_one_by_one_alpha_is_range_checked(alpha):
    with pytest.raises(InvalidAlpha):
        row_sum_params(1, alpha)
    with pytest.raises(InvalidAlpha):
        dea(np.array([[2.0]]), alpha)
