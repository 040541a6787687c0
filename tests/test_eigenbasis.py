"""Properties of ``equiangular_eigenvectors`` on planted eigenbases.

A = S diag(w) S^-1 with S = U T_alpha, U Haar orthogonal and T_alpha the
triangular system at alpha, has unit eigenvectors at the common cosine
alpha.  The detector must find alpha and those columns, must answer None for
bases that are not equiangular at a cosine in [1e-6, 1 - 1e-6], and must
commute with shifts, scalings and orthogonal similarities of A.  Example
counts come from the hypothesis profiles registered in ``conftest.py``.
"""

import numpy as np
import pytest

from eqkit.ea import certify_equiangular, triangular_equiangular
from eqkit.factor import CLUSTER_RTOL, equiangular_eigenvectors
from eqkit.gram import GramParams

given = pytest.importorskip("hypothesis").given
st = pytest.importorskip("hypothesis.strategies")

seeds = st.integers(0, 2**32 - 1)


def haar(n, rng):
    Q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.where(np.diag(r) < 0, -1.0, 1.0)


def planted(n, alpha, seed, noise=0.0):
    """A with the eigenbasis U T_alpha (+ noise) at distinct eigenvalues w, and w."""
    rng = np.random.default_rng(seed)
    S = haar(n, rng) @ triangular_equiangular(GramParams(n, alpha)).mat
    S += noise * rng.standard_normal((n, n))
    w = np.cumsum(rng.uniform(0.5, 2.0, n)) - rng.uniform(0.0, 2.0 * n)  # gaps of at least 0.5
    return np.linalg.solve(S.T, (S * w).T).T, w


def same_up_to_column_signs(X, Y, tol):
    signs = np.where(np.sum(X * Y, axis=0) < 0, -1.0, 1.0)
    return float(np.max(np.abs(X * signs - Y))) <= tol


@given(st.integers(2, 12), st.floats(1e-3, 0.99), seeds)
def test_planted_basis_is_found(n, alpha, seed):
    A, w = planted(n, alpha, seed)
    out = equiangular_eigenvectors(A)
    assert out is not None
    found, S = out
    assert abs(found - alpha) <= 1e-6
    assert S.alpha == found
    scale = max(1.0, float(np.max(np.abs(w))))
    assert np.linalg.norm(A @ S.mat - S.mat * w, axis=0).max() <= 1e-7 * n * scale
    assert certify_equiangular(S, CLUSTER_RTOL) == found


@given(st.integers(2, 12), seeds)
def test_orthogonal_eigenvectors_give_none(n, seed):
    rng = np.random.default_rng(seed)
    U = haar(n, rng)
    A = (U * np.arange(1.0, n + 1.0)) @ U.T
    assert equiangular_eigenvectors(A) is None


@given(st.integers(3, 12), st.floats(0.05, 0.9), seeds)
def test_negative_cosine_family_gives_none(n, frac, seed):
    # Signed against column 0, the pairs (0, j) meet at |alpha| and the rest at alpha.
    A, _ = planted(n, -frac / (n - 1), seed)
    assert equiangular_eigenvectors(A) is None


@given(st.integers(3, 12), st.floats(1e-3, 0.99), seeds)
def test_perturbed_basis_gives_none(n, alpha, seed):
    # Any two unit vectors share a cosine, so only n >= 3 can fail to.
    A, _ = planted(n, alpha, seed, noise=1e-3)
    assert equiangular_eigenvectors(A) is None


@given(st.integers(2, 12), st.floats(1e-3, 0.99), seeds, st.floats(-3.0, 3.0), st.floats(0.5, 2.0))
def test_shift_scale_and_similarity_relations(n, alpha, seed, shift, c):
    A, _ = planted(n, alpha, seed)
    base_alpha, base = equiangular_eigenvectors(A)
    U = haar(n, np.random.default_rng(seed + 1))
    cases = [
        (A + shift * np.eye(n), base.mat),
        (c * A, base.mat),
        (-c * A, base.mat[:, ::-1]),
        (U @ A @ U.T, U @ base.mat),
    ]
    for M, expected in cases:
        found, S = equiangular_eigenvectors(M)
        assert abs(found - base_alpha) <= 1e-9
        assert same_up_to_column_signs(S.mat, expected, 1e-8)
