"""Structured inverse and spectral facts for square equiangular matrices.

The inverse of an equiangular S never needs a factorization: with
beta and alpha' the dual parameters of the Gram matrix,

    (S^-1)[i, j] = beta * ((1 - alpha') * S[j, i] + alpha' * rowsum_j(S))

which is quadratic work once the row sums are precomputed.  The rows of
S^-1 are themselves an equiangular family (scaled by sqrt(beta), cosine
alpha'), and every eigenvalue lambda of S satisfies

    |lambda| = sqrt(alpha |e^T x|^2 + 1 - alpha)

for its unit eigenvector x, pinning |lambda| between sqrt(1 - alpha) and
sqrt(1 + (n-1) alpha).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .ea import EquiangularMatrix, random_equiangular
from .errors import NotEigenpair, NotSquare
from .gram import GramParams, dual_params, gram_eigenvalues
from .kernel import OpCounter, as_matrix, generic_inverse


@dataclass(frozen=True)
class InverseGeometry:
    """Row geometry of the structured inverse."""

    alpha_prime: float
    row_norm: float
    cos_tau: float


def fast_inverse(S: EquiangularMatrix, ops: OpCounter | None = None) -> np.ndarray:
    """Inverse of a square equiangular matrix in O(n^2) arithmetic."""
    M = as_matrix(S.mat)
    n = M.shape[0]
    if n != M.shape[1]:
        raise NotSquare("structured inverse is defined for square systems")
    d = dual_params(GramParams(n, S.alpha))
    rowsums = M.sum(axis=1)
    inv = d.beta * ((1.0 - d.alpha_prime) * M.T + d.alpha_prime * rowsums[None, :])
    if ops is not None:
        # row sums: n(n-1) adds; scale/add/scale: 3n^2 + n multiplies and adds
        ops.add(n * (n - 1) + 3 * n * n + n)
    return inv


def inverse_geometry(p: GramParams) -> InverseGeometry:
    """Norm and mutual cosine of the rows of the structured inverse.

    Each row of S^-1 has norm sqrt(beta); distinct rows meet at cosine
    alpha', and the angle tau to the corresponding original column obeys
    cos(tau) = 1/sqrt(beta).
    """
    d = dual_params(p)
    rn = float(np.sqrt(d.beta))
    return InverseGeometry(alpha_prime=d.alpha_prime, row_norm=rn, cos_tau=1.0 / rn)


def eigenvalue_bounds(p: GramParams) -> tuple[float, float]:
    """Interval [sqrt(1-a), sqrt(1+(n-1)a)] containing every |eigenvalue|."""
    lo, hi = sorted(np.sqrt(gram_eigenvalues(p)))
    return float(lo), float(hi)


def eig_relation_check(S: EquiangularMatrix, lam, x, pair_tol: float = 1e-6) -> float:
    """Defect of the |lambda| identity for one eigenpair of S.

    The vector is normalized here; the pair is rejected (NotEigenpair) when
    ||S x - lambda x|| exceeds ``pair_tol``.  Complex pairs are fine.
    """
    M = as_matrix(S.mat)
    x = np.asarray(x, dtype=complex).ravel()
    nx = np.linalg.norm(x)
    if nx == 0:
        raise NotEigenpair("zero eigenvector")
    x = x / nx
    if np.linalg.norm(M @ x - lam * x) > pair_tol:
        raise NotEigenpair("residual of the supplied pair exceeds tolerance")
    predicted = np.sqrt(S.alpha * abs(np.sum(x)) ** 2 + 1.0 - S.alpha)
    return float(abs(abs(lam) - predicted))


def fit_exponent(sizes, costs) -> float:
    """Least-squares slope of log(cost) against log(n)."""
    return float(np.polyfit(np.log(np.asarray(sizes, float)), np.log(np.asarray(costs, float)), 1)[0])


def benchmark_inverse(sizes=(64, 128, 256, 512), alpha: float = 0.3, repeats: int = 5, seed: int = 0):
    """Time and count both inverse routes on random equiangular inputs.

    Returns one record per size with median wall times (monotonic clock)
    and exact scalar-operation tallies for the fast and generic routes, plus
    the median time of LAPACK's dense inverse (``np.linalg.inv``) as the
    honest dense baseline; the hand-written LU serves the op-count fit.
    """
    rng = np.random.default_rng(seed)
    records = []
    for n in sizes:
        S = random_equiangular(n, alpha, rng)
        fast_ops, gen_ops = OpCounter(), OpCounter()
        fast_inverse(S, fast_ops)
        generic_inverse(S.mat, gen_ops)
        t_fast, t_gen, t_lapack = [], [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fast_inverse(S)
            t_fast.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            generic_inverse(S.mat)
            t_gen.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            np.linalg.inv(S.mat)
            t_lapack.append(time.perf_counter() - t0)
        records.append(
            {
                "n": int(n),
                "t_fast": float(np.median(t_fast)),
                "t_generic": float(np.median(t_gen)),
                "t_lapack": float(np.median(t_lapack)),
                "ops_fast": fast_ops.total,
                "ops_generic": gen_ops.total,
            }
        )
    return records
