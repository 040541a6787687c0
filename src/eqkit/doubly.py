"""Doubly equiangular matrices: equiangular columns *and* rows.

Any square equiangular S can be upgraded in one reflection: with
c = 1 + (n-1) alpha and u = S e - sqrt(c) e, the Householder map
H = I - 2 u u^T / ||u||^2 sends the row-sum vector of S onto sqrt(c) e
(both have the same length), and H S is then equiangular on both sides,
normal, and has e as an eigenvector with eigenvalue sqrt(c).

Products of two doubly equiangular matrices stay in the family up to a
scale: the output cosine and scale follow a closed composition law.
"""

from __future__ import annotations

import math

import numpy as np

from .ea import EquiangularMatrix, _gram, _gram_cosine, _sr_frame
from .ea import certify_equiangular, sr_decompose  # noqa: F401  perfbench/spans.py traces eqkit.doubly.*
from .errors import OutOfRange, RankDeficient, Singular
from .gram import GramParams, gram_eigenvalues, gram_principal_sqrt
from .kernel import as_matrix, norm2_at_most, require_square

# Below this, the row-sum vector already points along e and the reflection
# is skipped.
SKIP_REFLECTION_TOL = 1e-12


class DoublyEquiangular(EquiangularMatrix):
    """A square equiangular matrix whose rows share its columns' cosine ``alpha``."""


def row_sum_params(n: int, alpha: float) -> tuple[GramParams, float]:
    """Gram parameters and the row and column sum of an n x n doubly equiangular matrix.

    The sum is sqrt(1 + (n-1) alpha), the root of G_alpha's simple eigenvalue.
    One vector has no pairwise cosine, so ``GramParams`` (n >= 2) does not
    describe n = 1: there alpha is range-checked as for n = 2, whose G_alpha
    has [[1]] as its leading block, and the sum is 1.
    """
    p = GramParams(max(n, 2), alpha)
    return p, (math.sqrt(gram_eigenvalues(p)[1]) if n > 1 else 1.0)


def dea(A, alpha: float) -> DoublyEquiangular:
    """Build a doubly equiangular matrix from the columns of A.

    A must be square and nonsingular; alpha is the common cosine for both
    the column and row families (alpha = 0 produces a doubly orthogonal
    matrix through the same code path).
    """
    A = require_square(as_matrix(A))
    n = A.shape[0]
    _, c = row_sum_params(n, alpha)
    try:
        S = _sr_frame(A, math.acos(alpha))[0].mat
    except RankDeficient as exc:
        raise Singular(str(exc)) from exc
    u = S.sum(axis=1) - c
    nu = float(u @ u)
    if math.sqrt(nu) > SKIP_REFLECTION_TOL * math.sqrt(n):
        S -= np.outer(u, (2.0 / nu) * (u @ S))
    return DoublyEquiangular(S, float(alpha))


def certify_doubly(M, tol: float = 1e-8):
    """Common cosine of a doubly equiangular matrix, or None.

    Both the columns and the rows must certify as equiangular at matching
    cosines, e must be an eigenvector with eigenvalue sqrt(1 + (n-1) alpha),
    and M must be normal: ||M M^T - M^T M||_2 <= ``tol``.  Each Gram product
    is formed once and serves both its certificate and the normality test.
    """
    M = require_square(as_matrix(getattr(M, "mat", M)))
    n = M.shape[0]
    if n == 0:
        return None
    G_cols, G_rows = _gram(M), _gram(M.T)
    a_cols, a_rows = _gram_cosine(G_cols, tol), _gram_cosine(G_rows, tol)
    if a_cols is None or a_rows is None or abs(a_cols - a_rows) > tol:
        return None
    alpha = 0.5 * (a_cols + a_rows)
    c2 = 1.0 + (n - 1) * alpha
    if c2 < 0:
        return None
    c = math.sqrt(c2)
    row_sums = M.sum(axis=1)
    col_sums = M.sum(axis=0)
    if float(np.max(np.abs(row_sums - c))) > tol or float(np.max(np.abs(col_sums - c))) > tol:
        return None
    G_rows -= G_cols
    if not norm2_at_most(G_rows, tol):
        return None
    return float(alpha)


def canonical_commuter(p: GramParams) -> np.ndarray:
    """The structured matrix (s - t) I + t ee^T commuting with every DEA output.

    It is itself doubly equiangular at p.alpha and commutes with any doubly
    equiangular matrix of the same size regardless of that matrix's cosine,
    because both fix e and act as scalars on its complement.
    """
    return gram_principal_sqrt(p)[1]


def dem_product_params(alpha1: float, alpha2: float, n: int) -> tuple[float, float]:
    """Scale c and cosine of the product of two doubly equiangular matrices.

    S1 S2 satisfies (S1 S2)(S1 S2)^T = c * G where G is the Gram matrix at
    the returned cosine:

        c = 1 + (n-1) a1 a2,
        alpha_out = (a1 + a2 + (n-2) a1 a2) / c.
    """
    GramParams(n, alpha1)
    GramParams(n, alpha2)
    c = 1.0 + (n - 1) * alpha1 * alpha2
    alpha_out = (alpha1 + alpha2 + (n - 2) * alpha1 * alpha2) / c
    # Provably inside the admissible interval for admissible inputs (both
    # c (1 - alpha_out) and c (1 + (n-1) alpha_out) factor into positive
    # terms); kept as a guard against future drift.
    if not (-1.0 / (n - 1) < alpha_out < 1.0):
        raise OutOfRange(f"composed cosine {alpha_out!r} left the admissible interval")
    return float(c), float(alpha_out)
