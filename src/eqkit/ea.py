"""Equiangular vector systems and the SR decomposition A = S R.

Given independent input vectors a_1, ..., a_m and a target cosine alpha,
the Equiangular Algorithm produces unit vectors s_1, ..., s_m whose pairwise
inner products all equal alpha, with span(s_1..s_k) = span(a_1..a_k) for
every prefix.  The result is closed-form: with A = Q R_qr the QR
factorization with positive diagonal, S = Q T and R = T^-1 R_qr, where T is
the upper triangular Cholesky factor of the Gram matrix
G = (1 - alpha) I + alpha ee^T.  Row k of T (1-based) holds d_k on the
diagonal and the constant o_k in every later column:

    d_k = sqrt((1 - alpha) (1 + (k-1) alpha) / (1 + (k-2) alpha)),
    o_k = alpha (1 - alpha) / ((1 + (k-2) alpha) d_k).

The same formulas cover acute and obtuse cosines; an obtuse cosine is
feasible for k+1 vectors only while alpha > -1/k.  Extending a system S_k
by one vector a takes the unit direction q of a orthogonal to span(S_k):

    s_{k+1} = d_{k+1} q + alpha / (1 + (k-1) alpha) * (s_1 + ... + s_k).

Factoring A = S R with S equiangular and R upper triangular with positive
diagonal is the resulting analogue of QR.  ``sr_decompose`` forms the
difference S R - A when it factors, but takes that difference's 2-norm only
when ``SRDecomposition.residual`` is first read; callers that only want the
factors never pay for the eigensolve behind it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateAngle, InvalidAngle, NotSquare
from .gram import BOUNDARY_TOL, GramParams, gram_principal_sqrt, gram_sqrt_inverse
from .gram import gram_inverse  # noqa: F401  perfbench/spans.py traces eqkit.ea.gram_inverse
from .kernel import as_matrix, qr, spectral_norm

# 1 + k*alpha at or below this margin means the obtuse angle is too wide.
DEGENERATE_TOL = 1e-12


@dataclass
class EquiangularMatrix:
    """Matrix whose unit columns share the pairwise cosine ``alpha``."""

    mat: np.ndarray
    alpha: float


@dataclass
class SRDecomposition:
    """Factors S and R of A = S R, with the residual ||A - S R||_2 taken on first read.

    ``_E`` is S R - A, formed when A is factored, so the residual does not
    change when the caller later edits A, ``S.mat`` or ``R`` in place.  The
    first read of ``residual`` takes its 2-norm, stores the float and frees
    ``_E``.
    """

    S: EquiangularMatrix
    R: np.ndarray
    _E: np.ndarray | None = field(repr=False)
    _residual: float | None = field(default=None, init=False, repr=False)

    @property
    def residual(self) -> float:
        if self._E is not None:
            self._residual = spectral_norm(self._E)
            self._E = None
        return self._residual


def _cholesky_entries(k, alpha: float):
    """Diagonal d_k and off-diagonal o_k of row k (1-based) of the Cholesky factor T.

    ``k`` may be an int or an integer array.  d_k - o_k equals (1 - alpha)/d_k.
    """
    shift = 1.0 + (k - 2) * alpha
    d = np.sqrt((1.0 - alpha) * (1.0 + (k - 1) * alpha) / shift)
    return d, alpha * (1.0 - alpha) / (shift * d)


def _extend(S_k: EquiangularMatrix, a_next, alpha: float) -> np.ndarray:
    S = as_matrix(S_k.mat)
    k = S.shape[1]
    if k >= 1 and 1.0 + k * alpha <= DEGENERATE_TOL:
        raise DegenerateAngle(
            f"cos(theta)={alpha:.6g} <= -1/{k}: no unit vector can extend {k} vectors"
        )
    a = np.asarray(a_next, dtype=float).ravel()
    Q, _ = qr(np.column_stack([S, a]))
    d, _ = _cholesky_entries(k + 1, alpha)
    return float(d) * Q[:, k] + (alpha / (1.0 + (k - 1) * alpha)) * S.sum(axis=1)


def next_equiangular(S_k: EquiangularMatrix, a_next, theta: float) -> np.ndarray:
    """Extend an acute equiangular system by one vector.

    Parameters
    ----------
    S_k : EquiangularMatrix
        Existing system (may have zero columns).
    a_next : vector
        Direction to absorb; must be independent of the current span.
    theta : float
        Common angle in radians, in (0, pi/2].  theta = pi/2 degenerates to
        plain Gram-Schmidt.
    """
    if not 0.0 < theta <= math.pi / 2 + 1e-12:
        raise InvalidAngle(f"acute construction needs theta in (0, pi/2], got {theta!r}")
    return _extend(S_k, a_next, max(math.cos(theta), 0.0))


def next_equiangular_obtuse(S_k: EquiangularMatrix, a_next, theta: float) -> np.ndarray:
    """Extend an obtuse equiangular system by one vector.

    theta must lie in (pi/2, pi); adding a (k+1)-th vector is only possible
    while cos(theta) > -1/k, otherwise DegenerateAngle is raised.
    """
    if not math.pi / 2 < theta < math.pi:
        raise InvalidAngle(f"obtuse construction needs theta in (pi/2, pi), got {theta!r}")
    return _extend(S_k, a_next, math.cos(theta))


def sr_decompose(A, theta: float) -> SRDecomposition:
    """Factor A = S R with S equiangular at cos(theta) and R upper triangular.

    Parameters
    ----------
    A : (n, m) array_like with independent columns, n >= m.
    theta : float
        Angle in radians; cos(theta) must lie in (-1/(m-1), 1).

    Returns
    -------
    SRDecomposition with diag(R) > 0; its ``residual`` ||A - S R||_2 is
    taken from this call's S R - A when first read.
    """
    A = as_matrix(A)
    S, R = _sr_factors(A, theta)
    E = S.mat @ R
    E -= A
    return SRDecomposition(S, R, E)


def _sr_factors(A, theta: float) -> tuple[EquiangularMatrix, np.ndarray]:
    """The factors S and R of ``sr_decompose`` for an ``as_matrix`` A, without the residual."""
    m = A.shape[1]
    alpha = math.cos(theta)
    if abs(alpha) < 1e-15:
        alpha = 0.0  # theta = pi/2 routes to plain QR
    if m >= 2 and not (-1.0 / (m - 1) + BOUNDARY_TOL < alpha < 1.0 - BOUNDARY_TOL):
        raise InvalidAngle(
            f"cos(theta)={alpha:.6g} outside (-1/{m - 1}, 1) for {m} columns"
        )
    Q, R = qr(A)
    # One column has T = [1] at any alpha, also at the alpha = +-1 let through above.
    a = alpha if m >= 2 else 0.0
    d, o = _cholesky_entries(np.arange(1, m + 1), a)

    # S = Q T: column j is d_j q_j plus the prefix sum of o_i q_i over i < j.
    S = Q * o
    np.cumsum(S, axis=1, out=S)
    Q *= (1.0 - a) / d  # d_j - o_j, without the cancellation
    S += Q
    del Q

    # R = T^-1 R_qr by back-substitution: row i is
    # (R_qr[i] - o_i * sum of the later rows of R) / d_i, overwriting R_qr.
    below = np.zeros(m)
    for i in range(m - 1, -1, -1):
        row = R[i]
        row -= o[i] * below
        row /= d[i]
        below += row
    return EquiangularMatrix(S, alpha), R


def triangular_equiangular(p: GramParams) -> EquiangularMatrix:
    """Upper triangular equiangular system with positive diagonal.

    This is the unique upper triangular member of the family: the upper
    Cholesky factor T of the Gram matrix, with d_k on the diagonal of row k
    and o_k in all later columns (formulas in the module docstring).
    alpha = 0 yields the identity.
    """
    n, a = p.n, p.alpha
    d, o = _cholesky_entries(np.arange(1, n + 1), a)
    m = np.triu(np.repeat(o[:, None], n, axis=1), 1)
    m[np.diag_indices(n)] = d
    return EquiangularMatrix(m, a)


def certify_equiangular(M, tol: float = 1e-8):
    """Return the common pairwise cosine of M's columns, or None.

    Checks that every column is unit and every off-diagonal Gram entry sits
    within ``tol`` of their mean.  A single column certifies with alpha 0.
    """
    M = as_matrix(getattr(M, "mat", M))
    if M.shape[1] == 0:
        return None
    with np.errstate(over="ignore"):  # an overflowed Gram entry fails the unit-norm test
        G = M.T @ M
    return _gram_cosine(G, tol)


def _gram_cosine(G: np.ndarray, tol: float):
    """The common cosine certified by the m x m Gram matrix G (m >= 1), or None."""
    m = G.shape[0]
    if float(np.max(np.abs(np.diag(G) - 1.0))) > tol:
        return None
    if m == 1:
        return 0.0
    mean, constant = _near_constant(G[~np.eye(m, dtype=bool)], tol)
    return mean if constant else None


def _near_constant(off: np.ndarray, tol: float) -> tuple[float, bool]:
    """The mean of ``off`` and whether every entry lies within ``tol`` of it; overwrites ``off``."""
    with np.errstate(over="ignore", invalid="ignore"):  # near 1e300 the mean overflows, inf - inf is nan
        mean = float(off.mean())
        off -= mean
    return mean, float(np.max(np.abs(off, out=off))) <= tol  # a NaN spread fails


def polar_orthogonal_factor(S: EquiangularMatrix) -> np.ndarray:
    """Orthogonal factor Q of the polar-style splitting S = Q * sqrt(Gram).

    Right-multiplying by the closed-form inverse principal root peels the
    equiangular correlation off and leaves an orthogonal matrix.
    """
    M = as_matrix(S.mat)
    if M.shape[0] != M.shape[1]:
        raise NotSquare("polar splitting is defined for square systems")
    return M @ gram_sqrt_inverse(GramParams(M.shape[0], S.alpha))


def random_equiangular(n: int, alpha: float, rng=None, m: int | None = None) -> EquiangularMatrix:
    """Random equiangular system: Haar orthonormal columns times the principal Gram root."""
    rng = np.random.default_rng(rng)
    m = n if m is None else m
    q, _ = qr(rng.standard_normal((n, m)))
    _, sbar = gram_principal_sqrt(GramParams(m, alpha))
    return EquiangularMatrix(q @ sbar, float(alpha))
