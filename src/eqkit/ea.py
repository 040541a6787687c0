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
diagonal is the resulting analogue of QR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAngle, InvalidAngle, NotSquare
from .gram import BOUNDARY_TOL, GramParams
from .gram import gram_inverse, gram_principal_sqrt, gram_sqrt_inverse  # noqa: F401  perfbench/spans.py traces them
from .kernel import _refuse_overflow, as_matrix, qr

# 1 + k*alpha at or below this margin means the obtuse angle is too wide.
DEGENERATE_TOL = 1e-12


@dataclass
class EquiangularMatrix:
    """Matrix whose unit columns share the pairwise cosine ``alpha``."""

    mat: np.ndarray
    alpha: float


@dataclass
class SRDecomposition:
    """Factors S and R of A = S R."""

    S: EquiangularMatrix
    R: np.ndarray


def _t_entries(m: int, alpha: float):
    """d_k, o_k and d_k - o_k = (1 - alpha)/d_k for rows k = 1..m of the Cholesky factor T.

    One column has T = [1] at any alpha, also at alpha = +-1, so it takes alpha = 0.
    """
    a = alpha if m >= 2 else 0.0
    k = np.arange(1, m + 1)
    shift = 1.0 + (k - 2) * a
    d = np.sqrt((1.0 - a) * (1.0 + (k - 1) * a) / shift)
    return d, a * (1.0 - a) / (shift * d), (1.0 - a) / d


def _times_t(X: np.ndarray, o: np.ndarray, d_minus_o: np.ndarray) -> np.ndarray:
    """X T in place: column j becomes (d_j - o_j) x_j plus the prefix sum of o_i x_i over i <= j."""
    prefix = X * o
    np.cumsum(prefix, axis=1, out=prefix)
    X *= d_minus_o  # d_j - o_j without the cancellation
    X += prefix
    return X


def _solve_t(R: np.ndarray, d: np.ndarray, o: np.ndarray) -> np.ndarray:
    """T^-1 R in place: row i is (R[i] - o_i * sum of the later rows of the result) / d_i."""
    below = np.zeros(R.shape[1])
    with _refuse_overflow("a solve with the Cholesky factor T"):
        for i in range(len(d) - 1, -1, -1):
            row = R[i]
            row -= o[i] * below
            row /= d[i]
            below += row
    return R


def _extend(S_k: EquiangularMatrix, a_next, alpha: float) -> np.ndarray:
    S = as_matrix(S_k.mat)
    k = S.shape[1]
    if k >= 1 and 1.0 + k * alpha <= DEGENERATE_TOL:
        raise DegenerateAngle(
            f"cos(theta)={alpha:.6g} <= -1/{k}: no unit vector can extend {k} vectors"
        )
    a = np.asarray(a_next, dtype=float).ravel()
    Q, _ = qr(np.column_stack([S, a]))
    d = _t_entries(k + 1, alpha)[0][k]
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
    SRDecomposition with diag(R) > 0; OutOfRange is raised when R overflows float64.
    """
    S, R, d, o = _sr_frame(as_matrix(A), theta)
    return SRDecomposition(S, _solve_t(R, d, o))


def _sr_frame(A, theta: float):
    """S = Q T of ``sr_decompose`` for an ``as_matrix`` A, R_qr of A = Q R_qr, and T's d_k and o_k."""
    m = A.shape[1]
    alpha = math.cos(theta)
    if abs(alpha) < 1e-15:
        alpha = 0.0  # theta = pi/2 routes to plain QR
    if m >= 2 and not (-1.0 / (m - 1) + BOUNDARY_TOL < alpha < 1.0 - BOUNDARY_TOL):
        raise InvalidAngle(
            f"cos(theta)={alpha:.6g} outside (-1/{m - 1}, 1) for {m} columns"
        )
    Q, R = qr(A)
    d, o, d_minus_o = _t_entries(m, alpha)
    return EquiangularMatrix(_times_t(Q, o, d_minus_o), alpha), R, d, o


def triangular_equiangular(p: GramParams) -> EquiangularMatrix:
    """Upper triangular equiangular system with positive diagonal.

    This is the unique upper triangular member of the family: the upper
    Cholesky factor T of the Gram matrix, with d_k on the diagonal of row k
    and o_k in all later columns (formulas in the module docstring).
    alpha = 0 yields the identity.
    """
    d, o, _ = _t_entries(p.n, p.alpha)
    return EquiangularMatrix(_constant_rows(d, o, p.n), p.alpha)


def _constant_rows(d: np.ndarray, v: np.ndarray, cols: int) -> np.ndarray:
    """Upper triangular len(d) x cols, d_i at (i, i) and v_i right of it, with no temporary of its size."""
    later = np.triu(np.ones((64, 64), dtype=bool), 1)  # j > i within a block
    T = np.empty((len(d), cols))
    for r in range(0, len(d), 64):  # 64 rows at a time: zeros, their triangle, v_i to the end
        e = min(r + 64, len(d))
        T[r:e, :e] = 0.0
        np.copyto(T[r:e, r:e], v[r:e, None], where=later[: e - r, : e - r])
        T[r:e, e:] = v[r:e, None]
    T[np.diag_indices(len(d))] = d
    return T


def certify_equiangular(M, tol: float = 1e-8):
    """Return the common pairwise cosine of M's columns, or None.

    Checks that every column is unit and every off-diagonal Gram entry sits
    within ``tol`` of their mean.  A single column certifies with alpha 0.
    """
    M = as_matrix(getattr(M, "mat", M))
    if M.shape[1] == 0:
        return None
    return _gram_cosine(_gram(M), tol)


def _gram(X: np.ndarray) -> np.ndarray:
    """X^T X, the one Gram product of every certificate."""
    with np.errstate(over="ignore"):  # an overflowed entry fails the unit-norm test that reads it
        return X.T @ X


def _gram_cosine(G: np.ndarray, tol: float):
    """The common cosine certified by the m x m Gram matrix G (m >= 1), or None."""
    unit, mean, constant = _unit_spread(G, _off_diagonal(G), tol)
    return mean if unit and constant else None


def _unit_spread(G: np.ndarray, off: np.ndarray, tol: float) -> tuple[bool, float, bool]:
    """Whether diag(G) is 1 within ``tol``, then ``_near_constant(off, tol)``, or 0.0 and True for an empty ``off``."""
    unit = float(np.max(np.abs(np.diag(G) - 1.0))) <= tol
    return (unit, *(_near_constant(off, tol) if off.size else (0.0, True)))


def _off_diagonal(G: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of a C-contiguous m x m G, row by row, as an (m-1) x m view into G."""
    return G.reshape(-1)[1:].reshape(len(G) - 1, len(G) + 1)[:, :len(G)]


def _near_constant(off: np.ndarray, tol: float) -> tuple[float, bool]:
    """The mean of ``off`` and whether every entry lies within ``tol`` of it; reads ``off`` only."""
    with np.errstate(over="ignore", invalid="ignore"):  # near 1e300 the mean overflows, inf - inf is nan
        mean = float(np.ravel(off).mean())  # summed flat: numpy sums a strided view in another order
    # Rounding is monotone, so these two decide as max|off - mean| <= tol would; a NaN fails.
    return mean, float(off.max()) - mean <= tol and mean - float(off.min()) <= tol


def polar_orthogonal_factor(S: EquiangularMatrix) -> np.ndarray:
    """Orthogonal factor Q of the polar-style splitting S = Q * sqrt(Gram).

    Right-multiplying by the inverse principal root, applied in closed form
    in O(n^2), peels the equiangular correlation off and leaves an orthogonal
    matrix.
    """
    M = as_matrix(S.mat)
    if M.shape[0] != M.shape[1]:
        raise NotSquare("polar splitting is defined for square systems")
    if M.shape[0] == 1:  # G = [1] at every cosine, so S is its own polar factor
        return M.copy()
    return GramParams(M.shape[0], S.alpha).operator.sqrt().inverse().right_multiply(M)


def random_equiangular(n: int, alpha: float, rng=None, m: int | None = None) -> EquiangularMatrix:
    """Random equiangular system: Haar orthonormal columns times the principal Gram root."""
    rng = np.random.default_rng(rng)
    m = n if m is None else m
    q, _ = qr(rng.standard_normal((n, m)))
    return EquiangularMatrix(GramParams(m, alpha).operator.sqrt().right_multiply(q), float(alpha))
