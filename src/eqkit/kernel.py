"""Dense numerical kernels shared by the rest of the package.

QR, symmetric eigendecomposition, real Schur form and polynomial root
finding are delegated to LAPACK, which comes through numpy; only
``real_schur`` needs SciPy, and imports it on first use, so importing the
package or running the CLI never loads SciPy.  This module pins down the
conventions the rest of the code relies on: nonnegative R diagonal,
ascending eigenvalues, rank and root-snapping tolerances.  ``snap_real`` is
the one place the rule that puts a root on the real axis is written, for
``poly_roots`` and for every caller that counts non-real eigenvalues.
``spectral_norm`` is the one matrix 2-norm value the package and the CLI
use, and ``norm2_at_most`` the one 2-norm test: it decides
``||X||_2 <= bound`` from the Frobenius norm and the column norms when they
settle it, and calls ``spectral_norm`` only when they do not.

``generic_inverse`` is deliberately a hand-written LU inverse: it serves as
the cubic-cost baseline against which the structured inverse is benchmarked,
and it can tally the scalar arithmetic it performs via :class:`OpCounter`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegreeZero,
    NoConvergence,
    NotSquare,
    NotSymmetric,
    RankDeficient,
    Singular,
)

# Column j is declared dependent when its residual against the preceding
# columns falls below this fraction of its own norm.
RANK_RTOL = 1e-10
# A norm computed from squares outside (SAFE_NORM_LOW, SAFE_NORM_HIGH) may have
# lost them to under- or overflow; the routines that test one then rescale by
# a power of two, which is exact.
SAFE_NORM_LOW, SAFE_NORM_HIGH = 1e-100, 1e100

# A root with |imag| <= ROOT_SNAP_RTOL * (1 + |real|) is collapsed onto the
# real axis.
ROOT_SNAP_RTOL = 1e-8

SYM_RTOL = 1e-8

# Relative margin on both sides of the bracket max_j ||X e_j|| <= ||X||_2 <=
# ||X||_F in ``norm2_at_most``: the computed bracket ends are rounded, so a
# bound this close to either end is left to the exact 2-norm.
NORM2_BRACKET_RTOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def require_square(m: np.ndarray) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    return m


class OpCounter:
    """Tally of scalar arithmetic operations executed by an instrumented routine."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, k: int) -> None:
        self.total += int(k)


def qr(A):
    """Thin QR factorization A = Q R with nonnegative diagonal on R.

    Parameters
    ----------
    A : (n, m) array_like, n >= m
        Matrix whose columns are to be orthogonalized.

    Returns
    -------
    Q : (n, m) ndarray with orthonormal columns.
    R : (m, m) upper triangular ndarray, diag(R) >= 0.

    Raises
    ------
    RankDeficient
        If some column is numerically dependent on the preceding ones
        (residual below ``RANK_RTOL`` times the column norm).
    """
    A = as_matrix(A)
    n, m = A.shape
    if n < m:
        raise RankDeficient(f"{m} columns cannot be independent in dimension {n}")
    with np.errstate(over="ignore"):  # overflowed norms are rescaled below
        col_norms = np.linalg.norm(A, axis=0)
    Q, R = np.linalg.qr(A, mode="reduced")
    d = np.abs(np.diag(R))
    # |R[j,j]| is exactly the residual norm of column j against the span of
    # columns 0..j-1, so the rank test reads straight off the diagonal.
    if m and not (col_norms.min() > SAFE_NORM_LOW and col_norms.max() < SAFE_NORM_HIGH):
        # The squares behind col_norms may have over- or underflowed: compare
        # both sides after scaling each column by a power of two, exactly.
        _, e = np.frexp(np.abs(A).max(axis=0))
        col_norms = np.linalg.norm(np.ldexp(A, -e), axis=0)
        d = np.ldexp(d, -e)
    dependent = d <= RANK_RTOL * col_norms
    if np.any(dependent):
        j = int(np.argmax(dependent))
        raise RankDeficient(f"column {j} is dependent on the preceding columns")
    signs = np.where(np.diag(R) < 0, -1.0, 1.0)
    Q *= signs
    R *= signs[:, None]
    return Q, R


def sym_eig(A):
    """Eigendecomposition of a symmetric matrix: A = Q diag(w) Q^T.

    Eigenvalues are returned ascending; Q has orthonormal columns.
    """
    A = require_square(as_matrix(A))
    with np.errstate(over="ignore"):  # an overflowed norm is rescaled below
        norm = float(np.linalg.norm(A))
    s = 1.0
    if norm >= SAFE_NORM_HIGH:
        # Divided by a power of two s (max |A/s| in [1, 2)), A's norms and
        # LAPACK's work stay finite; the symmetry test is relative for
        # norm >= 1 both before and after, so it decides the same.
        s = math.ldexp(1.0, math.frexp(float(np.abs(A).max()))[1] - 1)
        A = A / s
        norm = float(np.linalg.norm(A))
    if np.linalg.norm(A - A.T) > SYM_RTOL * max(1.0, norm):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    try:
        w, Q = np.linalg.eigh(0.5 * (A + A.T))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return Q, w * s


def real_schur(A):
    """Real Schur form A = Q T Q^T with T quasi-upper-triangular."""
    import scipy.linalg  # the only SciPy use; deferred to keep it off import

    A = require_square(as_matrix(A))
    try:
        T, Q = scipy.linalg.schur(A, output="real")
    except np.linalg.LinAlgError as exc:  # raised on QR-iteration breakdown
        raise NoConvergence(str(exc)) from exc
    return Q, T


def poly_roots(coeffs):
    """Roots of a real polynomial given by descending coefficients.

    The polynomial is normalized to monic form and its roots computed as
    companion-matrix eigenvalues.  Roots with tiny imaginary part are
    snapped onto the real axis (see ``ROOT_SNAP_RTOL``); output is sorted
    by (real, imag) for determinism.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if c.ndim != 1 or c.size < 2:
        raise DegreeZero("polynomial must have degree >= 1")
    if not np.all(np.isfinite(c)):
        raise ValueError("polynomial coefficients contain NaN or Inf")
    if c[0] == 0.0:
        raise DegreeZero("leading coefficient is zero")
    snapped = snap_real(np.roots(c / c[0]))
    order = np.lexsort((snapped.imag, snapped.real))
    return snapped[order]


def snap_real(roots: np.ndarray) -> np.ndarray:
    """``roots`` as complex, each with |imag| <= ROOT_SNAP_RTOL * (1 + |real|)
    collapsed onto the real axis; the one place that rule is written."""
    return np.where(
        np.abs(roots.imag) <= ROOT_SNAP_RTOL * (1.0 + np.abs(roots.real)),
        roots.real.astype(complex),
        roots,
    )


def spectral_norm(A) -> float:
    """2-norm of A, computed as sqrt of the top eigenvalue of A^T A.

    A is scaled by max|A| first, so tiny entries do not underflow in A^T A.
    """
    A = as_matrix(A)
    scale = float(max(A.max(), -A.min())) if A.size else 0.0
    if scale == 0.0:
        return 0.0
    A = A / scale
    w = np.linalg.eigvalsh(A.T @ A)
    return scale * float(np.sqrt(max(w[-1], 0.0)))


def norm2_at_most(X, bound: float) -> bool:
    """``spectral_norm(X) <= bound``, decided without an eigensolve when possible.

    The largest column norm and the Frobenius norm bracket the 2-norm.  When
    ``bound`` lies outside the bracket, widened by ``NORM2_BRACKET_RTOL``, the
    answer costs one pass over X; otherwise it comes from ``spectral_norm``.
    A Frobenius norm outside (``SAFE_NORM_LOW``, ``SAFE_NORM_HIGH``) may have
    under- or overflowed in its squares, so it also goes to ``spectral_norm``,
    which rescales X.
    """
    X = as_matrix(X)
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(X))
    if SAFE_NORM_LOW < fro < SAFE_NORM_HIGH:
        if fro * (1.0 + NORM2_BRACKET_RTOL) <= bound:
            return True
        if float(np.linalg.norm(X, axis=0).max()) * (1.0 - NORM2_BRACKET_RTOL) > bound:
            return False
    return spectral_norm(X) <= bound


def generic_inverse(A, ops: OpCounter | None = None) -> np.ndarray:
    """Dense inverse via LU with partial pivoting plus triangular solves.

    This is the plain O(n^3) baseline.  When ``ops`` is given, the scalar
    multiply/add/divide operations performed by each vectorized step are
    tallied on it.

    Raises ``Singular`` when a pivot falls below 1e-12 relative to the
    largest entry of A.
    """
    A = require_square(as_matrix(A))
    n = A.shape[0]
    if n == 0:
        return A.copy()
    lu = A.copy()
    perm = np.arange(n)
    piv_tol = 1e-12 * max(1.0, float(np.abs(A).max()))
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) <= piv_tol:
            raise Singular(f"pivot at column {k} below tolerance")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        m = n - k - 1
        if m:
            lu[k + 1 :, k] /= lu[k, k]
            lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
        if ops is not None:
            ops.add(m + 2 * m * m)
    # P A = L U, so A^-1 = U^-1 L^-1 P: solve against the permuted identity.
    X = np.eye(n)[perm]
    for k in range(n - 1):
        X[k + 1 :] -= np.outer(lu[k + 1 :, k], X[k])
        if ops is not None:
            ops.add(2 * (n - k - 1) * n)
    for k in range(n - 1, -1, -1):
        X[k] /= lu[k, k]
        if k:
            X[:k] -= np.outer(lu[:k, k], X[k])
        if ops is not None:
            ops.add(n + 2 * k * n)
    return X
