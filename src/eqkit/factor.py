"""Symmetric factorizations through equiangular bases.

A symmetric A with distinct nonzero eigenvalues lambda_1..lambda_n can be
written A = S diag(d) S^T with S equiangular at a chosen cosine alpha,
provided the monic polynomial

    g(x) = x^n - c_1 x^(n-1) + c_2 x^(n-2) - ...,
    c_k = e_k(lambda) / ((1-alpha)^(k-1) (1 + (k-1) alpha))

(e_k = elementary symmetric polynomial) has all-real roots; those roots are
the d's; one companion-matrix solver gives them to both the factorization
and the bound on alpha.  Spectra with a repeated eigenvalue are handled
separately: the (n-1, 1) two-value pattern factors in closed form as
A = r S S^T, while an eigenvalue repeated k times with 2 <= k <= n-2 is not
supported, although such spectra can factor (k+1 of the d's equal
lambda / (1 - alpha)).  Zero eigenvalues take the same route, any number of
them: z zeros make e_k vanish for k > n - z, which gives z roots d = 0.

This module also recovers equiangular structure from a matrix: a Schur-like
splitting A = S T S^-1 with S equiangular, and detection of whether A's
eigenvector family can be scaled into an equiangular system at some alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ea import EquiangularMatrix, _solve_t, _t_entries, _times_t, certify_equiangular, triangular_equiangular
from .ea import sr_decompose  # noqa: F401  perfbench/spans.py traces it
from .errors import (
    ComplexSpectrum,
    DegreeZero,
    InvalidAlpha,
    InvalidShape,
    MultiplicityUnsupported,
    NonRealRoots,
    OutOfRange,
    WrongSpectrum,
)
from .gram import GramParams
from .gram import dual_params, gram_principal_sqrt  # noqa: F401  perfbench/spans.py traces them
from .kernel import (
    _refuse_overflow,
    as_matrix,
    norm2_at_most,
    poly_roots,
    real_schur,
    require_square,
    snap_real,
    sym_eig,
)

# Two eigenvalues are treated as equal below this relative separation.
CLUSTER_RTOL = 1e-8


@dataclass
class PolySpec:
    """Monic factorization polynomial; coeffs descending."""

    coeffs: np.ndarray


@dataclass
class SDSTFactorization:
    S: EquiangularMatrix
    D: np.ndarray


def elementary_symmetric(values) -> np.ndarray:
    """e_0..e_m of the given values, by the product recurrence."""
    v = np.asarray(values, dtype=float)
    e = np.zeros(v.size + 1)
    e[0] = 1.0
    for x in v:
        e[1:] = e[1:] + x * e[:-1]
    return e


def sdst_coefficients(lambdas, alpha: float) -> np.ndarray:
    """c_1..c_n: elementary symmetric functions rescaled by the Gram denominators."""
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"factorization cosine must lie in (0, 1), got {alpha!r}")
    return _rescale(elementary_symmetric(lambdas)[1:], alpha)


def _rescale(e: np.ndarray, alpha: float) -> np.ndarray:
    """c_k = e_k / ((1 - alpha)^(k-1) (1 + (k-1) alpha)) for e = e_1..e_n."""
    km1 = np.arange(e.size)
    return e / ((1.0 - alpha) ** km1 * (1.0 + km1 * alpha))


def build_poly(lambdas, alpha: float) -> PolySpec:
    """Monic polynomial whose roots are the candidate diagonal entries d_i."""
    c = sdst_coefficients(lambdas, alpha)
    coeffs = np.concatenate(([1.0], c * (-1.0) ** np.arange(1, c.size + 1)))
    return PolySpec(coeffs)


def nonreal_root_certificate(poly: PolySpec) -> int:
    """Number of roots that stay off the real axis after snapping."""
    roots = poly_roots(poly.coeffs)
    return int(np.count_nonzero(roots.imag != 0.0))


def _root_solver(lambdas):
    """An exponent p and ``roots(alpha)``, the snapped roots of the polynomial for lambdas / 2^p.

    p is 0 unless some e_k(lambdas) is not finite; then 2^p is the power of two
    just above max |lambda|, and e_k is formed again from lambdas / 2^p, scaled
    with ``np.ldexp`` so that 2^p itself need not be finite.  c_k is
    homogeneous of degree k in lambda, so the roots for lambdas / 2^p are the
    roots d divided by 2^p exactly, and whether they are all real does not
    depend on p.  Each alpha rewrites row 0 of one companion matrix, laid out
    as ``np.roots`` lays it out, with -c(alpha), and ``np.roots``' zero roots
    for trailing zero coefficients follow its eigenvalues.  So the roots are
    ``poly_roots(build_poly(lambdas / 2^p, alpha).coeffs)`` to the bit, up to order.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    n = lambdas.size
    if not n:
        raise DegreeZero("polynomial must have degree >= 1")
    p = 0
    with np.errstate(over="ignore", invalid="ignore"):
        e = elementary_symmetric(lambdas)[1:]
        if not np.isfinite(e).all():
            p = math.frexp(float(np.abs(lambdas).max()))[1]
            e = elementary_symmetric(np.ldexp(lambdas, -p))[1:]
    # The denominators lie in (0, 1], so c_k is zero exactly where e_k is.
    # np.roots drops trailing zero coefficients as real zero roots: the
    # companion matrix stops at the last nonzero e_k.
    nonzero = np.flatnonzero(e)
    m = int(nonzero[-1]) + 1 if nonzero.size else 0
    flip = (-1.0) ** np.arange(m)  # row 0 is -coeffs[1:] = c * flip
    companion = np.eye(m, k=-1)
    zeros = np.zeros(n - m)

    def roots(alpha: float) -> np.ndarray:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            c = _rescale(e, alpha)
        if not np.isfinite(c).all():
            raise OutOfRange(f"factorization polynomial overflows float64 at alpha={alpha!r}")
        np.multiply(c[:m], flip, out=companion[:1])
        return snap_real(np.concatenate((np.linalg.eigvals(companion), zeros)))

    return p, roots


def alpha_real_root_bound(lambdas) -> float:
    """The cosine where a bisection finds the float64 polynomial roots turning non-real.

    Bisects the all-real predicate over (1e-6, 1 - 1e-6) to a width of 1e-6;
    returns 0.0 when even the smallest tested cosine already produces non-real
    roots.  Larger cosines can factor too: the all-real set need not be one
    interval.  The roots come from :func:`_root_solver`, as d does in :func:`sdst_factor`,
    so the bound is the one ``poly_roots`` of ``build_poly`` gives, to the bit.
    """
    _, roots = _root_solver(lambdas)

    def all_real(a: float) -> bool:
        return not np.count_nonzero(roots(a).imag)

    lo, hi = 1e-6, 1.0 - 1e-6
    if not all_real(lo):
        return 0.0
    if all_real(hi):
        return hi
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if all_real(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _clusters(values: np.ndarray, scale: float) -> list[np.ndarray]:
    """Split ascending values into runs whose neighbours lie within CLUSTER_RTOL * scale."""
    with np.errstate(over="ignore"):  # an overflowed gap is inf, which still splits
        return np.split(values, np.flatnonzero(np.diff(values) > CLUSTER_RTOL * scale) + 1)


def _fix_column_signs(Q: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive."""
    idx = np.argmax(np.abs(Q), axis=0)
    signs = np.where(Q[idx, np.arange(Q.shape[1])] < 0, -1.0, 1.0)
    return Q * signs


def _require_basis(n: int) -> None:
    """InvalidShape unless n >= 2: one column has no cosine to share with another."""
    if n < 2:
        raise InvalidShape(f"a basis at a common cosine needs n >= 2 columns, got a {n} x {n} matrix")


def two_eigenvalue_factor(A) -> tuple[float, EquiangularMatrix]:
    """Closed-form A = r S S^T for the (n-1, 1) two-eigenvalue pattern.

    Requires a symmetric nonsingular A whose spectrum takes exactly two
    values of the same sign, one of them simple.  r and the cosine come
    straight from the spectrum of r G_alpha, lam1 = r (1 - alpha) repeated
    and lam2 = r (1 + (n-1) alpha) simple; the cosine is negative when the
    repeated value dominates in magnitude.
    """
    Q, w = sym_eig(A)
    n = w.size
    _require_basis(n)
    scale = max(1.0, float(np.max(np.abs(w))))
    if float(np.min(np.abs(w))) <= CLUSTER_RTOL * scale:
        raise WrongSpectrum("matrix is singular")
    groups = _clusters(w, scale)
    if len(groups) != 2 or {len(g) for g in groups} != {1, n - 1}:
        raise WrongSpectrum("spectrum is not two values with multiplicities (n-1, 1)")
    g_rep, g_simple = (groups[0], groups[1]) if len(groups[0]) == n - 1 else (groups[1], groups[0])
    lam1 = float(np.mean(g_rep))
    lam2 = float(g_simple[0])
    if lam1 * lam2 < 0:
        raise WrongSpectrum("the two eigenvalues must share a sign")

    nr = lam2 + (n - 1) * lam1  # n r, a sum of like-signed terms
    alpha, r = (lam2 - lam1) / nr, nr / n

    # The reflection I - 2 u u^T / (u^T u) exchanges e / sqrt(n) with e_p, p the
    # position of the simple eigenvalue; n >= 2 keeps u^T u = 2 - 2 / sqrt(n) away from 0.
    u = np.full(n, 1.0 / math.sqrt(n))
    u[n - 1 if lam2 > lam1 else 0] -= 1.0
    X = _fix_column_signs(Q)
    X -= np.outer(X @ u, (2.0 / float(u @ u)) * u)
    return float(r), EquiangularMatrix(GramParams(n, alpha).operator.sqrt().right_multiply(X), float(alpha))


def sdst_factor(A, alpha: float) -> SDSTFactorization:
    """Factor symmetric A as S diag(D) S^T, D ascending, with S equiangular at ``alpha``.

    Parameters
    ----------
    A : symmetric (n, n) array_like
        Its nonzero eigenvalues must be distinct.  Eigenvalues within
        CLUSTER_RTOL max(1, max|lambda|) of zero count as exact zeros, any
        number of them, and each gives a root d = 0.
    alpha : float in (0, 1)
        Target pairwise cosine of the basis columns.

    Raises
    ------
    InvalidShape
        A is smaller than 2 x 2: no two columns to share a cosine.
    NonRealRoots
        The float64 companion roots stay non-real after snapping, or the
        spectrum recovered from them is off by more than 1e-7 max(1, max|lambda|).
        A real factorization may still exist, as for diag(1..16) at 0.0095.
    MultiplicityUnsupported
        Repeated nonzero eigenvalues: the (n-1, 1) same-sign pattern is
        handled by :func:`two_eigenvalue_factor` instead, and a value
        repeated k times with 2 <= k <= n-2 is not supported, although such
        a spectrum can factor.
    OutOfRange
        The polynomial, d or a product formed from them overflows float64.
    """
    A = require_square(as_matrix(A))
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"factorization cosine must lie in (0, 1), got {alpha!r}")
    n = A.shape[0]
    _require_basis(n)
    Q, w = sym_eig(A)
    scale = max(1.0, float(np.max(np.abs(w))))
    zero_mask = np.abs(w) <= CLUSTER_RTOL * scale
    w[zero_mask] = 0.0  # z exact zeros make e_k vanish for k > n - z: z roots d = 0
    nz = w[~zero_mask]

    groups = _clusters(nz, scale)
    sizes = [len(g) for g in groups]
    if max(sizes) > 1 and len(groups) > 1:
        same_sign = bool((nz > 0).all() or (nz < 0).all())
        if len(groups) == 2 and sorted(sizes) == [1, n - 1] and same_sign:
            raise MultiplicityUnsupported(
                "two-value (n-1, 1) spectrum: use two_eigenvalue_factor"
            )
        raise MultiplicityUnsupported("repeated nonzero eigenvalues are not supported; a factorization may still exist")
    # A single all-equal group (e.g. A = r I) is allowed through: its
    # polynomial provably has non-real roots and the error surfaces below.

    p, roots_at = _root_solver(w)
    roots = roots_at(alpha)
    if np.count_nonzero(roots.imag):
        raise NonRealRoots(f"{np.count_nonzero(roots.imag)} non-real roots at alpha={alpha!r}")
    with _refuse_overflow(f"d at alpha={alpha!r}"):
        d = np.ldexp(np.sort(roots.real), p)

    sbar = GramParams(n, alpha).operator.sqrt()
    with _refuse_overflow("sbar diag(d) sbar"):
        Qm, mu = sym_eig(sbar.right_multiply(sbar.left_multiply(np.diag(d))))
    with np.errstate(over="ignore"):  # an overflowed gap is inf, which fails the test
        gap = float(np.max(np.abs(np.sort(mu) - w)))
    if gap > 1e-7 * scale:
        raise NonRealRoots("recovered spectrum does not match the target within 1e-7")
    S = sbar.right_multiply(_fix_column_signs(Qm).T)  # factors diag(w ascending)
    return SDSTFactorization(EquiangularMatrix(Q @ S, alpha), d)


def schur_equiangular(A, alpha: float) -> tuple[EquiangularMatrix, np.ndarray]:
    """Schur-like splitting A = S T S^-1 with an equiangular basis.

    With A = Qs Ts Qs^T the real Schur form and T_alpha the Cholesky factor
    of G_alpha, S = Qs T_alpha and T = T_alpha^-1 Ts T_alpha, both in closed
    form.  T keeps Ts's quasi-triangular block structure (entries outside it
    are cleaned, they are pure roundoff).
    """
    A = require_square(as_matrix(A))
    if not 0.0 <= alpha < 1.0:
        raise InvalidAlpha(f"need 0 <= alpha < 1, got {alpha!r}")
    if not A.size:
        raise InvalidShape("a Schur basis needs at least one column, got a 0 x 0 matrix")
    n = A.shape[0]
    if n >= 2:
        GramParams(n, alpha)  # InvalidAlpha within its boundary margin of 1, where T_alpha is near singular
    Qs, Ts = real_schur(A)
    sub_tol = 1e-11 * max(1.0, float(np.abs(Ts).max()))
    keep = np.triu(np.ones((n, n), dtype=bool))
    i = np.flatnonzero(np.abs(np.diag(Ts, -1)) > sub_tol)  # genuine 2x2 Schur blocks
    keep[i + 1, i] = True
    d, o, d_minus_o = _t_entries(n, alpha)
    T = _solve_t(_times_t(Ts, o, d_minus_o), d, o)
    T[~keep] = 0.0
    return EquiangularMatrix(_times_t(Qs, o, d_minus_o), float(alpha)), T


def equiangular_eigenvectors(A):
    """Detect whether A's eigenvectors form an equiangular family.

    Returns (alpha, S), S's columns unit eigenvectors of A in ascending
    eigenvalue order at a common cosine alpha in [1e-6, 1 - 1e-6], or None.
    The test is the Gram certificate of the unit eigenvectors X, each signed
    to meet column 0 at a non-negative cosine.  It is enough: with distinct
    eigenvalues and X = Q R, T = R diag(w) R^-1, the triangular system shat
    at alpha solves T shat = shat diag(w) only as shat = R (both are upper
    triangular with unit columns and a positive diagonal), so X^T X = G_alpha.
    A = c I gives 0.5 and T_0.5.  With any other repeated eigenvalue, None
    says only that the basis ``np.linalg.eig`` returned does not certify.

    Raises InvalidShape when A is smaller than 2 x 2 and ComplexSpectrum when
    A has non-real eigenvalues.
    """
    A = require_square(as_matrix(A))
    n = A.shape[0]
    _require_basis(n)
    w, X = np.linalg.eig(A)
    if np.count_nonzero(snap_real(w).imag):
        raise ComplexSpectrum("matrix has non-real eigenvalues")
    w = w.real.astype(float)
    X = np.real(X)
    scale = max(1.0, float(np.max(np.abs(w))))

    if float(w.max() - w.min()) <= CLUSTER_RTOL * scale:
        # Single eigenvalue: only A = c I qualifies, and then any basis at
        # any cosine works; alpha = 0.5 by convention.
        lam = float(w.mean())
        if norm2_at_most(A - lam * np.eye(n), CLUSTER_RTOL * scale):
            return 0.5, triangular_equiangular(GramParams(n, 0.5))
        return None

    X = X[:, np.argsort(w)]
    X /= np.linalg.norm(X, axis=0)
    # Signed against column 0, an equiangular family comes out at a positive cosine.
    X *= np.where(X.T @ X[:, 0] < 0, -1.0, 1.0)
    alpha = certify_equiangular(X, CLUSTER_RTOL)
    if alpha is None or not 1e-6 <= alpha <= 1.0 - 1e-6:
        return None
    return alpha, EquiangularMatrix(X, alpha)
