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
A = r S S^T, while an eigenvalue repeated k times with 2 <= k <= n-2 admits
no real factorization at any alpha.  Zero eigenvalues (at most n-2 of them)
ride along by factoring the nonzero block and extending the basis by the S
factor alone of an SR factorization.

This module also recovers equiangular structure from a matrix: a Schur-like
splitting A = S T S^-1 with S equiangular, and detection of whether A's
eigenvector family can be scaled into an equiangular system at some alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ea import EquiangularMatrix, _sr_frame, sr_decompose, triangular_equiangular
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
    as_matrix,
    norm2_at_most,
    poly_roots,
    real_schur,
    require_square,
    snap_real,
    spectral_norm,
    sym_eig,
)

# Two eigenvalues are treated as equal below this relative separation.
CLUSTER_RTOL = 1e-8


@dataclass
class PolySpec:
    """Monic factorization polynomial; coeffs descending."""

    coeffs: np.ndarray
    alpha: float


@dataclass
class SDSTFactorization:
    S: EquiangularMatrix
    D: np.ndarray
    residual: float


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
    return PolySpec(coeffs=coeffs, alpha=float(alpha))


def nonreal_root_certificate(poly: PolySpec) -> int:
    """Number of roots that stay off the real axis after snapping."""
    roots = poly_roots(poly.coeffs)
    return int(np.count_nonzero(roots.imag != 0.0))


def _poly_scale(lambdas) -> tuple[np.ndarray, float]:
    """``lambdas / s`` and s, a power of two that keeps the polynomial finite.

    s is 1 unless some e_k(lambdas) overflows; then it is the power of two
    just above max |lambda|.  c_k is homogeneous of degree k in lambda, so the
    roots of the scaled polynomial are the roots d divided by s exactly, and
    whether they are all real does not depend on s.
    """
    lam = np.asarray(lambdas, dtype=float)
    n = lam.size
    e = math.frexp(float(np.abs(lam).max()))[1] if n else 0
    # e_k < C(n, k) 2^(e k) <= 2^(n (1 + max(e, 0))), so most spectra need no look at e_k.
    if n * (1 + max(e, 0)) < 1000:
        return lam, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(elementary_symmetric(lam)).all():
            return lam, 1.0
    s = math.ldexp(1.0, e)
    return lam / s, s


def _root_solver(lambdas):
    """:func:`_poly_scale`'s s and ``roots(alpha)``, the snapped roots for lambdas / s.

    e_k is formed once; each alpha rewrites row 0 of one companion matrix, laid
    out as ``np.roots`` lays it out, with -c(alpha), and ``np.roots``' zero roots
    for trailing zero coefficients follow its eigenvalues.  So the roots are
    ``poly_roots(build_poly(lambdas / s, alpha).coeffs)`` to the bit, up to order.
    """
    lambdas, s = _poly_scale(lambdas)
    n = lambdas.size
    if not n:
        raise DegreeZero("polynomial must have degree >= 1")
    e = elementary_symmetric(lambdas)[1:]
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

    return s, roots


def alpha_real_root_bound(lambdas, tol: float = 1e-6) -> float:
    """Largest cosine for which the factorization polynomial stays all-real.

    Bisects the all-real predicate over (1e-6, 1 - 1e-6); returns 0.0 when
    even the smallest tested cosine already produces non-real roots.  The
    roots come from :func:`_root_solver`, as d does in :func:`sdst_factor`,
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if all_real(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _clusters(values: np.ndarray, scale: float):
    """Group ascending values into equal-within-tolerance runs."""
    groups = []
    tol = CLUSTER_RTOL * scale
    for v in values:
        if groups and abs(v - groups[-1][-1]) <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups


def _fix_column_signs(Q: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive."""
    idx = np.argmax(np.abs(Q), axis=0)
    signs = np.where(Q[idx, np.arange(Q.shape[1])] < 0, -1.0, 1.0)
    return Q * signs


def two_eigenvalue_factor(A) -> tuple[float, EquiangularMatrix]:
    """Closed-form A = r S S^T for the (n-1, 1) two-eigenvalue pattern.

    Requires a symmetric nonsingular A whose spectrum takes exactly two
    values of the same sign, one of them simple.  r and the cosine come
    straight from the spectrum of r G_alpha, lam1 = r (1 - alpha) repeated
    and lam2 = r (1 + (n-1) alpha) simple; the cosine is negative when the
    repeated value dominates in magnitude.
    """
    A = require_square(as_matrix(A))
    Q, w = sym_eig(A)
    n = w.size
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


def _require_basis(n: int) -> None:
    """InvalidShape unless n >= 2: one column has no cosine to share with another."""
    if n < 2:
        raise InvalidShape(f"a basis at a common cosine needs n >= 2 columns, got a {n} x {n} matrix")


def sdst_factor(A, alpha: float) -> SDSTFactorization:
    """Factor symmetric A as S diag(d) S^T with S equiangular at ``alpha``.

    Parameters
    ----------
    A : symmetric (n, n) array_like
        Spectrum must have distinct nonzero eigenvalues, with at most n-2
        zeros allowed alongside them.
    alpha : float in (0, 1)
        Target pairwise cosine of the basis columns.

    Raises
    ------
    InvalidShape
        A is smaller than 2 x 2: no two columns to share a cosine.
    NonRealRoots
        The polynomial for this (spectrum, alpha) has non-real roots; no
        real factorization exists at this cosine.
    MultiplicityUnsupported
        Repeated nonzero eigenvalues: the (n-1, 1) same-sign pattern is
        handled by :func:`two_eigenvalue_factor` instead, and a value
        repeated k times with 2 <= k <= n-2 admits no factorization at all.
    """
    A = require_square(as_matrix(A))
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"factorization cosine must lie in (0, 1), got {alpha!r}")
    n = A.shape[0]
    _require_basis(n)
    Q, w = sym_eig(A)
    scale = max(1.0, float(np.max(np.abs(w))))
    zero_mask = np.abs(w) <= CLUSTER_RTOL * scale
    nz = w[~zero_mask]
    n_zero = int(np.count_nonzero(zero_mask))
    if n_zero > n - 2:
        raise MultiplicityUnsupported(f"{n_zero} zero eigenvalues exceed the n-2 allowance")

    groups = _clusters(nz, scale)
    sizes = [len(g) for g in groups]
    if max(sizes) > 1 and len(groups) > 1:
        same_sign = bool((nz > 0).all() or (nz < 0).all())
        if n_zero == 0 and len(groups) == 2 and sorted(sizes) == [1, n - 1] and same_sign:
            raise MultiplicityUnsupported(
                "two-value (n-1, 1) spectrum: use two_eigenvalue_factor"
            )
        raise MultiplicityUnsupported(
            "repeated nonzero eigenvalues admit no real factorization here"
        )
    # A single all-equal group (e.g. A = r I) is allowed through: its
    # polynomial provably has non-real roots and the error surfaces below.

    m = nz.size
    # Reorder the eigenbasis so the nonzero part (ascending) comes first.
    order = np.concatenate([np.flatnonzero(~zero_mask), np.flatnonzero(zero_mask)])
    Qp = Q[:, order]

    s, roots_at = _root_solver(nz)
    roots = roots_at(alpha)
    if np.count_nonzero(roots.imag):
        raise NonRealRoots(f"{np.count_nonzero(roots.imag)} non-real roots at alpha={alpha!r}")
    d = np.sort(roots.real) * s

    sbar = GramParams(m, alpha).operator.sqrt()
    Qm, mu = sym_eig(sbar.right_multiply(sbar.left_multiply(np.diag(d))))  # sbar diag(d) sbar
    if float(np.max(np.abs(np.sort(mu) - np.sort(nz)))) > 1e-7 * scale:
        raise NonRealRoots("recovered spectrum does not match the target within 1e-7")
    S = sbar.right_multiply(_fix_column_signs(Qm).T)  # factors diag(nz ascending)

    if n_zero:
        # This S's Gram matrix is G_alpha, so it is its own SR factor and the
        # SR factor of blockdiag(S, I) extends it by the zero-eigenvalue
        # directions; only that S is formed, not R or the residual S R - B.
        B = np.eye(n)
        B[:m, :m] = S
        S = _sr_frame(B, math.acos(alpha))[0].mat
    d_full = np.concatenate([d, np.zeros(n_zero)])

    S_out = Qp @ S
    residual = spectral_norm((S_out * d_full) @ S_out.T - A)
    return SDSTFactorization(EquiangularMatrix(S_out, alpha), d_full, residual)


def schur_equiangular(A, alpha: float) -> tuple[EquiangularMatrix, np.ndarray]:
    """Schur-like splitting A = S T S^-1 with an equiangular basis.

    The orthogonal Schur basis of A is re-angled through an SR
    factorization; T = R T_schur R^-1 keeps the quasi-triangular block
    structure (entries outside it are cleaned, they are pure roundoff).
    """
    A = require_square(as_matrix(A))
    if not 0.0 <= alpha < 1.0:
        raise InvalidAlpha(f"need 0 <= alpha < 1, got {alpha!r}")
    Qs, Ts = real_schur(A)
    dec = sr_decompose(Qs, math.acos(alpha))
    R = dec.R
    T = np.linalg.solve(R.T, (R @ Ts).T).T  # R Ts R^-1
    n = A.shape[0]
    sub_tol = 1e-11 * max(1.0, float(np.abs(Ts).max()))
    keep = np.triu(np.ones((n, n), dtype=bool))
    sub = np.abs(np.diag(Ts, -1)) > sub_tol  # genuine 2x2 Schur blocks
    for i in np.flatnonzero(sub):
        keep[i + 1, i] = True
    T[~keep] = 0.0
    return dec.S, T


def equiangular_eigenvectors(A, tol: float = 1e-8):
    """Detect whether A's eigenvectors form an equiangular family.

    Returns (alpha, S) where S's columns are unit eigenvectors of A at
    common cosine alpha, or None when no alpha in (0, 1) works.  The test
    runs on a triangularized form T of A: some adjacent diagonal pair with
    t_ii != t_(i+1)(i+1) must satisfy the ratio equation

        shat_(i,i+1) / shat_(i+1,i+1) = t_(i,i+1) / (t_(i+1,i+1) - t_ii)

    for the triangular system at alpha.  That ratio is o_i / d_(i+1) =
    alpha / sqrt((1 + (i-2) alpha)(1 + i alpha)) for 1-based row i, which
    inverts in closed form to

        alpha = rho / (sqrt(1 + rho^2) - (i-1) rho),

    and the candidate must then pass the global check T shat = shat diag(T).

    Raises ComplexSpectrum when A has non-real eigenvalues.
    """
    A = require_square(as_matrix(A))
    n = A.shape[0]
    w, X = np.linalg.eig(A)
    if np.count_nonzero(snap_real(w).imag):
        raise ComplexSpectrum("matrix has non-real eigenvalues")
    w = w.real.astype(float)
    X = np.real(X)
    scale = max(1.0, float(np.max(np.abs(w))))

    if float(w.max() - w.min()) <= tol * scale:
        # Single eigenvalue: only A = c I qualifies, and then any basis at
        # any cosine works; alpha = 0.5 by convention.
        lam = float(w.mean())
        if norm2_at_most(A - lam * np.eye(n), tol * scale):
            return 0.5, triangular_equiangular(GramParams(n, 0.5))
        return None

    order = np.argsort(w)
    w = w[order]
    X = X[:, order]
    X = X / np.linalg.norm(X, axis=0)
    # Sign-align the eigenvectors against the first one so that a genuinely
    # equiangular family comes out at a positive common cosine.
    dots = X.T @ X[:, 0]
    X = X * np.where(dots < 0, -1.0, 1.0)

    Q, R = np.linalg.qr(X)
    signs = np.where(np.diag(R) < 0, -1.0, 1.0)
    Q, R = Q * signs, R * signs[:, None]
    T = (R * w) @ np.linalg.inv(R)
    t_norm = max(1.0, spectral_norm(T))

    for i in range(n - 1):
        denom = T[i + 1, i + 1] - T[i, i]
        if abs(denom) <= tol * scale:
            continue
        rho = float(T[i, i + 1] / denom)
        root = math.sqrt(1.0 + rho * rho) - i * rho  # row i + 1, 1-based
        if root <= 0.0 or not 1e-6 <= rho / root <= 1.0 - 1e-6:
            continue
        alpha = rho / root
        shat = triangular_equiangular(GramParams(n, alpha)).mat
        if norm2_at_most(T @ shat - shat * w[None, :], 1e-8 * t_norm):
            return float(alpha), EquiangularMatrix(Q @ shat, float(alpha))
    return None
