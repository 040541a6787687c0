"""Symmetric factorizations through equiangular bases.

A symmetric A with distinct nonzero eigenvalues lambda_1..lambda_n can be
written A = S diag(d) S^T with S equiangular at a chosen cosine alpha,
provided the monic polynomial

    g(x) = x^n - c_1 x^(n-1) + c_2 x^(n-2) - ...,
    c_k = e_k(lambda) / ((1-alpha)^(k-1) (1 + (k-1) alpha))

(e_k = elementary symmetric polynomial) has all-real roots; those roots are
the d's.  Spectra with a repeated eigenvalue are handled separately: the
(n-1, 1) two-value pattern factors in closed form as A = r S S^T, while an
eigenvalue repeated k times with 2 <= k <= n-2 admits no real factorization
at any alpha.  Zero eigenvalues (at most n-2 of them) ride along by
factoring the nonzero block and extending the basis.

This module also recovers equiangular structure from a matrix: a Schur-like
splitting A = S T S^-1 with S equiangular, and detection of whether A's
eigenvector family can be scaled into an equiangular system at some alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ea import EquiangularMatrix, sr_decompose, triangular_equiangular
from .errors import (
    ComplexSpectrum,
    DegreeZero,
    InvalidAlpha,
    MultiplicityUnsupported,
    NonRealRoots,
    OutOfRange,
    WrongSpectrum,
)
from .gram import GramParams, dual_params, gram_principal_sqrt
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
    lam = np.asarray(lambdas, dtype=float)
    n = lam.size
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"factorization cosine must lie in (0, 1), got {alpha!r}")
    e = elementary_symmetric(lam)
    k = np.arange(1, n + 1)
    denom = (1.0 - alpha) ** (k - 1) * (1.0 + (k - 1) * alpha)
    return e[1:] / denom


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


def _roots(lambdas, alpha: float) -> np.ndarray:
    """Snapped roots of ``build_poly(lambdas, alpha)``; OutOfRange if a coefficient overflows."""
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            coeffs = build_poly(lambdas, alpha).coeffs
        return poly_roots(coeffs)
    except ValueError as exc:  # poly_roots refuses NaN and Inf coefficients
        raise OutOfRange(f"factorization polynomial overflows float64 at alpha={alpha!r}") from exc


def alpha_real_root_bound(lambdas, tol: float = 1e-6) -> float:
    """Largest cosine for which the factorization polynomial stays all-real.

    Bisects the all-real predicate over (1e-6, 1 - 1e-6); returns 0.0 when
    even the smallest tested cosine already produces non-real roots.  e_k
    does not depend on alpha, so it is formed once; each tested cosine then
    rewrites row 0 of one companion matrix, laid out as ``np.roots`` lays it
    out, with -c(alpha) and counts the eigenvalues that ``snap_real`` leaves
    off the real axis.  The tested cosines and the eigenvalue solver's input
    are those of ``poly_roots(build_poly(lambdas, alpha).coeffs)``, so the
    bound is the same to the bit.
    """
    lambdas, _ = _poly_scale(lambdas)
    n = lambdas.size
    if not n:
        raise DegreeZero("polynomial must have degree >= 1")
    e = elementary_symmetric(lambdas)[1:]
    km1 = np.arange(n)
    # The denominators lie in (0, 1], so c_k is zero exactly where e_k is.
    # np.roots drops trailing zero coefficients as real zero roots: the
    # companion matrix stops at the last nonzero e_k.
    nonzero = np.flatnonzero(e)
    m = int(nonzero[-1]) + 1 if nonzero.size else 0
    flip = (-1.0) ** np.arange(m)  # row 0 is -coeffs[1:] = c * flip
    companion = np.diag(np.ones(max(m - 1, 0)), -1)

    def all_real(a: float) -> bool:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            c = e / ((1.0 - a) ** km1 * (1.0 + km1 * a))
        if not np.isfinite(c).all():
            raise OutOfRange(f"factorization polynomial overflows float64 at alpha={a!r}")
        if not m:
            return True
        np.multiply(c[:m], flip, out=companion[0])
        return not np.count_nonzero(snap_real(np.linalg.eigvals(companion)).imag)

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


def _householder_swap(n: int, p: int) -> np.ndarray:
    """Reflection exchanging the normalized all-ones direction with e_p."""
    u = np.full(n, 1.0 / math.sqrt(n))
    u[p] -= 1.0
    nu = float(u @ u)
    if nu < 1e-30:
        return np.eye(n)
    return np.eye(n) - (2.0 / nu) * np.outer(u, u)


def two_eigenvalue_factor(A) -> tuple[float, EquiangularMatrix]:
    """Closed-form A = r S S^T for the (n-1, 1) two-eigenvalue pattern.

    Requires a symmetric nonsingular A whose spectrum takes exactly two
    values of the same sign, one of them simple.  When the simple value
    dominates in magnitude the cosine comes straight from the spectrum;
    otherwise the factorization is built on A^-1 and dualized, which lands
    on a negative cosine.
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

    if abs(lam1) < abs(lam2):
        alpha = (lam2 - lam1) / (lam2 - lam1 + n * lam1)
        r = (lam2 - lam1 + n * lam1) / n
    else:
        m1, m2 = 1.0 / lam1, 1.0 / lam2  # now |m1| < |m2|
        a_inv = (m2 - m1) / (m2 - m1 + n * m1)
        r_inv = (m2 - m1 + n * m1) / n
        d = dual_params(GramParams(n, a_inv))
        alpha = d.alpha_prime
        r = d.beta / r_inv

    p = n - 1 if lam2 > lam1 else 0  # position of the simple eigenvalue, ascending
    Qf = _fix_column_signs(Q)
    _, sbar = gram_principal_sqrt(GramParams(n, alpha))
    S = Qf @ _householder_swap(n, p) @ sbar
    return float(r), EquiangularMatrix(S, float(alpha))


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
    Q, w = sym_eig(A)
    n = w.size
    scale = max(1.0, float(np.max(np.abs(w))) if n else 1.0)
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
    lam_nz = nz

    pm = GramParams(m, alpha)
    lam_poly, s = _poly_scale(lam_nz)
    roots = _roots(lam_poly, alpha)
    if np.any(roots.imag != 0.0):
        raise NonRealRoots(
            f"{int(np.count_nonzero(roots.imag != 0))} non-real roots at alpha={alpha!r}"
        )
    d = np.sort(roots.real) * s

    _, sbar = gram_principal_sqrt(pm)
    M = sbar @ np.diag(d) @ sbar
    Qm, mu = sym_eig(M)
    if float(np.max(np.abs(np.sort(mu) - np.sort(lam_nz)))) > 1e-7 * scale:
        raise NonRealRoots("recovered spectrum does not match the target within 1e-7")
    S_block = _fix_column_signs(Qm).T @ sbar  # factors diag(lam_nz ascending)

    S = S_block
    if n_zero:
        # S_block's Gram matrix is G_alpha, so it is its own SR factor and the
        # SR factor of blockdiag(S_block, I) extends it by the zero-eigenvalue
        # directions.
        B = np.eye(n)
        B[:m, :m] = S_block
        S = sr_decompose(B, math.acos(alpha)).S.mat
    d_full = np.concatenate([d, np.zeros(n_zero)])

    S_out = Qp @ S
    residual = spectral_norm(S_out @ np.diag(d_full) @ S_out.T - A)
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
    T = R @ np.diag(w) @ np.linalg.inv(R)
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
