"""Simplex frames: n+1 unit vectors in R^n at mutual cosine -1/n.

These are the maximal obtuse equiangular configurations — the vertices of a
regular simplex, whose rows have a closed form — and they are tight frames:
sum_i (x . s_i)^2 = ((n+1)/n) ||x||^2 for every x.  They meet the Welch
coherence bound with equality, i.e. they are equiangular tight frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ea import EquiangularMatrix, _near_constant
from .errors import InvalidShape, NotSpanning
from .kernel import as_matrix, norm2_at_most, sym_eig


@dataclass
class FrameSet:
    """A finite family of vectors (columns)."""

    vectors: np.ndarray


@dataclass
class SimplexFrame:
    mat: np.ndarray  # n x (n+1), unit columns
    n: int
    alpha: float = field(default=0.0)

    def as_frame(self) -> FrameSet:
        return FrameSet(self.mat)


def simplex_frame(n: int) -> SimplexFrame:
    """The n-dimensional simplex frame, in closed form.

    Row i (0-based) has c_i = sqrt((n+1)(n-i) / (n(n-i+1))) on the diagonal,
    -c_i/(n-i) in every later column and zeros before it; row 0 is
    (1, -1/n, ..., -1/n).  This is the recursion that prepends such a row and
    scales the previous frame by sqrt(n^2 - 1)/n, unrolled.  Columns are
    unit, pairwise cosines are exactly -1/n, and all row sums vanish.
    """
    if int(n) != n or n < 1:
        raise InvalidShape(f"dimension must be a positive integer, got {n!r}")
    n = int(n)
    rest = n - np.arange(n)  # n - i
    c = np.sqrt((n + 1.0) * rest / (n * (rest + 1.0)))
    S = np.triu(np.repeat((-c / rest)[:, None], n + 1, axis=1), 1)
    S[np.diag_indices(n)] = c
    return SimplexFrame(S, n, -1.0 / n)


def _vectors_of(F) -> np.ndarray:
    return as_matrix(getattr(F, "vectors", getattr(F, "mat", F)))


def frame_bounds(F: FrameSet) -> tuple[float, float]:
    """Optimal frame bounds: extreme eigenvalues of the frame operator F F^T."""
    V = _vectors_of(F)
    _, w = sym_eig(V @ V.T)
    if w[0] <= 1e-10 * max(1.0, float(w[-1])):
        raise NotSpanning("vectors do not span the ambient space")
    return float(w[0]), float(w[-1])


@dataclass
class EtfReport:
    """Outcome of an equiangular-tight-frame test."""

    ok: bool
    failed: list[str]
    coherence: float
    frame_constant: float

    def __bool__(self):
        return self.ok


def is_etf(F: FrameSet, tol: float = 1e-8) -> EtfReport:
    """Check unit norms, constant |cosine| at the Welch bound, and tightness."""
    V = _vectors_of(F)
    n, m = V.shape
    if n == 0 or m == 0:
        raise InvalidShape(f"a frame needs at least one vector of dimension >= 1, got shape {V.shape}")
    failed = []
    with np.errstate(over="ignore"):  # an overflowed Gram entry fails unit_norms
        G = V.T @ V
    if float(np.max(np.abs(np.diag(G) - 1.0))) > tol:
        failed.append("unit_norms")
    off = np.abs(G[~np.eye(m, dtype=bool)])
    del G  # freed before the frame operator W is formed
    if m > 1:
        coherence, constant = _near_constant(off, tol)
        if not constant:
            failed.append("constant_coherence")
        elif m > n and abs(coherence - welch_alpha(n, m)) > tol:
            failed.append("welch_bound")
    else:
        coherence = 0.0
    del off
    with np.errstate(over="ignore"):
        W = V @ V.T
    frame_constant = float(np.trace(W)) / n
    # |W_ij| <= (W_ii + W_jj) / 2, so a finite trace means a finite W; an
    # overflowed frame operator is not tight.
    tight = math.isfinite(frame_constant)
    if tight:
        W[np.diag_indices(n)] -= frame_constant
        tight = norm2_at_most(W, tol * max(1.0, frame_constant))
    if not tight:
        failed.append("tight")
    return EtfReport(ok=not failed, failed=failed, coherence=coherence, frame_constant=frame_constant)


def welch_alpha(n: int, m: int) -> float:
    """Minimal possible coherence of m unit vectors in R^n: sqrt((m-n)/(n(m-1)))."""
    if n < 1 or m < n:
        raise InvalidShape(f"need m >= n >= 1, got n={n!r}, m={m!r}")
    if m == n:
        return 0.0
    return math.sqrt((m - n) / (n * (m - 1.0)))


def tight_frame_identity_defect(SF: SimplexFrame, x) -> float:
    """|sum_i (x . s_i)^2 - ((n+1)/n) ||x||^2| for a probe vector x."""
    x = np.asarray(x, dtype=float).ravel()
    proj = SF.mat.T @ x
    return float(abs(proj @ proj - (SF.n + 1) / SF.n * float(x @ x)))


def augment_to_orthogonal(SF: SimplexFrame) -> np.ndarray:
    """Append the row e^T/sqrt(n); all columns become orthogonal of norm sqrt((n+1)/n)."""
    n = SF.n
    return np.vstack([SF.mat, np.full((1, n + 1), 1.0 / math.sqrt(n))])


def relate_to_sdst(n: int) -> tuple[EquiangularMatrix, np.ndarray]:
    """Drop the first simplex column: the rest is square equiangular at -1/n.

    Returns that matrix S together with A = S S^T, which is exactly
    diag(1/n, (n+1)/n, ..., (n+1)/n) — a two-eigenvalue pattern whose
    closed-form factorization recovers the -1/n cosine.
    """
    if n < 2:
        raise InvalidShape("need n >= 2 for a square truncated simplex")
    SF = simplex_frame(n)
    S = SF.mat[:, 1:].copy()
    A = np.diag(np.full(n, (n + 1.0) / n))
    A[0, 0] = 1.0 / n
    return EquiangularMatrix(S, -1.0 / n), A
