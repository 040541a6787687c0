"""Closed-form algebra of the constant-cosine Gram matrix (1-a) I + a ee^T.

A family of unit vectors whose pairwise inner products all equal ``alpha``
has this Gram matrix; everything about it (eigenvalues, inverse, square
roots, condition number) is available in closed form, and the rest of the
package leans on these formulas instead of dense factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidAlpha

# Admissibility margin: alpha is accepted when min(1-a, a+1/(n-1)) exceeds this.
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class GramParams:
    """Dimension and common pairwise cosine of an equiangular system."""

    n: int
    alpha: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise InvalidAlpha(f"dimension must be an integer >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "alpha", float(self.alpha))
        a, n = self.alpha, self.n
        if not (min(1.0 - a, a + 1.0 / (n - 1)) > BOUNDARY_TOL):  # NaN fails too
            raise InvalidAlpha(
                f"alpha={a!r} outside (-1/{n - 1}, 1) for n={n} (boundary margin {BOUNDARY_TOL})"
            )


@dataclass(frozen=True)
class DualParams:
    """Scaling beta and cosine alpha_prime of the inverse Gram matrix."""

    beta: float
    alpha_prime: float


@dataclass(frozen=True)
class SqrtParams:
    """Diagonal entry s and off-diagonal entry t of a structured Gram root."""

    s: float
    t: float

    def matrix(self, n: int) -> np.ndarray:
        """Materialize (s - t) I + t ee^T."""
        return _ones_structured(n, self.s, self.t)

    def right_multiply(self, X: np.ndarray) -> np.ndarray:
        """X ((s - t) I + t ee^T) in closed form, (s - t) X + t (X e) e^T, without the root."""
        out = (self.s - self.t) * X
        out += self.t * X.sum(axis=1, keepdims=True)
        return out


def _ones_structured(n: int, diag: float, off: float) -> np.ndarray:
    m = np.full((n, n), off)
    np.fill_diagonal(m, diag)
    return m


def _from_eigenvalues(n: int, rep: float, simple: float) -> SqrtParams:
    """The member of span{I, ee^T} with eigenvalue ``rep`` on e-perp and ``simple`` on e."""
    t = (simple - rep) / n
    return SqrtParams(s=rep + t, t=t)


def gram_matrix(p: GramParams) -> np.ndarray:
    return _ones_structured(p.n, 1.0, p.alpha)


def gram_eigenvalues(p: GramParams) -> tuple[float, float]:
    """(1 - alpha) with multiplicity n-1, and 1 + (n-1) alpha simple."""
    return 1.0 - p.alpha, 1.0 + (p.n - 1) * p.alpha


def dual_params(p: GramParams) -> DualParams:
    """Parameters of the inverse: G^-1 = beta * G' where G' has cosine alpha_prime."""
    n, a = p.n, p.alpha
    d1 = (1.0 - a) * (1.0 + (n - 1) * a)
    d2 = 1.0 + (n - 2) * a
    # Both denominators are bounded away from zero on the admissible range;
    # guard anyway so a bad caller gets a typed error instead of inf.
    if abs(d1) <= 1e-12 or abs(d2) <= 1e-12:
        raise InvalidAlpha(f"dual parameters undefined at alpha={a!r}, n={n}")
    return DualParams(beta=d2 / d1, alpha_prime=-a / d2)


def gram_inverse(p: GramParams) -> np.ndarray:
    d = dual_params(p)
    return _ones_structured(p.n, d.beta, d.beta * d.alpha_prime)


def gram_principal_sqrt(p: GramParams) -> tuple[SqrtParams, np.ndarray]:
    """Principal (positive definite) square root of the Gram matrix.

    Returns the (s, t) parameters together with the materialized matrix
    (s - t) I + t ee^T, whose eigenvalues are sqrt(1 - alpha) and
    sqrt(1 + (n-1) alpha).
    """
    rep, simple = np.sqrt(gram_eigenvalues(p))
    sp = _from_eigenvalues(p.n, rep, simple)
    return sp, sp.matrix(p.n)


def gram_sqrt_variants(p: GramParams) -> list[SqrtParams]:
    """Structured symmetric square roots of the Gram matrix.

    Index 0 is the principal root (eigenvalues +sqrt(1-a), +sqrt(1+(n-1)a));
    index 1 is the variant that flips the sign of the repeated eigenvalue.
    At alpha = (n-2)/(n-1) the variant has s = 0, off-diagonal 1/sqrt(n-1).
    """
    rep, simple = np.sqrt(gram_eigenvalues(p))
    return [_from_eigenvalues(p.n, rep, simple), _from_eigenvalues(p.n, -rep, simple)]


def gram_sqrt_inverse(p: GramParams) -> np.ndarray:
    """Inverse of the principal square root, in closed form."""
    rep, simple = 1.0 / np.sqrt(gram_eigenvalues(p))
    return _from_eigenvalues(p.n, rep, simple).matrix(p.n)


def gram_condition(p: GramParams) -> float:
    """2-norm condition number of a square equiangular matrix at these parameters.

    The singular values are the square roots of the Gram eigenvalues, so this
    is sqrt(max / min) of ``gram_eigenvalues``.
    """
    lam = gram_eigenvalues(p)
    return float(np.sqrt(max(lam) / min(lam)))
