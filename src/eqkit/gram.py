"""Closed-form algebra of the constant-cosine Gram matrix (1-a) I + a ee^T.

A family of unit vectors whose pairwise inner products all equal ``alpha``
has this Gram matrix.  It, its inverse and its square roots all lie in
span{I, ee^T}; one operator, :class:`Structured`, carries every member of
that family, and the functions below are thin views of the one for G_alpha.
The rest of the package applies these matrices through it, in O(n^2), and
builds none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidAlpha

# Admissibility margin: alpha is accepted when min(1-a, a+1/(n-1)) exceeds this.
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class Structured:
    """The n x n matrix s I + t (ee^T - I): s on the diagonal, t off it.

    ``eigenvalues`` is (rep, simple) = (s - t, s + (n-1) t), held on e-perp
    (n-1 times) and on e.  Each operator below derives all four numbers from
    its parent's with no difference of nearly equal terms, so the entries of
    the inverse and the principal roots of G_alpha are relative-accurate,
    like its eigenvalues.
    """

    n: int
    s: float
    t: float
    eigenvalues: tuple[float, float]

    @classmethod
    def gram(cls, n: int, alpha: float) -> Structured:
        """I + alpha (ee^T - I) at any cosine; ``GramParams`` is where the range is checked."""
        num, den = float(alpha).as_integer_ratio()
        # 1 + (n-1) alpha rounded once, from integers: rounding (n-1) alpha first
        # loses, near alpha = -1/(n-1), the digits the sum keeps.
        return cls(n, 1.0, alpha, (1.0 - alpha, (den + (n - 1) * num) / den))

    def inverse(self) -> Structured:
        """The inverse: eigenvalues 1/rep and 1/simple, off-diagonal -t / (rep simple)."""
        rep, simple = self.eigenvalues
        t = -self.t / (rep * simple)
        return Structured(self.n, 1.0 / rep + t, t, (1.0 / rep, 1.0 / simple))

    def sqrt(self, sign: int = 1) -> Structured:
        """The root with eigenvalues sign * sqrt(rep) on e-perp and sqrt(simple) on e.

        sign = 1 is the principal root; its off-diagonal (sqrt(simple) -
        sqrt(rep)) / n is taken as the quotient t / (sqrt(simple) + sqrt(rep)).
        The diagonal of the sign = -1 root vanishes at alpha = (n-2)/(n-1) of
        G_alpha, so there it is accurate only relative to its terms.
        """
        r, q = sign * math.sqrt(self.eigenvalues[0]), math.sqrt(self.eigenvalues[1])
        t = self.t / (q + r) if sign > 0 else (q - r) / self.n
        return Structured(self.n, r + t, t, (r, q))

    def right_multiply(self, X: np.ndarray) -> np.ndarray:
        """X M in closed form, rep X + t (X e) e^T, for any X with n columns."""
        out = self.eigenvalues[0] * X
        out += self.t * X.sum(axis=1, keepdims=True)
        return out

    def left_multiply(self, X: np.ndarray) -> np.ndarray:
        """M X in closed form, rep X + t e (e^T X), for any X with n rows."""
        out = self.eigenvalues[0] * X
        out += self.t * X.sum(axis=0)
        return out

    def subtract_from(self, X: np.ndarray) -> np.ndarray:
        """X - M in place, entry by entry, for a square X of at most n rows (M's leading block)."""
        diag = X.diagonal() - self.s
        X -= self.t
        np.fill_diagonal(X, diag)
        return X

    def dense(self, n: int | None = None) -> np.ndarray:
        """The matrix, or its leading n x n block: the one place a member is built."""
        m = np.full((self.n if n is None else n,) * 2, self.t)
        np.fill_diagonal(m, self.s)
        return m


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

    @property
    def operator(self) -> Structured:
        """G_alpha as a :class:`Structured` operator."""
        return Structured.gram(self.n, self.alpha)


@dataclass(frozen=True)
class DualParams:
    """Scaling beta and cosine alpha_prime of the inverse Gram matrix."""

    beta: float
    alpha_prime: float


def gram_matrix(p: GramParams) -> np.ndarray:
    return p.operator.dense()


def gram_eigenvalues(p: GramParams) -> tuple[float, float]:
    """(1 - alpha) with multiplicity n-1, and 1 + (n-1) alpha simple."""
    return p.operator.eigenvalues


def dual_params(p: GramParams) -> DualParams:
    """Parameters of the inverse: G^-1 = beta * G' where G' has cosine alpha_prime."""
    inv = p.operator.inverse()
    return DualParams(beta=inv.s, alpha_prime=inv.t / inv.s)


def gram_inverse(p: GramParams) -> np.ndarray:
    return p.operator.inverse().dense()


def gram_principal_sqrt(p: GramParams) -> tuple[Structured, np.ndarray]:
    """Principal (positive definite) square root of the Gram matrix.

    Returns the root's operator together with the materialized matrix
    (s - t) I + t ee^T, whose eigenvalues are sqrt(1 - alpha) and
    sqrt(1 + (n-1) alpha).
    """
    root = p.operator.sqrt()
    return root, root.dense()


def gram_sqrt_variants(p: GramParams) -> list[Structured]:
    """Structured symmetric square roots of the Gram matrix.

    Index 0 is the principal root (eigenvalues +sqrt(1-a), +sqrt(1+(n-1)a));
    index 1 is the variant that flips the sign of the repeated eigenvalue.
    At alpha = (n-2)/(n-1) the variant has s = 0, off-diagonal 1/sqrt(n-1).
    """
    return [p.operator.sqrt(), p.operator.sqrt(-1)]


def gram_sqrt_inverse(p: GramParams) -> np.ndarray:
    """Inverse of the principal square root, in closed form."""
    return p.operator.sqrt().inverse().dense()


def gram_condition(p: GramParams) -> float:
    """2-norm condition number of a square equiangular matrix at these parameters.

    The singular values are the square roots of the Gram eigenvalues, so this
    is sqrt(max / min) of ``gram_eigenvalues``.
    """
    lam = gram_eigenvalues(p)
    return float(np.sqrt(max(lam) / min(lam)))
