"""Benchmark inputs, built from numpy alone.

Nothing here imports eqkit, so a fault in the program cannot shape the
inputs it is measured on.  Every generator takes a ``numpy.random.Generator``
made from the workload seed; the same seed gives the same arrays.

* equiangular S at cosine a: Haar Q times the upper Cholesky factor of
  G_a = (1 - a) I + a ee^T, so S^T S = G_a;
* doubly equiangular D at cosine a: U P with P the principal square root of
  G_a and U a Haar orthogonal matrix that fixes e;
* simplex frame of dimension n: the closed form of the recursion
  S_n = [1, -1/n ... -1/n; 0, sqrt(n^2 - 1)/n S_{n-1}];
* symmetric sdst input: Q diag(lam) Q^T.
"""

from __future__ import annotations

import math

import numpy as np


def haar(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix (QR of a Gaussian, R diagonal made positive)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def gram(n: int, alpha: float) -> np.ndarray:
    """G_alpha = (1 - alpha) I + alpha ee^T."""
    return (1.0 - alpha) * np.eye(n) + alpha * np.ones((n, n))


def gram_cholesky_upper(n: int, alpha: float) -> np.ndarray:
    """Upper triangular T with T^T T = G_alpha."""
    return np.linalg.cholesky(gram(n, alpha)).T


def equiangular(rng: np.random.Generator, n: int, alpha: float) -> np.ndarray:
    return haar(rng, n) @ gram_cholesky_upper(n, alpha)


def doubly_equiangular(rng: np.random.Generator, n: int, alpha: float) -> np.ndarray:
    """U P: columns and rows at cosine alpha, row and column sums sqrt(1 + (n-1) alpha)."""
    lo = math.sqrt(1.0 - alpha)
    hi = math.sqrt(1.0 + (n - 1) * alpha)
    P = lo * np.eye(n) + ((hi - lo) / n) * np.ones((n, n))
    # H swaps e/sqrt(n) and e_1, so H diag(1, Q') H fixes e.
    u = np.full(n, 1.0 / math.sqrt(n))
    u[0] -= 1.0
    H = np.eye(n) - (2.0 / (u @ u)) * np.outer(u, u)
    B = np.eye(n)
    B[1:, 1:] = haar(rng, n - 1)
    return H @ B @ H @ P


def simplex(n: int) -> np.ndarray:
    """n x (n+1) simplex frame: row i is c_i at column i and -c_i/(n-i) after it."""
    S = np.zeros((n, n + 1))
    c = 1.0
    for i in range(n):
        m = n - i
        S[i, i] = c
        S[i, i + 1 :] = -c / m
        c *= math.sqrt(m * m - 1.0) / m
    return S


def hilbert(n: int) -> np.ndarray:
    i = np.arange(n)
    return 1.0 / (i[:, None] + i[None, :] + 1.0)


def sdst_spectrum(rng: np.random.Generator, n: int) -> np.ndarray:
    """1..n, each moved by at most 1/4: distinct and far enough apart to factor."""
    return np.arange(1.0, n + 1) + rng.uniform(-0.25, 0.25, n)


def symmetric(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    Q = haar(rng, lam.size)
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T)


def write_csv(path: str, M: np.ndarray) -> None:
    """CSV with the ``# rows cols`` header, 17 significant digits."""
    np.savetxt(path, M, fmt="%.17g", delimiter=",", header=f"{M.shape[0]} {M.shape[1]}", comments="# ")


def write_mtx(path: str, M: np.ndarray) -> None:
    """Dense Matrix Market array file, values down the columns."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        np.savetxt(fh, M.ravel(order="F"), fmt="%.17g")


def write_matrix(path: str, M: np.ndarray) -> None:
    (write_mtx if path.endswith(".mtx") else write_csv)(path, M)
