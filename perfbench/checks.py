"""Output checks, computed apart from the program.

Each check raises :class:`CheckFailed` with a one-line reason.  The
references use numpy alone: the SR factors come from numpy's QR and the
Cholesky factor of G_alpha (S = Q T, R = T^-1 R_qr); the other results are
held to properties their method must have.  Files are parsed here too, not
with eqkit's reader.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gen import gram, gram_cholesky_upper


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _maxabs(M) -> float:
    return float(np.max(np.abs(M))) if np.size(M) else 0.0


def read_matrix(path: str) -> np.ndarray:
    """Parse a CSV (``#`` comments) or a dense Matrix Market array file."""
    if path.endswith(".mtx"):
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().split("\n") if ln.strip() and not ln.startswith("%")]
        r, c = (int(x) for x in lines[0].split())
        vals = np.array([float(x) for x in lines[1:]])
        _require(vals.size == r * c, f"{path}: {vals.size} values for a {r}x{c} matrix")
        return vals.reshape((c, r)).T
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def _no_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_report(stdout: str, command: str) -> dict:
    """The CLI report: strict RFC 8259 JSON (no NaN/Infinity), passed, right command."""
    try:
        rep = json.loads(stdout, parse_constant=_no_constant)
    except ValueError as exc:
        raise CheckFailed(f"report is not strict JSON: {exc}") from None
    _require(isinstance(rep, dict), "report is not a JSON object")
    _require(rep.get("command") == command, f"report command {rep.get('command')!r} != {command!r}")
    _require(rep.get("passed") is True, f"report says passed={rep.get('passed')!r}")
    return rep


def sr_reference(A: np.ndarray, alpha: float):
    """S = Q T_alpha and R = T_alpha^-1 R_qr from the positive-diagonal QR of A."""
    Q, Rq = np.linalg.qr(A)
    s = np.where(np.diag(Rq) < 0, -1.0, 1.0)
    Q, Rq = Q * s, Rq * s[:, None]
    T = gram_cholesky_upper(A.shape[1], alpha)
    return Q @ T, np.linalg.solve(T, Rq)


def check_sr(A, alpha, S, R, tol=1e-9) -> None:
    check_sr_against(*sr_reference(A, alpha), S, R, tol)


def check_sr_against(S_ref, R_ref, S, R, tol=1e-9) -> None:
    _require(S.shape == S_ref.shape and R.shape == R_ref.shape, "SR factor shapes")
    err_s = _maxabs(S - S_ref)
    _require(err_s <= tol, f"S differs from Q T_alpha by {err_s:.3g}")
    err_r = _maxabs(R - R_ref) / _maxabs(R_ref)
    _require(err_r <= tol, f"R differs from T_alpha^-1 R_qr by {err_r:.3g} relative")


def check_inverse(S, X, tol=1e-9) -> None:
    n = S.shape[0]
    _require(X.shape == (n, n), "inverse shape")
    XS = X @ S
    XS[np.diag_indices(n)] -= 1.0
    err = _maxabs(XS)
    _require(err <= tol, f"|XS - I| = {err:.3g}")


def _off(G, off, diag) -> float:
    """max |G - T| for T with ``off`` off the diagonal and ``diag`` on it.

    G is overwritten: the checks make one n x n product at a time, so that
    at n = 1024 they stay below the memory of the eqkit calls they check.
    """
    G -= off
    G[np.diag_indices(G.shape[0])] -= diag - off
    return _maxabs(G)


def check_doubly(S, alpha, tol=1e-9) -> None:
    """Row and column Grams at alpha; row and column sums sqrt(1 + (n-1) alpha)."""
    c = math.sqrt(1.0 + (S.shape[0] - 1) * alpha)
    for what, val in (
        ("column Gram", _off(S.T @ S, alpha, 1.0)),
        ("row Gram", _off(S @ S.T, alpha, 1.0)),
        ("row sums", _maxabs(S.sum(axis=1) - c)),
        ("column sums", _maxabs(S.sum(axis=0) - c)),
    ):
        _require(val <= tol, f"dea {what} off by {val:.3g}")


def check_frame(S, n, tol=1e-9) -> None:
    """Gram -1/n off the diagonal and 1 on it, S S^T = (n+1)/n I, zero row sums."""
    _require(S.shape == (n, n + 1), f"frame shape {S.shape}")
    for what, val in (
        ("Gram", _off(S.T @ S, -1.0 / n, 1.0)),
        ("frame operator", _off(S @ S.T, 0.0, (n + 1.0) / n)),
        ("row sums", _maxabs(S.sum(axis=1))),
    ):
        _require(val <= tol, f"frame {what} off by {val:.3g}")


def check_certificate(eq_alpha, dbl_alpha, etf_ok, etf_failed, alpha, square, tol=1e-9) -> None:
    """``check`` on a generated input reports the alpha it was generated at.

    Square inputs are doubly equiangular, so they certify twice and fail only
    the tightness test of an ETF; simplex frames are ETFs and not square.
    """
    _require(eq_alpha is not None and abs(eq_alpha - alpha) <= tol,
             f"equiangular alpha {eq_alpha!r} != {alpha!r}")
    if square:
        _require(dbl_alpha is not None and abs(dbl_alpha - alpha) <= tol,
                 f"doubly equiangular alpha {dbl_alpha!r} != {alpha!r}")
        _require(not etf_ok and list(etf_failed) == ["tight"], f"etf failed {etf_failed!r}")
    else:
        _require(dbl_alpha is None, f"doubly equiangular alpha {dbl_alpha!r} on a frame")
        _require(etf_ok and not etf_failed, f"etf failed {etf_failed!r}")


def check_alpha_bound(bound, factors_at) -> None:
    """The all-real bound lies in (0, 1) and above a cosine known to factor."""
    _require(isinstance(bound, float) and factors_at < bound < 1.0,
             f"alpha bound {bound!r} outside ({factors_at!r}, 1)")


def check_sdst(A, alpha, S, d, tol=1e-7) -> None:
    """S diag(d) S^T = A to tol |A|, and S equiangular at alpha."""
    n = A.shape[0]
    scale = max(1.0, _maxabs(A))
    err = _maxabs((S * d) @ S.T - A)
    _require(err <= tol * scale, f"|S diag(d) S^T - A| = {err:.3g}")
    err = _maxabs(S.T @ S - gram(n, alpha))
    _require(err <= tol, f"sdst basis Gram off by {err:.3g}")
