"""Command-line front end.

One subcommand per factorization; matrices travel through files (CSV or
Matrix Market), every run prints a single JSON report on stdout, and all
residuals in the report are recomputed from the files actually written.
Errors exit with a code specific to the error class (see errors.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .doubly import certify_doubly, dea, row_sum_params
from .ea import EquiangularMatrix, _off_diagonal, certify_equiangular, sr_decompose
from .errors import (
    EqkitError,
    InvalidAlpha,
    InvalidAngle,
    InvalidShape,
    InvalidTolerance,
    IoError,
    NotEquiangular,
)
from .factor import _require_basis, alpha_real_root_bound, sdst_factor
from .frames import is_etf, simplex_frame, welch_alpha
from .gram import GramParams
from .io import read_matrix, write_matrix
from .kernel import _refuse_overflow, generic_inverse, spectral_norm, sym_eig
from .spectral import benchmark_inverse, fast_inverse, fit_exponent

BENCH_SIZES = (64, 128, 256, 512)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _finite(value: float) -> float | None:
    """``value`` as a float, or None (JSON null) when it is not finite."""
    value = float(value)
    return value if math.isfinite(value) else None


def _check(value: float, threshold: float) -> dict:
    """One check entry; a non-finite value is reported as null and fails, and an
    overflowed threshold is reported as null."""
    value = _finite(value)
    return {"value": value, "threshold": _finite(threshold), "pass": value is not None and value <= threshold}


def _report(command: str, args, checks: dict, outputs: dict, extra: dict | None = None) -> dict:
    rep = {
        "command": command,
        "version": __version__,
        "input": None,
        "outputs": outputs,
        "checks": checks,
        "passed": all(c["pass"] for c in checks.values()),
    }
    if getattr(args, "input", None):
        rep["input"] = {"path": args.input, "sha256": _digest(args.input)}
    if extra:
        rep.update(extra)
    return rep


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take only non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _emit(report: dict) -> int:
    json.dump(report, sys.stdout, indent=2, allow_nan=False)
    sys.stdout.write("\n")
    return 0 if report["passed"] else 1


def _resolve_alpha(args) -> float:
    if args.alpha is not None:
        if not -1.0 < args.alpha < 1.0:  # NaN fails too
            raise InvalidAlpha(f"--alpha must be a finite cosine in (-1, 1), got {args.alpha!r}")
        return float(args.alpha)
    if args.theta is None:
        raise InvalidAngle("one of --theta/--alpha is required")
    if not 0.0 < args.theta < 180.0:  # NaN fails too
        raise InvalidAngle(f"--theta must lie in (0, 180) degrees, got {args.theta!r}")
    return math.cos(math.radians(args.theta))


def _read_input(args) -> np.ndarray:
    """The input matrix; InvalidShape, before any output is written, when it has no rows or no columns."""
    A = read_matrix(args.input)
    if 0 in A.shape:
        r, c = A.shape
        raise InvalidShape(f"{args.input} is a {r} x {c} matrix; it needs at least one row and one column")
    return A


def _write_back(args, **outputs: np.ndarray) -> tuple[dict, list]:
    """Write each output to ``--out`` + its name + ``.`` + ``--format``; return the paths by name
    and the matrices read back, from which every check is computed, so a report certifies the files on disk."""
    paths = {name: f"{args.out}{name}.{args.format}" for name in outputs}
    for name, M in outputs.items():
        write_matrix(paths[name], M)
    return paths, [read_matrix(path) for path in paths.values()]


def cmd_sr(args) -> int:
    A = _read_input(args)
    alpha = _resolve_alpha(args)
    if A.shape[1] >= 2:
        GramParams(A.shape[1], alpha)  # InvalidAlpha, as dea raises, for a cosine the columns cannot share
    dec = sr_decompose(A, math.acos(alpha))
    paths, (S, R) = _write_back(args, S=dec.S.mat, R=dec.R)
    scale = max(1.0, spectral_norm(A))
    cert = certify_equiangular(S, args.tol)
    if cert is not None and S.shape[1] == 1:
        cert = alpha  # one unit vector is equiangular at every cosine
    checks = {
        "sr_residual": _check(spectral_norm(A - S @ R), args.tol * scale),
        "alpha_certified": _check(abs((cert if cert is not None else np.inf) - alpha), args.tol),
        "r_diag_positive": _check(-float(np.min(np.diag(R))), 0.0),
    }
    return _emit(_report("sr", args, checks, paths, {"parameters": {"alpha": alpha}}))


def cmd_inverse(args) -> int:
    if args.bench:
        return _bench_inverse(args)
    if not args.input:
        raise IoError("inverse needs an input file (or --bench)")
    M = _read_input(args)
    alpha = certify_equiangular(M, args.tol)
    if alpha is None:
        raise NotEquiangular(f"{args.input} does not certify as equiangular at tol {args.tol}")
    t0 = time.perf_counter()
    if args.method == "fast":
        inv = fast_inverse(EquiangularMatrix(M, alpha))
    else:
        inv = generic_inverse(M)
    wall = time.perf_counter() - t0
    paths, (inv_r,) = _write_back(args, inv=inv)
    n = M.shape[0]
    checks = {
        "inverse_residual": _check(spectral_norm(inv_r @ M - np.eye(n)), args.tol * n)
    }
    extra = {"parameters": {"alpha": alpha, "method": args.method}, "wall_times": {"invert": wall}}
    return _emit(_report("inverse", args, checks, {"inverse": paths["inv"]}, extra))


def _bench_inverse(args) -> int:
    records = benchmark_inverse(BENCH_SIZES, repeats=5, seed=args.seed)
    path = f"{args.out}bench.csv"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("n,t_fast,t_generic\n")
            for r in records:
                fh.write(f"{r['n']},{r['t_fast']:.9f},{r['t_generic']:.9f}\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc
    ns = [r["n"] for r in records]
    exp = {
        "fast_ops": fit_exponent(ns, [r["ops_fast"] for r in records]),
        "generic_ops": fit_exponent(ns, [r["ops_generic"] for r in records]),
        "fast_time": fit_exponent(ns, [r["t_fast"] for r in records]),
        "generic_time": fit_exponent(ns, [r["t_generic"] for r in records]),
    }
    checks = {
        "fast_exponent": _check(exp["fast_ops"], 2.2),
        "generic_exponent_floor": _check(2.7, exp["generic_ops"]),  # pass when >= 2.7
    }
    extra = {"bench": records, "exponents": exp, "parameters": {"seed": args.seed}}
    return _emit(_report("inverse", args, checks, {"bench": path}, extra))


def cmd_sdst(args) -> int:
    A = _read_input(args)
    if args.find_alpha_bound:
        _, w = sym_eig(A)
        _require_basis(w.size)  # as sdst --alpha does: one column has no cosine to bound
        bound = alpha_real_root_bound(w)
        return _emit(_report("sdst", args, {}, {}, {"alpha_real_root_bound": bound}))
    if args.alpha is None:
        raise InvalidAngle("sdst needs --alpha (or --find-alpha-bound)")
    fac = sdst_factor(A, args.alpha)
    paths, (S, D) = _write_back(args, S=fac.S.mat, D=fac.D.reshape(1, -1))
    d = D.ravel()
    scale = max(1.0, spectral_norm(A))
    e = math.frexp(scale)[1]  # sum(d) and trace(A) in units of 2^e >= scale: exact, and finite near DBL_MAX
    trace_gap = math.ldexp(abs(np.ldexp(d, -e).sum() - np.trace(np.ldexp(A, -e))), e)
    with _refuse_overflow("S diag(d) S^T"):
        E = (S * d) @ S.T - A
    checks = {
        "sdst_residual": _check(spectral_norm(E), max(args.tol, 1e-7) * scale),
        "trace_match": _check(trace_gap, 1e-8 * scale),
    }
    extra = {"parameters": {"alpha": args.alpha}, "d": [float(x) for x in fac.D]}
    return _emit(_report("sdst", args, checks, paths, extra))


def cmd_dea(args) -> int:
    A = _read_input(args)
    alpha = _resolve_alpha(args)
    paths, (S,) = _write_back(args, S=dea(A, alpha).mat)
    n = S.shape[0]
    p, c = row_sum_params(n, alpha)
    G = p.operator  # p.n is 2 when S is 1 x 1: subtract_from takes G's leading block
    checks = {
        "columns_gram": _check(spectral_norm(G.subtract_from(S.T @ S)), args.tol * n),
        "rows_gram": _check(spectral_norm(G.subtract_from(S @ S.T)), args.tol * n),
        "row_sums": _check(np.max(np.abs(S.sum(axis=1) - c)), args.tol * n),
        "col_sums": _check(np.max(np.abs(S.sum(axis=0) - c)), args.tol * n),
    }
    cert = certify_doubly(S, max(args.tol, 1e-10))
    extra = {"parameters": {"alpha": alpha}, "certified_alpha": cert}
    return _emit(_report("dea", args, checks, paths, extra))


def cmd_frame(args) -> int:
    paths, (S,) = _write_back(args, S=simplex_frame(args.n).mat)
    n = args.n
    G = S.T @ S
    ff = S @ S.T
    checks = {
        "gram_offdiag": _check(np.max(np.abs(_off_diagonal(G) + 1.0 / n)), args.tol),
        "unit_columns": _check(np.max(np.abs(np.diag(G) - 1.0)), args.tol),
        "row_sums": _check(np.max(np.abs(S.sum(axis=1))), args.tol),
        "tight": _check(spectral_norm(ff - (n + 1.0) / n * np.eye(n)), args.tol),
        "welch": _check(abs(welch_alpha(n, n + 1) - 1.0 / n), args.tol),
    }
    return _emit(_report("frame", args, checks, paths, {"parameters": {"n": n}}))


def cmd_check(args) -> int:
    M = _read_input(args)
    cert_cols = certify_equiangular(M, args.tol)
    cert_dbl = certify_doubly(M, args.tol) if M.shape[0] == M.shape[1] else None
    etf = is_etf(M, args.tol)
    return _emit(_report("check", args, {}, {}, {
        "equiangular_alpha": cert_cols,
        "doubly_equiangular_alpha": cert_dbl,
        "etf": {"ok": etf.ok, "failed": etf.failed, "coherence": _finite(etf.coherence),
                "frame_constant": _finite(etf.frame_constant)},
    }))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="eqkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("input", help="matrix file (.csv or .mtx)")
        sp.add_argument("--tol", type=float, default=1e-10, help="residual tolerance")
        sp.add_argument("--out", default="eqkit_", help="output file prefix")
        sp.add_argument("--format", choices=("csv", "mtx"), default="csv", help="output format")

    def angle(sp):
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--theta", type=float, help="common angle in degrees")
        g.add_argument("--alpha", type=float, help="common cosine")

    sp = sub.add_parser("sr", help="equiangular-triangular factorization A = S R")
    common(sp)
    angle(sp)
    sp.set_defaults(func=cmd_sr)

    sp = sub.add_parser("inverse", help="invert an equiangular matrix")
    common(sp, needs_input=False)
    g = sp.add_mutually_exclusive_group()
    g.add_argument("input", nargs="?", help="matrix file (.csv or .mtx)")
    g.add_argument("--bench", action="store_true", help="size sweep benchmark instead of a file")
    sp.add_argument("--method", choices=("fast", "generic"), default="fast")
    sp.add_argument("--seed", type=_seed, default=0, help="seed of the --bench matrices")
    sp.set_defaults(func=cmd_inverse)

    sp = sub.add_parser("sdst", help="factor symmetric A = S diag(d) S^T")
    common(sp)
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--alpha", type=float, help="basis cosine in (0, 1)")
    g.add_argument("--find-alpha-bound", action="store_true",
                   help="bisect (1e-6, 1 - 1e-6) for the cosine where the float64 polynomial "
                        "roots stop being all real (0.0 if they are not at 1e-6)")
    sp.set_defaults(func=cmd_sdst)

    sp = sub.add_parser("dea", help="build a doubly equiangular matrix")
    common(sp)
    angle(sp)
    sp.set_defaults(func=cmd_dea)

    sp = sub.add_parser("frame", help="emit the n-dimensional simplex frame")
    common(sp, needs_input=False)
    sp.add_argument("--n", type=int, required=True, help="ambient dimension")
    sp.set_defaults(func=cmd_frame)

    sp = sub.add_parser("check", help="certify a matrix file")
    common(sp)
    sp.set_defaults(func=cmd_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not 0.0 < args.tol < math.inf:  # NaN fails too
            raise InvalidTolerance(f"--tol must be a finite number > 0, got {args.tol!r}")
        return args.func(args)
    except EqkitError as exc:
        print(f"eqkit {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
