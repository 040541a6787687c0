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
from .ea import EquiangularMatrix, _sr_factors, certify_equiangular
from .ea import sr_decompose  # noqa: F401  perfbench/spans.py traces eqkit.cli.sr_decompose
from .errors import EqkitError, InvalidAlpha, InvalidAngle, InvalidTolerance, IoError, NotEquiangular
from .factor import alpha_real_root_bound, sdst_factor
from .frames import FrameSet, is_etf, simplex_frame, welch_alpha
from .gram import GramParams, gram_matrix
from .io import read_matrix, write_matrix
from .kernel import generic_inverse, spectral_norm, sym_eig
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


def _out_path(args, name: str) -> str:
    return f"{args.out}{name}.{args.format}"


def cmd_sr(args) -> int:
    A = read_matrix(args.input)
    alpha = _resolve_alpha(args)
    if A.shape[1] >= 2:
        GramParams(A.shape[1], alpha)  # InvalidAlpha, as dea raises, for a cosine the columns cannot share
    S, R = _sr_factors(A, math.acos(alpha))
    paths = {"S": _out_path(args, "S"), "R": _out_path(args, "R")}
    write_matrix(paths["S"], S.mat)
    write_matrix(paths["R"], R)
    S, R = read_matrix(paths["S"]), read_matrix(paths["R"])
    scale = max(1.0, spectral_norm(A))
    cert = certify_equiangular(S, args.tol)
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
        raise InvalidAngle("inverse needs an input file (or --bench)")
    M = read_matrix(args.input)
    alpha = certify_equiangular(M, args.tol)
    if alpha is None:
        raise NotEquiangular(f"{args.input} does not certify as equiangular at tol {args.tol}")
    t0 = time.perf_counter()
    if args.method == "fast":
        inv = fast_inverse(EquiangularMatrix(M, alpha))
    else:
        inv = generic_inverse(M)
    wall = time.perf_counter() - t0
    paths = {"inverse": _out_path(args, "inv")}
    write_matrix(paths["inverse"], inv)
    inv_r = read_matrix(paths["inverse"])
    n = M.shape[0]
    checks = {
        "inverse_residual": _check(spectral_norm(inv_r @ M - np.eye(n)), args.tol * n)
    }
    extra = {"parameters": {"alpha": alpha, "method": args.method}, "wall_times": {"invert": wall}}
    return _emit(_report("inverse", args, checks, paths, extra))


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
    A = read_matrix(args.input)
    if args.find_alpha_bound:
        _, w = sym_eig(A)
        bound = alpha_real_root_bound(w)
        return _emit(_report("sdst", args, {}, {}, {"alpha_real_root_bound": bound}))
    if args.alpha is None:
        raise InvalidAngle("sdst needs --alpha (or --find-alpha-bound)")
    fac = sdst_factor(A, args.alpha)
    paths = {"S": _out_path(args, "S"), "D": _out_path(args, "D")}
    write_matrix(paths["S"], fac.S.mat)
    write_matrix(paths["D"], fac.D.reshape(1, -1))
    S = read_matrix(paths["S"])
    d = read_matrix(paths["D"]).ravel()
    scale = max(1.0, spectral_norm(A))
    checks = {
        "sdst_residual": _check(spectral_norm(S @ np.diag(d) @ S.T - A), max(args.tol, 1e-7) * scale),
        "trace_match": _check(abs(d.sum() - np.trace(A)), 1e-8 * scale),
    }
    extra = {"parameters": {"alpha": args.alpha}, "d": [float(x) for x in fac.D]}
    return _emit(_report("sdst", args, checks, paths, extra))


def cmd_dea(args) -> int:
    A = read_matrix(args.input)
    alpha = _resolve_alpha(args)
    out = dea(A, alpha)
    paths = {"S": _out_path(args, "S")}
    write_matrix(paths["S"], out.mat)
    S = read_matrix(paths["S"])
    n = S.shape[0]
    p, c = row_sum_params(n, alpha)
    G = gram_matrix(p)[:n, :n]  # p.n is 2 when S is 1 x 1
    checks = {
        "columns_gram": _check(spectral_norm(S.T @ S - G), args.tol * n),
        "rows_gram": _check(spectral_norm(S @ S.T - G), args.tol * n),
        "row_sums": _check(np.max(np.abs(S.sum(axis=1) - c)), args.tol * n),
        "col_sums": _check(np.max(np.abs(S.sum(axis=0) - c)), args.tol * n),
    }
    cert = certify_doubly(S, max(args.tol, 1e-10))
    extra = {"parameters": {"alpha": alpha}, "certified_alpha": cert}
    return _emit(_report("dea", args, checks, paths, extra))


def cmd_frame(args) -> int:
    sf = simplex_frame(args.n)
    paths = {"S": _out_path(args, "S")}
    write_matrix(paths["S"], sf.mat)
    S = read_matrix(paths["S"])
    n = args.n
    G = S.T @ S
    off = G[~np.eye(n + 1, dtype=bool)]
    ff = S @ S.T
    checks = {
        "gram_offdiag": _check(np.max(np.abs(off + 1.0 / n)), args.tol),
        "unit_columns": _check(np.max(np.abs(np.diag(G) - 1.0)), args.tol),
        "row_sums": _check(np.max(np.abs(S.sum(axis=1))), args.tol),
        "tight": _check(spectral_norm(ff - (n + 1.0) / n * np.eye(n)), args.tol),
        "welch": _check(abs(welch_alpha(n, n + 1) - 1.0 / n), args.tol),
    }
    return _emit(_report("frame", args, checks, paths, {"parameters": {"n": n}}))


def cmd_check(args) -> int:
    M = read_matrix(args.input)
    cert_cols = certify_equiangular(M, args.tol)
    cert_dbl = certify_doubly(M, args.tol) if M.shape[0] == M.shape[1] else None
    etf = is_etf(FrameSet(M), args.tol)
    return _emit(_report("check", args, {}, {}, {
        "equiangular_alpha": cert_cols,
        "doubly_equiangular_alpha": cert_dbl,
        "etf": {"ok": etf.ok, "failed": etf.failed, "coherence": _finite(etf.coherence),
                "frame_constant": _finite(etf.frame_constant)},
    }))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="eqkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True, optional_input=False):
        if needs_input:
            if optional_input:
                sp.add_argument("input", nargs="?", help="matrix file (.csv or .mtx)")
            else:
                sp.add_argument("input", help="matrix file (.csv or .mtx)")
        sp.add_argument("--tol", type=float, default=1e-10, help="residual tolerance")
        sp.add_argument("--seed", type=int, default=0, help="seed for synthetic inputs")
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
    common(sp, optional_input=True)
    sp.add_argument("--method", choices=("fast", "generic"), default="fast")
    sp.add_argument("--bench", action="store_true", help="size sweep benchmark instead of a file")
    sp.set_defaults(func=cmd_inverse)

    sp = sub.add_parser("sdst", help="factor symmetric A = S diag(d) S^T")
    common(sp)
    sp.add_argument("--alpha", type=float, help="basis cosine in (0, 1)")
    sp.add_argument("--find-alpha-bound", action="store_true",
                    help="report the largest cosine keeping the polynomial all-real")
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
