"""The workloads: which ops run, on which inputs, and how each is checked.

A workload is a list of cases that one round runs in order; a run repeats
rounds until its time is up, so every op kind meets the same phases of the
machine and every run holds whole rounds.  A CLI case is the argument list
of one ``python -m eqkit`` call plus a check of its report and files; a
library case is a call into the public ``eqkit`` namespace plus a check of
what it returned.  Op times are closed-loop: one op in flight, the next
starts when the previous one has ended.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import checks
import gen

WORKLOADS = ("cli_small", "cli_large", "lib_compute")
# What a user's process imports before any work; setup_s times it.
ENTRY_MODULE = {"cli_small": "eqkit.cli", "cli_large": "eqkit.cli", "lib_compute": "eqkit"}
KINDS = ("sr", "inverse", "dea", "frame", "check", "sdst")

SMALL_N = (16, 64)     # random inputs of cli_small, inclusive
LARGE_N = 384          # file ops of cli_large
LIB_N = 1024           # library ops of lib_compute
ALPHA_RANGE = (0.05, 0.6)
# Fixed cosines below the real-root bound of every spectrum sdst_spectrum
# can draw at these sizes: the CLI sdst ops factor at them, and every
# all-real bound eqkit reports must lie above them.
SDST_ALPHA = {8: 0.01, 12: 0.005}
LIB_SHORT_CASES = 8    # inverse and sdst cases per round of lib_compute
LIB_SDST_BATCH = 8     # spectra per sdst case: one takes a few milliseconds
LIB_ARRAYS = ("A_sr", "A_dea", "S", "D", "S_ref", "R_ref")  # saved by write_lib_inputs
# The known fault: float64 coefficients lose the roots of lambda = 1..16 at
# alpha = 0.0095 and sdst_factor raises NonRealRoots although all are real.
FAILING_SDST = (np.arange(1.0, 17.0), 0.0095)


@dataclass
class Case:
    kind: str
    label: str
    check: Callable[[Any], None]
    argv: list[str] | None = None          # CLI: arguments after ``python -m eqkit``
    outputs: tuple[str, ...] = ()           # CLI: files the op writes, removed before it runs
    call: Callable[[Any], Any] | None = None  # library: call(eqkit) -> result
    batch: int = 1                          # ops this case counts for
    expect_fail: str | None = None          # the exception it is known to raise, by name


@dataclass
class Tally:
    """What a run measured: per-kind op times, counts and failures."""

    times: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in KINDS})
    attempted: int = 0
    failed: int = 0
    completed: int = 0
    busy: float = 0.0        # CPU seconds of the completed ops
    busy_wall: float = 0.0   # their wall seconds, for reference
    rounds: int = 0
    correct: bool = True
    errors: list[str] = field(default_factory=list)

    def record(self, case: Case, cpu: float, wall: float, error: str | None, bad_output: str | None) -> None:
        """``error`` is ``"<exception name>: <message>"`` or the CLI's exit code."""
        self.attempted += case.batch
        if error is not None:
            self.failed += case.batch
            if case.expect_fail is None or error.partition(":")[0] != case.expect_fail:
                self.correct = False
                self.errors.append(f"{case.label}: failed: {error}")
            return
        if bad_output is not None:
            self.correct = False
            self.errors.append(f"{case.label}: wrong output: {bad_output}")
        self.completed += case.batch
        self.busy += cpu
        self.busy_wall += wall
        self.times[case.kind].append(cpu / case.batch)


def run_rounds(cases: list[Case], seconds: float, execute: Callable[[Case, Tally], None]) -> Tally:
    """Run whole rounds while the next one is expected to end within ``seconds``."""
    tally = Tally()
    start = time.perf_counter()
    last = 0.0
    while tally.rounds == 0 or time.perf_counter() - start + last <= seconds:
        r0 = time.perf_counter()
        for case in cases:
            execute(case, tally)
        last = time.perf_counter() - r0
        tally.rounds += 1
    return tally


def failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def verify(case: Case, result) -> str | None:
    """The reason ``result`` is wrong, or None."""
    try:
        case.check(result)
    except checks.CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # a missing file or a malformed report is a wrong output too
        return failure(exc)
    return None


def end_to_end(tally: Tally) -> dict[str, float]:
    out = {f"{k}_s": statistics.median(v) for k, v in tally.times.items() if v}
    if tally.busy > 0:
        out["ops_per_s"] = tally.completed / tally.busy
    return out


# ---------------------------------------------------------------- CLI cases


def _cli(kind, label, workdir, argv, outputs, check_outputs) -> Case:
    prefix = os.path.join(workdir, f"{label}_")
    outs = tuple(prefix + o for o in outputs)

    def check(stdout: str) -> None:
        check_outputs(checks.strict_report(stdout, kind), *(checks.read_matrix(p) for p in outs))

    return Case(kind, label, check, argv=[kind, *argv, "--out", prefix], outputs=outs)


def _input(workdir, name, M, write) -> str:
    path = os.path.join(workdir, name)
    if write:
        gen.write_matrix(path, M)
    return path


def _sr(label, workdir, A, alpha, fmt, write, theta=None):
    path = _input(workdir, f"{label}_A.{fmt}", A, write)
    angle = ["--theta", repr(theta)] if theta is not None else ["--alpha", repr(alpha)]
    return _cli("sr", label, workdir, [path, *angle, "--format", fmt], (f"S.{fmt}", f"R.{fmt}"),
                lambda rep, S, R: checks.check_sr(A, alpha, S, R))


def _dea(label, workdir, A, alpha, fmt, write):
    path = _input(workdir, f"{label}_A.{fmt}", A, write)
    return _cli("dea", label, workdir, [path, "--alpha", repr(alpha), "--format", fmt], (f"S.{fmt}",),
                lambda rep, S: checks.check_doubly(S, alpha))


def _inverse(label, workdir, S, fmt, write):
    path = _input(workdir, f"{label}_S.{fmt}", S, write)
    return _cli("inverse", label, workdir, [path, "--format", fmt], (f"inv.{fmt}",),
                lambda rep, X: checks.check_inverse(S, X))


def _frame(label, workdir, n, fmt):
    return _cli("frame", label, workdir, ["--n", str(n), "--format", fmt], (f"S.{fmt}",),
                lambda rep, S: checks.check_frame(S, n))


def _check(label, workdir, M, alpha, fmt, write):
    path = _input(workdir, f"{label}_M.{fmt}", M, write)
    square = M.shape[0] == M.shape[1]

    def verify(rep):
        etf = rep["etf"]
        checks.check_certificate(rep["equiangular_alpha"], rep["doubly_equiangular_alpha"],
                                 etf["ok"], etf["failed"], alpha, square)

    return _cli("check", label, workdir, [path], (), verify)


def _sdst(label, workdir, A, alpha, fmt, write):
    path = _input(workdir, f"{label}_A.{fmt}", A, write)
    return _cli("sdst", label, workdir, [path, "--alpha", repr(alpha), "--format", fmt],
                (f"S.{fmt}", f"D.{fmt}"),
                lambda rep, S, D: checks.check_sdst(A, alpha, S, D.ravel()))


def _sdst_bound(label, workdir, A, alpha, fmt, write):
    """``sdst --find-alpha-bound`` on a matrix that factors at ``alpha``."""
    path = _input(workdir, f"{label}_A.{fmt}", A, write)
    return _cli("sdst", label, workdir, [path, "--find-alpha-bound"], (),
                lambda rep: checks.check_alpha_bound(rep["alpha_real_root_bound"], alpha))


def _alphas(rng, k):
    return [float(a) for a in rng.uniform(*ALPHA_RANGE, size=k)]


def cli_small(seed: int, workdir: str, write: bool = True) -> list[Case]:
    """Import-bound CLI ops: the paper's 4x4 Hilbert example and n <= 64.

    Two ops of each kind per round, one on CSV and one on Matrix Market, so
    every kind gets the same number of samples in a run.
    """
    rng = np.random.default_rng(seed)
    n = [int(x) for x in rng.integers(SMALL_N[0], SMALL_N[1] + 1, size=9)]
    a = _alphas(rng, 6)
    return [
        _sr("sr_hilbert", workdir, gen.hilbert(4), math.cos(math.radians(60.0)), "csv", write, theta=60.0),
        _sr("sr_rand", workdir, rng.standard_normal((n[0], n[0])), a[0], "mtx", write),
        _inverse("inverse_csv", workdir, gen.equiangular(rng, n[1], a[1]), "csv", write),
        _inverse("inverse_mtx", workdir, gen.equiangular(rng, n[2], a[2]), "mtx", write),
        _dea("dea_csv", workdir, rng.standard_normal((n[3], n[3])), a[3], "csv", write),
        _dea("dea_mtx", workdir, rng.standard_normal((n[4], n[4])), a[4], "mtx", write),
        _frame("frame_csv", workdir, n[5], "csv"),
        _frame("frame_mtx", workdir, n[6], "mtx"),
        _check("check_doubly", workdir, gen.doubly_equiangular(rng, n[7], a[5]), a[5], "csv", write),
        _check("check_simplex", workdir, gen.simplex(n[8]), -1.0 / n[8], "mtx", write),
        _sdst("sdst8", workdir, gen.symmetric(rng, gen.sdst_spectrum(rng, 8)), SDST_ALPHA[8], "csv", write),
        _sdst_bound("sdst12_bound", workdir, gen.symmetric(rng, gen.sdst_spectrum(rng, 12)),
                    SDST_ALPHA[12], "mtx", write),
    ]


def cli_large(seed: int, workdir: str, write: bool = True) -> list[Case]:
    """File-bound CLI ops at n = LARGE_N: CSV for sr and inverse, Matrix Market
    for dea, frame and check; frame writes then re-reads, check only reads."""
    rng = np.random.default_rng(seed)
    a = _alphas(rng, 4)
    n = LARGE_N
    return [
        _sr("sr", workdir, rng.standard_normal((n, n)), a[0], "csv", write),
        _dea("dea", workdir, rng.standard_normal((n, n)), a[1], "mtx", write),
        _inverse("inverse", workdir, gen.equiangular(rng, n, a[2]), "csv", write),
        _frame("frame", workdir, n, "mtx"),
        _check("check", workdir, gen.doubly_equiangular(rng, n, a[3]), a[3], "mtx", write),
        _sdst("sdst", workdir, gen.symmetric(rng, gen.sdst_spectrum(rng, 12)), SDST_ALPHA[12], "csv", write),
    ]


# ------------------------------------------------------------ library cases


def _lib_paths(workdir: str) -> dict[str, str]:
    return {k: os.path.join(workdir, f"lib_{k}.npy") for k in LIB_ARRAYS}


def write_lib_inputs(seed: int, workdir: str) -> None:
    """Make the n x n inputs of lib_compute and the SR reference, and save them.

    This runs in the benchmark's own process, so neither making the inputs
    nor the reference QR raises the peak RSS of the worker that runs eqkit.
    """
    rng = np.random.default_rng(seed)
    a = _alphas(rng, 4)
    n = LIB_N
    arrays = {"A_sr": rng.standard_normal((n, n)), "A_dea": rng.standard_normal((n, n)),
              "S": gen.equiangular(rng, n, a[2]), "D": gen.doubly_equiangular(rng, n, a[3])}
    arrays["S_ref"], arrays["R_ref"] = checks.sr_reference(arrays["A_sr"], a[0])
    for k, path in _lib_paths(workdir).items():
        np.save(path, arrays[k])


def lib_compute(seed: int, workdir: str) -> list[Case]:
    """The same six op kinds as in-process library calls at n = LIB_N, no file I/O.

    The n x n inputs are loaded from what ``write_lib_inputs`` saved for the
    same seed.  The short ops (inverse, sdst) run as several cases spread
    through the round, so a run holds many samples of them and a short stall
    of the machine spoils few.
    """
    rng = np.random.default_rng(seed)
    a = _alphas(rng, 4)
    n = LIB_N
    M = {k: np.load(path) for k, path in _lib_paths(workdir).items()}
    A_sr, A_dea, S, D = M["A_sr"], M["A_dea"], M["S"], M["D"]

    def inverse(ek):
        return ek.fast_inverse(ek.EquiangularMatrix(S, ek.certify_equiangular(S, 1e-10)))

    def check_op(ek):
        return (ek.certify_equiangular(D, 1e-10), ek.certify_doubly(D, 1e-10),
                ek.is_etf(ek.FrameSet(D), 1e-10))

    def check_check(res):
        eq, dbl, etf = res
        checks.check_certificate(eq, dbl, etf.ok, etf.failed, a[3], True)

    def sdst_case(i):
        spectra = [gen.sdst_spectrum(rng, 8 if k % 2 else 12) for k in range(LIB_SDST_BATCH)]
        sym = [gen.symmetric(rng, lam) for lam in spectra]

        def call(ek):
            out = []
            for lam, A in zip(spectra, sym):
                bound = ek.alpha_real_root_bound(lam)
                out.append((bound, ek.sdst_factor(A, 0.5 * bound)))
            return out

        def check(results):
            for A, (bound, f) in zip(sym, results):
                checks.check_alpha_bound(bound, SDST_ALPHA[A.shape[0]])
                checks.check_sdst(A, 0.5 * bound, f.S.mat, f.D)

        return Case("sdst", f"sdst{i}", check, call=call, batch=LIB_SDST_BATCH)

    def inverse_case(i):
        return Case("inverse", f"inverse{i}", lambda X: checks.check_inverse(S, X), call=inverse)

    long_ops = [
        Case("sr", "sr", lambda d: checks.check_sr_against(M["S_ref"], M["R_ref"], d.S.mat, d.R),
             call=lambda ek: ek.sr_decompose(A_sr, math.acos(a[0]))),
        Case("dea", "dea", lambda d: checks.check_doubly(d.mat, a[1]),
             call=lambda ek: ek.dea(A_dea, a[1])),
        Case("frame", "frame", lambda f: checks.check_frame(f.mat, n),
             call=lambda ek: ek.simplex_frame(n)),
        Case("check", "check", check_check, call=check_op),
    ]
    per_long = LIB_SHORT_CASES // len(long_ops)
    out = []
    for j, case in enumerate(long_ops):
        out.append(case)
        for i in range(j * per_long, (j + 1) * per_long):
            out += [inverse_case(i), sdst_case(i)]
    lam_bad, alpha_bad = FAILING_SDST
    A_bad = np.diag(lam_bad)
    out.append(Case("sdst", "sdst_lambda_1_16", lambda f: checks.check_sdst(A_bad, alpha_bad, f.S.mat, f.D),
                    call=lambda ek: ek.sdst_factor(A_bad, alpha_bad), expect_fail="NonRealRoots"))
    return out


def build(workload: str, seed: int, workdir: str, write: bool = True) -> list[Case]:
    """The workload's cases; ``write`` makes their input files first."""
    if workload == "lib_compute":
        if write:
            write_lib_inputs(seed, workdir)
        return lib_compute(seed, workdir)
    return {"cli_small": cli_small, "cli_large": cli_large}[workload](seed, workdir, write)
