"""In-process half of the benchmark: library ops, and every op when traced.

Run by ``run.py`` in a fresh interpreter with the program on PYTHONPATH and
one BLAS thread.  Prints one JSON object: the run's tally and, when traced,
the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import sys
import time

import eqkit
import eqkit.cli

import cases
from spans import Tracer


def _run(case, tracer: Tracer | None):
    """One op: a library call, or ``eqkit.cli.main(argv)`` with stdout captured."""
    if case.argv is None:
        return case.call(eqkit)
    for path in case.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            rc = eqkit.cli.main(case.argv)
        else:
            with tracer.span("cli.main"):
                rc = eqkit.cli.main(case.argv)
    if rc != 0:
        raise RuntimeError(f"eqkit {case.argv[0]} exited {rc}")
    return buf.getvalue()


def _peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_plain(workload_cases, seconds):
    """The run's tally, and by how many kB the output checks raised the peak RSS.

    The worker's peak RSS is reported as eqkit's; it is, while that is 0.
    """
    raised = 0

    def execute(case, tally):
        nonlocal raised
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            result = _run(case, None)
        except Exception as exc:  # every op failure is counted, the run goes on
            tally.record(case, 0.0, 0.0, cases.failure(exc), None)
            return
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
        peak = _peak_kb()
        bad = cases.verify(case, result)
        raised += _peak_kb() - peak
        tally.record(case, cpu, wall, None, bad)

    return cases.run_rounds(workload_cases, seconds, execute), raised


def run_traced(workload_cases, seconds, tracer: Tracer):
    """Each op twice, plain and traced, in alternating order; the traced one is checked."""
    totals = {"plain": 0.0, "traced": 0.0}

    def timed(case, traced):
        if traced:
            tracer.install()
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            if traced:
                with tracer.span(f"op.{case.kind}"):
                    result = _run(case, tracer)
            else:
                result = _run(case, None)
            return result, time.process_time() - c0, time.perf_counter() - w0
        finally:
            if traced:
                tracer.uninstall()

    def execute(case, tally):
        order = (False, True) if tally.rounds % 2 == 0 else (True, False)
        got, error = {}, None
        for traced in order:
            try:
                got[traced] = timed(case, traced)
            except Exception as exc:  # every op failure is counted, the run goes on
                error = cases.failure(exc)
        if error is not None:
            tally.record(case, 0.0, 0.0, error, None)
            return
        totals["plain"] += got[False][1]
        totals["traced"] += got[True][1]
        result, cpu, wall = got[True]
        tally.record(case, cpu, wall, None, cases.verify(case, result))

    tally = cases.run_rounds(workload_cases, seconds, execute)
    overhead = 100.0 * (totals["traced"] - totals["plain"]) / totals["plain"] if totals["plain"] else 0.0
    return tally, overhead


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args()
    workload_cases = cases.build(args.workload, args.seed, args.workdir, write=False)
    out = {}
    if args.trace:
        tracer = Tracer()
        tally, overhead = run_traced(workload_cases, args.seconds, tracer)
        tracer.dump(os.path.join(args.workdir, "spans.jsonl"))
        out["layers"] = tracer.layers(tally.rounds)
        out["layers"]["trace.overhead_pct"] = overhead
    else:
        tally, out["checks_raised_peak_kb"] = run_plain(workload_cases, args.seconds)
    out["tally"] = dataclasses.asdict(tally)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
