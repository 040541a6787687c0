#!/usr/bin/env python3
"""eqkit benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It generates the workload's inputs
from --seed, measures for --seconds, checks every op's output, prints a
table, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs the three workloads in turn, each ending with its own JSON line.

The program is reached only through its public surface: ``python -m eqkit``
with PYTHONPATH=src, and the public functions of the ``eqkit`` modules.
"""

from __future__ import annotations

import os

# One BLAS thread here and in every child, set before numpy loads: with 2
# cores, 2 threads made medians repeat about half as well.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import cases  # noqa: E402
from spans import parse_importtime  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SPAWNS = 8  # fresh interpreters per set-up measurement; the first is thrown away


def load_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update(BLAS_ENV)
    return env


def spawn(argv: list[str], stdout_path: str, stderr_path: str):
    """Run ``python argv`` to its end; return (exit code, rusage of that child)."""
    wr = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, wr, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, wr, 0o644),
    ]
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], _child_env(), file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), usage


def cpu_seconds(usage) -> float:
    """User plus system time of a child: what it ran, without the time the
    hypervisor gave its CPU to someone else (steal), which wall time counts."""
    return usage.ru_utime + usage.ru_stime


def _tail(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


def measure_setup(entry: str, workdir: str) -> float:
    """Median CPU time of fresh interpreters that import ``entry``."""
    out, err = os.path.join(workdir, "setup.out"), os.path.join(workdir, "setup.err")
    times = []
    for _ in range(SETUP_SPAWNS):
        rc, usage = spawn(["-c", f"import {entry}"], out, err)
        times.append(cpu_seconds(usage))
        if rc != 0:
            raise RuntimeError(f"import {entry} exited {rc}: {_tail(err)}")
    return statistics.median(times[1:])


def import_layers(entry: str, workdir: str) -> dict[str, float]:
    """Median self import time per package, from ``python -X importtime``.

    importtime reports wall time; each sample is scaled by its interpreter's
    CPU / wall ratio, so that it is on the CPU clock of ``setup_s``.
    """
    out, err = os.path.join(workdir, "importtime.out"), os.path.join(workdir, "importtime.err")
    samples = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        rc, usage = spawn(["-X", "importtime", "-c", f"import {entry}"], out, err)
        cpu_share = cpu_seconds(usage) / (time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"import {entry} exited {rc}: {_tail(err)}")
        with open(err, encoding="utf-8") as fh:
            samples.append({p: t * cpu_share for p, t in parse_importtime(fh.read()).items()})
    return {f"import.{p}_s": statistics.median(s[p] for s in samples[1:]) for p in samples[0]}


def run_cli(workload_cases, seconds: float, workdir: str):
    """Each op is one ``python -m eqkit`` child; its time is the child's CPU time."""
    out, err = os.path.join(workdir, "op.out"), os.path.join(workdir, "op.err")
    peak_kb = 0

    def execute(case, tally):
        nonlocal peak_kb
        for path in case.outputs:
            if os.path.exists(path):
                os.remove(path)
        t0 = time.perf_counter()
        rc, usage = spawn(["-m", "eqkit", *case.argv], out, err)
        wall = time.perf_counter() - t0
        peak_kb = max(peak_kb, usage.ru_maxrss)
        with open(out, encoding="utf-8") as fh:
            stdout = fh.read()
        error = f"exit {rc}: {_tail(err)}" if rc != 0 else None
        bad = None if error else cases.verify(case, stdout)
        tally.record(case, cpu_seconds(usage), wall, error, bad)

    return cases.run_rounds(workload_cases, seconds, execute), peak_kb


def run_worker(workload: str, seed: int, seconds: float, trace: int, workdir: str):
    """Run worker.py; return its JSON result and its peak RSS in kB."""
    out, err = os.path.join(workdir, "worker.out"), os.path.join(workdir, "worker.err")
    argv = [os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir]
    rc, usage = spawn(argv, out, err)
    if rc != 0:
        raise RuntimeError(f"worker exited {rc}: {_tail(err)}")
    return json.loads(_tail(out)), usage.ru_maxrss


def run_workload(workload: str, seed: int, seconds: float, trace: int, units: dict[str, str]) -> bool:
    workdir = os.path.join(OUT, workload)
    os.makedirs(workdir, exist_ok=True)
    entry = cases.ENTRY_MODULE[workload]
    is_cli = workload != "lib_compute"
    workload_cases = cases.build(workload, seed, workdir, write=True)
    if trace:
        result, _ = run_worker(workload, seed, seconds, 1, workdir)
        tally = cases.Tally(**result["tally"])
        values = {**import_layers(entry, workdir), **result["layers"]}
        with open(os.path.join(workdir, "layers.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "rounds": tally.rounds, "per_round": values},
                      fh, indent=1)
    else:
        setup = measure_setup(entry, workdir)
        if is_cli:
            tally, peak_kb = run_cli(workload_cases, seconds, workdir)
        else:
            result, peak_kb = run_worker(workload, seed, seconds, 0, workdir)
            tally = cases.Tally(**result["tally"])
            if result["checks_raised_peak_kb"]:
                print(f"{workload}: the output checks raised the worker's peak RSS by "
                      f"{result['checks_raised_peak_kb']} kB, so peak_rss_mb is not eqkit's alone",
                      file=sys.stderr)
        values = {"setup_s": setup, **cases.end_to_end(tally), "peak_rss_mb": peak_kb / 1024.0}
    missing = [n for n in units if n not in values]
    for msg in tally.errors[:20]:
        print(f"{workload}: {msg}", file=sys.stderr)
    for msg in missing:
        print(f"{workload}: no measurement of {msg}", file=sys.stderr)
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values}
    print(f"{workload}: seed {seed}, {tally.rounds} rounds, {tally.attempted} ops attempted, "
          f"{tally.failed} failed, outputs {'correct' if tally.correct else 'WRONG'}; "
          f"timed ops took {tally.busy:.3f} CPU s in {tally.busy_wall:.3f} wall s")
    for n, m in metrics.items():
        print(f"  {n:28s} {m['value']:14.6g} {m['unit']}")
    correct = tally.correct and not missing
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return correct


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=(*cases.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # SIGTERM raises SystemExit, so spawn() kills and reaps the child in flight.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "eqkit", "cli.py")):
        print(f"no eqkit sources under {SRC}: run from the root of an eqkit checkout", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metrics()
    units = layer_units if args.trace else e2e_units
    workloads = cases.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for w in workloads:
        ok = run_workload(w, args.seed, args.seconds, args.trace, units) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
