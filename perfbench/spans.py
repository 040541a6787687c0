"""Spans around eqkit's layers, recorded from the benchmark's own code.

The tracer replaces public functions at the names their callers use (for
example ``eqkit.cli.read_matrix`` or ``eqkit.doubly.sr_decompose``) with
wrappers that record a span: name, start, end, parent, on the process's
CPU clock, so time the hypervisor steals is not counted.  Spans stay in
memory until the run ends.  A layer's self time is its spans' duration
minus the part covered by their child spans.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span) for every call site that crosses a layer.
# ``io`` and ``numpy.linalg.norm`` get their own wrappers below.
SITES = [
    ("eqkit.cli", "sr_decompose", "ea.sr_decompose"),
    ("eqkit.cli", "certify_equiangular", "ea.certify_equiangular"),
    ("eqkit.cli", "certify_doubly", "doubly.certify_doubly"),
    ("eqkit.cli", "dea", "doubly.dea"),
    ("eqkit.cli", "fast_inverse", "spectral.fast_inverse"),
    ("eqkit.cli", "simplex_frame", "frames.simplex_frame"),
    ("eqkit.cli", "is_etf", "frames.is_etf"),
    ("eqkit.cli", "sdst_factor", "factor.sdst_factor"),
    ("eqkit.cli", "alpha_real_root_bound", "factor.alpha_bound"),
    ("eqkit.cli", "sym_eig", "kernel.sym_eig"),
    ("eqkit.doubly", "sr_decompose", "ea.sr_decompose"),
    ("eqkit.doubly", "certify_equiangular", "ea.certify_equiangular"),
    ("eqkit.doubly", "gram_principal_sqrt", "gram"),
    ("eqkit.ea", "gram_inverse", "gram"),
    ("eqkit.ea", "gram_principal_sqrt", "gram"),
    ("eqkit.ea", "gram_sqrt_inverse", "gram"),
    ("eqkit.spectral", "dual_params", "gram"),
    ("eqkit.factor", "sr_decompose", "ea.sr_decompose"),
    ("eqkit.factor", "gram_principal_sqrt", "gram"),
    ("eqkit.factor", "dual_params", "gram"),
    ("eqkit.factor", "poly_roots", "kernel.poly_roots"),
    ("eqkit.factor", "sym_eig", "kernel.sym_eig"),
    ("eqkit.frames", "sym_eig", "kernel.sym_eig"),
    ("eqkit", "sr_decompose", "ea.sr_decompose"),
    ("eqkit", "certify_equiangular", "ea.certify_equiangular"),
    ("eqkit", "certify_doubly", "doubly.certify_doubly"),
    ("eqkit", "dea", "doubly.dea"),
    ("eqkit", "fast_inverse", "spectral.fast_inverse"),
    ("eqkit", "simplex_frame", "frames.simplex_frame"),
    ("eqkit", "is_etf", "frames.is_etf"),
    ("eqkit", "sdst_factor", "factor.sdst_factor"),
    ("eqkit", "alpha_real_root_bound", "factor.alpha_bound"),
]
IO_SITES = [("eqkit.cli", "read_matrix", "read"), ("eqkit.cli", "write_matrix", "write")]

# Per-layer time metrics: (metric, span whose self time it sums).
TIME_METRICS = [
    ("cli.self_s", "cli.main"),
    ("io.read_csv_s", "io.read_csv"),
    ("io.read_mtx_s", "io.read_mtx"),
    ("io.write_csv_s", "io.write_csv"),
    ("io.write_mtx_s", "io.write_mtx"),
    ("kernel.norm2_s", "kernel.norm2"),
    ("kernel.sym_eig_s", "kernel.sym_eig"),
    ("kernel.poly_roots_s", "kernel.poly_roots"),
    ("ea.sr_decompose_s", "ea.sr_decompose"),
    ("ea.certify_equiangular_s", "ea.certify_equiangular"),
    ("gram.s", "gram"),
    ("doubly.dea_self_s", "doubly.dea"),
    ("doubly.certify_doubly_s", "doubly.certify_doubly"),
    ("spectral.fast_inverse_s", "spectral.fast_inverse"),
    ("frames.simplex_frame_s", "frames.simplex_frame"),
    ("frames.is_etf_s", "frames.is_etf"),
    ("factor.sdst_factor_s", "factor.sdst_factor"),
    ("factor.alpha_bound_s", "factor.alpha_bound"),
]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, ok]
        self._stack: list[int] = []
        self.counts = {"io.bytes_read": 0, "io.bytes_written": 0, "spectral.fast_inverse_ops": 0}
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, time.process_time(), None, self._stack[-1] if self._stack else None, False]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
            rec[4] = True
        finally:
            rec[2] = time.process_time()
            self._stack.pop()

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _wrap_io(self, fn, direction):
        def traced(path, *args, **kwargs):
            fmt = "mtx" if os.path.splitext(path)[1].lower() == ".mtx" else "csv"
            with self.span(f"io.{direction}_{fmt}"):
                out = fn(path, *args, **kwargs)
            key = "io.bytes_read" if direction == "read" else "io.bytes_written"
            self.counts[key] += os.path.getsize(path)
            return out

        return traced

    def _wrap_fast_inverse(self, fn):
        ek = sys.modules["eqkit"]

        def traced(S, ops=None):
            tally = ops if ops is not None else ek.OpCounter()
            before = tally.total
            with self.span("spectral.fast_inverse"):
                out = fn(S, tally)
            self.counts["spectral.fast_inverse_ops"] += tally.total - before
            return out

        return traced

    def _wrap_norm(self, fn):
        def traced(x, ord=None, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if ord == 2 and caller.startswith("eqkit") and np.ndim(x) == 2:
                with self.span("kernel.norm2"):
                    return fn(x, ord, *args, **kwargs)
            return fn(x, ord, *args, **kwargs)

        return traced

    def _patch(self, module, attr, wrapper):
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, wrapper(original))

    def install(self) -> None:
        for module, attr, name in SITES:
            if attr == "fast_inverse":
                self._patch(module, attr, self._wrap_fast_inverse)
            else:
                self._patch(module, attr, lambda fn, name=name: self._wrap(fn, name))
        for module, attr, direction in IO_SITES:
            self._patch(module, attr, lambda fn, d=direction: self._wrap_io(fn, d))
        self._patch("numpy.linalg", "norm", self._wrap_norm)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        out: dict[str, float] = {}
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def calls(self, name: str, ok: bool | None = None) -> int:
        return sum(1 for s in self.spans if s[0] == name and (ok is None or s[4] == ok))

    def layers(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, each per round of the workload."""
        st = self.self_times()
        out = {metric: st.get(span, 0.0) / rounds for metric, span in TIME_METRICS}
        for key, value in self.counts.items():
            out[key] = value / rounds
        out["kernel.norm2_calls"] = self.calls("kernel.norm2") / rounds
        out["factor.poly_roots_calls"] = self.calls("kernel.poly_roots") / rounds
        out["factor.failed"] = self.calls("factor.sdst_factor", ok=False) / rounds
        read_s = out["io.read_csv_s"] + out["io.read_mtx_s"]
        write_s = out["io.write_csv_s"] + out["io.write_mtx_s"]
        out["io.read_mb_per_s"] = out["io.bytes_read"] / 1e6 / read_s if read_s else 0.0
        out["io.write_mb_per_s"] = out["io.bytes_written"] / 1e6 / write_s if write_s else 0.0
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, ok) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "ok": ok}) + "\n")


def parse_importtime(text: str, packages=("numpy", "scipy", "eqkit")) -> dict[str, float]:
    """Self import time in seconds per top-level package, from ``python -X importtime``."""
    out = {p: 0.0 for p in packages}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:
            continue  # the header line
        top = fields[2].strip().split(".")[0]
        if top in out:
            out[top] += self_us * 1e-6
    return out
