"""Layer spans recorded from outside viscowave, and the per-layer metrics built from them.

The tracer wraps public layer functions by rebinding every module attribute
that holds the original function object, so calls through ``from .kernels
import kernel_hat`` style bindings are seen as well as qualified ones.  The
FFT layer is wrapped at the ``scipy.fft.fftn`` / ``scipy.fft.ifftn``
attributes, which is where ``grid``, ``solver`` and ``audit`` look them up at
call time.  Spans live in memory as ``[id, parent, name, start, end, info]``
lists (parent 0 is the root) and are written out once, when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped by the traced pass; the span name is
# "<layer>.<function>" with the module's last dotted component as the layer.
TARGETS = (
    ("viscowave.kernels", "kernel_hat"),
    ("viscowave.grid", "transform"),
    ("viscowave.grid", "sobolev_seminorm"),
    ("viscowave.radial", "radial_l2_norm"),
    ("viscowave.radial", "axisym_evaluate"),
    ("viscowave.elastic", "linear_propagate"),
    ("viscowave.elastic", "split_longitudinal"),
    ("viscowave.solver", "evolve"),
    ("viscowave.solver", "picard_iterate"),
    ("viscowave.asymptotics", "linear_norm"),
    ("viscowave.audit", "inequality_check"),
    ("viscowave.audit", "decay_fit"),
    ("viscowave.audit", "heat_multiplier_l1"),
    ("viscowave.audit", "symbol_bound_scan"),
    ("viscowave.cli", "emit_report"),
)
FFT_FUNCTIONS = ("fftn", "ifftn")

# Bytes per transformed point: a complex128 value read and one written.
FFT_BYTES_PER_POINT = 32


def _fft_info(args, kwargs, out):
    """[points per transform, transforms in the batch] of an n-d FFT call."""
    shape = out.shape
    axes = kwargs.get("axes")
    if axes is None and len(args) > 2:
        axes = args[2]
    if axes is None:
        axes = range(len(shape))
    n = math.prod(shape[a] for a in axes)
    return [n, math.prod(shape) // max(n, 1)]


def _size_info(args, kwargs, out):
    return math.prod(getattr(out, "shape", ()))


def _axisym_info(sig):
    def info(args, kwargs, out):
        bound = sig.bind(*args, **kwargs).arguments
        return [len(bound["r"]), len(bound["s"])]

    return info


def _info_for(name, fn):
    if name == "kernels.kernel_hat":
        return _size_info
    if name == "radial.axisym_evaluate":
        return _axisym_info(inspect.signature(fn))
    if name == "solver.picard_iterate":
        return lambda args, kwargs, out: len(out[1])
    if name == "solver.evolve":
        return lambda args, kwargs, out: len(out.times) - 1
    return None


class Tracer:
    """Records nested spans around wrapped functions of one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self.bindings: dict[str, list[str]] = {}
        self._stack = [0]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans) + 1, stack[-1], name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, out)
            return out

        return traced

    def _rebind(self, name, original, wrapper, modules):
        sites = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    sites.append(f"{mod.__name__}.{attr}")
        self.bindings[name] = sorted(sites)

    def install(self):
        """Wrap every target in every loaded ``viscowave`` module and the FFT layer."""
        import scipy.fft  # here, so the process that only analyses spans never loads scipy

        for mod_name, _ in TARGETS:
            importlib.import_module(mod_name)
        package = [m for n, m in sorted(sys.modules.items()) if n == "viscowave" or n.startswith("viscowave.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[mod_name], fn_name)
            name = f"{mod_name.rsplit('.', 1)[-1]}.{fn_name}"
            self._rebind(name, original, self.wrap(name, original, _info_for(name, original)), package)
        for fn_name in FFT_FUNCTIONS:
            original = getattr(scipy.fft, fn_name)
            name = f"fft.{fn_name}"
            self._rebind(name, original, self.wrap(name, original, _fft_info), [scipy.fft])

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"bindings": self.bindings, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# analysis (runs in the benchmark process, on dumped spans)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        children[parent].append((t0, t1))
    return {sid: (t1 - t0) - _covered(children[sid], t0, t1) for sid, _, _, t0, t1, _ in spans}


def tail_percentile(values):
    """(percentile, value, n): the highest whole percentile with >= 10 samples beyond it.

    Nearest-rank percentiles: the p-th is the ceil(p n / 100)-th smallest
    value, so at most ``n - 10`` ranks qualify.  Returns None below 11 samples.
    """
    n = len(values)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, -(-p * n // 100))
    return p, sorted(values)[rank - 1], n


def _has_ancestor(sid, parent_of, name_of, target):
    sid = parent_of[sid]
    while sid:
        if name_of[sid] == target:
            return True
        sid = parent_of[sid]
    return False


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from one traced invocation; layers never called read 0."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    parent_of = {0: 0}
    name_of = {}
    for rec in spans:
        by_name[rec[2]].append(rec)
        parent_of[rec[0]] = rec[1]
        name_of[rec[0]] = rec[2]

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(r[4] - r[3] for r in by_name[name])

    def self_s(name):
        return sum(selfs[r[0]] for r in by_name[name])

    def info_max(name, i):
        return max((r[5][i] for r in by_name[name]), default=0)

    def per(a, b):
        return a / b if b else 0.0

    m = {}
    sweeps = sum(r[5] or 0 for r in by_name["solver.picard_iterate"])
    steps = sum(r[5] or 0 for r in by_name["solver.evolve"])
    m["solver.picard_iterate.self_s"] = self_s("solver.picard_iterate")
    m["solver.picard_iterate.sweeps"] = sweeps
    m["solver.picard_iterate.sweep_s"] = per(total("solver.picard_iterate"), sweeps)
    m["solver.evolve.self_s"] = self_s("solver.evolve")
    m["solver.evolve.step_s"] = per(total("solver.evolve"), steps)

    ffts = by_name["fft.fftn"] + by_name["fft.ifftn"]
    points = sum(r[5][0] * r[5][1] for r in ffts)
    flops = sum(5.0 * r[5][0] * math.log2(r[5][0]) * r[5][1] for r in ffts if r[5][0] > 1)
    m["fft.calls"] = len(ffts)
    m["fft.s"] = sum(r[4] - r[3] for r in ffts)
    m["fft.gb_computed"] = points * FFT_BYTES_PER_POINT / 1e9
    m["fft.gflop_computed"] = flops / 1e9

    for name in ("elastic.linear_propagate", "elastic.split_longitudinal", "kernels.kernel_hat",
                 "radial.radial_l2_norm", "radial.axisym_evaluate"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    kh = by_name["kernels.kernel_hat"]
    m["kernels.kernel_hat.points_per_call"] = per(sum(r[5] or 1 for r in kh), len(kh))
    under_norm = sum(
        1 for r in kh if _has_ancestor(r[0], parent_of, name_of, "radial.radial_l2_norm")
    )
    m["radial.radial_l2_norm.kernel_calls_per_norm"] = per(under_norm, calls("radial.radial_l2_norm"))
    m["radial.axisym_evaluate.n_r_max"] = info_max("radial.axisym_evaluate", 0)
    m["radial.axisym_evaluate.n_s_max"] = info_max("radial.axisym_evaluate", 1)

    durations = [r[4] - r[3] for r in by_name["asymptotics.linear_norm"]]
    tail = tail_percentile(durations)
    m["asymptotics.linear_norm.samples"] = len(durations)
    m["asymptotics.linear_norm.s_median"] = statistics.median(durations) if durations else 0.0
    m["asymptotics.linear_norm.tail_pct"] = tail[0] if tail else 0
    m["asymptotics.linear_norm.s_tail"] = tail[1] if tail else 0.0

    for name in ("audit.inequality_check", "audit.decay_fit", "audit.heat_multiplier_l1",
                 "audit.symbol_bound_scan", "grid.transform", "grid.sobolev_seminorm"):
        m[f"{name}.self_s"] = self_s(name)
    m["cli.emit_report.s"] = total("cli.emit_report")
    return m
