"""Span tracer for the traced benchmark run.

`Tracer.install()` wraps the library's public callables, at every binding a
module holds (modules copy names with `from .x import y`, so each copy is
replaced), and `uninstall()` puts the originals back.  Spans live in memory
as [name, start_ns, end_ns, parent, step, info] and are written out at the
end of the run; `layer_metrics` turns them into the per-layer numbers.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

MODULES = ("psiapprox", "psiapprox.psi_core", "psiapprox.series",
           "psiapprox.kernels", "psiapprox.approx_ops", "psiapprox.bounds",
           "psiapprox.cli")

NAME, START, END, PARENT, STEP, INFO = range(6)


def _p_label(p: float) -> str:
    if math.isinf(p):
        return "pinf"
    if abs(p - 4.0 / 3.0) < 1e-12:
        return "p4_3"
    return f"p{p:g}".replace(".", "_")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.step = -1
        self.log_value_calls = 0
        self._patches: list = []     # (owner, attribute, original)

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.step,
                   before(args, kwargs) if before else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after:
                rec[INFO] = after(result)
            return result
        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def _count_log_value(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.log_value_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching -------------------------------------------------------------

    def _replace_everywhere(self, original: Callable, wrapper: Callable) -> int:
        """Point every module-level binding of `original` at `wrapper`."""
        hits = 0
        for modname in MODULES:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    hits += 1
        return hits

    def _patch_attr(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        import psiapprox.cli  # noqa: F401  (load every module before patching)
        from psiapprox import approx_ops, bounds, kernels, psi_core, series

        functions = [
            ("psi_core.characteristics", psi_core.characteristics, None),
            ("psi_core.eta_derivative", psi_core.eta_derivative, None),
            ("psi_core.lemma2_margins", psi_core.lemma2_margins, None),
            ("kernels.truncation_index", kernels.truncation_index, None),
            ("kernels.certified_tail_sum", kernels.certified_tail_sum, None),
            ("kernels.envelope_check", kernels.envelope_check, None),
            ("kernels.tail_sum_bound_check", kernels.tail_sum_bound_check, None),
            ("approx_ops.kernel_norm", approx_ops.kernel_norm, _norm_key),
            ("approx_ops.lp_norm", approx_ops.lp_norm,
             lambda a, k: _p_label(a[1] if len(a) > 1 else k["p"])),
            ("approx_ops.sup_norm", approx_ops.sup_norm, None),
            ("bounds.verify_sweep", bounds.verify_sweep, None),
            ("bounds.verify", bounds._verify, None),
            ("cli.main", psiapprox.cli.main, None),
        ]
        for name, fn, before in functions:
            if self._replace_everywhere(fn, self._wrap(name, fn, before)) == 0:
                raise RuntimeError(f"no binding found for {name}")

        ke_cls = kernels.KernelEvaluator
        build = ke_cls.__dict__["build"].__func__
        self._patch_attr(ke_cls, "build", classmethod(self._wrap(
            "kernels.build", build,
            after=lambda ke: ke.truncation_index)))

        fs = series.FourierSeries
        self._patch_attr(fs, "uniform_samples", self._wrap(
            "series.uniform_samples", fs.__dict__["uniform_samples"],
            before=lambda a, k: [int(a[1]), int(a[1]) not in a[0]._sample_cache]))
        evaluate = self._wrap(
            "series.eval", fs.__dict__["eval"],
            before=_eval_terms)
        # __call__ is an alias of eval; both route through the same wrapper
        self._patch_attr(fs, "eval", evaluate)
        self._patch_attr(fs, "__call__", evaluate)

        pf = psi_core.PsiFunction
        self._patch_attr(pf, "log_value",
                         self._count_log_value(pf.__dict__["log_value"]))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- output -----------------------------------------------------------------

    def dump(self, path, extra: Optional[dict] = None):
        """Write the spans as gzipped JSON lines (header line first)."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns",
                                            "parent", "step", "info"],
                                 "log_value_calls": self.log_value_calls,
                                 **(extra or {})}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _norm_key(args, kwargs) -> list:
    """(psi, beta, n, order) of a kernel_norm call; with the step it
    identifies one (evaluator, order) pair."""
    names = ("psi", "beta", "n", "p_prime")
    vals = dict(zip(names, args))
    vals.update({k: v for k, v in kwargs.items() if k in names})
    psi = vals["psi"]
    return [psi.alpha, psi.r, vals["beta"], vals["n"], _p_label(vals["p_prime"])]


def _eval_terms(args, kwargs) -> int:
    """Work of one FourierSeries.eval call: degree x number of points."""
    series, t = args[0], (args[1] if len(args) > 1 else kwargs["t"])
    try:
        points = int(getattr(t, "size", None) or len(t))
    except TypeError:
        points = 1
    return series.degree * max(1, points)


def load_spans(path) -> tuple:
    """(header, spans) from a file written by Tracer.dump."""
    with gzip.open(path, "rt") as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh]


# -- per-layer metrics -----------------------------------------------------------

PER_LAYER = (
    # name, unit, better
    ("psi_core.characteristics.calls", "count", "lower"),
    ("psi_core.characteristics.busy_s", "s", "lower"),
    ("psi_core.log_value.calls", "count", "lower"),
    ("psi_core.eta_derivative.busy_s", "s", "lower"),
    ("psi_core.lemma2_margins.busy_s", "s", "lower"),
    ("kernels.build.calls", "count", "lower"),
    ("kernels.build.self_s", "s", "lower"),
    ("kernels.truncation_index.calls", "count", "lower"),
    ("kernels.truncation_index.busy_s", "s", "lower"),
    ("kernels.certified_tail_sum.calls", "count", "lower"),
    ("kernels.certified_tail_sum.busy_s", "s", "lower"),
    ("kernels.tail_certs_per_build", "ratio", "lower"),
    ("kernels.K_mean", "count", "lower"),
    ("kernels.envelope_check.busy_s", "s", "lower"),
    ("kernels.tail_sum_bound_check.busy_s", "s", "lower"),
    ("series.uniform_samples.calls", "count", "lower"),
    ("series.uniform_samples.misses", "count", "lower"),
    ("series.uniform_samples.hit_ratio", "ratio", "higher"),
    ("series.uniform_samples.busy_s", "s", "lower"),
    ("series.fft_points", "count", "lower"),
    ("series.fft_bytes_computed", "bytes", "lower"),
    ("series.eval.calls", "count", "lower"),
    ("series.eval.busy_s", "s", "lower"),
    ("series.eval.terms", "count", "lower"),
    ("approx_ops.kernel_norm.calls", "count", "lower"),
    ("approx_ops.kernel_norm.unique_ratio", "ratio", "higher"),
    ("approx_ops.lp_norm.p1.busy_s", "s", "lower"),
    ("approx_ops.lp_norm.p4_3.busy_s", "s", "lower"),
    ("approx_ops.lp_norm.p2.busy_s", "s", "lower"),
    ("approx_ops.lp_norm.p4.busy_s", "s", "lower"),
    ("approx_ops.sup_norm.calls", "count", "lower"),
    ("approx_ops.sup_norm.busy_s", "s", "lower"),
    ("approx_ops.sup_norm.refine_s", "s", "lower"),
    ("approx_ops.sup_norm.refine_evals", "count", "lower"),
    ("approx_ops.grid_points", "count", "lower"),
    ("bounds.verify_sweep.busy_s", "s", "lower"),
    ("bounds.verify.self_s", "s", "lower"),
    ("bounds.brackets", "count", "higher"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
)

# complex128 in and out of each inverse FFT, computed from array sizes
FFT_BYTES_PER_POINT = 32


def layer_metrics(spans: list, log_value_calls: int) -> dict:
    """Per-layer numbers from one or more span lists.

    `spans` is a list of span lists (one per traced process); parent
    indices refer to positions within each list.
    """
    calls = defaultdict(int)
    busy = defaultdict(float)      # outermost spans of a name only
    self_s = defaultdict(float)
    lp_busy = defaultdict(float)
    refine_s = 0.0
    refine_evals = 0
    tail_in_build = 0
    K_values = []
    us_misses = 0
    fft_points = 0
    grid_points = 0
    eval_terms = 0
    norm_keys = set()

    for proc, recs in enumerate(spans):
        child_cover = defaultdict(int)
        for rec in recs:
            if rec[PARENT] >= 0:
                child_cover[rec[PARENT]] += rec[END] - rec[START]

        def ancestors(i):
            p = recs[i][PARENT]
            while p >= 0:
                yield recs[p][NAME]
                p = recs[p][PARENT]

        for i, rec in enumerate(recs):
            name, dur = rec[NAME], (rec[END] - rec[START]) * 1e-9
            calls[name] += 1
            self_s[name] += dur - child_cover[i] * 1e-9
            anc = list(ancestors(i))
            if name not in anc:
                busy[name] += dur
            info = rec[INFO]
            if name == "approx_ops.lp_norm" and "approx_ops.lp_norm" not in anc:
                lp_busy[info] += dur
            elif name == "series.eval":
                eval_terms += info
                if "approx_ops.sup_norm" in anc:
                    refine_s += dur
                    refine_evals += 1
            elif name == "series.uniform_samples":
                size, miss = info
                if miss:
                    us_misses += 1
                    fft_points += size
                if "approx_ops.lp_norm" in anc or "approx_ops.sup_norm" in anc:
                    grid_points += size
            elif name == "kernels.certified_tail_sum" and "kernels.build" in anc:
                tail_in_build += 1
            elif name == "kernels.build":
                K_values.append(info)
            elif name == "approx_ops.kernel_norm":
                norm_keys.add((proc, rec[STEP], *info))

    def ratio(num, den):
        return num / den if den else 0.0

    us_calls = calls["series.uniform_samples"]
    return {
        "psi_core.characteristics.calls": calls["psi_core.characteristics"],
        "psi_core.characteristics.busy_s": busy["psi_core.characteristics"],
        "psi_core.log_value.calls": log_value_calls,
        "psi_core.eta_derivative.busy_s": busy["psi_core.eta_derivative"],
        "psi_core.lemma2_margins.busy_s": busy["psi_core.lemma2_margins"],
        "kernels.build.calls": calls["kernels.build"],
        "kernels.build.self_s": self_s["kernels.build"],
        "kernels.truncation_index.calls": calls["kernels.truncation_index"],
        "kernels.truncation_index.busy_s": busy["kernels.truncation_index"],
        "kernels.certified_tail_sum.calls": calls["kernels.certified_tail_sum"],
        "kernels.certified_tail_sum.busy_s": busy["kernels.certified_tail_sum"],
        "kernels.tail_certs_per_build": ratio(tail_in_build, calls["kernels.build"]),
        "kernels.K_mean": ratio(sum(K_values), len(K_values)),
        "kernels.envelope_check.busy_s": busy["kernels.envelope_check"],
        "kernels.tail_sum_bound_check.busy_s": busy["kernels.tail_sum_bound_check"],
        "series.uniform_samples.calls": us_calls,
        "series.uniform_samples.misses": us_misses,
        "series.uniform_samples.hit_ratio": ratio(us_calls - us_misses, us_calls),
        "series.uniform_samples.busy_s": busy["series.uniform_samples"],
        "series.fft_points": fft_points,
        "series.fft_bytes_computed": fft_points * FFT_BYTES_PER_POINT,
        "series.eval.calls": calls["series.eval"],
        "series.eval.busy_s": busy["series.eval"],
        "series.eval.terms": eval_terms,
        "approx_ops.kernel_norm.calls": calls["approx_ops.kernel_norm"],
        "approx_ops.kernel_norm.unique_ratio": ratio(
            len(norm_keys), calls["approx_ops.kernel_norm"]),
        "approx_ops.lp_norm.p1.busy_s": lp_busy["p1"],
        "approx_ops.lp_norm.p4_3.busy_s": lp_busy["p4_3"],
        "approx_ops.lp_norm.p2.busy_s": lp_busy["p2"],
        "approx_ops.lp_norm.p4.busy_s": lp_busy["p4"],
        "approx_ops.sup_norm.calls": calls["approx_ops.sup_norm"],
        "approx_ops.sup_norm.busy_s": busy["approx_ops.sup_norm"],
        "approx_ops.sup_norm.refine_s": refine_s,
        "approx_ops.sup_norm.refine_evals": refine_evals,
        "approx_ops.grid_points": grid_points,
        "bounds.verify_sweep.busy_s": busy["bounds.verify_sweep"],
        "bounds.verify.self_s": self_s["bounds.verify"],
        "bounds.brackets": calls["bounds.verify"],
        "cli.main.busy_s": busy["cli.main"],
    }
