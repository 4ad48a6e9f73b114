"""psiapprox benchmark runner.

    python3 perfbench/run.py --workload sweep-deep --seed 1 --seconds 50 --trace 0

Runs one workload against the library in ../src as a closed loop (one
caller; the next call starts when the previous one returns), checks every
output against the stored reference and prints, as its last stdout line,
one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a traced pass.  The line before it holds the full
record (all eight end-to-end metrics with units, the machine, the inputs),
which is also written, with every step time, to perfbench/out/.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import CAL_EVERY_S, CAL_NOMINAL_S, Kernel, host_scaled

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("sweep-deep", "sweep-shallow", "envelope-scan", "cli-cold")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 13
TAIL_BEYOND = 10          # the tail keeps at least this many steps above it
TAIL_MAX_PERCENTILE = 95  # ... and stays at or below this percentile


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads() -> dict:
    """Hold BLAS/OpenMP pools at one thread (<= nproc) and keep the
    library's defaults.  A second BLAS thread gave no speed-up on the
    sweeps, doubled the CPU used (spin-waiting) and widened the spread."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PSIAPPROX_THREADS", None)
    return {var: os.environ[var] for var in THREAD_VARS}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine_record(seed: int, threads: dict) -> dict:
    import numpy as np

    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else []:
        level = _read(str(idx / "level")).strip()
        kind = _read(str(idx / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(idx / "size")).strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": nproc(), "cpu_count": os.cpu_count(), "cpu_model": model,
            "cache_L2": caches.get("L2", "unknown"),
            "cache_L3": caches.get("L3", "unknown"),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads,
            "psiapprox_threads": os.environ.get("PSIAPPROX_THREADS", "unset"),
            "loadavg_start": list(os.getloadavg()), "seed": seed,
            "platform": platform.platform()}


def measure_setup(workload: str, seed: int) -> dict:
    """Median of fresh-process set-ups: interpreter start, library import
    and input construction, timed from spawn to exit.  Each probe then
    times the calibration kernel itself, on the CPU and in the host state
    it set up in; that time is taken off its wall time and scales it."""
    import workloads as wl

    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    walls, scaled, imports = [], [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=str(ROOT), env=wl.child_env(),
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        walls.append(wall - probe["cal_total_s"])
        scaled.append(walls[-1] * CAL_NOMINAL_S / probe["cal_s"])
        imports.append(probe["import_s"])
    return {"setup_s": statistics.median(scaled),
            "setup_wall_s": statistics.median(walls),
            "import_s": statistics.median(imports), "samples": walls}


def run_step(step, gate, sink=None):
    """Run and time one step; gate its records outside the timed region.

    Returns (seconds, kernel time or None).  A step that runs a fresh
    child reports its own kernel time; the time the child spent on the
    kernel is taken off the step's."""
    t0 = time.perf_counter()
    try:
        raw = step.run()
    except Exception as exc:  # a failing library call is a failed check
        dt = time.perf_counter() - t0
        gate.raised(step.checks, step.label, exc)
        if sink is not None:
            sink.append((step.label, f"raised {type(exc).__name__}"))
        return dt, None
    dt = time.perf_counter() - t0
    own_cal = None
    if step.calibration is not None:
        report = step.calibration(raw)
        dt -= report["cal_total_s"]
        own_cal = report["cal_s"]
    records = step.records(raw)
    for key, fields in records:
        gate.check(key, fields)
    if sink is not None:
        sink.extend(records)
    return dt, own_cal


def peak_rss_mb(workload: str) -> float:
    if workload == "cli-cold":
        import workloads as wl
        return wl.command_peak_rss_mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(bench_pass, gate, seconds: float, cal: Kernel) -> dict:
    """Closed loop over the pass until `seconds` have passed.

    A step that runs a fresh child (cli-cold) brings its own kernel time.
    After other steps the runner times the kernel itself, untimed, once
    CAL_EVERY_S of step time has passed since the last calibration, and
    after the last step.

    One untimed warm-up step first.  Workloads whose steps differ widely
    in cost (envelope-scan, cli-cold) stop only at a pass boundary, so
    every run weighs each step equally.
    """
    steps = bench_pass.steps
    run_step(steps[0], gate)
    times, cal_at, cals = [], [], []
    since_cal = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        dt, own_cal = run_step(steps[i % len(steps)], gate)
        times.append(dt)
        i += 1
        done = time.perf_counter() - start >= seconds and (
            not bench_pass.whole_passes or i % len(steps) == 0)
        since_cal += dt
        if own_cal is not None or since_cal >= CAL_EVERY_S or done:
            cal_at.append(i - 1)
            cals.append(cal.time() if own_cal is None else own_cal)
            since_cal = 0.0
        if done:
            break
    return {"times": host_scaled(times, cal_at, cals), "wall_times": times,
            "cal_at": cal_at, "cals": cals,
            "checks": [s.checks for s in steps],
            "wall_s": time.perf_counter() - start, "passes": i / len(steps)}


def pass_throughput(times: list, checks: list) -> float:
    """Checks per second over one pass, each step at its median time.

    times[i] belongs to step i % len(checks); steps the run did not reach
    are left out.  Medians keep a few preempted steps from moving it.
    """
    by_step = {}
    for i, t in enumerate(times):
        by_step.setdefault(i % len(checks), []).append(t)
    return (sum(checks[k] for k in by_step)
            / sum(statistics.median(v) for v in by_step.values()))


def end_to_end(loop: dict, setup: dict, gate, workload: str) -> dict:
    times = sorted(loop["times"])
    n = len(times)
    # highest percentile with TAIL_BEYOND steps above it, capped at p95:
    # beyond that the tail of thousands of short steps measures host
    # preemption, not the program (perfbench/README.md).  Never below the median.
    beyond = max(TAIL_BEYOND, math.ceil(n * (100 - TAIL_MAX_PERCENTILE) / 100))
    tail_i = max(n - beyond - 1, (n - 1) // 2)
    return {
        "checks_per_s": {"value": pass_throughput(loop["times"], loop["checks"]),
                         "unit": "1/s"},
        "step_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "step_tail_ms": {"value": times[tail_i] * 1e3, "unit": "ms",
                         "percentile": 100.0 * (tail_i + 1) / n, "samples": n},
        "setup_s": {"value": setup["setup_s"], "unit": "s",
                    "samples": SETUP_PROBES},
        "peak_rss_mb": {"value": peak_rss_mb(workload), "unit": "MB"},
        "fail_ratio": {"value": gate.fail_ratio, "unit": "ratio"},
        "verdict_mismatches": {"value": gate.mismatches, "unit": "count"},
        "proxy_drift": {"value": gate.drift, "unit": "tol"},
    }


def traced_pass(workload: str, inputs: dict, gate, seed: int) -> dict:
    """One pass in which each step runs untraced and then traced.

    Both runs of every step are gated; their records must be equal.  The
    difference of their summed step times is the tracing overhead.
    Running the two back to back, step by step, keeps the host's speed
    swings out of that difference.
    """
    import workloads as wl
    from spans import Tracer, layer_metrics, load_spans

    plain_records, traced_records = [], []
    plain = wl.prepare(workload, inputs)
    span_dir = OUT_DIR / f"spans_{workload}_seed{seed}"
    span_dir.mkdir(parents=True, exist_ok=True)
    for old in span_dir.glob("*.jsonl.gz"):
        old.unlink()
    untraced_s = traced_s = 0.0
    if workload == "cli-cold":
        traced = wl.prepare(workload, inputs, span_dir=span_dir)
        for step, traced_step in zip(plain.steps, traced.steps):
            untraced_s += run_step(step, gate, plain_records)[0]
            traced_s += run_step(traced_step, gate, traced_records)[0]
        span_lists, log_calls = [], 0
        for path in sorted(span_dir.glob("*.jsonl.gz")):
            header, recs = load_spans(path)
            span_lists.append(recs)
            log_calls += header["log_value_calls"]
    else:
        tracer = Tracer()
        for i, step in enumerate(plain.steps):
            untraced_s += run_step(step, gate, plain_records)[0]
            with tracer:
                tracer.step = i
                traced_s += run_step(step, gate, traced_records)[0]
        tracer.dump(span_dir / "spans.jsonl.gz", {"workload": workload})
        span_lists, log_calls = [tracer.spans], tracer.log_value_calls
    metrics = layer_metrics(span_lists, log_calls)
    metrics["cli.stdout_bytes"] = sum(
        f.get("stdout_bytes", 0) for _, f in traced_records
        if isinstance(f, dict))
    metrics["bench.trace_overhead_s"] = traced_s - untraced_s
    metrics["bench.trace_overhead_share"] = (traced_s - untraced_s) / untraced_s
    return {"metrics": metrics, "untraced_s": untraced_s,
            "traced_s": traced_s, "steps": len(plain.steps),
            "verdicts_equal": plain_records == traced_records}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "psiapprox" / "__init__.py").is_file():
        return fail(f"library sources not found under {SRC}")
    if not (BENCH_DIR / "reference" / f"{args.workload}.jsonl").is_file():
        return fail(f"no reference for workload {args.workload}")
    threads = pin_threads()
    sys.path.insert(0, str(SRC))
    machine = machine_record(args.seed, threads)

    setup = measure_setup(args.workload, args.seed)
    import psiapprox
    if Path(psiapprox.__file__).resolve().parent != SRC / "psiapprox":
        return fail(f"imported psiapprox from {psiapprox.__file__}, not {SRC}")
    import gate as gt
    import workloads as wl

    inputs = wl.make_inputs(args.workload, args.seed)
    gate = gt.Gate(args.workload, gt.load_reference(
        args.workload, wl.reference_groups(args.workload, inputs)))
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "inputs": inputs, "machine": machine,
              "setup_samples_s": setup["samples"]}

    if args.trace == 0:
        loop = timed_loop(wl.prepare(args.workload, inputs), gate,
                          args.seconds, Kernel())
        e2e = end_to_end(loop, setup, gate, args.workload)
        raw = end_to_end(dict(loop, times=loop["wall_times"]), setup, gate,
                         args.workload)
        record.update(end_to_end=e2e, steps=len(loop["times"]),
                      wall_clock={k: raw[k]["value"] for k in
                                  ("checks_per_s", "step_p50_ms", "step_tail_ms")},
                      setup_wall_s=setup["setup_wall_s"],
                      passes=loop["passes"], loop_wall_s=loop["wall_s"],
                      step_us=[round(t * 1e6) for t in loop["wall_times"]],
                      cal_at=loop["cal_at"],
                      cal_us=[round(c * 1e6) for c in loop["cals"]])
        correct = gate.correct
        metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]}
                   for k in ("checks_per_s", "step_p50_ms", "step_tail_ms",
                             "setup_s", "peak_rss_mb")}
    else:
        import spans
        tp = traced_pass(args.workload, inputs, gate, args.seed)
        tp["metrics"]["cli.import_s"] = setup["import_s"]
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        metrics = {k: {"value": tp["metrics"][k], "unit": units[k]}
                   for k in units}
        record.update(per_layer=metrics, untraced_s=tp["untraced_s"],
                      traced_s=tp["traced_s"], steps=tp["steps"],
                      verdicts_equal=tp["verdicts_equal"])
        correct = gate.correct and tp["verdicts_equal"]
    record["gate"] = {"attempted": gate.attempted, "failed": gate.failed,
                      "fail_ratio": gate.fail_ratio,
                      "verdict_mismatches": gate.mismatches,
                      "proxy_drift": gate.drift,
                      "first_problems": gate.first_problems}
    record["correct"] = correct

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items()
                      if k not in ("step_us", "cal_at", "cal_us")}))
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
