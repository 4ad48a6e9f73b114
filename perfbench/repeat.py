"""Run the benchmark several times and summarise the spread.

    python3 perfbench/repeat.py --workloads sweep-deep cli-cold --seeds 1-10 \
        [--seconds 50] [--trace 0] [--out perfbench/baseline/BENCH_baseline.json]

With --out, the summary is merged into the file under
<workload>/trace<0|1>, so traced and untraced summaries can share it.

Runs are sequential, one process at a time.  For each workload and
end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile spread as a
share of the median, next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "record": json.loads(lines[-2]),
            "wall_s": wall}


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, args.trace)
                for seed in seed_list(args.seeds)]
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarise(vals),
                                 unit=runs[0]["result"]["metrics"][name]["unit"])
        summary[workload] = {
            "seeds": seed_list(args.seeds), "seconds": seconds,
            "trace": args.trace,
            "all_correct": all(r["result"]["correct"] for r in runs),
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "run_wall_s": [round(r["wall_s"], 2) for r in runs],
            "gate": [r["record"]["gate"] for r in runs][:1],
            "machine": runs[0]["record"]["machine"],
            "metrics": metrics,
        }
        print(f"{workload}: correct={summary[workload]['all_correct']} "
              f"wall {min(summary[workload]['run_wall_s']):.1f}-"
              f"{max(summary[workload]['run_wall_s']):.1f} s")
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None or m["spread"] is None else (
                f"  bound {bound}  {'ok' if m['spread'] < bound / 3 else 'WIDE'}")
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:40s} median {m['median']:.6g} {m['unit']:6s} "
                  f"spread {spread}{flag}")
        sys.stdout.flush()
    if args.out:
        out = Path(args.out)
        merged = json.loads(out.read_text()) if out.exists() else {}
        for workload, entry in summary.items():
            merged.setdefault(workload, {})[f"trace{args.trace}"] = entry
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(merged, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
