"""Workload inputs and steps of the psiapprox benchmark.

Inputs are plain Python data made from the seed alone (`make_inputs`).
`prepare` turns them into a pass: a list of steps, each a zero-argument
callable into the library, plus the raw-result converter that turns a
step's return value into check records.  A check record is a pair
(key, fields); the keys match the rows of the stored reference.

Every library call goes through a module attribute looked up at call time
(`bounds.verify_sweep`, not a name bound at import), so the tracer's
wrappers see it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
REPORT_PREFIX = "perfbench-calibration "   # as cli_child.py prints it

# (alpha, r) pairs whose validity threshold n_min is at most N_CAP
VIABLE = ((0.5, 0.5), (0.5, 0.7), (1.0, 0.5), (1.0, 0.7),
          (2.0, 0.3), (2.0, 0.5), (2.0, 0.7))
N_CAP = 256
# the eight criterion-5 modes
MODES = tuple([("theorem1", v) for v in (1.0, 2.0, 4.0, math.inf)]
              + [("theorem2", v) for v in (1.0, 2.0, 4.0, math.inf)])
# seed-drawn betas come from this grid in (0, 2); the reference covers all of it
BETA_GRID = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)
DEEP_PAIR = (2.0, 0.3)
DEEP_N_RANGE = (160, 256)
DEEP_N_COUNT = 16
DEEP_BETAS = (0.0, 1.0)
SHALLOW_PAIRS = ((1.0, 0.7), (2.0, 0.7))
CLI_DEEP_N_RANGE = (160, 256)


def fmt_value(v: float) -> str:
    return "inf" if math.isinf(v) else repr(float(v))


def n_min(alpha: float, r: float) -> int:
    """Validity threshold; same closed form as bounds.exp_power_thresholds."""
    from psiapprox.bounds import exp_power_thresholds
    return exp_power_thresholds(alpha, r)[2]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# -- inputs -------------------------------------------------------------------

def make_inputs(workload: str, seed: int) -> dict:
    """Seed -> JSON-able inputs.  Same seed, same inputs."""
    rng = _rng(workload, seed)
    if workload == "sweep-deep":
        lo, hi = DEEP_N_RANGE
        ns = sorted(rng.sample(range(lo, hi + 1), DEEP_N_COUNT))
        return {"groups": [{"alpha": DEEP_PAIR[0], "r": DEEP_PAIR[1],
                            "betas": list(DEEP_BETAS), "ns": ns}]}
    if workload == "sweep-shallow":
        beta = rng.choice(BETA_GRID)
        return {"groups": [{"alpha": a, "r": r, "betas": [0.0, beta],
                            "ns": list(range(n_min(a, r), N_CAP + 1))}
                           for a, r in SHALLOW_PAIRS]}
    if workload == "envelope-scan":
        return {"groups": [{"alpha": a, "r": r, "beta": rng.choice(BETA_GRID),
                            "ns": list(range(n_min(a, r), N_CAP + 1))}
                           for a, r in VIABLE]}
    if workload == "cli-cold":
        lo, hi = CLI_DEEP_N_RANGE
        return {"commands": cli_commands(rng.randint(lo, hi))}
    raise ValueError(f"unknown workload {workload!r}")


def cli_commands(deep_n: int) -> list:
    """README commands, as (label, argv) pairs.  An odd count keeps the
    median step inside one command's times rather than between two."""
    return [
        ["verify", ["verify", "theorem1", "--alpha", "1", "--r", "0.5",
                    "--n-range", "11:40", "--p", "1", "2", "inf"]],
        ["table", ["table", "--alpha", "1", "--r", "0.5", "--n-range", "11:32",
                   "--p", "2", "--format", "csv"]],
        [f"kernel-norm/{deep_n}",
         ["kernel-norm", "--alpha", "2", "--r", "0.3", "--n", str(deep_n),
          "--p", "1", "2", "inf"]],
        ["asymp", ["asymp", "--alpha", "1", "--r", "0.5", "--p", "2",
                   "--n-range", "11:64"]],
        ["envelopes", ["verify", "envelopes", "--alpha", "1", "--r", "0.5",
                       "--n-range", "11:40"]],
    ]


# -- steps --------------------------------------------------------------------

@dataclass
class Step:
    """One closed-loop call.  `run` returns the raw result; `records`
    turns it into check records outside the timed region."""

    label: str
    checks: int                      # checks this step attempts
    run: Callable[[], object]
    records: Callable[[object], list]
    # for a step that runs a fresh child: its calibration report
    # (calibration.child_report) from the raw result
    calibration: Optional[Callable[[object], dict]] = None


@dataclass
class Pass:
    steps: list
    whole_passes: bool = False       # stop only at pass boundaries


def bracket_key(alpha, r, beta, n, mode, value) -> str:
    return f"{alpha}|{r}|{beta}|{n}|{mode}|{fmt_value(value)}"


def bracket_fields(rep) -> dict:
    return {"status": rep.status, "pass_lower": rep.pass_lower,
            "pass_upper": rep.pass_upper, "proxy": rep.proxy, "tol": rep.tol}


def bracket_ok(f: dict) -> bool:
    return f["status"] == "ok" and bool(f["pass_lower"]) and bool(f["pass_upper"])


def _sweep_records(reports) -> list:
    return [(bracket_key(rep.alpha, rep.r, rep.beta, rep.n, rep.mode,
                         rep.p_or_s), bracket_fields(rep))
            for rep in reports]


def envelope_key(alpha, r, beta, n) -> str:
    return f"{alpha}|{r}|{beta}|{n}"


def envelope_fields(env, tail, margins, slope, b) -> dict:
    return {"env_status": env.status, "pointwise_ok": env.pointwise_ok,
            "uniform_ok": env.uniform_ok, "tail_status": tail.status,
            "tail_ok": tail.ok, "margins_ordered": margins.ordered,
            "slope_ok": bool(slope <= 1.0 + 1.0 / b + 1e-5)}


ENVELOPE_FLAGS = ("pointwise_ok", "uniform_ok", "tail_ok", "margins_ordered",
                  "slope_ok")


def envelope_ok(f: dict) -> bool:
    return (f["env_status"] == "ok" and f["tail_status"] == "ok"
            and all(f[k] for k in ENVELOPE_FLAGS))


def reference_groups(workload: str, inputs: dict) -> list:
    """Reference groups (lines of reference/<workload>.jsonl) these inputs touch."""
    if workload == "cli-cold":
        return ["cli"]
    return [f"{g['alpha']}|{g['r']}|{beta}" for g in inputs["groups"]
            for beta in g.get("betas", [g.get("beta")])]


def prepare(workload: str, inputs: dict, span_dir: Optional[Path] = None) -> Pass:
    """Build the library objects for one pass of the workload.

    With `span_dir`, cli-cold commands run under cli_child.py, which traces
    the command and writes its spans there.
    """
    from psiapprox import bounds, kernels, psi_core

    if workload in ("sweep-deep", "sweep-shallow"):
        steps = []
        for g in inputs["groups"]:
            psi = psi_core.PsiFunction.exp_power(g["alpha"], g["r"])
            betas = list(g["betas"])
            for n in g["ns"]:
                def run(psi=psi, betas=betas, n=n):
                    return bounds.verify_sweep(psi, betas, MODES, [n])
                steps.append(Step(f"{g['alpha']}|{g['r']}|{n}",
                                  len(betas) * len(MODES), run,
                                  _sweep_records))
        return Pass(steps)

    if workload == "envelope-scan":
        steps = []
        for g in inputs["groups"]:
            alpha, r, beta = g["alpha"], g["r"], g["beta"]
            psi = psi_core.PsiFunction.exp_power(alpha, r)
            a, b, _ = bounds.exp_power_thresholds(alpha, r)
            for n in g["ns"]:
                def run(psi=psi, n=n, a=a, b=b, beta=beta):
                    t = float(n)
                    psi_core.characteristics(psi, t)
                    slope = psi_core.eta_derivative(psi, t)
                    margins = psi_core.lemma2_margins(psi, t, b)
                    ke = kernels.KernelEvaluator.build(psi, n, beta)
                    env = kernels.envelope_check(ke, a, b)
                    tail = kernels.tail_sum_bound_check(psi, n, a, b, beta=beta)
                    return env, tail, margins, slope

                def records(raw, key=envelope_key(alpha, r, beta, n), b=b):
                    return [(key, envelope_fields(*raw, b))]
                steps.append(Step(f"{alpha}|{r}|{n}", 1, run, records))
        # step cost differs a lot by pair: a partial pass would skew the mix
        return Pass(steps, whole_passes=True)

    if workload == "cli-cold":
        env = child_env()
        steps = []
        for i, (label, argv) in enumerate(inputs["commands"]):
            spans = "-" if span_dir is None else str(span_dir / f"{i:02d}.jsonl.gz")
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), spans] + argv

            def run(cmd=cmd):
                return run_command(cmd, env)

            def records(raw, label=label):
                return [(label, cli_fields(label, raw[0], raw[1]))]
            steps.append(Step(label, 1, run, records,
                              calibration=lambda raw: raw[2]))
        return Pass(steps, whole_passes=True)
    raise ValueError(f"unknown workload {workload!r}")


# -- cli ----------------------------------------------------------------------

def child_env() -> dict:
    """Environment of every child interpreter: the library from ../src,
    library defaults (no PSIAPPROX_THREADS)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PSIAPPROX_THREADS", None)
    return env


# largest peak resident set of any command run_command has run, in MB
command_peak_rss_mb = 0.0


def run_command(cmd: list, env: dict, timeout: float = 120.0):
    """Run one command under cli_child.py in a fresh interpreter;
    (exit code, stdout text, calibration report)."""
    global command_peak_rss_mb
    proc = subprocess.run(cmd, cwd=str(ROOT), env=env, capture_output=True,
                          text=True, timeout=timeout)
    reports = [line[len(REPORT_PREFIX):] for line in proc.stderr.splitlines()
               if line.startswith(REPORT_PREFIX)]
    if not reports:
        raise RuntimeError(f"no calibration report: {proc.stderr.strip()[-500:]}")
    report = json.loads(reports[-1])
    command_peak_rss_mb = max(command_peak_rss_mb, report["peak_rss_mb"])
    return proc.returncode, proc.stdout, report


def parse_cli_rows(label: str, stdout: str) -> list:
    """Rows of one command's output, reduced to the fields the gate
    compares.  Columns are read by name, so added columns do not matter."""
    kind = label.split("/")[0]
    if kind == "table":
        rows = []
        for row in csv.DictReader(io.StringIO(stdout)):
            lower, proxy, upper = (float(row[k]) for k in ("lower", "proxy", "upper"))
            rows.append({"n": int(row["n"]), "proxy": proxy,
                         "in_bracket": bool(lower <= proxy <= upper)})
        return rows
    data = json.loads(stdout)
    if kind == "verify":
        return [{"n": d["n"], "p": d["p_or_s"], "status": d["status"],
                 "pass_lower": d["pass_lower"], "pass_upper": d["pass_upper"],
                 "proxy": d["proxy"]} for d in data["reports"]]
    if kind == "kernel-norm":
        return [{"n": d["n"], "p": d["p"], "proxy": d["norm"] / math.pi}
                for d in data["rows"]]
    if kind == "asymp":
        return [{"n": d["n"], "proxy": d["proxy"]} for d in data["rows"]]
    if kind == "envelopes":
        keys = ("n", "envelope_status", "pointwise_ok", "uniform_ok",
                "tail_status", "tail_ok")
        return [{k: d[k] for k in keys} for d in data["rows"]]
    raise ValueError(f"unknown command label {label!r}")


def cli_fields(label: str, code: int, stdout: str) -> dict:
    try:
        rows = parse_cli_rows(label, stdout)
    except (ValueError, KeyError, TypeError):
        rows = None
    return {"exit": code, "rows": rows, "stdout_bytes": len(stdout.encode())}


def cli_ok(f: dict) -> bool:
    if f["exit"] != 0 or not f["rows"]:
        return False
    for row in f["rows"]:
        for k, v in row.items():
            if k.endswith("status") and v != "ok":
                return False
            if isinstance(v, bool) and not v:
                return False
    return True


# -- set-up probe ---------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> dict:
    """Fresh-process set-up: import the library, build the inputs."""
    t0 = time.perf_counter()
    if workload == "cli-cold":
        import psiapprox.cli  # noqa: F401  (what each cold command imports)
    else:
        import psiapprox  # noqa: F401
    import_s = time.perf_counter() - t0
    prepare(workload, make_inputs(workload, seed))
    return {"import_s": import_s, "inproc_s": time.perf_counter() - t0}

