"""Regenerate the stored reference from the current library.

    python3 perfbench/make_reference.py [WORKLOAD ...]

The reference covers every input a seed can draw, so every seed is
checked: sweep-deep at every n in 160..256, sweep-shallow and
envelope-scan at every beta of the grid, cli-cold's kernel-norm at every
n it can draw.  It must be made from code whose verdicts are trusted;
the committed files come from the unchanged library.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time

import gate as gt
import run as runner
import workloads as wl

runner.pin_threads()                  # the reference is exact for this setting
sys.path.insert(0, str(runner.SRC))
from psiapprox import bounds, cli, psi_core  # noqa: E402


def write_lines(workload: str, lines: list):
    path = gt.REF_DIR / f"{workload}.jsonl"
    gt.REF_DIR.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for line in lines:
            fh.write(json.dumps(line, separators=(", ", ": ")) + "\n")
    print(f"{path.name}: {len(lines)} groups", file=sys.stderr)


def sweep_lines(pairs_ns: list, betas: list) -> list:
    """One line per (alpha, r, beta): n -> 8 packed brackets in MODES order."""
    lines = []
    for alpha, r, ns in pairs_ns:
        psi = psi_core.PsiFunction.exp_power(alpha, r)
        rows = {beta: {} for beta in betas}
        for n in ns:
            reps = bounds.verify_sweep(psi, betas, wl.MODES, [n])
            for beta in betas:
                mine = [rep for rep in reps if rep.beta == beta]
                rows[beta][str(n)] = [
                    [gt.pack_verdict(rep.status, rep.pass_lower, rep.pass_upper),
                     rep.proxy, gt.short_tol(rep.tol)] for rep in mine]
        for beta in betas:
            lines.append({"group": f"{alpha}|{r}|{beta}", "rows": rows[beta]})
    return lines


def envelope_lines() -> list:
    lines = []
    for alpha, r in wl.VIABLE:
        for beta in wl.BETA_GRID:
            inputs = {"groups": [{"alpha": alpha, "r": r, "beta": beta,
                                  "ns": list(range(wl.n_min(alpha, r),
                                                   wl.N_CAP + 1))}]}
            rows = {}
            for step in wl.prepare("envelope-scan", inputs).steps:
                [(key, f)] = step.records(step.run())
                rows[key.split("|")[3]] = [
                    f["env_status"], f["tail_status"],
                    "".join("1" if f[k] else "0" for k in wl.ENVELOPE_FLAGS)]
            lines.append({"group": f"{alpha}|{r}|{beta}", "rows": rows})
    return lines


def run_cli(argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_lines() -> list:
    lo, hi = wl.CLI_DEEP_N_RANGE
    commands = {label: argv for n in range(lo, hi + 1)
                for label, argv in wl.cli_commands(n)}
    half = psi_core.PsiFunction.exp_power(1.0, 0.5)
    rows = {}
    for label, argv in commands.items():
        code, out = run_cli(argv)
        kind = label.split("/")[0]
        parsed = wl.parse_cli_rows(label, out)
        if kind == "verify":
            tols = [d["tol"] for d in json.loads(out)["reports"]]
        elif kind == "kernel-norm":
            tols = [d["error_estimate"] / math.pi
                    for d in json.loads(out)["rows"]]
        elif kind in ("table", "asymp"):   # no printed tolerance: take the bracket's
            tols = [bounds.verify_theorem1(half, 0.0, 2.0, row["n"]).tol
                    for row in parsed]
        else:                              # envelopes: flags only
            tols = []
        for row, tol in zip(parsed, tols):
            row["tol"] = gt.short_tol(tol)
        rows[label] = {"exit": code, "rows": parsed}
    return [{"group": "cli", "rows": rows}]


def main(argv: list) -> int:
    wanted = argv or list(runner.WORKLOADS)
    for workload in wanted:
        t0 = time.perf_counter()
        if workload == "sweep-deep":
            lo, hi = wl.DEEP_N_RANGE
            lines = sweep_lines([(*wl.DEEP_PAIR, range(lo, hi + 1))],
                                list(wl.DEEP_BETAS))
        elif workload == "sweep-shallow":
            lines = sweep_lines(
                [(a, r, range(wl.n_min(a, r), wl.N_CAP + 1))
                 for a, r in wl.SHALLOW_PAIRS], [0.0] + list(wl.BETA_GRID))
        elif workload == "envelope-scan":
            lines = envelope_lines()
        else:
            lines = cli_lines()
        write_lines(workload, lines)
        print(f"{workload}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
