"""Command-line front end.

Subcommands map one-to-one onto library entry points; everything here is
argument plumbing, deterministic serialization, and exit-code policy:

    0  all requested checks passed
    1  at least one verified bound or check failed
    2  configuration or precondition problem
    3  numeric failure (non-convergence, invalid profile data)

stdout carries only the requested JSON or CSV payload so runs with equal
flags are byte-identical; the one-line human summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields

import numpy as np

from . import bounds as bnd
from .approx_ops import kernel_norm, taper_coefficients
from .errors import (CapabilityError, DomainError, NumericError,
                     PsiApproxError)
from .kernels import (KernelEvaluator, envelope_check, lemma1_check,
                      tail_sum_bound_check)
from .psi_core import PsiFunction, characteristics, lemma2_margins

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _exponent(text) -> float:
    if isinstance(text, str) and text.strip().lower() in ("inf", "infinity"):
        return math.inf
    v = float(text)
    if v < 1.0:
        raise argparse.ArgumentTypeError("exponent must be >= 1 or inf")
    return v


def _parse_range(text: str) -> list:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise DomainError(f"bad range {text!r}, expected A:B")
    if hi < lo:
        raise DomainError(f"bad range {text!r}: end before start")
    return list(range(lo, hi + 1))


def _build_parser() -> argparse.ArgumentParser:
    """One parser per command and verify check, taking no abbreviations."""
    ap = argparse.ArgumentParser(
        prog="psiapprox", allow_abbrev=False,
        description="Tapered trigonometric approximation toolkit")
    commands = ap.add_subparsers(dest="command", required=True)

    def family(sp):
        sp.add_argument("--family", choices=("exp-power", "table"),
                        default="exp-power")
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--r", type=float)
        sp.add_argument("--psi-table", dest="psi_table",
                        help="two-column file of (t, value) samples")

    def degrees(sp):
        one = sp.add_mutually_exclusive_group(required=True)
        one.add_argument("--n", type=int)
        one.add_argument("--n-range", dest="n_range")

    def beta(sp):
        sp.add_argument("--beta", type=float, default=0.0)

    def thresholds(sp):
        sp.add_argument("--a", type=float)
        sp.add_argument("--b", type=float)

    def scan(sp):
        sp.add_argument("--n-range", dest="n_range", required=True)
        beta(sp)
        sp.add_argument("--p", type=_exponent)
        sp.add_argument("--s", type=_exponent)

    def force(sp):
        sp.add_argument("--force", action="store_true",
                        help="run outside the validity thresholds anyway")

    def command(subs, name, handler, help, *groups):
        sp = subs.add_parser(name, help=help, allow_abbrev=False)
        sp.set_defaults(handler=handler)
        sp.add_argument("--out")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        for group in groups:
            group(sp)
        return sp

    sp = command(commands, "characteristics", _cmd_characteristics,
                 "halving point, gap and ratio of the profile", family)
    one = sp.add_mutually_exclusive_group(required=True)
    one.add_argument("--t", type=float, nargs="+")
    one.add_argument("--n-range", dest="n_range")

    sp = command(commands, "lambda", _cmd_lambda,
                 "taper multiplier sequence", family)
    sp.add_argument("--n", type=int, required=True)

    sp = command(commands, "kernel-eval", _cmd_kernel_eval,
                 "residual kernel values", family)
    sp.add_argument("--n", type=int, required=True)
    beta(sp)
    sp.add_argument("--t", type=float, nargs="+", required=True)

    sp = command(commands, "kernel-norm", _cmd_kernel_norm,
                 "integral norm of the kernel", family)
    sp.add_argument("--n", type=int, required=True)
    beta(sp)
    sp.add_argument("--p", type=_exponent, nargs="+", required=True,
                    help="norm orders, e.g. --p 1 2 inf")

    checks = commands.add_parser(
        "verify", help="run a certified check suite",
        allow_abbrev=False).add_subparsers(dest="what", required=True)
    for check, flag, default, help in (
            ("theorem1", "--p", math.inf, "conjugate-norm brackets"),
            ("theorem2", "--s", 1.0, "direct-norm brackets")):
        sp = command(checks, check, _cmd_verify_theorems, help,
                     family, degrees, beta, thresholds, force)
        sp.add_argument(flag, dest="exponents", metavar=flag[2:].upper(),
                        type=_exponent, nargs="+", default=[default])
    sp = command(checks, "lemma1", _cmd_verify_lemma1,
                 "summation identity on random instances")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--seed", type=int, default=0)
    sp = command(checks, "lemma2", _cmd_verify_lemma2,
                 "ordering of the psi/|psi'| margins", family, force)
    sp.add_argument("--t", type=float, nargs="+", required=True)
    sp.add_argument("--b", type=float)
    command(checks, "envelopes", _cmd_verify_envelopes,
            "kernel envelopes and tail-sum bound",
            family, degrees, beta, thresholds, force)

    command(commands, "table", _cmd_table, "bracket table over a run of n",
            family, scan, thresholds, force)
    sp = command(commands, "asymp", _cmd_asymp, "decay-rate ratio scan",
                 family, scan, force)
    sp.add_argument("--max-spread", dest="max_spread", type=float)
    return ap


def _make_psi(cfg: argparse.Namespace) -> PsiFunction:
    if cfg.family == "exp-power":
        if cfg.alpha is None or cfg.r is None:
            raise DomainError("exp-power family needs --alpha and --r")
        return PsiFunction.exp_power(cfg.alpha, cfg.r)
    if cfg.psi_table is None:
        raise DomainError("table family needs --psi-table")
    with open(cfg.psi_table) as fh:
        rows = [line.split("#", 1)[0] for line in fh.read().splitlines()]
    lines = [row for row in rows if row.strip()]
    if not lines:
        raise DomainError(f"profile table {cfg.psi_table} has no data rows")
    delim = "," if "," in lines[0] else None
    try:
        data = np.loadtxt(lines, delimiter=delim, ndmin=2)
    except ValueError as exc:
        raise DomainError(f"profile table {cfg.psi_table}: {exc}") from None
    if data.shape[1] != 2:
        raise DomainError("profile table must have two columns")
    return PsiFunction.from_table(data[:, 0], data[:, 1])


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    return str(v)


def _jsonable(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    return obj


def _emit(cfg: argparse.Namespace, payload: dict, csv_header: list,
          csv_rows: list):
    if cfg.format == "json":
        text = json.dumps(_jsonable(payload), indent=2) + "\n"
    else:
        lines = [",".join(csv_header)]
        lines += [",".join(_fmt(cell) for cell in row) for row in csv_rows]
        text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _ns_for(cfg: argparse.Namespace) -> list:
    return [cfg.n] if cfg.n is not None else _parse_range(cfg.n_range)


def _exit_code(failed: int, violated: int) -> int:
    """A failed check outranks rows outside the preconditions."""
    if failed:
        return EXIT_FAIL
    if violated:
        return EXIT_CONFIG
    return EXIT_OK


def _threshold_gate(cfg: argparse.Namespace, psi: PsiFunction,
                    ns: list) -> None:
    """Refuse sub-threshold sweeps unless --force."""
    if cfg.force or psi.family != "exp-power":
        return
    _, _, n_min = bnd.exp_power_thresholds(psi.alpha, psi.r)
    low = [n for n in ns if n < n_min]
    if low:
        raise DomainError(
            f"n values {low[:4]}{'...' if len(low) > 4 else ''} are below "
            f"n_min = {n_min}; pass --force to run anyway")


# -- subcommands --------------------------------------------------------------

def _cmd_characteristics(cfg: argparse.Namespace) -> int:
    psi = _make_psi(cfg)
    ts = [float(v) for v in (cfg.t or _parse_range(cfg.n_range))]
    rows = []
    for t in ts:
        prof = characteristics(psi, t)
        rows.append({"t": t, "psi": float(psi(t)), "eta": prof.eta,
                     "eta_gap": prof.eta_gap, "mu": prof.mu,
                     "floor_gap": prof.floor_gap})
    header = ["t", "psi", "eta", "eta_gap", "mu", "floor_gap"]
    _emit(cfg, {"rows": rows}, header,
          [[row[k] for k in header] for row in rows])
    print(f"characteristics: {len(rows)} rows", file=sys.stderr)
    return EXIT_OK


def _cmd_lambda(cfg: argparse.Namespace) -> int:
    psi = _make_psi(cfg)
    tc = taper_coefficients(psi, cfg.n)
    payload = {"n": tc.n, "eta_floor": tc.eta_floor, "gap": tc.gap,
               "lambda": [float(v) for v in tc.lam]}
    rows = [[k, float(v)] for k, v in enumerate(tc.lam)]
    _emit(cfg, payload, ["k", "lambda"], rows)
    print(f"lambda: n={tc.n} window gap={tc.gap}", file=sys.stderr)
    return EXIT_OK


def _cmd_kernel_eval(cfg: argparse.Namespace) -> int:
    psi = _make_psi(cfg)
    ts = np.asarray(cfg.t, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise NumericError(f"kernel-eval needs finite --t values, got {cfg.t}")
    ke = KernelEvaluator.build(psi, cfg.n, cfg.beta)
    vals = np.atleast_1d(ke.eval(ts))
    if not np.all(np.isfinite(vals)):
        raise NumericError("kernel value is not finite")
    rows = [{"t": float(t), "value": float(v)} for t, v in zip(ts, vals)]
    payload = {"n": ke.n, "beta": ke.beta,
               "truncation_index": ke.truncation_index,
               "tail_eps": ke.tail_eps, "rows": rows}
    _emit(cfg, payload, ["t", "value"],
          [[row["t"], row["value"]] for row in rows])
    print(f"kernel-eval: K={ke.truncation_index} {len(rows)} points",
          file=sys.stderr)
    return EXIT_OK


def _cmd_kernel_norm(cfg: argparse.Namespace) -> int:
    psi = _make_psi(cfg)
    ke = KernelEvaluator.build(psi, cfg.n, cfg.beta)
    rows = []
    for p in cfg.p:
        nv = kernel_norm(psi, cfg.beta, cfg.n, p, evaluator=ke)
        rows.append({"n": cfg.n, "beta": cfg.beta, "p": p,
                     "norm": nv.value, "error_estimate": nv.error_estimate})
    header = ["n", "beta", "p", "norm", "error_estimate"]
    _emit(cfg, {"rows": rows}, header,
          [[row[k] for k in header] for row in rows])
    print(f"kernel-norm: {len(rows)} norms", file=sys.stderr)
    return EXIT_OK


_REPORT_COLS = [f.name for f in fields(bnd.BoundReport)]


def _emit_reports(cfg: argparse.Namespace, reports: list, label: str) -> int:
    dicts = [asdict(rep) for rep in reports]
    rows = [[d[k] for k in _REPORT_COLS] for d in dicts]
    summary = {
        "total": len(reports),
        "passed": sum(1 for rep in reports if rep.ok),
        "failed": sum(1 for rep in reports
                      if rep.status == "ok" and not rep.ok),
        "precondition_violated": sum(1 for rep in reports
                                     if rep.status == "precondition_violated"),
    }
    _emit(cfg, {"reports": dicts, "summary": summary}, _REPORT_COLS, rows)
    print(f"{label}: {summary['passed']}/{summary['total']} passed, "
          f"{summary['failed']} failed, "
          f"{summary['precondition_violated']} outside preconditions",
          file=sys.stderr)
    return _exit_code(summary["failed"], summary["precondition_violated"])


def _cmd_verify_theorems(cfg: argparse.Namespace) -> int:
    psi = _make_psi(cfg)
    ns = _ns_for(cfg)
    _threshold_gate(cfg, psi, ns)
    modes = [(cfg.what, v) for v in cfg.exponents]
    reports = bnd.verify_sweep(psi, [cfg.beta], modes, ns, a=cfg.a, b=cfg.b)
    return _emit_reports(cfg, reports, f"verify {cfg.what}")


def _cmd_verify_lemma1(cfg: argparse.Namespace) -> int:
    if not 0.0 <= cfg.tol < math.inf:
        raise DomainError(f"--tol must be finite and >= 0, got {cfg.tol}")
    if cfg.trials < 1:
        raise DomainError(f"--trials must be >= 1, got {cfg.trials}")
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst = 0.0
    for trial in range(cfg.trials):
        N = int(rng.integers(1, 40))
        M = N + int(rng.integers(1, 40))
        gamma = float(rng.uniform(0.25, 3.0))
        lam = rng.uniform(0.0, 1.0, size=M)
        t_grid = rng.uniform(1e-3, math.pi, size=48)
        disc = lemma1_check(lam, gamma, N, M, t_grid)
        worst = max(worst, disc)
        rows.append({"trial": trial, "N": N, "M": M, "gamma": gamma,
                     "discrepancy": disc, "pass": bool(disc <= cfg.tol)})
    failed = sum(1 for row in rows if not row["pass"])
    payload = {"rows": rows, "summary": {"total": len(rows), "failed": failed,
                                         "worst": worst, "tol": cfg.tol}}
    header = ["trial", "N", "M", "gamma", "discrepancy", "pass"]
    _emit(cfg, payload, header, [[row[k] for k in header] for row in rows])
    print(f"verify lemma1: worst discrepancy {worst:.3e} over {len(rows)} "
          f"trials, {failed} failed", file=sys.stderr)
    return _exit_code(failed, 0)


def _cmd_verify_lemma2(cfg: argparse.Namespace) -> int:
    psi = _make_psi(cfg)
    if cfg.b is not None:
        b = cfg.b
    elif psi.family == "exp-power":
        _, b, _ = bnd.exp_power_thresholds(psi.alpha, psi.r)
    else:
        raise DomainError("custom profile needs an explicit --b")
    if not cfg.force:
        low = [t for t in cfg.t if characteristics(psi, t).mu < b]
        if low:
            raise DomainError(
                f"mu(t) < b at t = {low[:4]}; pass --force to run anyway")
    rows, failed = [], 0
    for t in cfg.t:
        try:
            m = lemma2_margins(psi, float(t), b)
            ok = m.ordered
            row = {"t": float(t), "b": b, "lower": m.lower, "value": m.value,
                   "upper": m.upper, "ordered": ok,
                   "finite_difference": m.used_finite_difference}
        except NumericError:
            ok = False
            row = {"t": float(t), "b": b, "lower": None, "value": None,
                   "upper": None, "ordered": False, "finite_difference": None}
        failed += 0 if ok else 1
        rows.append(row)
    header = ["t", "b", "lower", "value", "upper", "ordered",
              "finite_difference"]
    _emit(cfg, {"rows": rows}, header,
          [[row[k] for k in header] for row in rows])
    print(f"verify lemma2: {len(rows) - failed}/{len(rows)} ordered",
          file=sys.stderr)
    return _exit_code(failed, 0)


def _cmd_verify_envelopes(cfg: argparse.Namespace) -> int:
    psi = _make_psi(cfg)
    ns = _ns_for(cfg)
    _threshold_gate(cfg, psi, ns)
    a, b = bnd._resolve_thresholds(psi, cfg.a, cfg.b)
    rows, failed, violated = [], 0, 0
    for n in ns:
        ke = KernelEvaluator.build(psi, n, cfg.beta)
        env = envelope_check(ke, a, b)
        tail = tail_sum_bound_check(psi, n, a, b, beta=cfg.beta,
                                    evaluator=ke)
        row = {"n": n, "beta": cfg.beta, "a": a, "b": b,
               "envelope_status": env.status,
               "pointwise_ok": env.pointwise_ok,
               "pointwise_margin": env.pointwise_margin,
               "uniform_ok": env.uniform_ok,
               "uniform_margin": env.uniform_margin,
               "tail_status": tail.status, "tail_ok": tail.ok,
               "tail_margin": tail.margin}
        if env.status != "ok" or tail.status != "ok":
            violated += 1
        elif not (env.all_ok and tail.ok):
            failed += 1
        rows.append(row)
    header = list(rows[0].keys()) if rows else []
    _emit(cfg, {"rows": rows}, header,
          [[row[k] for k in header] for row in rows])
    print(f"verify envelopes: {len(rows) - failed - violated}/{len(rows)} ok, "
          f"{failed} failed, {violated} outside preconditions",
          file=sys.stderr)
    return _exit_code(failed, violated)


_TABLE_COLS = ["n", "alpha", "r", "beta", "mode", "p_or_s",
               "lower", "proxy", "upper"]


def _one_mode(cfg: argparse.Namespace) -> tuple[str, float]:
    """(mode, exponent) of table and asymp, which take one of --p and --s."""
    if (cfg.p is None) == (cfg.s is None):
        raise DomainError(f"{cfg.command} needs exactly one of --p or --s")
    return ("theorem1", cfg.p) if cfg.p is not None else ("theorem2", cfg.s)


def _cmd_table(cfg: argparse.Namespace) -> int:
    psi = _make_psi(cfg)
    ns = _parse_range(cfg.n_range)
    _threshold_gate(cfg, psi, ns)
    reports = bnd.verify_sweep(psi, [cfg.beta], [_one_mode(cfg)], ns,
                               a=cfg.a, b=cfg.b)
    dicts = [asdict(rep) for rep in reports]
    rows = [[d[k] for k in _TABLE_COLS] for d in dicts]
    _emit(cfg, {"rows": [{k: d[k] for k in _TABLE_COLS} for d in dicts]},
          _TABLE_COLS, rows)
    bad = sum(1 for rep in reports if rep.status == "ok" and not rep.ok)
    viol = sum(1 for rep in reports if rep.status != "ok")
    print(f"table: {len(rows)} rows, {bad} out of bracket, "
          f"{viol} outside preconditions", file=sys.stderr)
    return _exit_code(bad, viol)


def _cmd_asymp(cfg: argparse.Namespace) -> int:
    if cfg.family != "exp-power":
        raise DomainError("asymp supports the exp-power family only")
    psi = _make_psi(cfg)
    mode, value = _one_mode(cfg)
    if cfg.max_spread is not None and not 1.0 <= cfg.max_spread < math.inf:
        raise DomainError(
            f"--max-spread must be finite and >= 1, got {cfg.max_spread}")
    ns = _parse_range(cfg.n_range)
    _threshold_gate(cfg, psi, ns)
    scan = bnd.asymp_scan(cfg.alpha, cfg.r, mode, value, ns, beta=cfg.beta)
    header = ["n", "proxy", "ratio_elementary", "ratio_X"]
    _emit(cfg, asdict(scan), header,
          [[row.n, row.proxy, row.ratio_elementary, row.ratio_X]
           for row in scan.rows])
    print(f"asymp: ratio in [{scan.ratio_min:.6g}, {scan.ratio_max:.6g}], "
          f"spread {scan.spread:.4f}", file=sys.stderr)
    if cfg.max_spread is not None and scan.spread > cfg.max_spread:
        return EXIT_FAIL
    return EXIT_OK


def main(argv=None) -> int:
    ap = _build_parser()
    cfg = ap.parse_args(argv)
    try:
        return cfg.handler(cfg)
    except (DomainError, CapabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PsiApproxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
