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
from dataclasses import asdict

import numpy as np

from . import bounds as bnd
from .approx_ops import _norms, kernel_norm, taper_coefficients
from .errors import (CapabilityError, DomainError, NumericError,
                     PsiApproxError)
from .kernels import (KernelEvaluator, envelope_check, kernel_profile,
                      lemma1_check, tail_sum_bound_check)
from .psi_core import PsiFunction, characteristics, lemma2_margins

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
# verify lemma1's ceiling on --trials: about 20 s and 16 MB of JSON
MAX_TRIALS = 100_000


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


class _Parser(argparse.ArgumentParser):
    """Refuses under its own usage the options it leaves unread: those in
    its stretch of the command line, as a command parses inside its parent."""

    def parse_known_args(self, args=None, namespace=None):
        cfg, unread = super().parse_known_args(args, namespace)
        if unread:
            self.error(f"unrecognized arguments: {' '.join(unread)}")
        return cfg, unread


def _build_parser() -> argparse.ArgumentParser:
    """One parser per command and verify check, taking no abbreviations."""
    ap = _Parser(
        prog="psiapprox", allow_abbrev=False,
        description="Tapered trigonometric approximation toolkit")
    commands = ap.add_subparsers(dest="command", required=True)

    def exp_power(sp):
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--r", type=float)

    def profile(sp):
        exp_power(sp)
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
                 "halving point, gap and ratio of the profile", profile)
    one = sp.add_mutually_exclusive_group(required=True)
    one.add_argument("--t", type=float, nargs="+")
    one.add_argument("--n-range", dest="n_range")

    sp = command(commands, "lambda", _cmd_lambda,
                 "taper multiplier sequence", profile)
    sp.add_argument("--n", type=int, required=True)

    sp = command(commands, "kernel-eval", _cmd_kernel_eval,
                 "residual kernel values", profile)
    sp.add_argument("--n", type=int, required=True)
    beta(sp)
    sp.add_argument("--t", type=float, nargs="+", required=True)

    sp = command(commands, "kernel-norm", _cmd_kernel_norm,
                 "integral norm of the kernel", profile)
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
                     profile, degrees, beta, thresholds, force)
        sp.add_argument(flag, dest="exponents", metavar=flag[2:].upper(),
                        type=_exponent, nargs="+", default=[default])
    sp = command(checks, "lemma1", _cmd_verify_lemma1,
                 "summation identity on random instances")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--seed", type=int, default=0)
    sp = command(checks, "lemma2", _cmd_verify_lemma2,
                 "ordering of the psi/|psi'| margins", profile, force)
    sp.add_argument("--t", type=float, nargs="+", required=True)
    sp.add_argument("--b", type=float)
    command(checks, "envelopes", _cmd_verify_envelopes,
            "kernel envelopes and tail-sum bound",
            profile, degrees, thresholds, force)

    command(commands, "table", _cmd_table, "bracket table over a run of n",
            profile, scan, thresholds, force)
    sp = command(commands, "asymp", _cmd_asymp, "decay-rate ratio scan",
                 exp_power, scan, force)
    sp.add_argument("--max-spread", dest="max_spread", type=float)
    return ap


def _make_psi(cfg: argparse.Namespace) -> PsiFunction:
    """The table profile when --psi-table is given, else the exp-power one."""
    table = getattr(cfg, "psi_table", None)
    if table is None:
        if cfg.alpha is None or cfg.r is None:
            alt = ", or --psi-table FILE" if "psi_table" in cfg else ""
            raise DomainError(f"the profile needs --alpha and --r{alt}")
        return PsiFunction.exp_power(cfg.alpha, cfg.r)
    if cfg.alpha is not None or cfg.r is not None:
        raise DomainError("--psi-table excludes --alpha and --r")
    with open(table) as fh:
        rows = [line.split("#", 1)[0] for line in fh.read().splitlines()]
    lines = [row for row in rows if row.strip()]
    if not lines:
        raise DomainError(f"profile table {table} has no data rows")
    delim = "," if "," in lines[0] else None
    try:
        data = np.loadtxt(lines, delimiter=delim, ndmin=2)
    except ValueError as exc:
        raise DomainError(f"profile table {table}: {exc}") from None
    if data.shape[1] != 2:
        raise DomainError("profile table must have two columns")
    return PsiFunction.from_table(data[:, 0], data[:, 1])


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


def _fmt(v) -> str:
    v = _jsonable(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return "" if v is None else str(v)


def _finish(cfg: argparse.Namespace, payload: dict, rows: list, summary: str,
            failed: int = 0, violated: int = 0) -> int:
    """Write the payload as JSON, or the rows as CSV with their keys for
    columns; print the summary to stderr and return the exit code.  A
    failed check outranks rows outside the preconditions."""
    if cfg.format == "json":
        text = json.dumps(_jsonable(payload), indent=2) + "\n"
    else:
        lines = [",".join(rows[0])]
        lines += [",".join(map(_fmt, row.values())) for row in rows]
        text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)
    return EXIT_FAIL if failed else EXIT_CONFIG if violated else EXIT_OK


def _ns_for(cfg: argparse.Namespace) -> list:
    return [cfg.n] if cfg.n is not None else _parse_range(cfg.n_range)


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


def _tally(reports: list) -> tuple[int, int]:
    """(failed, violated): brackets that missed, rows outside preconditions."""
    return (sum(rep.status == "ok" and not rep.ok for rep in reports),
            sum(rep.status != "ok" for rep in reports))


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
    return _finish(cfg, {"rows": rows}, rows,
                   f"characteristics: {len(rows)} rows")


def _cmd_lambda(cfg: argparse.Namespace) -> int:
    psi = _make_psi(cfg)
    tc = taper_coefficients(psi, cfg.n)
    lam = [float(v) for v in tc.lam]
    payload = {"n": tc.n, "eta_floor": tc.eta_floor, "gap": tc.gap,
               "lambda": lam}
    return _finish(cfg, payload,
                   [{"k": k, "lambda": v} for k, v in enumerate(lam)],
                   f"lambda: n={tc.n} window gap={tc.gap}")


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
    return _finish(cfg, payload, rows,
                   f"kernel-eval: K={ke.truncation_index} {len(rows)} points")


def _cmd_kernel_norm(cfg: argparse.Namespace) -> int:
    psi = _make_psi(cfg)
    ke = KernelEvaluator.build(psi, cfg.n, cfg.beta)
    _norms(ke, cfg.p)   # every order from one pass over the grid
    rows = []
    for p in cfg.p:
        nv = kernel_norm(psi, cfg.beta, cfg.n, p, evaluator=ke)
        rows.append({"n": cfg.n, "beta": cfg.beta, "p": p,
                     "norm": nv.value, "error_estimate": nv.error_estimate})
    return _finish(cfg, {"rows": rows}, rows,
                   f"kernel-norm: {len(rows)} norms")


def _cmd_verify_theorems(cfg: argparse.Namespace) -> int:
    psi = _make_psi(cfg)
    ns = _ns_for(cfg)
    _threshold_gate(cfg, psi, ns)
    modes = [(cfg.what, v) for v in cfg.exponents]
    reports = bnd.verify_sweep(psi, [cfg.beta], modes, ns, a=cfg.a, b=cfg.b)
    failed, violated = _tally(reports)
    rows = [asdict(rep) for rep in reports]
    passed = len(rows) - failed - violated
    summary = {"total": len(rows), "passed": passed, "failed": failed,
               "precondition_violated": violated}
    return _finish(cfg, {"reports": rows, "summary": summary}, rows,
                   f"verify {cfg.what}: {passed}/{len(rows)} passed, "
                   f"{failed} failed, {violated} outside preconditions",
                   failed, violated)


def _cmd_verify_lemma1(cfg: argparse.Namespace) -> int:
    if not 0.0 <= cfg.tol < math.inf:
        raise DomainError(f"--tol must be finite and >= 0, got {cfg.tol}")
    if not 1 <= cfg.trials <= MAX_TRIALS:
        raise DomainError(f"--trials must be in 1..{MAX_TRIALS}, "
                          f"got {cfg.trials}")
    if cfg.seed < 0:
        raise DomainError(f"--seed must be >= 0, got {cfg.seed}")
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
    return _finish(cfg, payload, rows,
                   f"verify lemma1: worst discrepancy {worst:.3e} over "
                   f"{len(rows)} trials, {failed} failed", failed)


def _cmd_verify_lemma2(cfg: argparse.Namespace) -> int:
    psi = _make_psi(cfg)
    b = cfg.b if cfg.b is not None else bnd._resolve_thresholds(
        psi, None, None)[1]
    # every t's characteristics, so a t they fail at exits 3 with --force too
    low = [t for t in cfg.t if characteristics(psi, t).mu < b]
    if low and not cfg.force:
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
    return _finish(cfg, {"rows": rows}, rows,
                   f"verify lemma2: {len(rows) - failed}/{len(rows)} ordered",
                   failed)


def _cmd_verify_envelopes(cfg: argparse.Namespace) -> int:
    psi = _make_psi(cfg)
    ns = _ns_for(cfg)
    _threshold_gate(cfg, psi, ns)
    a, b = bnd._resolve_thresholds(psi, cfg.a, cfg.b)
    rows, failed, violated = [], 0, 0
    for n in ns:
        kp = kernel_profile(psi, n)
        env = envelope_check(kp, a, b)
        tail = tail_sum_bound_check(psi, n, a, b, evaluator=kp)
        row = {"n": n, "a": a, "b": b,
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
    return _finish(cfg, {"rows": rows}, rows,
                   f"verify envelopes: {len(rows) - failed - violated}/"
                   f"{len(rows)} ok, {failed} failed, {violated} outside "
                   "preconditions", failed, violated)


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
    failed, violated = _tally(reports)
    rows = [{k: getattr(rep, k) for k in _TABLE_COLS} for rep in reports]
    return _finish(cfg, {"rows": rows}, rows,
                   f"table: {len(rows)} rows, {failed} out of bracket, "
                   f"{violated} outside preconditions", failed, violated)


def _cmd_asymp(cfg: argparse.Namespace) -> int:
    psi = _make_psi(cfg)
    mode, value = _one_mode(cfg)
    if cfg.max_spread is not None and not 1.0 <= cfg.max_spread < math.inf:
        raise DomainError(
            f"--max-spread must be finite and >= 1, got {cfg.max_spread}")
    ns = _parse_range(cfg.n_range)
    _threshold_gate(cfg, psi, ns)
    scan = bnd.asymp_scan(cfg.alpha, cfg.r, mode, value, ns, beta=cfg.beta)
    payload = asdict(scan)
    failed = cfg.max_spread is not None and scan.spread > cfg.max_spread
    return _finish(cfg, payload, payload["rows"],
                   f"asymp: ratio in [{scan.ratio_min:.6g}, "
                   f"{scan.ratio_max:.6g}], spread {scan.spread:.4f}",
                   int(failed))


def main(argv=None) -> int:
    cfg = _build_parser().parse_args(argv)
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
