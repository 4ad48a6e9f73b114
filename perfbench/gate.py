"""Correctness gate: compare check records with the stored reference.

The reference (reference/<workload>.jsonl) was made from the unchanged
library by make_reference.py.  Each line holds one group, for example one
(alpha, r, beta) of a sweep, so a run loads only the groups its seed uses.

For every check the gate records
  failed     the step raised, a status is not "ok", or a bracket / flag failed;
  mismatch   a verdict differs from the reference (or the reference has no row);
  drift      |proxy - ref proxy| / ref tol, for checks that carry a proxy.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional

import workloads as wl

REF_DIR = Path(__file__).resolve().parent / "reference"


# -- compact row codecs (shared with make_reference.py) ------------------------

def pack_verdict(status, pass_lower, pass_upper) -> str:
    def flag(v):
        return "-" if v is None else ("1" if v else "0")
    return f"{status}:{flag(pass_lower)}{flag(pass_upper)}"


def unpack_verdict(code: str) -> tuple:
    status, flags = code.split(":")
    dec = {"-": None, "1": True, "0": False}
    return status, dec[flags[0]], dec[flags[1]]


def short_tol(tol: Optional[float]) -> Optional[float]:
    """The tolerance is only a drift scale; six digits are plenty."""
    return None if tol is None else float(f"{tol:.6g}")


def expand_group(workload: str, line: dict) -> dict:
    """One stored group -> {check key: reference fields}."""
    out = {}
    if workload in ("sweep-deep", "sweep-shallow"):
        alpha, r, beta = line["group"].split("|")
        for n, cells in line["rows"].items():
            for (mode, value), (code, proxy, tol) in zip(wl.MODES, cells):
                status, pl, pu = unpack_verdict(code)
                key = f"{alpha}|{r}|{beta}|{n}|{mode}|{wl.fmt_value(value)}"
                out[key] = {"status": status, "pass_lower": pl,
                            "pass_upper": pu, "proxy": proxy, "tol": tol}
    elif workload == "envelope-scan":
        alpha, r, beta = line["group"].split("|")
        for n, (env_status, tail_status, flags) in line["rows"].items():
            fields = {"env_status": env_status, "tail_status": tail_status}
            fields.update({k: c == "1" for k, c in zip(wl.ENVELOPE_FLAGS, flags)})
            out[f"{alpha}|{r}|{beta}|{n}"] = fields
    else:
        out.update(line["rows"])
    return out


def load_reference(workload: str, groups: Iterable[str]) -> dict:
    """Reference rows of the named groups (workloads.reference_groups).

    Lines of other groups are skipped before parsing, so the reference
    adds little to the run's peak memory.
    """
    wanted = set(groups)
    ref = {}
    with open(REF_DIR / f"{workload}.jsonl") as fh:
        for text in fh:
            if not any(f'"group": "{g}"' in text[:120] for g in wanted):
                continue
            line = json.loads(text)
            if line["group"] in wanted:
                ref.update(expand_group(workload, line))
    return ref


# -- comparison ---------------------------------------------------------------

class Gate:
    """Accumulates failures, mismatches and drift over a run."""

    def __init__(self, workload: str, reference: dict):
        self.workload = workload
        self.ref = reference
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.drift: Optional[float] = None
        self.first_problems: list = []

    def _note(self, what: str, key: str):
        if len(self.first_problems) < 5:
            self.first_problems.append(f"{what}: {key}")

    def _drift(self, proxy, ref_proxy, ref_tol):
        if proxy is None or ref_proxy is None or not ref_tol:
            return
        d = abs(proxy - ref_proxy) / ref_tol
        self.drift = d if self.drift is None else max(self.drift, d)

    def raised(self, checks: int, key: str, exc: BaseException):
        self.attempted += checks
        self.failed += checks
        self._note(f"raised {type(exc).__name__}: {exc}", key)

    def check(self, key: str, fields: dict):
        self.attempted += 1
        kind = self.workload
        ok = (wl.bracket_ok(fields) if kind.startswith("sweep")
              else wl.envelope_ok(fields) if kind == "envelope-scan"
              else wl.cli_ok(fields))
        if not ok:
            self.failed += 1
            self._note("failed", key)
        ref = self.ref.get(key)
        if ref is None:
            self.mismatches += 1
            self._note("no reference row", key)
            return
        if kind.startswith("sweep"):
            same = all(fields[k] == ref[k]
                       for k in ("status", "pass_lower", "pass_upper"))
            self._drift(fields["proxy"], ref["proxy"], ref["tol"])
        elif kind == "envelope-scan":
            same = all(fields[k] == ref[k] for k in ref)
        else:
            same = self._cli_same(fields, ref)
        if not same:
            self.mismatches += 1
            self._note("verdict differs", key)

    def _cli_same(self, fields: dict, ref: dict) -> bool:
        if fields["exit"] != ref["exit"] or fields["rows"] is None:
            return False
        if len(fields["rows"]) != len(ref["rows"]):
            return False
        same = True
        for row, rrow in zip(fields["rows"], ref["rows"]):
            for k, v in rrow.items():
                if k in ("proxy", "tol"):
                    continue
                if row.get(k) != v:
                    same = False
            self._drift(row.get("proxy"), rrow.get("proxy"), rrow.get("tol"))
        return same

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        drift_ok = self.drift is None or self.drift <= 1.0   # NaN fails too
        return (self.attempted > 0 and self.failed == 0
                and self.mismatches == 0 and drift_ok)
