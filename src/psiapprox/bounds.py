"""Two-sided norm bounds and the certificates that check them numerically.

A report compares three quantities: the elementary expression
X = psi(n) * (eta(n) - n)^(1/p), the computed proxy (1/pi)||K*||, and the
constant multiples C_a * X and C*_{a,b} * X that bracket the proxy whenever
the gap and ratio preconditions hold.  The lower bracket is a necessary
consequence of the bound chain, not a claim of sharpness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .approx_ops import QuadratureSpec, kernel_norm
from .errors import DomainError
from .kernels import KernelEvaluator
from .psi_core import LN2, PsiFunction, characteristics

_PI2 = math.pi * math.pi


def conjugate_exponent(p: float) -> float:
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    if p < 1.0:
        raise DomainError("exponent must be >= 1")
    return p / (p - 1.0)


# -- constants ---------------------------------------------------------------

def const_Ca(a: float) -> float:
    """Lower-bracket constant; defined for a > 2 only."""
    if a <= 2.0:
        raise DomainError("lower constant needs a > 2")
    return (math.pi / (96.0 * (1.0 + _PI2) ** 2)
            * (a - 1.0) ** 2 * (a - 2.0) ** 2 / (a ** 3 * (3.0 * a - 4.0)))


def const_Cab_star(a: float, b: float) -> float:
    """Upper-bracket constant for the p-family; needs a > 1, b > 2."""
    if a <= 1.0 or b <= 2.0:
        raise DomainError("upper constant needs a > 1 and b > 2")
    return 2.0 * (1.0 + _PI2) / math.pi * (2.0 * b / (b - 2.0) + a / (a - 1.0))


def const_Cab(a: float, b: float) -> float:
    """Sup-norm bracket constant; needs a > 0, b > 2."""
    if a <= 0.0 or b <= 2.0:
        raise DomainError("sup constant needs a > 0 and b > 2")
    return max(2.0 * b / (b - 2.0) + 1.0 / a, 2.0 * math.pi) / math.pi


def const_Cab_p(a: float, b: float, p: float) -> float:
    """min{(2p)^(1-1/p) C_{a,b}, C*_{a,b}}, finite p >= 1."""
    if math.isinf(p):
        raise DomainError("finite p only; the sup case is const_Cab")
    if p < 1.0:
        raise DomainError("p must be >= 1")
    return min((2.0 * p) ** (1.0 - 1.0 / p) * const_Cab(a, b),
               const_Cab_star(a, b))


def cab_p_crossover(a: float, b: float) -> int:
    """Smallest integer p at which the C*_{a,b} branch takes over."""
    ratio = const_Cab_star(a, b) / const_Cab(a, b)
    p = 1
    while (2.0 * p) ** (1.0 - 1.0 / p) < ratio:
        p += 1
        if p > 10 ** 7:
            raise DomainError("no crossover below 10^7")
    return p


# -- exponential-power thresholds --------------------------------------------

def exp_power_thresholds(alpha: float, r: float) -> tuple[float, float, int]:
    """(a, b, n_min) for psi(t) = exp(-alpha t^r), 0 < r < 1.

    For n >= n_min the gap eta(n) - n stays >= a and the ratio mu(n)
    stays >= b, with a and b both strictly above 2 so that every bracket
    constant is finite.
    """
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    if not 0.0 < r < 1.0:
        raise DomainError("thresholds need 0 < r < 1")
    n_a = 1.0 + (2.0 * r * alpha / LN2) ** (1.0 / (1.0 - r))
    a = LN2 / (alpha * r) * n_a ** (1.0 - r)
    n_b = 1.0 + 2.0 * (LN2 / (alpha * (3.0 ** r - 2.0 ** r))) ** (1.0 / r)
    # b is the ratio closed form mu(t) = 1/((1 + ln2/(alpha t^r))^{1/r} - 1)
    # evaluated at t = n_b, where mu is already increasing
    b = 1.0 / ((LN2 / alpha * n_b ** (-r) + 1.0) ** (1.0 / r) - 1.0)
    n_min = int(math.ceil(max(n_a, n_b)))
    return a, b, n_min


@dataclass(frozen=True)
class ExpPowerCharacteristics:
    alpha: float
    r: float
    n: int
    eta_gap: float
    mu: float
    a_thresh: float
    b_thresh: float
    n_min: int
    gap_lower: float   # closed-form envelope on eta(n) - n
    gap_upper: float

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha, "r": self.r, "n": self.n,
            "eta_gap": self.eta_gap, "mu": self.mu,
            "a_thresh": self.a_thresh, "b_thresh": self.b_thresh,
            "n_min": self.n_min,
            "gap_lower": self.gap_lower, "gap_upper": self.gap_upper,
        }


def exp_power_characteristics(alpha: float, r: float,
                              n: int) -> ExpPowerCharacteristics:
    """Closed-form gap, ratio, thresholds and the two-sided gap envelope
    (ln 2)/(alpha r) n^(1-r) <= gap <= (1 + ln2/alpha)^((1-r)/r) times that.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    a, b, n_min = exp_power_thresholds(alpha, r)
    u = LN2 / (alpha * float(n) ** r)
    gap = float(n) * ((1.0 + u) ** (1.0 / r) - 1.0)
    lower = LN2 / (alpha * r) * float(n) ** (1.0 - r)
    upper = (1.0 + LN2 / alpha) ** ((1.0 - r) / r) * lower
    return ExpPowerCharacteristics(
        alpha=alpha, r=r, n=int(n), eta_gap=gap, mu=float(n) / gap,
        a_thresh=a, b_thresh=b, n_min=n_min,
        gap_lower=lower, gap_upper=upper)


# -- certification -----------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """One certified comparison at a single (n, beta, exponent)."""

    family: str
    alpha: Optional[float]
    r: Optional[float]
    beta: float
    n: int
    mode: str          # "theorem1" (conjugate-norm proxy) or "theorem2"
    p_or_s: float
    a: float
    b: float
    X: float
    lower: Optional[float]
    proxy: Optional[float]
    upper: Optional[float]
    pass_lower: Optional[bool]
    pass_upper: Optional[bool]
    tol: Optional[float]
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return (self.status == "ok"
                and bool(self.pass_lower) and bool(self.pass_upper))

    def to_dict(self) -> dict:
        d = {
            "family": self.family, "alpha": self.alpha, "r": self.r,
            "beta": self.beta, "n": self.n, "mode": self.mode,
            "p_or_s": "inf" if math.isinf(self.p_or_s) else self.p_or_s,
            "a": self.a, "b": self.b, "X": self.X,
            "lower": self.lower, "proxy": self.proxy, "upper": self.upper,
            "pass_lower": self.pass_lower, "pass_upper": self.pass_upper,
            "tol": self.tol, "status": self.status,
        }
        return d


def _resolve_thresholds(psi: PsiFunction, a: Optional[float],
                        b: Optional[float]) -> tuple[float, float]:
    if a is None or b is None:
        if psi.family != "exp-power":
            raise DomainError(
                "a and b must be given explicitly for a non-closed-form psi")
        a0, b0, _ = exp_power_thresholds(psi.alpha, psi.r)
        a = a0 if a is None else a
        b = b0 if b is None else b
    return float(a), float(b)


def _mode_exponents(mode: str, value: float) -> tuple[float, float]:
    """(X exponent, norm order) of a bracket mode.

    theorem1 pairs X = psi(n) gap^{1/p} with ||K*||_{p'}; theorem2 pairs
    X = psi(n) gap^{1/s'} with ||K*||_s.
    """
    if mode == "theorem1":
        x_den, norm_order = value, conjugate_exponent(value)
    elif mode == "theorem2":
        x_den, norm_order = conjugate_exponent(value), value
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return (0.0 if math.isinf(x_den) else 1.0 / x_den), norm_order


def _verify(psi: PsiFunction, beta: float, value: float, n: int, mode: str,
            quad: Optional[QuadratureSpec], a: Optional[float],
            b: Optional[float], tail_eps: Optional[float],
            evaluator: Optional[KernelEvaluator]) -> BoundReport:
    # below the preconditions no evaluator is built to check beta
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    a, b = _resolve_thresholds(psi, a, b)
    x_exp, norm_order = _mode_exponents(mode, value)
    if evaluator is not None:
        gap, mu = evaluator.eta_gap, evaluator.mu
    else:
        prof = characteristics(psi, float(n))
        gap, mu = prof.eta_gap, prof.mu
    X = float(psi(float(n))) * gap ** x_exp
    meta = dict(family=psi.family, alpha=psi.alpha, r=psi.r, beta=beta,
                n=int(n), mode=mode, p_or_s=float(value), a=a, b=b, X=X)
    if not (a > 2.0 and b > 2.0 and gap >= a and mu >= b):
        return BoundReport(**meta, lower=None, proxy=None, upper=None,
                           pass_lower=None, pass_upper=None, tol=None,
                           status="precondition_violated")
    nv = kernel_norm(psi, beta, n, norm_order, quad=quad,
                     tail_eps=tail_eps, evaluator=evaluator)
    proxy = nv.value / math.pi
    tol = 1e-6 * X + nv.error_estimate / math.pi
    lower = const_Ca(a) * X
    upper = const_Cab_star(a, b) * X
    return BoundReport(**meta, lower=lower, proxy=proxy, upper=upper,
                       pass_lower=bool(lower <= proxy + tol),
                       pass_upper=bool(proxy <= upper + tol),
                       tol=tol, status="ok")


def verify_theorem1(psi: PsiFunction, beta: float, p: float, n: int,
                    quad: Optional[QuadratureSpec] = None,
                    a: Optional[float] = None, b: Optional[float] = None,
                    tail_eps: Optional[float] = None,
                    evaluator: Optional[KernelEvaluator] = None) -> BoundReport:
    """Certify C_a X <= (1/pi)||K*||_{p'} <= C*_{a,b} X, X = psi(n) gap^{1/p}."""
    if p < 1.0 and not math.isinf(p):
        raise DomainError("p must be in [1, inf]")
    return _verify(psi, beta, p, n, "theorem1", quad, a, b, tail_eps, evaluator)


def verify_theorem2(psi: PsiFunction, beta: float, s: float, n: int,
                    quad: Optional[QuadratureSpec] = None,
                    a: Optional[float] = None, b: Optional[float] = None,
                    tail_eps: Optional[float] = None,
                    evaluator: Optional[KernelEvaluator] = None) -> BoundReport:
    """Same brackets against (1/pi)||K*||_s with X = psi(n) gap^{1/s'}."""
    if s < 1.0 and not math.isinf(s):
        raise DomainError("s must be in [1, inf]")
    return _verify(psi, beta, s, n, "theorem2", quad, a, b, tail_eps, evaluator)


def verify_sweep(psi: PsiFunction, betas: Sequence[float],
                 modes: Sequence[tuple[str, float]], ns: Sequence[int],
                 quad: Optional[QuadratureSpec] = None,
                 a: Optional[float] = None, b: Optional[float] = None,
                 tail_eps: Optional[float] = None) -> list[BoundReport]:
    """Batch runner that builds one kernel evaluator per (n, beta) and
    reuses its cached samples and norms across every requested exponent."""
    a_r, b_r = _resolve_thresholds(psi, a, b)
    out = []
    for n in ns:
        prof = characteristics(psi, float(n))
        viable = prof.eta_gap >= a_r and prof.mu >= b_r and a_r > 2.0 and b_r > 2.0
        for beta in betas:
            ke = KernelEvaluator.build(psi, n, beta, tail_eps) if viable else None
            for mode, value in modes:
                fn = verify_theorem1 if mode == "theorem1" else verify_theorem2
                out.append(fn(psi, beta, value, n, quad=quad, a=a_r, b=b_r,
                              tail_eps=tail_eps, evaluator=ke))
    return out


# -- asymptotic ratio scan ---------------------------------------------------

@dataclass(frozen=True)
class AsympRow:
    n: int
    proxy: float
    ratio_elementary: float   # proxy / (exp(-alpha n^r) n^((1-r)/p))
    ratio_X: float            # proxy / X, bracketed by C_a and C*_{a,b}

    def to_dict(self) -> dict:
        return {"n": self.n, "proxy": self.proxy,
                "ratio_elementary": self.ratio_elementary,
                "ratio_X": self.ratio_X}


@dataclass(frozen=True)
class AsympScan:
    alpha: float
    r: float
    beta: float
    mode: str
    p_or_s: float
    rows: tuple
    ratio_min: float
    ratio_max: float
    spread: float

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "r": self.r, "beta": self.beta,
                "mode": self.mode,
                "p_or_s": "inf" if math.isinf(self.p_or_s) else self.p_or_s,
                "rows": [row.to_dict() for row in self.rows],
                "ratio_min": self.ratio_min, "ratio_max": self.ratio_max,
                "spread": self.spread}


def asymp_scan(alpha: float, r: float, mode: str, value: float,
               ns: Sequence[int], beta: float = 0.0,
               quad: Optional[QuadratureSpec] = None,
               tail_eps: Optional[float] = None,
               force: bool = False) -> AsympScan:
    """Track proxy / (exp(-alpha n^r) n^((1-r)/p)) along increasing n.

    Bounded spread of this ratio is the observable face of the two-sided
    bracket: the elementary factor matches X up to constants.  Entries
    below n_min are refused unless force is set.
    """
    psi = PsiFunction.exp_power(alpha, r)
    _, _, n_min = exp_power_thresholds(alpha, r)
    ns = sorted(int(n) for n in ns)
    if not ns:
        raise DomainError("empty n list")
    if ns[0] < n_min and not force:
        raise DomainError(
            f"n = {ns[0]} is below the validity threshold n_min = {n_min}")
    x_exp, norm_order = _mode_exponents(mode, value)
    rows = []
    for n in ns:
        ke = KernelEvaluator.build(psi, n, beta, tail_eps)
        nv = kernel_norm(psi, beta, n, norm_order, quad=quad, evaluator=ke)
        proxy = nv.value / math.pi
        elem = math.exp(-alpha * float(n) ** r) * float(n) ** ((1.0 - r) * x_exp)
        X = float(psi(float(n))) * ke.eta_gap ** x_exp
        rows.append(AsympRow(n=n, proxy=proxy,
                             ratio_elementary=proxy / elem, ratio_X=proxy / X))
    ratios = [row.ratio_elementary for row in rows]
    rmin, rmax = min(ratios), max(ratios)
    return AsympScan(alpha=alpha, r=r, beta=beta, mode=mode,
                     p_or_s=float(value), rows=tuple(rows),
                     ratio_min=rmin, ratio_max=rmax, spread=rmax / rmin)

