"""Generator functions and their halving characteristics.

A generator is a positive, nonincreasing, convex function psi on
[domain_start, inf) with psi(t) -> 0.  Everything downstream is driven by
two derived quantities:

    eta(t) = psi^{-1}(psi(t) / 2)     (where the value halves)
    mu(t)  = t / (eta(t) - t)         (halving distance relative to t)

`PsiFunction.halving_point` is the one source of eta: the closed form
(t^r + ln 2/alpha)^{1/r} for exp-power, else a solve on log(psi), which
never underflows (exp(-2 t^0.7) leaves float64 past t ~ 5000).  Tests
check it against a second closed form, `bounds.exp_power_characteristics`'
gap, and against 50-digit references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapabilityError, DomainError, InvalidPsiError, NumericError

LN2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PsiFunction:
    """A generator function with an optional derivative capability.

    Construct via :meth:`exp_power`, :meth:`custom` or :meth:`from_table`.
    """

    family: str
    alpha: Optional[float] = None
    r: Optional[float] = None
    domain_start: float = 1.0
    _eval: Optional[Callable] = field(default=None, repr=False)
    _log_eval: Optional[Callable] = field(default=None, repr=False)
    _deriv: Optional[Callable] = field(default=None, repr=False)

    @classmethod
    def exp_power(cls, alpha: float, r: float) -> "PsiFunction":
        """psi(t) = exp(-alpha * t^r), finite alpha > 0 and r > 0."""
        if not (0.0 < alpha < math.inf and 0.0 < r < math.inf):
            raise DomainError(f"exp-power needs finite alpha > 0 and r > 0, got {alpha!r}, {r!r}")
        return cls(family="exp-power", alpha=float(alpha), r=float(r))

    @classmethod
    def custom(cls, eval_fn: Callable) -> "PsiFunction":
        """Wrap a user callable, positive and strictly decreasing on
        [1, inf).  It carries no derivative: operations needing one raise
        CapabilityError."""
        return cls(family="custom", _eval=eval_fn)

    @classmethod
    def from_table(cls, ts: Sequence[float], values: Sequence[float]) -> "PsiFunction":
        """Custom generator from a monotone two-column sample table.

        Interpolation is log-linear in the value (linear in t against
        log psi), which keeps positivity and monotonicity; convexity of the
        interpolant is NOT guaranteed between samples of a convex function.
        Beyond the last sample the final segment's slope is extended.
        """
        t_arr = np.asarray(ts, dtype=float)
        v_arr = np.asarray(values, dtype=float)
        if t_arr.ndim != 1 or t_arr.shape != v_arr.shape or t_arr.size < 2:
            raise DomainError("table needs two equal-length 1-d columns with >= 2 rows")
        if not (np.all(np.isfinite(t_arr)) and np.all(np.isfinite(v_arr))):
            raise DomainError("table entries must be finite")
        if np.any(np.diff(t_arr) <= 0.0):
            raise DomainError("table abscissae must be strictly increasing")
        if np.any(v_arr <= 0.0):
            raise InvalidPsiError("table values must be positive")
        if np.any(np.diff(v_arr) >= 0.0):
            raise InvalidPsiError("table values must be strictly decreasing")
        log_v = np.log(v_arr)
        slopes = np.diff(log_v) / np.diff(t_arr)
        t0 = float(t_arr[0])

        def log_eval(t):
            t = np.asarray(t, dtype=float)
            if np.any(t < t0 - 1e-12):
                raise DomainError(f"t below table start {t0}")
            idx = np.clip(np.searchsorted(t_arr, t, side="right") - 1, 0, t_arr.size - 2)
            out = log_v[idx] + slopes[idx] * (t - t_arr[idx])
            return out if out.ndim else float(out)

        def eval_fn(t):
            out = np.exp(log_eval(t))
            return out if isinstance(out, np.ndarray) else float(out)

        def right_derivative(t):
            t_s = np.asarray(t, dtype=float)
            idx = np.clip(np.searchsorted(t_arr, t_s, side="right") - 1, 0, t_arr.size - 2)
            out = np.exp(log_eval(t_s)) * slopes[idx]
            return out if out.ndim else float(out)

        return cls(family="custom", domain_start=t0, _eval=eval_fn,
                   _log_eval=log_eval, _deriv=right_derivative)

    # -- evaluation ---------------------------------------------------------

    def _power(self, t, e: Optional[float] = None) -> float:
        """float(t) ** e, e = r unless given; DomainError if it overflows."""
        try:
            return float(t) ** (self.r if e is None else e)
        except OverflowError:
            raise DomainError(f"exp-power psi(t) = exp(-{self.alpha} t^{self.r}) "
                              f"overflows float64 at t = {t}") from None

    def __call__(self, t):
        if self.family == "exp-power":
            if isinstance(t, np.ndarray):
                return np.exp(-self.alpha * np.power(t, self.r))
            return math.exp(-self.alpha * self._power(t))
        return self._eval(t)

    def log_value(self, t):
        """log(psi(t)); exact for exp-power, never underflows."""
        if self.family == "exp-power":
            if isinstance(t, np.ndarray):
                return -self.alpha * np.power(t, self.r)
            return -self.alpha * self._power(t)
        if self._log_eval is not None:
            return self._log_eval(t)
        val = self._eval(t)
        if isinstance(val, np.ndarray):
            if np.any(val <= 0.0):
                raise InvalidPsiError("psi must stay positive")
            return np.log(val)
        if val <= 0.0:
            raise InvalidPsiError(f"psi({t}) = {val} is not positive")
        return math.log(val)

    def halving_point(self, t: float) -> float:
        """eta(t): closed form for exp-power, else solved on log psi."""
        if self.family != "exp-power":
            return _solve_eta(self, t)
        try:
            return (self._power(t) + LN2 / self.alpha) ** (1.0 / self.r)
        except OverflowError:
            raise NumericError(f"eta({t}) overflows float64") from None

    def derivative(self, t):
        """psi'(t) (right derivative for piecewise generators)."""
        if self.family == "exp-power":
            if isinstance(t, np.ndarray):
                return -self.alpha * self.r * np.power(t, self.r - 1.0) * self(t)
            return -self.alpha * self.r * self._power(t, self.r - 1.0) * self(t)
        if self._deriv is None:
            raise CapabilityError("this generator has no derivative callable")
        return self._deriv(t)


def eval_psi_prime(psi: PsiFunction, t):
    """psi'(t); CapabilityError when the generator carries no derivative."""
    t_min = np.min(t) if isinstance(t, np.ndarray) else t
    if t_min < psi.domain_start - 1e-12:
        raise DomainError(f"t = {t_min} below domain start {psi.domain_start}")
    return psi.derivative(t)


def finite_difference_psi_prime(psi: PsiFunction, t: float) -> float:
    """Central-difference fallback for derivative-free generators.

    The step balances truncation against cancellation (~eps^(1/3) relative);
    at the domain edge a forward difference is used instead.
    """
    t = float(t)
    h = 6e-6 * max(1.0, abs(t))
    if t - h >= psi.domain_start:
        return (float(psi(t + h)) - float(psi(t - h))) / (2.0 * h)
    return (float(psi(t + h)) - float(psi(t))) / h


# -- root finding on log(psi) ------------------------------------------------

def _solve_eta(psi: PsiFunction, t: float) -> float:
    """eta(t), where log psi falls by ln 2 from t: bracketed by doubling
    steps, then narrowed by false position with the Illinois step (Dowell
    & Jarratt, BIT 11, 1971) to an exact hit or a bracket 4 eps max(1,
    |eta|) wide, float64's resolution.  A ln 2 lost to rounding returns t."""
    log_eval, a, step = psi.log_value, float(t), 0.5
    f_a = float(log_eval(a))
    target = f_a - LN2
    g_a = f_a - target
    if g_a <= 0.0:
        return a
    for _ in range(200):
        b = a + step
        g_b = float(log_eval(b)) - target
        if g_b <= 0.0 or step > 1e13 * max(1.0, abs(t)):
            break
        a, g_a, step = b, g_b, 2.0 * step
    if g_b > 0.0:
        raise NumericError("bracket growth exhausted; psi decays too slowly")
    kept = 0   # g_a > 0 >= g_b; an end kept twice in a row has its g halved
    for _ in range(200):
        if g_b == 0.0:
            return b
        if b - a <= 4.0 * _EPS * max(1.0, abs(b)):
            return 0.5 * (a + b)
        x = b - g_b * (b - a) / (g_b - g_a)
        if not a < x < b:
            x = 0.5 * (a + b)
        g_x = float(log_eval(x)) - target
        if g_x > 0.0:
            a, g_a, g_b, kept = x, g_x, (0.5 if kept == 1 else 1.0) * g_b, 1
        else:
            b, g_b, g_a, kept = x, g_x, (0.5 if kept == -1 else 1.0) * g_a, -1
    raise NumericError("false position failed to converge after 200 iterations")


def guarded_eta_floor(eta: float) -> int:
    """floor(eta), taken AT an integer within max(1e-12, 64 eps |eta|) of
    eta: families like exp(-t ln 2) have eta(n) = n + 1 exactly, and
    truncating a solved n + 1 - 1e-15 down to n would fabricate a
    degenerate taper."""
    nearest = round(eta)
    if abs(eta - nearest) <= max(1e-12, 64.0 * _EPS * max(1.0, abs(eta))):
        return int(nearest)
    return int(math.floor(eta))


@dataclass(frozen=True)
class CharacteristicProfile:
    """Halving characteristics of a generator at one abscissa."""

    t: float
    eta: float
    eta_gap: float          # eta(t) - t
    mu: float               # t / (eta(t) - t)
    floor_gap: Optional[int]  # floor(eta(t)) - t, only for integer t

    @property
    def eta_floor(self) -> Optional[int]:
        if self.floor_gap is None:
            return None
        return self.floor_gap + int(round(self.t))


def characteristics(psi: PsiFunction, t: float) -> CharacteristicProfile:
    """eta, eta - t, mu and floor(eta) - t at abscissa t, eta solved once to
    float64's resolution.

    floor_gap is populated only for integer t (the taper construction is the
    sole consumer and only ever asks at integers).
    """
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    if t < psi.domain_start - 1e-12:
        raise DomainError(f"t = {t} below domain start {psi.domain_start}")
    eta = psi.halving_point(t)
    gap = eta - t
    if gap <= 0.0:   # log psi(t) - ln 2 rounded back to log psi(t)
        raise NumericError(f"eta({t}) - {t} is below float64's resolution at t")
    mu = t / gap
    floor_gap = None
    if float(t).is_integer():
        floor_gap = guarded_eta_floor(eta) - int(t)
    return CharacteristicProfile(t=t, eta=eta, eta_gap=gap, mu=mu,
                                 floor_gap=floor_gap)


def eta_derivative(psi: PsiFunction, t: float) -> float:
    """Forward-difference eta'(t), step 1e-5, each eta to resolution."""
    h, t = 1e-5, float(t)
    return (psi.halving_point(t + h) - psi.halving_point(t)) / h


@dataclass(frozen=True)
class Lemma2Margins:
    """Two-sided envelope of psi/|psi'| in units of the halving gap."""

    t: float
    b: float
    lower: float
    value: float
    upper: float
    used_finite_difference: bool

    @property
    def ordered(self) -> bool:
        slack = 1e-9 * (abs(self.value) + abs(self.upper))
        return self.lower <= self.value + slack and self.value <= self.upper + slack


def lemma2_margins(psi: PsiFunction, t: float, b: float) -> Lemma2Margins:
    """lower = (1/2)(b/(b+1))^2 (eta-t) <= psi/|psi'| <= 4(1+1/b)(eta-t).

    Valid whenever mu >= b > 0 on the range swept by the halving; the caller
    is responsible for that precondition.  Ordering failure beyond float
    slack raises NumericError since under the precondition it signals broken
    numerics, not mathematics.  No t has mu(t) >= inf, so b must be finite.
    """
    if not 0.0 < b < math.inf:
        raise DomainError(f"lemma 2 needs a finite b > 0, got {b}")
    prof = characteristics(psi, t)
    used_fd = False
    try:
        deriv = float(eval_psi_prime(psi, t))
    except CapabilityError:
        deriv = finite_difference_psi_prime(psi, t)
        used_fd = True
    if deriv >= 0.0:
        raise InvalidPsiError(f"psi'({t}) = {deriv} is not negative")
    value = float(psi(t)) / abs(deriv)
    result = Lemma2Margins(t=float(t), b=float(b),
                           lower=0.5 * (b / (b + 1.0)) ** 2 * prof.eta_gap,
                           value=value,
                           upper=4.0 * (1.0 + 1.0 / b) * prof.eta_gap,
                           used_finite_difference=used_fd)
    if not result.ordered:
        raise NumericError(
            f"psi/|psi'| = {value} escaped [{result.lower}, {result.upper}] at t = {t}; "
            "check that mu(t) >= b actually holds")
    return result
