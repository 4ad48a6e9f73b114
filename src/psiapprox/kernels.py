"""Residual kernels of the tapered partial-sum method.

The central object is the kernel

    K*(t) = sum_{k=A}^{n-1} c_k cos(kt - beta*pi/2) + sum_{k>=n} psi(k) cos(kt - beta*pi/2)

whose taper weights c_k = psi(n) (F - 2n + k) / (F - n) rise linearly from 0
across k = 2n - F, ..., n - 1, with F = floor(eta(n)).  The infinite tail is
truncated at a certified index K.  Three evaluation routes are kept alive on
purpose (coefficient sum, partial Abel, full Abel over Dirichlet-type
kernels); their mutual agreement is a standing regression check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (DegenerateGapError, DomainError, InvalidPsiError,
                     NumericError)
from .psi_core import (LN2, CharacteristicProfile, PsiFunction,
                       _solve_log_decreasing, characteristics)
from .series import FourierSeries

TWO_PI = 2.0 * math.pi
DEFAULT_T_SWITCH = 1e-3
# relative scale for the default truncation budget
TAIL_EPS_SCALE = 1e-15


def _wrap(t):
    """Reduce to the principal period (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(t, dtype=float), TWO_PI)


def dirichlet(k: int, beta: float, t, t_switch: float = DEFAULT_T_SWITCH):
    """Dirichlet-type kernel cos(theta)/2 + sum_{v=1}^{k} cos(v t - theta),
    theta = beta*pi/2.

    Away from the period points the closed form
    [sin((k+1/2)t - theta) + cos(t/2) sin(theta)] / (2 sin(t/2)) is used; within
    t_switch of a period point the defining sum is evaluated directly, since
    the closed form loses ~eps/|t| absolute accuracy to cancellation.
    t_switch = 1e-3 keeps the closed-form branch at the 1e-12 agreement level.
    """
    if k < 0:
        raise DomainError("dirichlet needs k >= 0")
    theta = 0.5 * math.pi * beta
    tw = _wrap(t)
    scalar = np.ndim(t) == 0
    tw = np.atleast_1d(tw)
    out = np.empty_like(tw)
    small = np.abs(tw) < t_switch
    if np.any(~small):
        ts = tw[~small]
        out[~small] = ((np.sin((k + 0.5) * ts - theta)
                        + np.cos(0.5 * ts) * math.sin(theta))
                       / (2.0 * np.sin(0.5 * ts)))
    if np.any(small):
        ts = tw[small]
        acc = np.full(ts.shape, 0.5 * math.cos(theta))
        for v in range(1, k + 1):
            acc += np.cos(v * ts - theta)
        out[small] = acc
    return float(out[0]) if scalar else out


def _dirichlet_many(ks: np.ndarray, beta: float, t: float,
                    t_switch: float = DEFAULT_T_SWITCH) -> np.ndarray:
    """D_{k,beta}(t) for an array of orders k at a single point t."""
    theta = 0.5 * math.pi * beta
    tw = float(_wrap(t))
    if abs(tw) >= t_switch:
        return ((np.sin((ks + 0.5) * tw - theta)
                 + math.cos(0.5 * tw) * math.sin(theta))
                / (2.0 * math.sin(0.5 * tw)))
    k_max = int(np.max(ks)) if ks.size else 0
    terms = np.cos(np.arange(1, k_max + 1) * tw - theta)
    partial = np.concatenate(([0.0], np.cumsum(terms))) + 0.5 * math.cos(theta)
    return partial[ks]


def truncation_index(psi: PsiFunction, n: int, tail_eps: float) -> int:
    """Smallest probed K >= n whose geometric tail estimate meets the budget.

    The estimate at K is psi(K+1) / (1 - rho) with rho = psi(K+2)/psi(K+1).
    It models the tail as geometric from K+1 onward; for generators whose
    decay ratio creeps toward 1 (exp-power with r < 1) this can undershoot
    the true tail by a bounded factor, so consumers needing a guarantee
    re-certify via `certified_tail_sum` and enlarge K if needed.
    All comparisons run in log space so deep tails cannot underflow.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 0.0 < tail_eps < math.inf:
        raise DomainError("tail_eps must be finite and positive")
    log_budget = math.log(tail_eps)

    def ok(K: int) -> bool:
        l1 = float(psi.log_value(float(K + 1)))
        l2 = float(psi.log_value(float(K + 2)))
        if l2 >= l1:
            raise InvalidPsiError(f"psi is not decreasing near k = {K + 1}")
        rho = math.exp(l2 - l1)
        return l1 - math.log1p(-rho) <= log_budget + 1e-12

    if ok(n):
        return n
    lo, hi = n, 2 * n
    for _ in range(200):
        if ok(hi):
            break
        lo, hi = hi, 2 * hi
    else:
        raise NumericError("truncation search exhausted; psi decays too slowly")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    for _ in range(64):  # nudge down past any flat spot of the estimate
        if hi > n and ok(hi - 1):
            hi -= 1
        else:
            break
    return hi


def certified_tail_sum(psi: PsiFunction, K: int, max_blocks: int = 400,
                       eta_tol: float = 1e-6) -> float:
    """Upper bound on sum_{k > K} psi(k) via halving blocks.

    Block j starts at s_j (s_0 = K+1, s_{j+1} solves psi = psi(s_j)/2), holds
    at most gap_j + 1 integers, each with psi <= psi(s_j) = psi(K+1) 2^{-j}.
    The un-summed remainder is dominated by a geometric series once the
    observed gap growth ratio stays below 1.9; generators whose halving gaps
    keep accelerating (slower than exponential-of-power decay) fail with
    NumericError rather than return an uncertified number.
    """
    s = float(K + 1)
    log0 = float(psi.log_value(s))
    total = 0.0
    gaps = []
    for j in range(max_blocks):
        target = float(psi.log_value(s)) - LN2
        s_next = _solve_log_decreasing(psi.log_value, target, s, eta_tol)
        gap = s_next - s
        gaps.append(gap)
        log_block = log0 - j * LN2
        term = (gap + 1.0) * (math.exp(log_block) if log_block > -700.0 else 0.0)
        total += term
        if j >= 6:
            ratios = [gaps[i + 1] / gaps[i] for i in range(len(gaps) - 6, len(gaps) - 1)]
            rho = max(max(ratios), 1.0)
            if rho < 1.9:
                q = 0.5 * rho
                rem = term * q / (1.0 - q)
                if rem <= 1e-6 * total or term == 0.0:
                    # eta_tol slop inflates each halving by at most e^{eta_tol}
                    safety = 1.0 + 1e-4 + max_blocks * eta_tol
                    return (total + rem) * safety
        s = s_next
    raise NumericError("tail certification failed: halving gaps kept growing")


def _certified_truncation(psi: PsiFunction, n: int,
                          tail_eps: float) -> tuple[int, float]:
    """Probe index, then enlarge until the certified tail bound fits.

    Returns K together with its certified bound on sum_{k>K} psi(k).
    """
    K = truncation_index(psi, n, tail_eps)
    for _ in range(60):
        bound = certified_tail_sum(psi, K)
        if bound <= tail_eps:
            return K, bound
        K = int(K * 1.25) + 1
    raise NumericError("could not certify the truncation budget")


def _taper_window(psi: PsiFunction, n: int,
                  prof: CharacteristicProfile) -> tuple[int, int, np.ndarray]:
    """F = floor(eta(n)), the first taper harmonic, and the taper weights
    psi(n) (F - 2n + k) / (F - n) for k from that harmonic to n - 1.

    The weight at k = 2n - F is exactly 0, so the window starts one past
    it (and never below harmonic 1).  F = n leaves no window to build and
    raises DegenerateGapError.
    """
    eta_floor = n + prof.floor_gap
    g = eta_floor - n
    if g == 0:
        raise DegenerateGapError(
            f"floor(eta({n})) = {n}: taper denominator vanishes; "
            "use a larger n or a slower-decaying generator")
    start = max(1, 2 * n - eta_floor + 1)
    ks = np.arange(start, n)
    return eta_floor, start, float(psi(float(n))) * (eta_floor - 2 * n + ks) / g


@dataclass(frozen=True, eq=False)
class KernelEvaluator:
    """Immutable evaluator for one (psi, n, beta) residual kernel.

    Construction fixes the taper window, certifies the truncation index K
    (so the dropped tail sums below tail_eps in absolute value) and packs
    the coefficients into a FourierSeries for grid work.  `_norm_cache`
    holds the norms `approx_ops.kernel_norm` has computed for it.
    """

    psi: PsiFunction
    n: int
    beta: float
    tail_eps: float
    truncation_index: int
    eta: float
    eta_gap: float
    mu: float
    eta_floor: int
    gap_int: int            # F - n, integer taper denominator
    taper_start: int        # first harmonic actually present
    series: FourierSeries
    certified_tail: float
    _norm_cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, psi: PsiFunction, n: int, beta: float,
              tail_eps: Optional[float] = None,
              tol_inv: float = 1e-12) -> "KernelEvaluator":
        if n < 1 or int(n) != n:
            raise DomainError("n must be a positive integer")
        if not math.isfinite(beta):
            raise DomainError(f"beta must be finite, got {beta}")
        n = int(n)
        prof = characteristics(psi, float(n), tol_inv)
        eta_floor, start, c_taper = _taper_window(psi, n, prof)
        if tail_eps is None:
            tail_eps = TAIL_EPS_SCALE * float(psi(float(n))) * prof.eta_gap
        if not 0.0 < tail_eps < math.inf:
            raise DomainError("tail_eps must be finite and positive")
        K, bound = _certified_truncation(psi, n, tail_eps)
        ks_tail = np.arange(n, K + 1)
        c_tail = np.asarray(psi(ks_tail.astype(float)), dtype=float)
        k0 = start if c_taper.size else n
        series = FourierSeries.from_cosine_profile(
            k0, np.concatenate([c_taper, c_tail]), 0.5 * math.pi * beta)
        return cls(psi=psi, n=n, beta=float(beta), tail_eps=float(tail_eps),
                   truncation_index=K, eta=prof.eta, eta_gap=prof.eta_gap,
                   mu=prof.mu, eta_floor=eta_floor, gap_int=eta_floor - n,
                   taper_start=int(k0), series=series, certified_tail=float(bound))

    # -- coefficient access --------------------------------------------------

    @property
    def theta(self) -> float:
        return 0.5 * math.pi * self.beta

    def coefficient(self, k: int) -> float:
        """Cosine-profile weight of harmonic k (0 outside [taper_start, K])."""
        if k < self.taper_start or k > self.truncation_index:
            return 0.0
        a_k = self.series.a[k - 1]
        b_k = self.series.b[k - 1]
        c = math.cos(self.theta)
        s = math.sin(self.theta)
        return a_k * c + b_k * s  # rotate back: (a,b) = c_k (cos, sin)(theta)

    # -- evaluation -----------------------------------------------------------

    def eval(self, t, representation: str = "direct"):
        """Kernel value(s) at t.

        representation:
          "direct"  coefficient-by-coefficient cosine sum;
          "x"       taper resummed through Dirichlet kernels, tail direct;
          "for1"    full Abel transform over Dirichlet kernels.
        All three agree to within rounding plus the shared truncation budget.
        """
        if representation == "direct":
            return self.series.eval(t)
        if representation not in ("x", "for1"):
            raise DomainError(f"unknown representation {representation!r}")
        scalar = np.ndim(t) == 0
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.array([self._eval_abel(float(tt), representation) for tt in ts])
        return float(out[0]) if scalar else out

    def _taper_abel(self, t: float) -> float:
        """Abel resummation of the taper block; 0 when the block is empty."""
        n, g = self.n, self.gap_int
        start = self.taper_start
        if start >= n:
            return 0.0
        psi_n = float(self.psi(float(n)))
        c_start = psi_n * (self.eta_floor - 2 * n + start) / g
        w_last = psi_n * (g - 1) / g
        ks_mid = np.arange(start, n - 1)
        d_mid = _dirichlet_many(ks_mid, self.beta, t)
        d_last = dirichlet(n - 1, self.beta, t)
        d_before = dirichlet(start - 1, self.beta, t)
        return (w_last * d_last - (psi_n / g) * float(np.sum(d_mid))
                - c_start * d_before)

    def _eval_abel(self, t: float, representation: str) -> float:
        n, K = self.n, self.truncation_index
        ks_tail = np.arange(n, K + 1, dtype=float)
        psi_tail = np.asarray(self.psi(ks_tail), dtype=float)
        if representation == "x":
            tail = float(np.sum(psi_tail * np.cos(ks_tail * t - self.theta)))
        else:
            d_tail = _dirichlet_many(np.arange(n - 1, K + 1), self.beta, t)
            # sum psi(k)(D_k - D_{k-1}) = psi(K) D_K - psi(n) D_{n-1} + sum dpsi(k) D_k
            dpsi = psi_tail[:-1] - psi_tail[1:]
            tail = (psi_tail[-1] * d_tail[-1] - psi_tail[0] * d_tail[0]
                    + float(np.sum(dpsi * d_tail[1:-1])))
        return self._taper_abel(t) + tail

    def uniform_samples(self, grid_size: int) -> np.ndarray:
        """Values at t_j = 2 pi j / grid_size via the cached FFT route."""
        return self.series.uniform_samples(grid_size)


def lemma1_check(lambda_seq: Sequence[float], gamma: float, N: int, M: int,
                 t_grid) -> float:
    """Max grid discrepancy of the delayed-mean summation identity.

    LHS: mean over k = N..M-1 of the partial sums sum_{j<=k} lam_j cos(jt+gamma).
    RHS: sum_{k<=N} lam_k cos(kt+gamma)
         + (1/(M-N)) sum_{k=N+1}^{M-1} (M-k) lam_k cos(kt+gamma).
    lambda_seq[i] is lam(i+1), so it must cover 1..M-1.
    """
    if N >= M:
        raise DomainError("need N < M")
    if N < 1:
        raise DomainError("need N >= 1")
    lam = np.asarray(lambda_seq, dtype=float)
    if lam.size < M - 1:
        raise DomainError(f"lambda must be defined on 1..{M - 1}")
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    j = np.arange(1, M)
    c = lam[:M - 1, None] * np.cos(j[:, None] * ts[None, :] + gamma)
    partial = np.cumsum(c, axis=0)  # row k-1 holds sum_{j<=k}
    lhs = np.mean(partial[N - 1:M - 1, :], axis=0)
    w = np.ones(M - 1)
    mid = np.arange(N + 1, M)
    w[mid - 1] = (M - mid) / (M - N)
    rhs = np.sum(w[:, None] * c, axis=0)
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class EnvelopeReport:
    """Outcome of the pointwise/uniform kernel envelope scan."""

    n: int
    beta: float
    a: float
    b: float
    status: str                      # "ok" | "precondition_violated"
    preconditions: tuple             # failed precondition descriptions
    tolerance: float
    pointwise_ok: Optional[bool]     # decay envelope ~ 1/t^2
    pointwise_margin: Optional[float]
    pointwise_worst_t: Optional[float]
    uniform_ok: Optional[bool]       # flat envelope ~ psi(n) (eta - n)
    uniform_margin: Optional[float]
    uniform_worst_t: Optional[float]

    @property
    def all_ok(self) -> bool:
        return self.status == "ok" and bool(self.pointwise_ok) and bool(self.uniform_ok)


def _grid_and_values(g: Union[KernelEvaluator, FourierSeries], t_grid):
    """(t, g(t)) on t_grid, or on 4096 uniform points by the FFT route;
    t is reduced to (-pi, pi]."""
    if t_grid is None:
        size = 4096
        return _wrap(TWO_PI * np.arange(size) / size), g.uniform_samples(size)
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    return _wrap(ts), np.asarray(g.eval(ts), dtype=float)


def envelope_check(ke: KernelEvaluator, a: float, b: float,
                   t_grid=None) -> EnvelopeReport:
    """Scan |K*| against its two envelopes.

    Pointwise:  |K*(t)| <= pi^2 (2(b+1)^2/b^2 + a/(a-1)) psi(n) / ((eta-n) t^2)
    Uniform:    |K*(t)| <= (2b/(b-2) + 1/a + 1/2) psi(n) (eta-n)

    Both presume eta(n) - n >= a > 1 and mu(n) >= b > 2; shortfalls are
    reported as status "precondition_violated" (margins still computed when
    the formulas stay finite).  Envelope failures beyond 10*tail_eps are
    reported, never raised.
    """
    failed = []
    if not a > 1.0:
        failed.append(f"a = {a} is not > 1")
    if not b > 2.0:
        failed.append(f"b = {b} is not > 2")
    if ke.eta_gap < a:
        failed.append(f"eta(n) - n = {ke.eta_gap:.6g} < a = {a}")
    if ke.mu < b:
        failed.append(f"mu(n) = {ke.mu:.6g} < b = {b}")
    tol = 10.0 * ke.tail_eps
    if not (a > 1.0 and b > 2.0):
        return EnvelopeReport(n=ke.n, beta=ke.beta, a=a, b=b,
                              status="precondition_violated",
                              preconditions=tuple(failed), tolerance=tol,
                              pointwise_ok=None, pointwise_margin=None,
                              pointwise_worst_t=None, uniform_ok=None,
                              uniform_margin=None, uniform_worst_t=None)
    ts, vals = _grid_and_values(ke, t_grid)
    scale = float(ke.psi(float(ke.n)))
    abs_vals = np.abs(vals)
    point_coef = math.pi ** 2 * (2.0 * (b + 1.0) ** 2 / b ** 2 + a / (a - 1.0)) \
        * scale / ke.eta_gap
    nz = np.abs(ts) > 1e-12
    point_margin = point_coef / ts[nz] ** 2 - abs_vals[nz]
    i_pt = int(np.argmin(point_margin))
    uni_bound = (2.0 * b / (b - 2.0) + 1.0 / a + 0.5) * scale * ke.eta_gap
    uni_margin = uni_bound - abs_vals
    i_un = int(np.argmin(uni_margin))
    return EnvelopeReport(
        n=ke.n, beta=ke.beta, a=a, b=b,
        status="ok" if not failed else "precondition_violated",
        preconditions=tuple(failed), tolerance=tol,
        pointwise_ok=bool(point_margin[i_pt] >= -tol),
        pointwise_margin=float(point_margin[i_pt]),
        pointwise_worst_t=float(ts[nz][i_pt]),
        uniform_ok=bool(uni_margin[i_un] >= -tol),
        uniform_margin=float(uni_margin[i_un]),
        uniform_worst_t=float(ts[i_un]))


@dataclass(frozen=True)
class TailBoundReport:
    """Uniform bound check on the pure tail sum_{k>=n} psi(k) cos(kt - theta)."""

    n: int
    beta: float
    a: float
    b: float
    status: str
    preconditions: tuple
    bound: Optional[float]
    max_abs: Optional[float]
    margin: Optional[float]
    ok: Optional[bool]
    worst_t: Optional[float]


def tail_sum_bound_check(psi: PsiFunction, n: int, a: float, b: float,
                         t_grid=None, beta: float = 0.0,
                         tail_eps: Optional[float] = None,
                         evaluator: Optional[KernelEvaluator] = None
                         ) -> TailBoundReport:
    """Check |sum_{k=n}^{K} psi(k) cos(kt - beta pi/2)|
    <= (2b/(b-2) + 1/a) psi(n)(eta(n)-n) + tail_eps on the grid.

    Preconditions eta(n)-n >= a > 0 and mu(n) >= b > 2; on violation the
    check refuses (status "precondition_violated", no scan).  Given the
    (psi, n, beta) kernel evaluator, gap, ratio, tail_eps, K and the tail
    coefficients (its harmonics >= n) come from it instead of being
    recomputed."""
    # the evaluator carries eta_gap and mu just as the profile does
    prof = (evaluator if evaluator is not None
            else characteristics(psi, float(n)))
    psi_n = float(psi(float(n)))
    if evaluator is not None:
        tail_eps = evaluator.tail_eps
    elif tail_eps is None:
        tail_eps = TAIL_EPS_SCALE * psi_n * prof.eta_gap
    failed = []
    if not a > 0.0:
        failed.append(f"a = {a} is not > 0")
    if not b > 2.0:
        failed.append(f"b = {b} is not > 2")
    if prof.eta_gap < a:
        failed.append(f"eta(n) - n = {prof.eta_gap:.6g} < a = {a}")
    if prof.mu < b:
        failed.append(f"mu(n) = {prof.mu:.6g} < b = {b}")
    if failed:
        return TailBoundReport(n=n, beta=beta, a=a, b=b,
                               status="precondition_violated",
                               preconditions=tuple(failed), bound=None,
                               max_abs=None, margin=None, ok=None, worst_t=None)
    if evaluator is not None:
        tail = evaluator.series - evaluator.series.truncated(n - 1)
    else:
        K, _ = _certified_truncation(psi, n, tail_eps)
        ks = np.arange(n, K + 1)
        coeffs = np.asarray(psi(ks.astype(float)), dtype=float)
        tail = FourierSeries.from_cosine_profile(n, coeffs, 0.5 * math.pi * beta)
    ts, vals = _grid_and_values(tail, t_grid)
    bound = (2.0 * b / (b - 2.0) + 1.0 / a) * psi_n * prof.eta_gap + tail_eps
    abs_vals = np.abs(vals)
    i = int(np.argmax(abs_vals))
    margin = bound - abs_vals[i]
    return TailBoundReport(n=n, beta=beta, a=a, b=b, status="ok",
                           preconditions=(), bound=float(bound),
                           max_abs=float(abs_vals[i]), margin=float(margin),
                           ok=bool(margin >= -10.0 * tail_eps),
                           worst_t=float(ts[i]))
