"""Residual kernels of the tapered partial-sum method.

The central object is the kernel

    K*(t) = sum_{k=A}^{n-1} c_k cos(kt - beta*pi/2) + sum_{k>=n} psi(k) cos(kt - beta*pi/2)

whose taper weights c_k = psi(n) (F - 2n + k) / (F - n) rise linearly from 0
across k = 2n - F, ..., n - 1, with F = floor(eta(n)).  The infinite tail is
truncated at a certified index K.  The window, K, its certified tail and
the magnitudes |c_k| do not depend on beta: they form one `KernelProfile`
per (psi, n), and each beta's `KernelEvaluator` adds only the phase.  One
FFT per grid size samples the profile's f = sum (c_k/2)(cos kt + sin kt),
and each beta's grid is (cos th + sin th) f(t) + (cos th - sin th) f(-t),
th = beta*pi/2, by one mirrored pass.  The envelope and tail-sum checks
certify their bounds from sums over the |c_k|: every beta at once, no grid.
Three evaluation routes are kept alive on purpose (coefficient sum, partial
Abel, full Abel over Dirichlet-type kernels); their mutual agreement is a
standing regression check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .errors import (DegenerateGapError, DomainError, InvalidPsiError,
                     NumericError)
from .psi_core import (LN2, CharacteristicProfile, PsiFunction,
                       characteristics)
from .series import FourierSeries

TWO_PI = 2.0 * math.pi
T_SWITCH = 1e-3
# relative scale for the default truncation budget
TAIL_EPS_SCALE = 1e-15
# halving blocks certified_tail_sum may take, and its halving-point tolerance
TAIL_MAX_BLOCKS = 400
TAIL_ETA_TOL = 1e-6


def _wrap(t):
    """Reduce to the principal period (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(t, dtype=float), TWO_PI)


def dirichlet(k: int, beta: float, t):
    """Dirichlet-type kernel cos(theta)/2 + sum_{v=1}^{k} cos(v t - theta),
    theta = beta*pi/2.

    Away from the period points the closed form
    [sin((k+1/2)t - theta) + cos(t/2) sin(theta)] / (2 sin(t/2)) is used; within
    T_SWITCH of a period point the defining sum is evaluated directly, since
    the closed form loses ~eps/|t| absolute accuracy to cancellation.
    T_SWITCH = 1e-3 keeps the closed-form branch at the 1e-12 agreement level.
    """
    if k < 0:
        raise DomainError("dirichlet needs k >= 0")
    theta = 0.5 * math.pi * beta
    tw = _wrap(t)
    scalar = np.ndim(t) == 0
    tw = np.atleast_1d(tw)
    out = np.empty_like(tw)
    small = np.abs(tw) < T_SWITCH
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


def _dirichlet_many(ks: np.ndarray, beta: float, t: float) -> np.ndarray:
    """D_{k,beta}(t) for an array of orders k at a single point t."""
    theta = 0.5 * math.pi * beta
    tw = float(_wrap(t))
    if abs(tw) >= T_SWITCH:
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


def certified_tail_sum(psi: PsiFunction, K: int) -> float:
    """Upper bound on sum_{k > K} psi(k) via halving blocks.

    Block j starts at s_j (s_0 = K+1, s_{j+1} = psi.halving_point(s_j),
    exact for exp-power and to TAIL_ETA_TOL otherwise), holds at most
    gap_j + 1 integers, each with psi <= psi(s_j) = psi(K+1) 2^{-j}.
    The un-summed remainder is dominated by a geometric series once the
    observed gap growth ratio stays below 1.9; generators whose halving gaps
    keep accelerating (slower than exponential-of-power decay) fail with
    NumericError rather than return an uncertified number.
    """
    s = float(K + 1)
    log0 = float(psi.log_value(s))
    total = 0.0
    gaps = []
    for j in range(TAIL_MAX_BLOCKS):
        s_next = psi.halving_point(s, TAIL_ETA_TOL)
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
                    # TAIL_ETA_TOL slop inflates each halving by at most
                    # e^{TAIL_ETA_TOL}
                    safety = 1.0 + 1e-4 + TAIL_MAX_BLOCKS * TAIL_ETA_TOL
                    return (total + rem) * safety
        s = s_next
    raise NumericError("tail certification failed: halving gaps kept growing")


def _tail_budget(psi: PsiFunction, n: int,
                 eta_gap: float) -> tuple[float, int, float]:
    """(tail_eps, K, bound): the budget TAIL_EPS_SCALE psi(n) (eta(n) - n),
    the index K that meets it and K's certified bound on sum_{k>K} psi(k).

    K starts at the probe index and grows until the certified tail bound fits.
    """
    tail_eps = TAIL_EPS_SCALE * float(psi(float(n))) * eta_gap
    K = truncation_index(psi, n, tail_eps)
    for _ in range(60):
        bound = certified_tail_sum(psi, K)
        if bound <= tail_eps:
            return float(tail_eps), K, bound
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
class KernelProfile:
    """The beta-free part of the (psi, n) residual kernel: the taper
    window, the truncation index K certified so the dropped tail sums below
    tail_eps in absolute value, and the magnitudes |c_k|, k <= K, that
    every `evaluator(beta)` shares."""

    psi: PsiFunction
    n: int
    tail_eps: float
    truncation_index: int
    eta_gap: float
    mu: float
    eta_floor: int
    gap_int: int            # F - n, integer taper denominator
    taper_start: int        # first harmonic actually present
    certified_tail: float
    coeffs: np.ndarray      # |c_k|, k = taper_start..truncation_index
    folded: FourierSeries   # sum (c_k/2)(cos kt + sin kt): all betas' grids
    energy: float           # sum c_k^2, Parseval's energy at every beta
    curvature: float        # sum k^2 |c_k|, bounds |K*''| at every beta

    def evaluator(self, beta: float) -> "KernelEvaluator":
        """The kernel at phase beta*pi/2 over this profile's coefficients."""
        if not math.isfinite(beta):
            raise DomainError(f"beta must be finite, got {beta}")
        series = FourierSeries.from_cosine_profile(
            self.taper_start, self.coeffs, 0.5 * math.pi * beta, self.folded)
        return KernelEvaluator(
            **{f.name: getattr(self, f.name) for f in fields(KernelProfile)},
            beta=float(beta), series=series)


def kernel_profile(psi: PsiFunction, n: int,
                   prof: Optional[CharacteristicProfile] = None
                   ) -> KernelProfile:
    """The (psi, n) profile; prof is characteristics(psi, n) when given."""
    if n < 1 or int(n) != n:
        raise DomainError("n must be a positive integer")
    n = int(n)
    if prof is None:
        prof = characteristics(psi, float(n))
    eta_floor, start, c_taper = _taper_window(psi, n, prof)
    tail_eps, K, bound = _tail_budget(psi, n, prof.eta_gap)
    c_tail = np.asarray(psi(np.arange(n, K + 1).astype(float)), dtype=float)
    start = int(start if c_taper.size else n)
    c = np.zeros(K)   # |c_k| on harmonics 1..K, laid out as the series' a
    c[start - 1:] = np.concatenate([c_taper, c_tail])
    k, half = np.arange(1.0, K + 1.0), 0.5 * c
    return KernelProfile(psi=psi, n=n, tail_eps=tail_eps, truncation_index=K,
                         eta_gap=prof.eta_gap, mu=prof.mu, eta_floor=eta_floor,
                         gap_int=eta_floor - n, taper_start=start,
                         certified_tail=float(bound), coeffs=c[start - 1:],
                         folded=FourierSeries(0.0, half, half),
                         energy=float(c @ c),
                         curvature=float(np.sum(k * (k * c))))


@dataclass(frozen=True, eq=False)
class KernelEvaluator(KernelProfile):
    """One (psi, n, beta) residual kernel: its profile plus the phase, as a
    FourierSeries for grid work, and the norms `approx_ops.kernel_norms`
    has computed for it."""

    beta: float
    series: FourierSeries
    _norm_cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, psi: PsiFunction, n: int, beta: float) -> "KernelEvaluator":
        """One kernel on its own; a sweep over betas shares one profile."""
        return kernel_profile(psi, n).evaluator(beta)

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
            tail = float(np.sum(psi_tail * np.cos(
                ks_tail * t - 0.5 * math.pi * self.beta)))
        else:
            d_tail = _dirichlet_many(np.arange(n - 1, K + 1), self.beta, t)
            # sum psi(k)(D_k - D_{k-1}) = psi(K) D_K - psi(n) D_{n-1} + sum dpsi(k) D_k
            dpsi = psi_tail[:-1] - psi_tail[1:]
            tail = (psi_tail[-1] * d_tail[-1] - psi_tail[0] * d_tail[0]
                    + float(np.sum(dpsi * d_tail[1:-1])))
        return self._taper_abel(t) + tail


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
    """Outcome of the envelope certificates: margin = envelope - certificate."""

    n: int
    a: float
    b: float
    status: str                      # "ok" | "precondition_violated"
    preconditions: tuple             # failed precondition descriptions
    pointwise_ok: Optional[bool]     # decay envelope ~ 1/t^2, times t^2
    pointwise_margin: Optional[float]
    uniform_ok: Optional[bool]       # flat envelope ~ psi(n) (eta - n)
    uniform_margin: Optional[float]

    @property
    def all_ok(self) -> bool:
        return self.status == "ok" and bool(self.pointwise_ok) and bool(self.uniform_ok)


def _certified(total: float, K: int) -> float:
    """total, a sum of at most K + 3 terms, scaled to cover its rounding."""
    return total * (1.0 + (K + 3) * np.finfo(float).eps)


def envelope_check(kp: KernelProfile, a: float, b: float) -> EnvelopeReport:
    """Certify |K*| against its two envelopes from the magnitudes |c_k|.

    Pointwise:  t^2 |K*(t)| <= pi^2 (2(b+1)^2/b^2 + a/(a-1)) psi(n) / (eta-n)
    Uniform:    |K*(t)| <= (2b/(b-2) + 1/a + 1/2) psi(n) (eta-n)

    With the |c_k| padded by zeros below the taper start and at K+1, K+2,
    (1-z)^2 sum c_k z^k = sum (D^2 c)_k z^k, and |1 - e^{it}|^2 >= 4t^2/pi^2
    on |t| <= pi; so t^2 |K*(t)| <= (pi^2/4) V + pi^2 certified_tail with
    V = sum |D^2 c_k|, and |K*| <= S + certified_tail with S = sum |c_k|.
    Neither certificate reads the phase, so one check covers every beta of
    the profile (an evaluator is one), and no grid is sampled.  An envelope
    holds when it is no smaller than its certificate.

    Both presume eta(n) - n >= a > 1 and mu(n) >= b > 2; shortfalls are
    reported as status "precondition_violated" (margins still computed when
    the formulas stay finite).  Envelope failures are reported, never raised.
    """
    failed = []
    if not a > 1.0:
        failed.append(f"a = {a} is not > 1")
    if not b > 2.0:
        failed.append(f"b = {b} is not > 2")
    if kp.eta_gap < a:
        failed.append(f"eta(n) - n = {kp.eta_gap:.6g} < a = {a}")
    if kp.mu < b:
        failed.append(f"mu(n) = {kp.mu:.6g} < b = {b}")
    if not (a > 1.0 and b > 2.0):
        return EnvelopeReport(n=kp.n, a=a, b=b,
                              status="precondition_violated",
                              preconditions=tuple(failed),
                              pointwise_ok=None, pointwise_margin=None,
                              uniform_ok=None, uniform_margin=None)
    c = np.concatenate(([0.0, 0.0], kp.coeffs, [0.0, 0.0]))
    V = float(np.sum(np.abs(c[2:] - 2.0 * c[1:-1] + c[:-2])))
    S = float(np.sum(kp.coeffs))
    K, dropped = kp.truncation_index, kp.certified_tail
    scale = float(kp.psi(float(kp.n)))
    point_margin = (
        math.pi ** 2 * (2.0 * (b + 1.0) ** 2 / b ** 2 + a / (a - 1.0))
        * scale / kp.eta_gap
        - _certified(0.25 * math.pi ** 2 * (V + 4.0 * dropped), K))
    uni_margin = ((2.0 * b / (b - 2.0) + 1.0 / a + 0.5) * scale * kp.eta_gap
                  - _certified(S + dropped, K))
    return EnvelopeReport(
        n=kp.n, a=a, b=b,
        status="ok" if not failed else "precondition_violated",
        preconditions=tuple(failed),
        pointwise_ok=bool(point_margin >= 0.0),
        pointwise_margin=float(point_margin),
        uniform_ok=bool(uni_margin >= 0.0),
        uniform_margin=float(uni_margin))


@dataclass(frozen=True)
class TailBoundReport:
    """Uniform bound check on the pure tail sum_{k>=n} psi(k) cos(kt - theta);
    `max_abs` is the certified l1 bound on its modulus."""

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


def tail_sum_bound_check(psi: PsiFunction, n: int, a: float, b: float,
                         beta: float = 0.0,
                         evaluator: Optional[KernelProfile] = None
                         ) -> TailBoundReport:
    """Certify |sum_{k>=n} psi(k) cos(kt - beta pi/2)|
    <= (2b/(b-2) + 1/a) psi(n)(eta(n)-n) by the l1 bound sum_{k=n}^{K}
    psi(k) + certified_tail, rounded up as in `envelope_check`; it samples
    no grid and does not read beta, which the report only echoes.

    Preconditions eta(n)-n >= a > 0 and mu(n) >= b > 2; on violation the
    check refuses (status "precondition_violated", no bound).  Given the
    (psi, n) kernel profile (or an evaluator of it), gap, ratio, K, the
    certified tail and the psi(k) come from it instead of being recomputed;
    a profile of another psi or n raises DomainError."""
    if evaluator is not None and (evaluator.psi != psi or evaluator.n != n):
        raise DomainError(f"tail_sum_bound_check(n = {n}) was given the "
                          f"profile of n = {evaluator.n} or of another psi")
    # the profile carries eta_gap and mu just as the characteristics do
    prof = (evaluator if evaluator is not None
            else characteristics(psi, float(n)))
    psi_n = float(psi(float(n)))
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
                               max_abs=None, margin=None, ok=None)
    if evaluator is not None:
        K, dropped = evaluator.truncation_index, evaluator.certified_tail
        coeffs = evaluator.coeffs[n - evaluator.taper_start:]
    else:
        _, K, dropped = _tail_budget(psi, n, prof.eta_gap)
        coeffs = np.asarray(psi(np.arange(n, K + 1).astype(float)), dtype=float)
    bound = (2.0 * b / (b - 2.0) + 1.0 / a) * psi_n * prof.eta_gap
    l1 = _certified(float(np.sum(coeffs)) + dropped, K)
    return TailBoundReport(n=n, beta=beta, a=a, b=b, status="ok",
                           preconditions=(), bound=float(bound),
                           max_abs=l1, margin=float(bound - l1),
                           ok=bool(bound >= l1))
