"""Residual kernels of the tapered partial-sum method.

The central object is the kernel

    K*(t) = sum_{k=A}^{n-1} c_k cos(kt - beta*pi/2) + sum_{k>=n} psi(k) cos(kt - beta*pi/2)

whose taper weights c_k = psi(n) (F - 2n + k) / (F - n) rise linearly from 0
across k = 2n - F, ..., n - 1, with F = floor(eta(n)).  The infinite tail is
truncated at a certified index K.  The window, K, its certified tail and
the magnitudes |c_k| do not depend on beta: they form one `KernelProfile`
per (psi, n), and each beta's `KernelEvaluator` adds only the phase
th = beta*pi/2, as its mirror (u, v) = (cos th + sin th, cos th - sin th).
The kernel is u f(t) + v f(-t) of the folded f = sum (c_k/2)(cos kt +
sin kt), and nothing else holds its coefficients: a point value is
(u + v) C + (u - v) S of f's cos and sin sums, and every grid mirrors f's
one sampling per grid size (the norm pass's over half the period at
integer beta).  The envelope and tail-sum checks certify their bounds from
sums over the |c_k|: every beta at once, no grid.
`_unmet_hypotheses` holds the paper's hypotheses on (psi, n, a, b), which
every check and the bracket sweep read with their own floor on a;
`kernel_profile` alone sets K, which never passes MAX_GRID.
Three evaluation routes are kept alive on purpose (coefficient sum, partial
Abel, full Abel over Dirichlet-type kernels); their mutual agreement is a
standing regression check.  Both Abel routes sum by parts in `_by_parts`,
over the one Dirichlet kernel `dirichlet`, which takes arrays of orders and
of points alike.  Every point value reduces t by `series._wrap`.
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
from .series import FourierSeries, _moments, _wrap

T_SWITCH = 1e-3
# relative scale for the default truncation budget
TAIL_EPS_SCALE = 1e-15
# halving blocks certified_tail_sum may take
TAIL_MAX_BLOCKS = 400
# cap on every norm grid and on the truncation index K
MAX_GRID = 1 << 21


def dirichlet(k, beta: float, t):
    """Dirichlet-type kernel cos(theta)/2 + sum_{v=1}^{k} cos(v t - theta),
    theta = beta*pi/2, with the orders k broadcast against the points t.

    Away from the period points the closed form
    [sin((k+1/2)t - theta) + cos(t/2) sin(theta)] / (2 sin(t/2)) is used; within
    T_SWITCH of a period point the defining sum is evaluated directly, since
    the closed form loses ~eps/|t| absolute accuracy to cancellation.
    T_SWITCH = 1e-3 keeps the closed-form branch at the 1e-12 agreement level.
    The sum runs once per distinct small t, up to the largest order asked
    there, and every order reads its partial sum, so memory stays O(max k).
    """
    if np.any(np.asarray(k) < 0):
        raise DomainError("dirichlet needs k >= 0")
    theta = 0.5 * math.pi * beta
    ks, tw = np.broadcast_arrays(np.asarray(k), _wrap(t))
    out = np.empty(tw.shape)
    small = np.abs(tw) < T_SWITCH
    if np.any(~small):
        kb, ts = ks[~small], tw[~small]
        out[~small] = ((np.sin((kb + 0.5) * ts - theta)
                        + np.cos(0.5 * ts) * math.sin(theta))
                       / (2.0 * np.sin(0.5 * ts)))
    for u in np.unique(tw[small]):
        at = small & (tw == u)
        v = np.arange(1, int(np.max(ks[at])) + 1)
        partial = np.cumsum(np.concatenate(
            ([0.5 * math.cos(theta)], np.cos(v * u - theta))))
        out[at] = partial[ks[at]]
    return float(out) if out.ndim == 0 else out


def _by_parts(ks: np.ndarray, c: np.ndarray, beta: float, t: float) -> float:
    """sum_k c_k cos(kt - beta*pi/2) over the consecutive orders ks, summed
    by parts over the Dirichlet kernels D_k = dirichlet(k, beta, t):
    c_last D_last - c_first D_{first-1} + sum_{k<last} (c_k - c_{k+1}) D_k.
    """
    if not ks.size:
        return 0.0
    d = dirichlet(np.arange(ks[0] - 1, ks[-1] + 1), beta, t)
    return (c[-1] * d[-1] - c[0] * d[0]
            + float(np.sum((c[:-1] - c[1:]) * d[1:-1])))


def truncation_index(psi: PsiFunction, n: int, tail_eps: float) -> int:
    """Smallest K >= n whose geometric tail estimate meets the budget.

    The estimate at K is psi(K+1) / (1 - rho) with rho = psi(K+2)/psi(K+1).
    It models the tail as geometric from K+1 onward; for generators whose
    decay ratio creeps toward 1 (exp-power with r < 1) this can undershoot
    the true tail by a bounded factor, so consumers needing a guarantee
    re-certify via `certified_tail_sum` and enlarge K if needed.
    The probes double from n, capped at MAX_GRID, and then bisect; a K
    above MAX_GRID is refused.  All comparisons run in log space so deep
    tails cannot underflow.
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
    while not ok(hi):
        if hi >= MAX_GRID:
            raise NumericError(f"truncation index would pass MAX_GRID = "
                               f"{MAX_GRID}; psi decays too slowly")
        lo, hi = hi, min(2 * hi, MAX_GRID)
    while hi - lo > 1:   # ok(hi) holds and ok(lo) fails throughout
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def certified_tail_sum(psi: PsiFunction, K: int) -> float:
    """Upper bound on sum_{k > K} psi(k) via halving blocks.

    Block j starts at s_j (s_0 = K+1, s_{j+1} = psi.halving_point(s_j),
    to float64's resolution), holds at most gap_j + 1 integers, each with
    psi <= psi(s_j) = psi(K+1) 2^{-j} up to the start's rounding.
    The un-summed remainder is dominated by a geometric series once the
    observed gap growth ratio stays below 1.9; generators whose halving gaps
    keep accelerating (slower than exponential-of-power decay) fail with
    NumericError rather than return an uncertified number.  No block
    counts below the smallest subnormal; under psi(K+1) = e^-700 they sum
    in units of psi(K+1), scaled back rounded up: the bound is never 0."""
    s = float(K + 1)
    log0 = float(psi.log_value(s))
    shift = 0.0 if log0 > -700.0 else -log0
    total = 0.0
    gaps = []
    for j in range(TAIL_MAX_BLOCKS):
        s_next = psi.halving_point(s)
        gap = s_next - s
        gaps.append(gap)
        term = (gap + 1.0) * max(math.exp(log0 - j * LN2 + shift), math.ulp(0.0))
        total += term
        if j >= 6:
            ratios = [gaps[i + 1] / gaps[i] for i in range(len(gaps) - 6, len(gaps) - 1)]
            rho = max(max(ratios), 1.0)
            if rho < 1.9:
                q = 0.5 * rho
                rem = term * q / (1.0 - q)
                if rem <= 1e-6 * total:
                    # each start's log psi is off by ~3 eps |log psi| (closed
                    # form) or 4 eps s/gap (a solve: convexity caps the slope
                    # at 1/gap), under 8e-5 over 400 blocks while |log psi|
                    # and s/gap stay below 1e8
                    bound = (total + rem) * (1.0 + 1e-4)
                    return bound if not shift else max(math.ulp(0.0), math.nextafter(
                        math.exp(math.log(bound) - shift), math.inf))
        s = s_next
    raise NumericError("tail certification failed: halving gaps kept growing")


def _tail_budget(psi: PsiFunction, n: int,
                 eta_gap: float) -> tuple[float, int, float]:
    """(tail_eps, K, bound): the budget TAIL_EPS_SCALE psi(n) (eta(n) - n),
    the index K that meets it and K's certified bound on sum_{k>K} psi(k).
    A budget that is 0 in float64 is refused with NumericError naming n.
    K starts at the probe index and grows by 1.25x until the certified tail
    bound fits; a K above MAX_GRID is refused before anything K-sized is
    allocated.
    """
    tail_eps = TAIL_EPS_SCALE * float(psi(float(n))) * eta_gap
    if tail_eps == 0.0:
        raise NumericError(f"the tail budget is 0 in float64 at n = {n}: use a smaller n")
    K = truncation_index(psi, n, tail_eps)
    while K <= MAX_GRID:
        bound = certified_tail_sum(psi, K)
        if bound <= tail_eps:
            return float(tail_eps), K, bound
        K = int(K * 1.25) + 1
    raise NumericError(f"certifying the truncation budget needs K = {K}, "
                       f"above MAX_GRID = {MAX_GRID}")


def _taper_window(psi: PsiFunction, n: int,
                  prof: CharacteristicProfile) -> tuple[int, int, np.ndarray]:
    """F = floor(eta(n)), the first taper harmonic, and the taper weights
    psi(n) (F - 2n + k) / (F - n) for k from that harmonic to n - 1.

    The weight at k = 2n - F is exactly 0, so the window starts one past
    it (and never below harmonic 1).  A psi(n) that is 0 in float64 scales
    every weight and the tail budget to 0 and raises NumericError; F = n
    leaves no window to build and raises DegenerateGapError.
    """
    psi_n = float(psi(float(n)))
    if psi_n == 0.0:
        raise NumericError(f"psi(n) is 0 in float64 at n = {n}: use a smaller n")
    eta_floor = n + prof.floor_gap
    g = eta_floor - n
    if g == 0:
        raise DegenerateGapError(
            f"floor(eta({n})) = {n}: taper denominator vanishes; "
            "use a larger n or a slower-decaying generator")
    start = max(1, 2 * n - eta_floor + 1)
    ks = np.arange(start, n)
    return eta_floor, start, psi_n * (eta_floor - 2 * n + ks) / g


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
    taper_start: int        # first harmonic actually present
    certified_tail: float
    coeffs: np.ndarray      # |c_k|, k = taper_start..truncation_index
    folded: FourierSeries   # sum (c_k/2)(cos kt + sin kt): all betas' grids
    moments: tuple          # `_moments` of |c_k|, the same at every beta

    def evaluator(self, beta: float) -> "KernelEvaluator":
        """The kernel a_k = c_k cos th, b_k = c_k sin th, th = beta*pi/2,
        which is (cos th + sin th) f(t) + (cos th - sin th) f(-t), f = folded."""
        cos, sin = _phase(beta)
        return KernelEvaluator(
            **{f.name: getattr(self, f.name) for f in fields(KernelProfile)},
            beta=float(beta), mirror=(cos + sin, cos - sin))


def _phase(beta: float) -> tuple:
    """(cos th, sin th), th = beta*pi/2, exact at whole quarter turns
    (math.cos(pi/2) is 6.1e-17): such a kernel is exactly even or odd."""
    th = 0.5 * math.pi * beta
    if not math.isfinite(th):
        raise DomainError(f"beta pi/2 must be finite, got beta = {beta}")
    q = round(th / (0.5 * math.pi))   # whole quarter turns are exact
    return (((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[q % 4]
            if 0.5 * math.pi * q == th else (math.cos(th), math.sin(th)))


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
    half = 0.5 * c
    return KernelProfile(psi=psi, n=n, tail_eps=tail_eps, truncation_index=K,
                         eta_gap=prof.eta_gap, mu=prof.mu, eta_floor=eta_floor,
                         taper_start=start, certified_tail=float(bound),
                         coeffs=c[start - 1:],
                         folded=FourierSeries(0.0, half, half),
                         moments=_moments(c))


@dataclass(frozen=True, eq=False)
class KernelEvaluator(KernelProfile):
    """One (psi, n, beta) residual kernel: its profile, the phase as the
    mirror (u, v) under which it is u f(t) + v f(-t) of the folded f, and
    the norm records `approx_ops._norms` made for it, tail included."""

    beta: float
    mirror: tuple   # (cos th + sin th, cos th - sin th), th = beta*pi/2
    _norm_cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, psi: PsiFunction, n: int, beta: float) -> "KernelEvaluator":
        """One kernel on its own; a sweep over betas shares one profile."""
        return kernel_profile(psi, n).evaluator(beta)

    # -- evaluation -----------------------------------------------------------

    def eval(self, t, representation: str = "direct"):
        """Kernel value(s) at t.

        representation:
          "direct"  (u + v) C + (u - v) S, of the folded f's row sums;
          "x"       taper resummed through Dirichlet kernels, tail direct;
          "for1"    full Abel transform over Dirichlet kernels.
        All three agree to within rounding plus the shared truncation budget,
        at t reduced once by `_wrap`.
        """
        t = _wrap(t)
        if representation == "direct":
            (u, v), (C, S) = self.mirror, self.folded._row_sums(t)
            out = (u + v) * C + (u - v) * S
            return out if t.ndim else float(out[0])
        if representation not in ("x", "for1"):
            raise DomainError(f"unknown representation {representation!r}")
        out = np.array([self._eval_abel(float(tt), representation)
                        for tt in np.atleast_1d(t)])
        return float(out[0]) if t.ndim == 0 else out

    def _eval_abel(self, t: float, representation: str) -> float:
        c, split = self.coeffs, self.n - self.taper_start   # taper, then tail
        ks = np.arange(self.taper_start, self.truncation_index + 1)
        taper = _by_parts(ks[:split], c[:split], self.beta, t)
        if representation == "for1":
            return taper + _by_parts(ks[split:], c[split:], self.beta, t)
        return taper + float(np.sum(c[split:] * np.cos(
            ks[split:] * t - 0.5 * math.pi * self.beta)))


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


def _unmet_hypotheses(prof, a: float, b: float, a_floor: float) -> list:
    """Messages for the hypotheses that (a, b) and prof miss: a > a_floor,
    b > 2 and, unless prof is None, eta(n) - n >= a and mu(n) >= b.  prof
    is the characteristics at n or a kernel profile, which carries eta_gap
    and mu just as they do.  The estimates' constants set the floor:
    C*_{a,b} needs a > 1, C_{a,b} a > 0 and C_a a > 2."""
    failed = []
    if not a > a_floor:
        failed.append(f"a = {a} is not > {a_floor:g}")
    if not b > 2.0:
        failed.append(f"b = {b} is not > 2")
    if prof is not None and not prof.eta_gap >= a:
        failed.append(f"eta(n) - n = {prof.eta_gap:.6g} < a = {a}")
    if prof is not None and not prof.mu >= b:
        failed.append(f"mu(n) = {prof.mu:.6g} < b = {b}")
    return failed


def envelope_check(kp: KernelProfile, a: float, b: float) -> EnvelopeReport:
    """Certify |K*| against its two envelopes from the magnitudes |c_k|.

    Pointwise:  t^2 |K*(t)| <= pi^2 (2(1+1/b)^2 + a/(a-1)) psi(n) / (eta-n)
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
    failed = _unmet_hypotheses(kp, a, b, 1.0)
    if _unmet_hypotheses(None, a, b, 1.0):   # outside the constants' domain
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
        math.pi ** 2 * (2.0 * (1.0 + 1.0 / b) ** 2 + a / (a - 1.0))
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
    certified tail and the psi(k) come from it; a profile of another psi
    or n raises DomainError.  Without one, the check builds
    `kernel_profile(psi, n)` once the preconditions hold."""
    if evaluator is not None and (evaluator.psi != psi or evaluator.n != n):
        raise DomainError(f"tail_sum_bound_check(n = {n}) was given the "
                          f"profile of n = {evaluator.n} or of another psi")
    prof = (evaluator if evaluator is not None
            else characteristics(psi, float(n)))
    failed = _unmet_hypotheses(prof, a, b, 0.0)
    if failed:
        return TailBoundReport(n=n, beta=beta, a=a, b=b,
                               status="precondition_violated",
                               preconditions=tuple(failed), bound=None,
                               max_abs=None, margin=None, ok=None)
    kp = evaluator if evaluator is not None else kernel_profile(psi, n, prof)
    bound = ((2.0 * b / (b - 2.0) + 1.0 / a) * float(psi(float(n)))
             * kp.eta_gap)
    l1 = _certified(float(np.sum(kp.coeffs[n - kp.taper_start:]))
                    + kp.certified_tail, kp.truncation_index)
    return TailBoundReport(n=n, beta=beta, a=a, b=b, status="ok",
                           preconditions=(), bound=float(bound),
                           max_abs=l1, margin=float(bound - l1),
                           ok=bool(bound >= l1))
