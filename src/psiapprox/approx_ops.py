"""Tapered partial sums, class-function synthesis, and integral norms.

The linear method is a Fourier multiplier: harmonics below the taper window
pass through, harmonics in the window are damped by lam(k), and everything
from n on is dropped.  Its residual against a synthesized class function is
a convolution with the residual kernel, which is what ties this module to
`kernels`, which also owns the taper window.  Norm computation is
deliberately boring: composite trapezoid on uniform grids (spectrally
accurate for periodic integrands, with a local correction at sign-change
panels of |g|^p).  A kernel's grid (its profile's FFT, mirrored) is walked
once, block by block, for every order a caller asks for at the same time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericError
from .kernels import KernelEvaluator, _taper_window, _wrap
from .psi_core import PsiFunction, characteristics
from .series import FourierSeries

TWO_PI = 2.0 * math.pi


# -- the multiplier ----------------------------------------------------------

@dataclass(frozen=True)
class TaperCoefficients:
    """Multiplier sequence lam(0..n-1) of the tapered partial sum."""

    n: int
    lam: np.ndarray
    eta_floor: int
    gap: int  # eta_floor - n


def taper_coefficients(psi: PsiFunction, n: int) -> TaperCoefficients:
    """lam(k) = 1 - c_k / psi(k), with c_k the kernel's taper weights
    psi(n) (F-2n+k)/(F-n) across the window and c_k = 0 below it,
    F = floor(eta(n)).

    The ramp numerator vanishes at k = 2n - F, so the window's first
    multiplier is still exactly 1.  F = n (halving inside one step) leaves
    no window to build and raises DegenerateGapError.
    """
    if n < 2 or int(n) != n:
        raise DomainError("taper needs integer n >= 2")
    n = int(n)
    prof = characteristics(psi, float(n))
    eta_floor, start, weights = _taper_window(psi, n, prof)
    lam = np.ones(n)
    ks = np.arange(start, n)
    lam[ks] = 1.0 - weights / np.asarray(psi(ks.astype(float)), dtype=float)
    return TaperCoefficients(n=n, lam=lam, eta_floor=eta_floor,
                             gap=eta_floor - n)


def apply_vn(f: FourierSeries, tc: TaperCoefficients) -> FourierSeries:
    """Apply the multiplier; output degree n-1, mean preserved.

    Coefficients of f beyond its stored degree count as zero.
    """
    m = tc.n - 1
    a = np.zeros(m)
    b = np.zeros(m)
    upto = min(m, f.degree)
    a[:upto] = f.a[:upto]
    b[:upto] = f.b[:upto]
    w = tc.lam[1:]
    return FourierSeries(a0=f.a0, a=a * w, b=b * w)


def synthesize_class_function(psi: PsiFunction, beta: float,
                              phi: FourierSeries, a0: float = 0.0) -> FourierSeries:
    """Build f whose k-th harmonic is psi(k) times phi's, rotated by beta*pi/2.

    Concretely a_k(f) = psi(k)(alpha_k cos th - beta_k sin th) and
    b_k(f) = psi(k)(alpha_k sin th + beta_k cos th) where (alpha_k, beta_k)
    are phi's cosine/sine coefficients and th = beta*pi/2.  phi must have
    zero mean; the free constant a0 becomes f's mean term.
    """
    if phi.a0 != 0.0:
        raise DomainError("phi must have zero mean")
    k = np.arange(1, phi.degree + 1, dtype=float)
    psi_k = np.asarray(psi(k), dtype=float)
    th = 0.5 * math.pi * beta
    c, s = math.cos(th), math.sin(th)
    return FourierSeries(a0=a0,
                         a=psi_k * (phi.a * c - phi.b * s),
                         b=psi_k * (phi.a * s + phi.b * c))


def residual_consistency(psi: PsiFunction, beta: float, n: int,
                         phi: FourierSeries, x_samples) -> float:
    """Compare f - V_n(f) computed two ways at the given x points.

    Route 1 drops/damps Fourier coefficients directly; route 2 convolves
    phi with the residual kernel, (1/pi) int phi(t) K*(x - t) dt, by exact
    trapezoid (the integrand is band-limited, so a grid finer than the
    joint bandwidth integrates it exactly).  x points are snapped to the
    convolution grid; both routes use the snapped x, so the returned
    max-absolute discrepancy is grid-artifact-free.
    """
    if phi.a0 != 0.0:
        raise DomainError("phi must have zero mean")
    f = synthesize_class_function(psi, beta, phi, a0=0.0)
    resid = f - apply_vn(f, taper_coefficients(psi, n))
    ke = KernelEvaluator.build(psi, n, beta)
    band = ke.truncation_index + phi.degree + 8
    grid = 1 << max(12, int(math.ceil(math.log2(2.5 * band))))
    if grid > (1 << 22):
        raise NumericError("convolution grid would exceed 2^22 points")
    phi_s = phi.uniform_samples(grid)
    ker_s = ke.series.uniform_samples(grid)
    conv = np.fft.irfft(np.fft.rfft(phi_s) * np.fft.rfft(ker_s), grid)
    xs = np.atleast_1d(np.asarray(x_samples, dtype=float))
    idx = np.round(xs * grid / TWO_PI).astype(int) % grid
    x_snap = TWO_PI * idx / grid
    route1 = np.asarray(resid.eval(x_snap), dtype=float)
    route2 = (2.0 / grid) * conv[idx]
    return float(np.max(np.abs(route1 - route2)))


# -- norms -------------------------------------------------------------------

MAX_GRID = 1 << 21   # cap on every norm grid
_BLOCK = 1 << 16     # points per pass block: 512 KB of float64
_POINTS_PER_WAVELENGTH = 16   # grid nodes per wavelength of the top harmonic


@dataclass(frozen=True)
class NormValue:
    """A norm plus its numerical error estimate."""

    value: float
    error_estimate: float

    def __float__(self) -> float:
        return self.value


def _grid_size(degree: int) -> int:
    """The norm grid of a degree-`degree` series: _POINTS_PER_WAVELENGTH
    nodes per wavelength of its top harmonic, rounded up to a power of two
    of at least 4,096.  Every grid norm and the sup scan use it; a series
    that needs more than MAX_GRID points is refused, not under-sampled."""
    base = max(4096, _POINTS_PER_WAVELENGTH * degree)
    G = 1 << int(math.ceil(math.log2(base)))
    if G > MAX_GRID:
        raise NumericError(f"degree {degree} needs a {G}-point norm grid, "
                           f"above MAX_GRID = {MAX_GRID}")
    return G


def _halving_sum(parts: list) -> float:
    """Sum block partials pairwise, neighbours first.

    np.sum's pairwise summation halves a power-of-two array down to
    blocks of _BLOCK points, so on such grids this adds the blocks'
    np.sum values in its order and gives its bits.
    """
    while len(parts) > 1:
        parts = [sum(parts[i:i + 2]) for i in range(0, len(parts), 2)]
    return float(parts[0])


def _power(w: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """w**p (w >= 0) into out; at p = 4 the square of the square and at
    p = 4/3 w cbrt(w), both cheaper than np.power."""
    if p == 4.0:
        return np.square(np.square(w, out=out), out=out)
    if p == 4.0 / 3.0:
        return np.multiply(np.cbrt(w, out=out), w, out=out)
    return np.power(w, p, out=out)


def _kinks(s: np.ndarray, panels: list, orders, h: float) -> dict:
    """{p: trapezoid correction} on the sign-change panels (i, i+1) of the
    grid s (step h) in `panels`, then the wrap panel (size-1, 0).  With g
    linear across a panel, int |g|^p is h (A^{p+1} + B^{p+1}) / ((p+1)(A+B))
    against the rule's h (A^p + B^p)/2, A and B the endpoint magnitudes."""
    if not orders:
        return {}
    if s[-1] * s[0] < 0.0:
        panels.append(np.array([s.size - 1]))
    idx = np.concatenate(panels)
    A = np.abs(s[idx])
    B = np.abs(s[(idx + 1) % s.size])
    return {p: float(h * np.sum(
        (A ** (p + 1.0) + B ** (p + 1.0)) / ((p + 1.0) * (A + B))
        - 0.5 * (A ** p + B ** p))) for p in orders}


def _grid_pass(s: np.ndarray, orders, h: float,
               peak: bool = False) -> tuple[dict, Optional[int]]:
    """One blocked walk over the samples s (step h): {p: (full, half)}, the
    composite rule for int |g|^p on s and on its even nodes (step 2h), and
    with `peak` the first index of max |s| (else None).  Each _BLOCK-point
    block (even, so its even entries are the half grid's) takes |s| once
    and each power once into reused buffers, summed in `_halving_sum`
    order.  Orders that are not even integers (|g|^p is then no
    trigonometric polynomial) share one panel scan per grid for `_kinks`.
    """
    kinked = [p for p in orders if p != 2.0 * round(p / 2.0)]
    sums = {p: ([], []) for p in orders}
    panels, half_panels = [], []
    mag = np.empty(min(s.size, _BLOCK))
    powered = np.empty_like(mag)
    i_peak, top = (0, -1.0) if peak else (None, None)
    for start in range(0, s.size, _BLOCK):
        blk = s[start:start + _BLOCK]
        w = np.abs(blk, out=mag[:blk.size])
        if peak:   # a later block wins only with a strictly larger value
            j = int(np.argmax(w))
            if w[j] > top:
                i_peak, top = start + j, w[j]
        for p in orders:
            wp = w if p == 1.0 else _power(w, p, powered[:w.size])
            sums[p][0].append(wp.sum())
            sums[p][1].append(wp[::2].sum())
        if kinked:
            seg = s[start:start + _BLOCK + 1]
            panels.append(start + np.flatnonzero(seg[:-1] * seg[1:] < 0.0))
            seg = s[start:start + _BLOCK + 2:2]
            half_panels.append(start // 2
                               + np.flatnonzero(seg[:-1] * seg[1:] < 0.0))
    kink = _kinks(s, panels, kinked, h)
    kink_half = _kinks(s[::2], half_panels, kinked, 2.0 * h)
    return {p: (h * _halving_sum(full) + kink.get(p, 0.0),
                2.0 * h * _halving_sum(half) + kink_half.get(p, 0.0))
            for p, (full, half) in sums.items()}, i_peak


def _sup_refined(series: FourierSeries, s: np.ndarray, i: int,
                 curvature: Optional[float]) -> NormValue:
    """max |g| from its grid argmax i, refined by Newton steps on g' that
    read g' and g'' off one cos/sin table per iterate.  At 16 nodes per
    wavelength the peak is within one cell of node i, so steps are clamped
    to it; (1/2) sum k^2 |c_k| (last step)^2 bounds the error."""
    peak = float(abs(s[i]))
    h = TWO_PI / s.size
    lo, hi = (i - 1) * h, (i + 1) * h
    d1 = series.derivative()
    d2 = d1.derivative()
    k = np.arange(1, series.degree + 1)
    t, step = i * h, 0.0
    for _ in range(8):
        kt = np.outer([t], k)
        cos_kt, sin_kt = np.cos(kt), np.sin(kt)
        curv = float((cos_kt @ d2.a + sin_kt @ d2.b)[0])
        if curv == 0.0:
            break
        slope = float((cos_kt @ d1.a + sin_kt @ d1.b)[0])
        t_new = min(max(t - slope / curv, lo), hi)
        step, t = t_new - t, t_new
        if abs(step) < 1e-13:
            break
    if t != i * h:  # at the node itself the grid sample is the value
        peak = max(peak, abs(float(series.eval(t))))
    if curvature is None:   # a kernel's comes from its profile
        curvature = float(np.sum(np.hypot(d2.a, d2.b)))  # sum k^2 |c_k|
    return NormValue(value=peak, error_estimate=0.5 * curvature * step ** 2)


def _norms(g, orders) -> dict:
    """{p: NormValue} for each order p in [1, inf] of a series or a kernel
    (a kernel's profile gives its energy and sum k^2 |c_k|).  p = 2 is
    Parseval's sqrt(pi * energy); the others share one `_grid_pass` over
    the norm grid, the refined maximum at p = inf and else the trapezoid
    with the half-grid Richardson estimate, except at even p below
    G / degree: there the rule is exact for |g|^p and, as for Parseval,
    only the rounding of the summed terms is left."""
    kernel = isinstance(g, KernelEvaluator)
    series = g.series if kernel else g
    if not isinstance(series, FourierSeries):
        raise DomainError(f"cannot take norms of {type(g).__name__}")
    eps = float(np.finfo(float).eps)
    out, grid = {}, []
    for p in dict.fromkeys(orders):
        if not p >= 1.0:
            raise DomainError(f"p must be >= 1, got {p}")
        if p == 2.0:
            value = math.sqrt(math.pi * (g.energy if kernel
                                         else series.energy()))
            out[p] = NormValue(value=value, error_estimate=value * (
                series.degree + 1) * eps)
        else:
            grid.append(p)
    if not grid:
        return out
    G = _grid_size(series.degree)
    s = series.uniform_samples(G)
    finite = [p for p in grid if not math.isinf(p)]
    sums, i = _grid_pass(s, finite, TWO_PI / G, peak=len(finite) < len(grid))
    for p in finite:
        full, half = sums[p]
        exact = p == 2.0 * round(p / 2.0) and p * series.degree < G
        err_i = full * (G + 2) * eps if exact else abs(full - half) / 3.0
        value = full ** (1.0 / p) if full > 0.0 else 0.0
        out[p] = NormValue(value, value * err_i / (p * full) if full > 0.0
                           else err_i ** (1.0 / p))
    if i is not None:
        out[math.inf] = _sup_refined(series, s, i,
                                     g.curvature if kernel else None)
    return out


def lp_norm(g, p: float) -> NormValue:
    """(int_0^{2pi} |g|^p dt)^{1/p}, or max |g| at p = inf, for a
    FourierSeries or a KernelEvaluator: `_norms` with one order."""
    return _norms(g, (p,))[p]


def sup_norm(g) -> NormValue:
    """max |g| by the dense norm grid plus Newton refinement at its argmax."""
    return _norms(g, (math.inf,))[math.inf]


def kernel_norms(ke: KernelEvaluator, orders) -> dict:
    """ke's norm cache, with the orders it lacked added by one `_norms`."""
    missing = [p for p in orders if p not in ke._norm_cache]
    ke._norm_cache.update(_norms(ke, missing))
    return ke._norm_cache


def kernel_norm(psi: PsiFunction, beta: float, n: int, p_prime: float,
                evaluator: Optional[KernelEvaluator] = None) -> NormValue:
    """||K*||_{p'} for the (psi, n, beta) residual kernel.

    The truncation budget enters the error estimate as tail_eps (uniform
    coefficient-tail bound) times the measure factor (2 pi)^{1/p'}.  The
    evaluator keeps each order's norm, so repeated orders are free.
    """
    ke = evaluator if evaluator is not None else KernelEvaluator.build(
        psi, n, beta)
    nv = kernel_norms(ke, (p_prime,))[p_prime]
    measure = 1.0 if math.isinf(p_prime) else TWO_PI ** (1.0 / p_prime)
    return NormValue(value=nv.value,
                     error_estimate=nv.error_estimate + ke.tail_eps * measure)


# -- duality -----------------------------------------------------------------

# sign-function mean beyond which the p = inf extremal is shifted
MEAN_TOL = 5e-3


@dataclass(frozen=True)
class ExtremalFunction:
    """Near-extremal phi of the Hoelder duality step at a fixed point x0.

    attainment = (1/pi) int phi(t) K*(x0 - t) dt, to be compared with
    target = (1/pi) ||K*||_{p'}.  For p = 1 the extremal is a cosine bump of
    recorded width at the kernel argmax; its nonzero mean is reported rather
    than corrected, because subtracting a constant from phi cannot change
    the attained value (the kernel has zero mean) yet would inflate
    ||phi||_1 and wreck the normalization.
    """

    p: float
    p_prime: float
    x0: float
    grid_size: int
    norm_p: float
    attainment: float
    target: float
    ratio: float
    mean_offset: float
    mean_corrected: bool
    mollify_width: Optional[float]
    _fn: Callable = field(repr=False)

    def __call__(self, t):
        return self._fn(t)


def duality_extremal_phi(psi: PsiFunction, beta: float, n: int, p: float,
                         x0: float, grid_size: Optional[int] = None,
                         evaluator: Optional[KernelEvaluator] = None) -> ExtremalFunction:
    """Unit-ball phi nearly attaining (1/pi)||K*||_{p'} at x0.

    p in (1, inf): phi = sign(S)|S|^{p'-1} / ||S||_{p'}^{p'/p} with
    S(t) = K*(x0 - t); equality is exact up to quadrature.  p = inf: the
    sign function (mean-corrected only beyond MEAN_TOL, and the correction
    is flagged).  p = 1: mollified point mass at the argmax of |S|.
    x0 is snapped to the working grid so S is an exact index reversal.
    """
    if not p >= 1.0:
        raise DomainError(f"p must be in [1, inf], got {p}")
    ke = evaluator if evaluator is not None else KernelEvaluator.build(
        psi, n, beta)
    if grid_size is None:
        grid_size = max(1 << 17, _grid_size(ke.truncation_index))
    G = int(grid_size)
    h = TWO_PI / G
    samples = ke.series.uniform_samples(G)
    i0 = int(round(x0 / h)) % G
    x0s = h * i0
    S = samples[(i0 - np.arange(G)) % G]

    def S_of(t):
        return ke.eval(x0s - np.asarray(t, dtype=float))

    mean_corrected = False
    width = None
    if math.isinf(p):
        p_prime = 1.0
        phi_s = np.sign(S)
        mean = float(np.mean(phi_s))
        shift = 0.0
        if abs(mean) > MEAN_TOL:
            shift = mean
            phi_s = (phi_s - shift) / (1.0 + abs(shift))
            mean_corrected = True
            mean = float(np.mean(phi_s))
        norm_p = float(np.max(np.abs(phi_s)))

        def fn(t):
            raw = np.sign(S_of(t))
            return (raw - shift) / (1.0 + abs(shift)) if mean_corrected else raw
        target = _grid_pass(S, (1.0,), h)[0][1.0][0] / math.pi
    elif p == 1.0:
        p_prime = math.inf
        i_star = int(np.argmax(np.abs(S)))
        t_star = h * i_star
        s_star = float(np.sign(S[i_star]))
        width = 16.0 * h

        def fn(t):
            u = np.asarray(_wrap(np.asarray(t, dtype=float) - t_star))
            out = np.where(np.abs(u) <= width,
                           0.5 * (1.0 + np.cos(math.pi * u / width)) / width, 0.0)
            return s_star * out
        phi_s = np.asarray(fn(h * np.arange(G)), dtype=float)
        norm_p = 1.0  # analytic: the bump integrates to exactly its width
        target = float(sup_norm(ke).value) / math.pi
        mean = s_star / TWO_PI
    else:
        p_prime = p / (p - 1.0)
        s_norm_pp = h * float(np.sum(np.abs(S) ** p_prime))
        denom = s_norm_pp ** (1.0 / p)
        phi_s = np.sign(S) * np.abs(S) ** (p_prime - 1.0) / denom
        norm_p = (h * float(np.sum(np.abs(phi_s) ** p))) ** (1.0 / p)
        mean = h * float(np.sum(phi_s)) / TWO_PI

        def fn(t):
            sv = np.asarray(S_of(t), dtype=float)
            return np.sign(sv) * np.abs(sv) ** (p_prime - 1.0) / denom
        target = s_norm_pp ** (1.0 / p_prime) / math.pi
    attainment = h * float(np.sum(phi_s * S)) / math.pi
    return ExtremalFunction(p=p, p_prime=p_prime, x0=x0s, grid_size=G,
                            norm_p=float(norm_p), attainment=float(attainment),
                            target=float(target),
                            ratio=float(attainment / target) if target else math.nan,
                            mean_offset=float(mean), mean_corrected=mean_corrected,
                            mollify_width=width, _fn=fn)
