"""Tapered partial sums, class-function synthesis, and integral norms.

The linear method is a Fourier multiplier: harmonics below the taper window
pass through, harmonics in the window are damped by lam(k), and everything
from n on is dropped.  Its residual against a synthesized class function is
a convolution with the residual kernel, which is what ties this module to
`kernels`, which also owns the taper window.  Norm computation is
deliberately boring: composite trapezoid on uniform grids (spectrally
accurate for periodic integrands, with a local correction at sign-change
panels of |g|^p).
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

    def value(self, k: int) -> float:
        if k < 0:
            raise DomainError("harmonic index must be >= 0")
        return float(self.lam[k]) if k < self.n else 0.0


def taper_coefficients(psi: PsiFunction, n: int,
                       tol_inv: float = 1e-12) -> TaperCoefficients:
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
    prof = characteristics(psi, float(n), tol_inv)
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
                         phi: FourierSeries, x_samples,
                         tail_eps: Optional[float] = None) -> float:
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
    ke = KernelEvaluator.build(psi, n, beta, tail_eps)
    band = ke.truncation_index + phi.degree + 8
    grid = 1 << max(12, int(math.ceil(math.log2(2.5 * band))))
    if grid > (1 << 22):
        raise NumericError("convolution grid would exceed 2^22 points")
    phi_s = phi.uniform_samples(grid)
    ker_s = ke.uniform_samples(grid)
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


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate |g|^p over the period: the composite trapezoid rule.

    The uniform grid carries >= points_per_wavelength nodes per retained
    wavelength (a power of two, capped at MAX_GRID); the sup norm scans the
    same grid.  The error estimate is Richardson's, from the half grid.
    """

    points_per_wavelength: float = 16.0

    def __post_init__(self):
        if not 8.0 <= self.points_per_wavelength < math.inf:
            raise DomainError("points_per_wavelength must be finite and >= 8")


DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class NormValue:
    """A norm plus its numerical error estimate."""

    value: float
    error_estimate: float

    def __float__(self) -> float:
        return self.value


def _series(g) -> FourierSeries:
    """The coefficient form of a norm target: a kernel's series, or a series."""
    if isinstance(g, KernelEvaluator):
        return g.series
    if isinstance(g, FourierSeries):
        return g
    raise DomainError(f"cannot take norms of {type(g).__name__}")


def _grid_size(quad: QuadratureSpec, degree: int) -> int:
    base = max(4096, quad.points_per_wavelength * degree)
    return min(1 << int(math.ceil(math.log2(base))), MAX_GRID)


def _blocks(s: np.ndarray, overlap: int = 0):
    """(start, view) of s in _BLOCK-point blocks, in order, each view
    extended by up to `overlap` points of the next block so a caller can
    see neighbours.

    One block fits in L2 with room for a same-sized scratch array, so a
    norm makes one cache-sized pass over the grid instead of whole-grid
    temporaries.
    """
    for i in range(0, s.size, _BLOCK):
        yield i, s[i:i + _BLOCK + overlap]


def _argmax_abs(s: np.ndarray) -> int:
    """np.argmax(np.abs(s)) block by block, keeping its first-index rule:
    a later block wins only with a strictly larger magnitude."""
    i, peak = 0, -1.0
    for start, blk in _blocks(s):
        j = int(np.argmax(np.abs(blk)))
        if abs(blk[j]) > peak:
            i, peak = start + j, abs(blk[j])
    return i


def sup_norm(g, quad: Optional[QuadratureSpec] = None) -> NormValue:
    """max |g| by dense grid plus refinement at the argmax.

    The quadrature grid carries >= points_per_wavelength points per
    wavelength of the highest retained harmonic, so the true peak sits
    within one grid cell of the sampled one.  Newton steps on g' (clamped
    to that cell) refine it, with error estimate (1/2) sum k^2 |c_k|
    (last step)^2 from the curvature bound.
    """
    series = _series(g)
    G = _grid_size(quad or DEFAULT_QUAD, series.degree)
    s = series.uniform_samples(G)
    i = _argmax_abs(s)
    peak = float(abs(s[i]))
    h = TWO_PI / G
    lo, hi = (i - 1) * h, (i + 1) * h
    d1 = series.derivative()
    d2 = d1.derivative()
    t, step = i * h, 0.0
    for _ in range(8):
        curv = float(d2.eval(t))
        if curv == 0.0:
            break
        t_new = min(max(t - float(d1.eval(t)) / curv, lo), hi)
        step, t = t_new - t, t_new
        if abs(step) < 1e-13:
            break
    if t != i * h:  # at the node itself the grid sample is the value
        peak = max(peak, abs(float(series.eval(t))))
    curvature = float(np.sum(np.hypot(d2.a, d2.b)))  # sum k^2 |c_k|
    return NormValue(value=peak, error_estimate=0.5 * curvature * step ** 2)


def _kink_correction(s: np.ndarray, p: float, h: float) -> float:
    """Trapezoid correction on panels where g changes sign.

    Modeling g as linear across such a panel, the exact integral of
    |linear|^p is h (A^{p+1} + B^{p+1}) / ((p+1)(A+B)) against the
    trapezoid's h (A^p + B^p)/2, with A, B the endpoint magnitudes.
    Panels are found block by block, the wrap panel (G-1, 0) last.

    Even integer p makes |g|^p a plain trigonometric polynomial, for
    which the composite rule is already exact; correcting there would
    only add the linear-model error back in.
    """
    if p == 2.0 * round(p / 2.0):
        return 0.0
    G = s.size
    panels = [start + np.flatnonzero(seg[:-1] * seg[1:] < 0.0)
              for start, seg in _blocks(s, overlap=1)]
    if s[-1] * s[0] < 0.0:
        panels.append(np.array([G - 1]))
    idx = np.concatenate(panels)
    if not idx.size:
        return 0.0
    A = np.abs(s[idx])
    B = np.abs(s[(idx + 1) % G])
    exact = (A ** (p + 1.0) + B ** (p + 1.0)) / ((p + 1.0) * (A + B))
    trap = 0.5 * (A ** p + B ** p)
    return float(h * np.sum(exact - trap))


def _halving_sum(parts: list) -> float:
    """Sum block partials pairwise, neighbours first.

    np.sum's pairwise summation halves a power-of-two array down to
    blocks of _BLOCK points, so on such grids this adds the blocks'
    np.sum values in its order and gives its bits.
    """
    while len(parts) > 1:
        parts = [sum(parts[i:i + 2]) for i in range(0, len(parts), 2)]
    return float(parts[0])


def _trapezoid(s: np.ndarray, p: float, h: float) -> tuple[float, float]:
    """int |g|^p by the composite rule on the grid s (step h) and on its
    even nodes (step 2h), both from one blocked pass over |s|^p.

    _BLOCK is even, so a block's even entries are the half grid's nodes.
    """
    full, half = [], []
    for _, blk in _blocks(s):
        w = np.abs(blk)
        if p != 1.0:
            np.power(w, p, out=w)
        full.append(w.sum())
        half.append(w[::2].sum())
    return (h * _halving_sum(full) + _kink_correction(s, p, h),
            2.0 * h * _halving_sum(half)
            + _kink_correction(s[::2], p, 2.0 * h))


def lp_norm(g, p: float, quad: Optional[QuadratureSpec] = None) -> NormValue:
    """(int_0^{2pi} |g|^p dt)^{1/p}; p = inf delegates to sup_norm.

    g is a FourierSeries or a KernelEvaluator.  p = 2 is Parseval's
    sqrt(pi * energy), exact up to the rounding of its degree-term sum;
    every other finite order takes the grid.
    """
    quad = quad or DEFAULT_QUAD
    if math.isinf(p):
        return sup_norm(g, quad)
    if not p >= 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    series = _series(g)
    if p == 2.0:
        value = math.sqrt(math.pi * series.energy())
        return NormValue(value=value, error_estimate=value * (
            series.degree + 1) * float(np.finfo(float).eps))
    G = _grid_size(quad, series.degree)
    full, half = _trapezoid(series.uniform_samples(G), p, TWO_PI / G)
    err_i = abs(full - half) / 3.0
    if full <= 0.0:
        return NormValue(0.0, err_i ** (1.0 / p))
    value = full ** (1.0 / p)
    return NormValue(value=value, error_estimate=value * err_i / (p * full))


def kernel_norm(psi: PsiFunction, beta: float, n: int, p_prime: float,
                quad: Optional[QuadratureSpec] = None,
                tail_eps: Optional[float] = None,
                evaluator: Optional[KernelEvaluator] = None) -> NormValue:
    """||K*||_{p'} for the (psi, n, beta) residual kernel.

    The truncation budget enters the error estimate as tail_eps (uniform
    coefficient-tail bound) times the measure factor (2 pi)^{1/p'}.  The
    evaluator keeps each (p', quadrature) norm, so repeated orders are free.
    """
    ke = evaluator if evaluator is not None else KernelEvaluator.build(
        psi, n, beta, tail_eps)
    key = (p_prime, quad or DEFAULT_QUAD)
    nv = ke._norm_cache.get(key)
    if nv is None:
        nv = ke._norm_cache[key] = lp_norm(ke, p_prime, quad)
    measure = 1.0 if math.isinf(p_prime) else TWO_PI ** (1.0 / p_prime)
    return NormValue(value=nv.value,
                     error_estimate=nv.error_estimate + ke.tail_eps * measure)


# -- duality -----------------------------------------------------------------

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
                         x0: float, tail_eps: Optional[float] = None,
                         mean_tol: float = 5e-3,
                         grid_size: Optional[int] = None,
                         evaluator: Optional[KernelEvaluator] = None) -> ExtremalFunction:
    """Unit-ball phi nearly attaining (1/pi)||K*||_{p'} at x0.

    p in (1, inf): phi = sign(S)|S|^{p'-1} / ||S||_{p'}^{p'/p} with
    S(t) = K*(x0 - t); equality is exact up to quadrature.  p = inf: the
    sign function (mean-corrected only beyond mean_tol, and the correction
    is flagged).  p = 1: mollified point mass at the argmax of |S|.
    x0 is snapped to the working grid so S is an exact index reversal.
    """
    if p < 1.0 and not math.isinf(p):
        raise DomainError("p must be in [1, inf]")
    ke = evaluator if evaluator is not None else KernelEvaluator.build(
        psi, n, beta, tail_eps)
    if grid_size is None:
        grid_size = max(1 << 17, _grid_size(DEFAULT_QUAD, ke.truncation_index))
    G = int(grid_size)
    h = TWO_PI / G
    samples = ke.uniform_samples(G)
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
        if abs(mean) > mean_tol:
            shift = mean
            phi_s = (phi_s - shift) / (1.0 + abs(shift))
            mean_corrected = True
            mean = float(np.mean(phi_s))
        norm_p = float(np.max(np.abs(phi_s)))

        def fn(t):
            raw = np.sign(S_of(t))
            return (raw - shift) / (1.0 + abs(shift)) if mean_corrected else raw
        target = _trapezoid(S, 1.0, h)[0] / math.pi
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
