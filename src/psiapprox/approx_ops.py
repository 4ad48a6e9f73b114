"""Tapered partial sums, class-function synthesis, and integral norms.

The linear method is a Fourier multiplier: harmonics below the taper window
pass through, harmonics in the window are damped by lam(k), and everything
from n on is dropped.  Its residual against a synthesized class function is
a convolution with the residual kernel, which is what ties this module to
`kernels`, which also owns the taper window and MAX_GRID.  Norm
computation is deliberately boring: composite trapezoid on uniform grids
(spectrally accurate for periodic integrands, with a local correction at
sign-change panels of |g|^p).  `_grid_size` sizes every grid here.
`_norms` reads a kernel's or a series' inputs in one place, makes every
norm's record, a kernel's with its certified tail, and keeps a kernel's
on its evaluator.  A kernel's grid, its evaluator's mirror of its
profile's folded f, is read off f's cached samples by `series`, which
owns their row layout, block by block on up to two workers, and walked
once for all orders asked together, half at integer beta.  The sup norm
reads a local interpolant of that grid; the duality extremals and the
residual check read it whole.  A g far from unit scale is read in units
of 2^e.  `conjugate_exponent` maps p to p'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericError
from .kernels import MAX_GRID, KernelEvaluator, _taper_window
from .psi_core import PsiFunction, characteristics
from .series import (FourierSeries, _mirror_block, _moments, _node, _spread,
                     _wrap)

TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)


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


def residual_consistency(ke: KernelEvaluator, phi: FourierSeries,
                         x_samples) -> float:
    """Compare f - V_n(f), f of phi in ke's class, two ways at x points.

    Route 1 drops/damps Fourier coefficients directly; route 2 convolves
    phi with the residual kernel ke, (1/pi) int phi(t) K*(x - t) dt, by
    exact trapezoid on the norm grid of degree K + deg phi (the integrand
    is band-limited, so a grid of more than twice the joint bandwidth
    integrates it exactly), on ke's grid mirrored whole.  x points are
    snapped to that grid and both routes use the snapped x, so the
    returned max-absolute discrepancy is grid-artifact-free.
    """
    if phi.a0 != 0.0:
        raise DomainError("phi must have zero mean")
    xs = np.atleast_1d(np.asarray(x_samples, dtype=float))
    if not xs.size or not np.all(np.isfinite(xs)):
        raise DomainError(f"x samples must be finite and not empty, got {x_samples}")
    f = synthesize_class_function(ke.psi, ke.beta, phi, a0=0.0)
    resid = f - apply_vn(f, taper_coefficients(ke.psi, ke.n))
    grid = _grid_size(ke.truncation_index + phi.degree)
    ker = np.fft.rfft(ke.folded._mirrored(grid, *ke.mirror))
    conv = np.fft.irfft(np.fft.rfft(phi.uniform_samples(grid)) * ker, grid)
    idx = np.round(xs * grid / TWO_PI).astype(int) % grid
    route1 = resid.eval(TWO_PI * idx / grid)   # at the snapped x
    return float(np.max(np.abs(route1 - (2.0 / grid) * conv[idx])))


# -- norms -------------------------------------------------------------------

_BLOCK = 1 << 16     # points per pass block: 512 KB of float64
_POINTS_PER_WAVELENGTH = 16   # grid nodes per wavelength of the top harmonic
_LOCAL_M = 24   # the local interpolant reads 2 _LOCAL_M + 2 grid nodes


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


def conjugate_exponent(p: float) -> float:
    """p' with 1/p + 1/p' = 1, for p in [1, inf]."""
    if not p >= 1.0:
        raise DomainError(f"exponent must be >= 1, got {p}")
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _halving_sum(parts) -> float:
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


def _kinks(A: list, B: list, orders, h: float) -> dict:
    """{p: trapezoid correction} on the sign-change panels of a grid (step
    h) whose endpoint magnitudes are gathered in A and B.  With g linear
    across a panel, int |g|^p is h (A^{p+1} + B^{p+1}) / ((p+1)(A+B))
    against the rule's h (A^p + B^p)/2."""
    A, B = np.concatenate(A), np.concatenate(B)
    return {p: float(h * np.sum(
        (A ** (p + 1.0) + B ** (p + 1.0)) / ((p + 1.0) * (A + B))
        - 0.5 * (A ** p + B ** p))) for p in orders}


def _unit_exponent(S: float) -> int:
    """e to read a g with S = sum |c_k| in units of 2^e: 0 in [2^-200, 2^200],
    else the multiple of 3 nearest log2 S, so |g|^{4/3} scales exactly."""
    return (3 * round(math.log2(S) / 3) if 0.0 < S < math.inf
            and not 2.0 ** -200 <= S <= 2.0 ** 200 else 0)


def _grid_pass(s: np.ndarray, orders, h: float, peak: bool = False,
               mirror: tuple = (1.0, 0.0)) -> tuple[dict, Optional[tuple]]:
    """One blocked walk over a grid g (step h): {p: (full, half)}, the
    composite rule for int |g|^p on g and on its even nodes (step 2h), and
    with `peak` (i, |g_i|) at the first index i of max |g| (else None).
    g is u f(t) + v f(-t), mirror = (u, v), of f's samples s, natural or
    in rows as `_mirror_block` reads them, built block by block (the
    default (1, 0) walks s itself: x 1 + 0 y is x); if |u| == |v|, |g| is
    even and the walk ends at node G/2 (G a multiple of 4): nodes 0 and G/2
    count once, the rest and their panels twice.  Each _BLOCK-point block
    (even, so its even entries are the half grid's) takes |g| once and
    each power once into its worker's buffers (`_spread`); the blocks'
    records combine in block order, with no bit depending on the worker
    count: sums in `_halving_sum` order, a later block's max only if
    strictly larger.  Orders that are not even integers (|g|^p is then no
    trigonometric polynomial) share one panel scan per grid for `_kinks`;
    a whole walk adds its wrap panels."""
    G = s.size
    halved = abs(mirror[0]) == abs(mirror[1])
    stop = G // 2 if halved else G
    kinked = [p for p in orders if p != 2.0 * round(p / 2.0)]
    starts = range(0, stop, _BLOCK)

    def block(start, bufs):
        n = min(_BLOCK, stop - start)   # the block's nodes, and node
        m = min(n + 1, G - start)       # start + n for its last panel
        buf, powered = bufs[:, :m]
        blk = _mirror_block(s, *mirror, start, buf)
        first, panels = float(blk[0]), []
        for b in (blk, blk[::2]) if kinked else ():   # grid, half grid
            c = np.flatnonzero(np.multiply(b[:-1], b[1:], out=powered[:b.size - 1]) < 0)
            panels.append((np.abs(b[c]), np.abs(b[c + 1]), float(b[-1])))
        w = np.abs(blk, out=buf)
        j = int(np.argmax(w)) if peak else 0
        top, sums = (start + j, float(w[j])), {}
        for p in orders:
            x = w if p == 1.0 else _power(w, p, powered)   # |g|^p
            sums[p] = (x[:n].sum(), x[:n:2].sum(), float(x[0]), float(x[-1]))
        return first, panels, top, sums

    def walk(lo, hi):   # one worker's blocks, in one set of buffers
        bufs = np.empty((2, min(G, _BLOCK + 1)))
        return [block(start, bufs) for start in starts[lo:hi]]
    firsts, panels, tops, sums = zip(*(
        rec for part in _spread(walk, len(starts)) for rec in part))
    twice, g0, kinks = (2.0 if halved else 1.0), firsts[0], [{}, {}]
    for i, step in enumerate((twice * h, twice * 2.0 * h) if kinked else ()):
        A, B, lasts = zip(*(blk[i] for blk in panels))
        if not halved and lasts[-1] * g0 < 0.0:   # a whole walk's wrap
            A, B = (*A, [abs(lasts[-1])]), (*B, [abs(g0)])
        kinks[i] = _kinks(A, B, kinked, step)
    out = {}
    for p in orders:
        full, half, heads, tails = zip(*(blk[p] for blk in sums))
        full, half = _halving_sum(full), _halving_sum(half)
        if halved:   # twice nodes 0..G/2 - 1, less node 0, plus node G/2
            full = 2.0 * full - heads[0] + tails[-1]
            half = 2.0 * half - heads[0] + tails[-1]
        out[p] = (h * full + kinks[0].get(p, 0.0),
                  2.0 * h * half + kinks[1].get(p, 0.0))
    # the first block's max, then a later one's only if strictly larger
    return out, max((0, -1.0), *tops, key=lambda f: f[1]) if peak else None


def _local(source: tuple, G: int, t: float) -> tuple:
    """(g, g', g'', e) at t from the 2m + 2 nodes around it (m = _LOCAL_M)
    of the G-point grid the norm pass cached, g = u f(t) + v f(-t) for
    source = (f, u, v), read by `_node`: the Gaussian-regularized sinc
    sum w_j g_j (Schmeisser & Stenger 2007), variance m/(pi - Kh) nodes,
    h = 2 pi/G, K = f's degree, at h fl(t/h).  e S, S = sum |c_k| of g,
    bounds its error (README derives it): with a = (pi - Kh)/2 = b m,
    e^{-am} (2/sqrt(pi a m) + 4 e^{-a}/(pi a (m + 1/2))) interpolating,
    sum |w_j| eps f's `_rounding_stages` for the samples, and sum |w_j|
    eps (m/8 + 6) + 5 eps (1 + sqrt(pi/b)) for the sum.  No weight reads
    g's scale."""
    f, *uv = source
    h, pi2, m = TWO_PI / G, math.pi ** 2, _LOCAL_M
    j = np.arange(-m, m + 2) + math.floor(t / h)
    y = t / h - j   # the nodes' offsets from t, in nodes
    z, near = pi2 * y * y, np.abs(y) < 0.03   # Taylor there: quotients cancel
    s0 = np.sinc(y)   # sin(pi y)/(pi y), its derivatives s1 = r y and s2
    r = np.where(near, -pi2 / 3 * (1 - z / 10 * (1 - z / 28 * (1 - z / 54 * (
        1 - z / 88)))), (np.cos(math.pi * y) - s0) / np.where(near, 1.0, y * y))
    s1, s2 = r * y, -pi2 * s0 - 2 * r
    b = (math.pi - f.degree * h) / (2 * m)
    w = np.exp(-b * y * y) * np.array([   # s0 exp(-b y^2) and its derivatives
        s0, s1 - 2 * b * y * s0, s2 - 4 * b * y * s1 + (4 * b * y * y - 2) * b * s0])
    a = b * m
    g = (w * _node(f._phases(G), *uv, j)).sum(axis=1) / h ** np.arange(3)
    e = math.exp(-a * m) * (2 / math.sqrt(math.pi * a * m) + 4 * math.exp(-a) / (
        math.pi * a * (m + 0.5))) + _EPS * (5 * (1 + math.sqrt(math.pi / b)) + (
            f._rounding_stages(G) + m / 8 + 6) * np.abs(w[0]).sum())
    return (*map(float, g), float(e))


def _sup_refined(source: tuple, even: bool, i: int, peak: float, G: int,
                 moments: tuple) -> NormValue:
    """max |g| from peak = |g_i| at the argmax i of its G-point grid, by
    Newton steps in the cell around node i on g' and g'' of `_local`, and
    g there at the last iterate.  With moments sum k^d |c_k|, d = 0 and 2,
    the estimate is (1/2) sum k^2 |c_k| step^2 + e sum |c_k|.  An even g
    (no sine terms) peaking at node 0, where g' is 0, takes no step."""
    if i == 0 and even:
        return NormValue(value=peak, error_estimate=0.0)
    h, step = TWO_PI / G, 0.0
    lo, t, hi = (i - 1) * h, i * h, (i + 1) * h
    for n in range(9):   # at most 8 steps, and the value at the last
        value, slope, curv, e = _local(source, G, t)
        if n == 8 or curv == 0.0 or n and abs(step) < 1e-13:
            break
        t_new = min(max(t - slope / curv, lo), hi)
        step, t = t_new - t, t_new
    if t != i * h:   # at the node itself the grid sample is the value
        peak = max(peak, abs(value))
    return NormValue(peak, 0.5 * moments[1] * step ** 2 + e * moments[0])


def _norms(g, orders) -> dict:
    """{p: NormValue} for each order p in [1, inf] of a series or a kernel,
    the one place a norm's record is made.  p = 2 is Parseval's
    sqrt(pi * energy); the others share one `_grid_pass` over the norm
    grid, the refined maximum at p = inf and else the trapezoid with the
    half-grid Richardson estimate, except at even p below G / degree:
    there the rule is exact for |g|^p and, as for Parseval, only the
    rounding of the summed terms is left.  A kernel (degree K, even if
    u == v) reads its profile's moments, mirrors its folded samples, has
    twice f's energy, each order's estimate adds the certified tail,
    tail_eps (2 pi)^{1/p}, and the evaluator keeps the records, so an
    order is computed once however it is asked for.  A series' grid is
    its own.  g is walked, and its energy summed, in units of 2^e, e =
    `_unit_exponent(S)`, S = sum |c_k|, and each record is scaled back:
    no product or power under- or overflows.  Inside [2^-200, 2^200],
    e = 0."""
    if isinstance(g, KernelEvaluator):
        (f, u, v), record = (g.folded, *g.mirror), g._norm_cache
        degree, even = g.truncation_index, u == v
        moments, tail, twice = g.moments, g.tail_eps, 2.0
    elif isinstance(g, FourierSeries):
        (f, u, v), record = (g, 1.0, 0.0), {}
        degree, even = g.degree, not g.b.any()
        moments = _moments(np.hypot(g.a, g.b), 0.5 * abs(g.a0))
        tail, twice = 0.0, 1.0
    else:
        raise DomainError(f"cannot take norms of {type(g).__name__}")
    e = _unit_exponent(moments[0])
    source = (f, math.ldexp(u, -e), math.ldexp(v, -e))   # g / 2^e
    moments = tuple(math.ldexp(m, -e) for m in moments)
    new, grid = {}, []
    for p in dict.fromkeys(orders):
        if p in record:
            continue
        if not p >= 1.0:
            raise DomainError(f"p must be >= 1, got {p}")
        if p == 2.0:   # a kernel's sum c_k^2 is twice its f's energy
            unit = FourierSeries(math.ldexp(f.a0, -e), np.ldexp(f.a, -e),
                                 np.ldexp(f.b, -e)) if e else f
            value = math.sqrt(math.pi * (twice * unit.energy()))
            new[p] = NormValue(value=value, error_estimate=value * (
                degree + 1) * _EPS)
        else:
            grid.append(p)
    if grid:
        G = _grid_size(degree)
        finite = [p for p in grid if not math.isinf(p)]
        sums, found = _grid_pass(source[0]._phases(G), finite, TWO_PI / G,
                                 peak=len(finite) < len(grid), mirror=source[1:])
        for p in finite:
            full, half = sums[p]
            exact = p == 2.0 * round(p / 2.0) and p * degree < G
            err_i = full * (G + 2) * _EPS if exact else abs(full - half) / 3.0
            value = full ** (1.0 / p) if full > 0.0 else 0.0
            new[p] = NormValue(value, value * err_i / (p * full) if full > 0.0
                               else err_i ** (1.0 / p))
        if found is not None:
            new[math.inf] = _sup_refined(source, even, *found, G, moments)
    for p, nv in new.items():
        measure = 1.0 if math.isinf(p) else TWO_PI ** (1.0 / p)
        record[p] = NormValue(math.ldexp(nv.value, e), math.ldexp(
            nv.error_estimate, e) + tail * measure)
    return {p: record[p] for p in orders}


def lp_norm(g, p: float) -> NormValue:
    """(int_0^{2pi} |g|^p dt)^{1/p}, or max |g| at p = inf, for a
    FourierSeries or a KernelEvaluator: `_norms` with one order."""
    return _norms(g, (p,))[p]


def sup_norm(g) -> NormValue:
    """max |g| by the dense norm grid plus Newton refinement at its argmax."""
    return _norms(g, (math.inf,))[math.inf]


def kernel_norm(psi: PsiFunction, beta: float, n: int, p_prime: float,
                evaluator: Optional[KernelEvaluator] = None) -> NormValue:
    """||K*||_{p'} for the (psi, n, beta) residual kernel: the record
    `_norms` keeps on its evaluator (one built for the call if None,
    refused if another kernel's), certified tail included."""
    ke = evaluator or KernelEvaluator.build(psi, n, beta)
    if (ke.psi, ke.n, ke.beta) != (psi, n, beta):
        raise DomainError(
            f"the kernel of n = {n}, beta = {beta} was given the evaluator "
            f"of n = {ke.n}, beta = {ke.beta} or of another psi")
    return _norms(ke, (p_prime,))[p_prime]


# -- duality -----------------------------------------------------------------

# sign-function mean beyond which the p = inf extremal is shifted
MEAN_TOL = 5e-3


@dataclass(frozen=True)
class ExtremalFunction:
    """Near-extremal phi of the Hoelder duality step at a fixed point x0.

    attainment = (1/pi) int phi(t) K*(x0 - t) dt, to be compared with
    target = (1/pi) ||K*||_{p'}, the kernel's `lp_norm`.  For p = 1 the
    extremal is a cosine bump of recorded width at the kernel argmax; its
    nonzero mean is reported rather than corrected, because subtracting a
    constant from phi cannot change the attained value (the kernel has zero
    mean) yet would inflate ||phi||_1 and wreck the normalization.
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


def duality_extremal_phi(ke: KernelEvaluator, p: float,
                         x0: float) -> ExtremalFunction:
    """Unit-ball phi nearly attaining (1/pi)||K*||_{p'} at x0, K* = ke.

    p in (1, inf): phi = sign(S)|S|^{p'-1} / ||S||_{p'}^{p'/p} with
    S(t) = K*(x0 - t); equality is exact up to quadrature.  p = inf: the
    sign function (mean-corrected only beyond MEAN_TOL, and the correction
    is flagged).  p = 1: mollified point mass at the argmax of |S|.
    x0 is snapped to the working grid, the norm grid of at least 2^17
    points, so S is an exact index reversal of ke's mirrored grid, on the
    norm grid the very grid the norm pass walks.  S (the callable's too) is
    in the records' units 2^e; phi, of degree 0 in S, needs no scaling back.
    """
    p_prime = conjugate_exponent(p)
    if not math.isfinite(x0):
        raise DomainError(f"x0 must be finite, got {x0}")
    G = max(1 << 17, _grid_size(ke.truncation_index))
    h, e = TWO_PI / G, _unit_exponent(ke.moments[0])
    i0 = int(round(x0 / h)) % G
    x0s = h * i0
    S = np.roll(ke.folded._mirrored(G, *np.ldexp(ke.mirror, -e))[::-1], i0 + 1)

    def S_of(t):
        return np.ldexp(ke.eval(x0s - np.asarray(t, dtype=float)), -e)

    mean_corrected, width = False, None
    if math.isinf(p):
        mean = float(np.mean(np.sign(S)))
        mean_corrected = abs(mean) > MEAN_TOL
        shift = mean if mean_corrected else 0.0   # 0: sign itself, exactly

        def fn(t):
            return (np.sign(S_of(t)) - shift) / (1.0 + abs(shift))
        phi_s = (np.sign(S) - shift) / (1.0 + abs(shift))
        mean, norm_p = float(np.mean(phi_s)), float(np.max(np.abs(phi_s)))
    elif p == 1.0:
        i_star = int(np.argmax(np.abs(S)))
        t_star, width = h * i_star, 16.0 * h
        s_star = float(np.sign(S[i_star]))

        def fn(t):
            u = _wrap(np.subtract(t, t_star))
            out = np.where(np.abs(u) <= width,
                           0.5 * (1.0 + np.cos(math.pi * u / width)) / width, 0.0)
            return s_star * out
        phi_s = np.asarray(fn(h * np.arange(G)), dtype=float)
        norm_p = 1.0  # analytic: the bump integrates to exactly its width
        mean = s_star / TWO_PI
    else:
        denom = (h * float(np.sum(np.abs(S) ** p_prime))) ** (1.0 / p)
        phi_s = np.sign(S) * np.abs(S) ** (p_prime - 1.0) / denom
        norm_p = (h * float(np.sum(np.abs(phi_s) ** p))) ** (1.0 / p)
        mean = h * float(np.sum(phi_s)) / TWO_PI

        def fn(t):
            sv = np.asarray(S_of(t), dtype=float)
            return np.sign(sv) * np.abs(sv) ** (p_prime - 1.0) / denom
    attainment = math.ldexp(h * float(np.sum(phi_s * S)) / math.pi, e)
    target = lp_norm(ke, p_prime).value / math.pi
    return ExtremalFunction(p=p, p_prime=p_prime, x0=x0s, grid_size=G,
                            norm_p=float(norm_p), attainment=attainment, target=target,
                            ratio=float(attainment / target) if target else math.nan,
                            mean_offset=float(mean), mean_corrected=mean_corrected,
                            mollify_width=width, _fn=fn)
