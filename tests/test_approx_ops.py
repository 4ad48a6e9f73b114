"""Taper multiplier, synthesis, norm machinery, duality extremals."""

import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

import psiapprox.series
from psiapprox import (DegenerateGapError, DomainError, FourierSeries,
                       KernelEvaluator, NumericError, PsiFunction,
                       approx_ops, apply_vn, bounds, kernels,
                       duality_extremal_phi, exp_power_thresholds,
                       kernel_norm, lp_norm,
                       residual_consistency, sup_norm,
                       synthesize_class_function, taper_coefficients,
                       verify_sweep)

from conftest import kernel_series

TWO_PI = 2.0 * math.pi


def zero_mean_series(rng, degree, decay=1.0):
    k = np.arange(1, degree + 1, dtype=float)
    return FourierSeries(a0=0.0,
                         a=rng.standard_normal(degree) / k ** decay,
                         b=rng.standard_normal(degree) / k ** decay)


def reference_lp(ke, p, grid=1 << 15, max_width=TWO_PI / 64, order=20):
    """||K*||_p by Gauss-Legendre between the sign changes of K*.

    The sign changes are bracketed on a uniform FFT sample and refined by
    brentq, so |K*|^p is smooth on every piece; pieces are split to at most
    max_width.  Independent of the trapezoid rule under test.
    """
    s = kernel_series(ke).uniform_samples(grid)
    h = TWO_PI / grid
    cross = np.nonzero(s * np.roll(s, -1) < 0.0)[0]
    roots = [brentq(lambda t: float(ke.eval(t)), i * h, (i + 1) * h,
                    xtol=1e-15) for i in cross]
    edges = np.unique(np.concatenate(([0.0, TWO_PI], roots)))
    x, w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        sub = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / max_width)) + 1)
        mid = 0.5 * (sub[:-1] + sub[1:])[:, None]
        half = 0.5 * np.diff(sub)[:, None]
        vals = np.abs(np.asarray(ke.eval((mid + half * x).ravel()))) ** p
        total += float(np.sum(half * w * vals.reshape(mid.shape[0], order)))
    return total ** (1.0 / p)


def odd_kernel_lp(ke, p, G=1 << 20, order=20):
    """||K*||_p of the odd kernel sum c_k sin kt (ke's sine coefficients) as
    (2 int_0^pi |K*|^p)^{1/p}, by Gauss-Legendre on (0, pi) split at the
    roots of K*, independent of the trapezoid rule and of ke's phase.

    K* is the cubic spline through its samples on a G-point grid (off by
    about (kh)^4 / 77 of harmonic k: below 1e-12 relative for these kernels).
    Each piece is halved and each half mapped by t = root + L u^3 from its
    root end, so |K*|^p ~ |t - root|^p is smooth in u; u-panels keep t-steps
    below 80 / K.
    """
    g = FourierSeries(0.0, np.zeros(ke.truncation_index), kernel_series(ke).b)
    t = TWO_PI / G * np.arange(G // 2 + 1)
    s = g.uniform_samples(G)[:G // 2 + 1]
    spline = CubicSpline(t, s)
    cells = np.flatnonzero(s[1:-2] * s[2:-1] < 0.0) + 1   # none at 0, pi
    edges = [0.0, *(brentq(spline, t[i], t[i + 1], xtol=1e-16)
                    for i in cells), math.pi]
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w   # on (0, 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        for root, L in ((lo, 0.5 * (hi - lo)), (hi, -0.5 * (hi - lo))):
            ub = np.linspace(0.0, 1.0, math.ceil(
                3.0 * abs(L) * ke.truncation_index / 80.0) + 1)
            u = (ub[:-1, None] + np.diff(ub)[:, None] * x).ravel()
            wu = (np.diff(ub)[:, None] * w).ravel()
            vals = np.abs(spline(root + L * u ** 3)) ** p
            total += float(np.sum(wu * 3.0 * abs(L) * u ** 2 * vals))
    return (2.0 * total) ** (1.0 / p)


def power(w, p):
    """w**p by the pass's own power helper, so references built on it
    check the block walk, not the power."""
    return approx_ops._power(w, p, np.empty_like(w))


def panel_kink(a, b, p, h):
    """Sign-change correction over the panels (a_i, b_i), summed in
    ascending order, as the pass sums it."""
    if p == 2.0 * round(p / 2.0):
        return 0.0
    cross = a * b < 0.0
    if not np.any(cross):
        return 0.0
    A = np.abs(a[cross])
    B = np.abs(b[cross])
    exact = (A ** (p + 1.0) + B ** (p + 1.0)) / ((p + 1.0) * (A + B))
    trap = 0.5 * (A ** p + B ** p)
    return float(h * np.sum(np.sort(exact - trap)))


def roll_kink(s, p, h):
    """Sign-change panel correction over whole-grid np.roll neighbours."""
    return panel_kink(s, np.roll(s, -1), p, h)


def every(blk, k, first=0):
    """The nodes j = first (mod k) of a block of rows (L, C): its rows
    r = first (mod k), or, when k > L, every (k/L)-th column of one row."""
    L = blk.shape[0]
    if k <= L:
        return blk[first::k]
    return blk[first % L:first % L + 1, first // L::k // L]


def pass_sums(x, k=1, stop=None):
    """(sum, even-node sum) of x (natural order) in the pass's order, or
    with k > 1 the sum of its stride-k nodes: x read in the pass's rows
    (L, M), cut into blocks of _BLOCK // L columns below column `stop`;
    each block's row sums of its even nodes, then of its odd ones; all the
    even sums added, in block order, then all the odd ones, and the two
    totals."""
    rows = psiapprox.series._rows(x)
    stop, C = stop or rows.shape[1], max(1, approx_ops._BLOCK // len(rows))
    even, odd = [], []
    for lo in range(0, stop, C):
        blk = np.ascontiguousarray(every(rows[:, lo:min(lo + C, stop)], k))
        even.append(every(blk, 2).sum(axis=1))
        odd.append(every(blk, 2, 1).sum(axis=1))
    even, odd = (float(np.sum(np.concatenate(parts))) for parts in (even, odd))
    return even + odd, even


def blocked_trapezoid(s, p, h, k=1):
    """The composite rule on s (step h) and on its even nodes (step 2h),
    or with k > 1 on its stride-k nodes alone (step k h, no half): node
    sums in the pass's order (`pass_sums`) plus the whole-grid np.roll
    panel corrections.  An odd-sized grid, read as one row, has no
    half-grid panels."""
    full, half = pass_sums(power(np.abs(s), p), k)
    if k > 1:
        return k * h * full, None
    return (h * full + roll_kink(s, p, h), 2.0 * h * half + (
        roll_kink(s[::2], p, 2.0 * h) if s.size % 2 == 0 else 0.0))


def half_period_trapezoid(s, p, h, k=1):
    """The same two rules for an even |s| from nodes 0..G/2 alone, in the
    pass's order: twice the sums over the nodes below G/2, less node 0,
    plus node G/2, and twice the panels between those nodes."""
    G, x = s.size, power(np.abs(s), p)
    stop = psiapprox.series._rows(x).shape[1] // 2
    sums = [2.0 * y - x[0] + x[G // 2] for y in pass_sums(x, k, stop)]
    if k > 1:
        return k * h * sums[0], None
    H = s[:G // 2 + 1]
    return (h * sums[0] + 2.0 * panel_kink(H[:-1], H[1:], p, h),
            2.0 * h * sums[1] + 2.0 * panel_kink(H[:-1:2], H[2::2], p, 2.0 * h))


def exact_stride(p, degree, G):
    """The coarsest power-of-two stride k whose sub-grid the rule is
    exact on for |g|^p, g of the given degree (p k degree < G), or 1 when
    p is no even integer or p degree >= G."""
    k = 1
    while p % 2.0 == 0.0 and 2 * k * p * degree < G:
        k *= 2
    return k


def grid_source(ke):
    """The (f, u, v) a kernel's norm grid u f(t) + v f(-t) is built from:
    its profile's folded f and its evaluator's mirror."""
    return (ke.folded, *ke.mirror)


def mirrored_grid(source, G):
    """The G-point norm grid u f_j + v f_{-j} of source = (f, u, v) as the
    pass builds it from f's samples, written out whole."""
    f, u, v = source
    s = f.uniform_samples(G)
    return u * s + v * s[-np.arange(G) % G]


def with_tail(ke, p, err):
    """err plus ke's certified tail over the period's measure, as a kernel
    norm's record adds it."""
    return err + ke.tail_eps * (1.0 if math.isinf(p) else TWO_PI ** (1.0 / p))


def unblocked_lp(s, p, degree, rule=blocked_trapezoid):
    """lp_norm's value and error estimate from the two integrals of
    `rule` for a g of the given degree.  The estimate is Richardson's, or
    at even p, where the rule is exact on the stride-k sub-grid of these
    16-nodes-per-wavelength grids, the rounding of its G/k terms."""
    G = s.size
    k = exact_stride(p, degree, G)
    full, half = rule(s, p, TWO_PI / G, k)
    value = full ** (1.0 / p)
    err = (full * (G // k + 2) * np.finfo(float).eps
           if p % 2.0 == 0.0 and p * degree < G else abs(full - half) / 3.0)
    return value, value * err / (p * full)


@pytest.fixture(scope="module")
def deep_profile(psi_slow):
    """(2.0, 0.3), n = 200: K ~ 51k, so its norms take a 2^20-point grid."""
    kp = kernels.kernel_profile(psi_slow, 200)
    assert approx_ops._grid_size(kp.truncation_index) == 1 << 20
    return kp


@pytest.fixture(scope="module")
def deep_kernel(psi_slow):
    """(2.0, 0.3), n = 200: K ~ 51k, so its norms take a 2^20-point grid."""
    ke = KernelEvaluator.build(psi_slow, 200, 0.0)
    assert approx_ops._grid_size(ke.truncation_index) == 1 << 20
    return ke


def golden_peak(ke, G=1 << 14):
    """max |K*| by golden-section search in the cell around the FFT argmax."""
    h = TWO_PI / G
    i = int(np.argmax(np.abs(kernel_series(ke).uniform_samples(G))))
    lo, hi = (i - 1) * h, (i + 1) * h
    f = lambda t: abs(float(ke.eval(t)))
    g = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-12:
        x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
        if f(x1) < f(x2):
            lo = x1
        else:
            hi = x2
    return max(f(lo), f(hi), f(0.5 * (lo + hi)))


def long_double_sums(series, t):
    """g, g' and g'' of series at t, summed in long double, whose 64-bit
    mantissa rounds k t and the terms 2^11 times finer than float64."""
    k = np.arange(1, series.degree + 1).astype(np.longdouble)
    a, b = series.a.astype(np.longdouble), series.b.astype(np.longdouble)
    cos, sin = np.cos(k * t), np.sin(k * t)
    return (0.5 * np.longdouble(series.a0) + np.sum(a * cos + b * sin),
            np.sum(k * (b * cos - a * sin)),
            -np.sum(k * k * (a * cos + b * sin)))


def long_double_peak(series, t):
    """max |g| near t by four long-double Newton steps on g' from t."""
    t = np.longdouble(t)
    for _ in range(4):
        _, slope, curvature = long_double_sums(series, t)
        t -= slope / curvature
    return abs(long_double_sums(series, t)[0])


class TestTaper:
    def test_frozen_window_values(self, psi_half):
        tc = taper_coefficients(psi_half, 9)
        np.testing.assert_allclose(
            tc.lam[5:9],
            [1.0, 0.8558361268321877, 0.6491497797403409,
             0.3682458399073455], rtol=1e-9)
        assert tc.eta_floor == 13
        assert tc.gap == 4

    def test_leading_ones(self, psi_half):
        tc = taper_coefficients(psi_half, 9)
        np.testing.assert_array_equal(tc.lam[:6], np.ones(6))
        assert tc.lam[0] == 1.0
        assert tc.lam.size == 9   # harmonics from n on are dropped entirely

    def test_window_entry_is_one(self, psi_slow):
        # the ramp numerator vanishes at k = 2n - floor(eta), so the
        # multiplier is continuous at the window edge
        tc = taper_coefficients(psi_slow, 40)
        k_edge = 2 * 40 - tc.eta_floor
        if k_edge >= 1:
            assert tc.lam[k_edge] == pytest.approx(1.0, abs=1e-12)

    def test_decreasing_in_window(self, psi_half):
        for n in (9, 16, 33):
            tc = taper_coefficients(psi_half, n)
            w = tc.lam[max(1, 2 * n - tc.eta_floor):]
            assert np.all(np.diff(w) < 0)

    def test_validation(self, psi_half):
        with pytest.raises(DomainError):
            taper_coefficients(psi_half, 1)
        with pytest.raises(DegenerateGapError):
            taper_coefficients(PsiFunction.exp_power(2.0, 1.0), 5)


class TestApplyVn:
    def test_passthrough_and_damping(self, psi_half):
        rng = np.random.default_rng(8)
        f = zero_mean_series(rng, 30)
        f = FourierSeries(a0=3.0, a=f.a, b=f.b)
        n = 9
        tc = taper_coefficients(psi_half, n)
        vf = apply_vn(f, tc)
        assert vf.degree == n - 1
        assert vf.a0 == 3.0
        np.testing.assert_allclose(vf.a[:5], f.a[:5], rtol=0, atol=0)
        for k in range(6, 9):
            assert vf.a[k - 1] == pytest.approx(tc.lam[k] * f.a[k - 1],
                                                rel=1e-14)

    def test_short_input_padded(self, psi_half):
        tc = taper_coefficients(psi_half, 9)
        f = FourierSeries(a0=0.0, a=[1.0], b=[2.0])
        vf = apply_vn(f, tc)
        assert vf.degree == 8
        assert vf.a[0] == 1.0
        assert np.all(vf.a[1:] == 0.0)


class TestSynthesis:
    def test_beta_zero_scales(self, psi_half):
        phi = FourierSeries(a0=0.0, a=[1.0, 0.0, 2.0], b=[0.0, 1.0, 0.0])
        f = synthesize_class_function(psi_half, 0.0, phi)
        for k in (1, 2, 3):
            w = float(psi_half(float(k)))
            assert f.a[k - 1] == pytest.approx(w * phi.a[k - 1], rel=1e-15)
            assert f.b[k - 1] == pytest.approx(w * phi.b[k - 1], rel=1e-15)

    def test_beta_one_rotates_cos_to_sin(self, psi_half):
        # phi = cos(kt), beta = 1: harmonic becomes psi(k) sin(kt)
        phi = FourierSeries(a0=0.0, a=[0.0, 1.0], b=[0.0, 0.0])
        f = synthesize_class_function(psi_half, 1.0, phi)
        ts = np.linspace(0.1, 6.0, 13)
        want = float(psi_half(2.0)) * np.sin(2 * ts)
        np.testing.assert_allclose(f(ts), want, atol=1e-15)

    def test_mean_free_requirement(self, psi_half):
        phi = FourierSeries(a0=0.5, a=[1.0], b=[0.0])
        with pytest.raises(DomainError):
            synthesize_class_function(psi_half, 0.0, phi)

    def test_free_constant_passes_through(self, psi_half):
        phi = FourierSeries(a0=0.0, a=[1.0], b=[0.0])
        f = synthesize_class_function(psi_half, 0.0, phi, a0=4.0)
        assert f.a0 == 4.0


class TestResidualConsistency:
    def test_routes_agree(self, psi_half):
        rng = np.random.default_rng(12)
        ke = KernelEvaluator.build(psi_half, 16, 0.0)
        for _ in range(3):
            phi = zero_mean_series(rng, 40)
            xs = rng.uniform(0.0, TWO_PI, 9)
            assert residual_consistency(ke, phi, xs) <= 1e-8

    def test_rotated_class(self, psi_half):
        rng = np.random.default_rng(13)
        phi = zero_mean_series(rng, 25)
        xs = rng.uniform(0.0, TWO_PI, 5)
        ke = KernelEvaluator.build(psi_half, 9, 1.0)
        assert residual_consistency(ke, phi, xs) <= 1e-8

    def test_convolution_takes_the_norm_grid(self, psi_half, monkeypatch):
        # the grid of degree K + deg phi: exact, since G >= 16 x that band,
        # and refused, as every grid is, once it would pass MAX_GRID
        ke = KernelEvaluator.build(psi_half, 9, 0.0)
        K = ke.truncation_index
        degrees, grid_size = [], approx_ops._grid_size
        monkeypatch.setattr(approx_ops, "_grid_size", lambda degree: (
            degrees.append(degree) or grid_size(degree)))
        rng = np.random.default_rng(14)
        phi = zero_mean_series(rng, 25)
        assert residual_consistency(ke, phi, [0.3]) <= 1e-8
        assert degrees == [K + 25]
        wide = zero_mean_series(rng, approx_ops.MAX_GRID // 16 - K + 1)
        with pytest.raises(NumericError, match="MAX_GRID"):
            residual_consistency(ke, wide, [0.3])

    def test_convolves_the_profile_grid(self, psi_half):
        # the kernel's samples are its profile's folded f, mirrored: one
        # FFT of f at the convolution grid
        ke = KernelEvaluator.build(psi_half, 9, 0.5)
        phi = zero_mean_series(np.random.default_rng(16), 25)
        assert residual_consistency(ke, phi, [0.3, 4.0]) <= 1e-8
        G = approx_ops._grid_size(ke.truncation_index + phi.degree)
        assert list(ke.folded._sample_cache) == [G]

    @pytest.mark.parametrize("xs", [[math.nan], [0.3, math.inf], -math.inf,
                                    []])
    def test_non_finite_points_refused(self, psi_half, xs):
        # a NaN point used to be cast to a grid index and compared there;
        # no point at all left numpy's max a zero-size array
        phi = zero_mean_series(np.random.default_rng(15), 10)
        ke = KernelEvaluator.build(psi_half, 9, 0.0)
        with pytest.raises(DomainError, match="finite"):
            residual_consistency(ke, phi, xs)


class TestNorms:
    def test_sine_closed_forms_trapezoid(self):
        f = FourierSeries(a0=0.0, a=[0.0], b=[1.0])
        # |sin|^1 has derivative jumps at the nodes 0 and pi, so the rule
        # is O(h^2) there; the estimate must cover the actual error
        nv1 = lp_norm(f, 1.0)
        assert nv1.value == pytest.approx(4.0, rel=1e-5)
        assert abs(nv1.value - 4.0) <= 2.0 * nv1.error_estimate + 1e-12
        # even powers are smooth periodic integrands: spectrally exact
        assert lp_norm(f, 2.0).value == pytest.approx(math.sqrt(math.pi),
                                                      rel=1e-12)
        assert lp_norm(f, 4.0).value == pytest.approx(
            (0.75 * math.pi) ** 0.25, rel=1e-12)
        assert lp_norm(f, math.inf).value == pytest.approx(1.0, rel=1e-12)

    def test_parseval_cross_check(self):
        rng = np.random.default_rng(21)
        k = np.arange(1, 41, dtype=float)
        f = FourierSeries(a0=0.6, a=rng.standard_normal(40) / k,
                          b=rng.standard_normal(40) / k)
        want = math.sqrt(math.pi * f.energy())
        assert lp_norm(f, 2.0).value == pytest.approx(want, rel=1e-10)

    def test_error_estimates_honest(self, psi_half):
        # odd exponents, where the trapezoid rule is not trivially exact
        ke = KernelEvaluator.build(psi_half, 9, 0.0)
        for p in (1.0, 3.0):
            trap = lp_norm(ke, p)
            ref = reference_lp(ke, p)
            assert abs(trap.value - ref) <= 2.0 * trap.error_estimate + 1e-13

    def test_frozen_kernel_l2(self, psi_half):
        # oracle: Parseval over the kernel coefficients, computed separately
        nv = lp_norm(KernelEvaluator.build(psi_half, 16, 0.0), 2.0)
        assert nv.value == pytest.approx(0.08307504577668079, rel=1e-9)

    def test_l2_beta_invariance(self, psi_half):
        # rotation changes phases only, so the quadratic mean is unchanged
        k0 = KernelEvaluator.build(psi_half, 16, 0.0)
        k1 = KernelEvaluator.build(psi_half, 16, 1.0)
        assert lp_norm(k0, 2.0).value == pytest.approx(
            lp_norm(k1, 2.0).value, rel=1e-10)

    def test_sup_norm_known_peak(self):
        f = FourierSeries(a0=0.0, a=[0.0, 0.0, 1.0], b=[0.0])
        nv = sup_norm(f)
        assert nv.value == pytest.approx(1.0, rel=1e-12)

    def test_sup_norm_off_grid_peak(self):
        # peaks of +-cos(7(t - t0)) sit between nodes of the 4096-point
        # grid; the grid alone is off by ~1.4e-5, so this measures the
        # refinement, at a positive and at a negative peak
        for sign, frac in [(sign, frac) for sign in (1.0, -1.0)
                           for frac in (0.11, 0.37, 0.5, 0.93)]:
            t0 = TWO_PI * (100.0 + frac) / 4096
            f = FourierSeries(a0=0.0, a=[0.0] * 6 + [sign * math.cos(7 * t0)],
                              b=[0.0] * 6 + [sign * math.sin(7 * t0)])
            nv = sup_norm(f)
            assert abs(nv.value - 1.0) <= 1e-13
            assert nv.error_estimate <= 1e-13

    def test_sup_norm_matches_golden_section(self, psi_half):
        for beta in (0.0, 0.5, 1.0):
            ke = KernelEvaluator.build(psi_half, 16, beta)
            nv = sup_norm(ke)
            ref = golden_peak(ke)
            assert abs(nv.value - ref) <= nv.error_estimate + 1e-15 * ref

    def test_l2_by_parseval_takes_no_grid(self, psi_half):
        ke = KernelEvaluator.build(psi_half, 16, 0.5)
        nv = lp_norm(ke, 2.0)
        assert ke.folded._sample_cache == {}
        # sum c_k^2 is twice the folded f's energy, the phased series' to
        # rounding
        energy = 2.0 * ke.folded.energy()
        assert nv.value == math.sqrt(math.pi * energy)
        assert energy == pytest.approx(kernel_series(ke).energy(), rel=1e-15)
        # worst-case rounding of the degree-term sum, nothing more
        assert nv.error_estimate <= 1e-12 * nv.value

    def test_grid_beyond_max_refused(self):
        # 16 nodes per wavelength fit MAX_GRID up to degree 2^17; past it
        # the grid norms refuse rather than sample more coarsely
        top = approx_ops.MAX_GRID // 16
        f = FourierSeries(a0=0.0, a=np.zeros(top), b=np.ones(top))
        lp_norm(f, 1.0)
        assert list(f._sample_cache) == [approx_ops.MAX_GRID]
        g = FourierSeries(a0=0.0, a=np.zeros(top + 1), b=np.ones(top + 1))
        for p in (1.0, math.inf):
            with pytest.raises(NumericError, match="MAX_GRID"):
                lp_norm(g, p)
        assert lp_norm(g, 2.0).value == math.sqrt(math.pi * (top + 1))
        assert g._sample_cache == {}

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_callable_targets_refused(self, p):
        # norms take coefficient series; a plain callable has no degree
        with pytest.raises(DomainError):
            lp_norm(lambda t: np.cos(t), p)

    def test_orders_share_one_grid(self, psi_half):
        # the trapezoid orders and the sup scan size their grid alike, so a
        # kernel is sampled on one grid however many orders it is normed in
        ke = KernelEvaluator.build(psi_half, 40, 0.5)
        for p in (1.0, 4.0 / 3.0, 4.0, math.inf):
            lp_norm(ke, p)
        # the one grid is the profile's f
        assert len(ke.folded._sample_cache) == 1

    def test_float_protocol(self):
        f = FourierSeries(a0=0.0, a=[0.0], b=[1.0])
        assert float(lp_norm(f, 2.0)) == lp_norm(f, 2.0).value

    def test_invalid_exponent(self):
        f = FourierSeries(a0=0.0, a=[1.0], b=[0.0])
        for p in (0.5, math.nan):
            with pytest.raises(DomainError):
                lp_norm(f, p)

    def test_orders_leaving_float64_refused(self, psi_half):
        # at (1.0, 0.5), n = 12, |K*| <= 0.3581: |K*|^1000 underflows on
        # every node and the norm read 0; order 400 keeps its value, below
        # (2 pi)^{1/400} ||K*||_inf.  |2 cos t|^1100 overflows, and the
        # pass keeps numpy quiet about it: the refusal alone speaks.  An
        # identically zero series keeps its exact 0.
        ke = KernelEvaluator.build(psi_half, 12, 0.0)
        with pytest.raises(NumericError, match="order 1000.0"):
            lp_norm(ke, 1000.0)
        v400 = lp_norm(ke, 400.0).value
        assert v400 == pytest.approx(0.3534, abs=1e-4)
        assert v400 <= TWO_PI ** (1.0 / 400.0) * sup_norm(ke).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="order 1100.0"):
                lp_norm(FourierSeries(0.0, [2.0], [0.0]), 1100.0)
        assert lp_norm(FourierSeries(0.0, [0.0], [0.0]), 1000.0).value == 0.0

    def test_kernel_norm_tail_budget(self, psi_half):
        # at beta = 0 the series' Parseval sum is the profile's, bit for
        # bit; the kernel's record adds the certified tail to its estimate
        ke = KernelEvaluator.build(psi_half, 16, 0.0)
        plain = lp_norm(kernel_series(ke), 2.0)
        kn = kernel_norm(psi_half, 0.0, 16, 2.0, evaluator=ke)
        assert kn.value == plain.value
        assert kn.error_estimate == with_tail(ke, 2.0, plain.error_estimate)


class TestNormRecord:
    """A kernel order has one record, certified tail included, whichever
    function asks for it."""

    ORDERS = (1.0, 4.0 / 3.0, 2.0, 4.0, math.inf)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_every_route_reads_one_record(self, psi_half, beta,
                                          monkeypatch):
        filled, fill = [], bounds._norms

        def keep(ke, orders):   # the evaluator verify_sweep fills
            filled.append(ke)
            return fill(ke, orders)
        monkeypatch.setattr(bounds, "_norms", keep)
        reps = verify_sweep(psi_half, [beta],
                            [("theorem2", p) for p in self.ORDERS], [40])
        (swept,) = filled
        fresh = KernelEvaluator.build(psi_half, 40, beta)
        for p, rep in zip(self.ORDERS, reps):
            nv = lp_norm(fresh, p)
            assert nv == kernel_norm(psi_half, beta, 40, p, evaluator=fresh)
            assert nv == lp_norm(swept, p)
            assert nv == kernel_norm(psi_half, beta, 40, p, evaluator=swept)
            assert nv == kernel_norm(psi_half, beta, 40, p)
            assert nv.error_estimate >= with_tail(fresh, p, 0.0)
            assert (rep.proxy, rep.tol) == (nv.value / math.pi,
                                            nv.error_estimate / math.pi)
        assert sup_norm(fresh) == lp_norm(fresh, math.inf)

    @pytest.mark.parametrize("other", [
        dict(n=40), dict(beta=1.0), dict(beta=0.5),
        dict(psi=PsiFunction.exp_power(2.0, 0.5))])
    def test_another_kernels_evaluator_refused(self, psi_half, other):
        # kernel_norm(psi, 1.0, 40, 2.0) with the n = 16, beta = 0
        # evaluator used to return the n = 16 norm
        ke = KernelEvaluator.build(psi_half, 16, 0.0)
        call = {**dict(psi=psi_half, beta=0.0, n=16), **other}
        with pytest.raises(DomainError, match="evaluator"):
            kernel_norm(p_prime=2.0, evaluator=ke, **call)
        assert ke._norm_cache == {}

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_equal_series_give_equal_records(self, deep_profile, beta):
        # a kernel's series is its coefficients: its norms are those of an
        # equal copy, bit for bit, whatever grid its evaluator's norms read
        series = kernel_series(deep_profile.evaluator(beta))
        copy = FourierSeries(0.0, series.a.copy(), series.b.copy())
        for p in (1.0, 4.0 / 3.0, 4.0, math.inf):
            assert lp_norm(series, p) == lp_norm(copy, p), p


class TestBlockedPasses:
    """Grid norms run block by block; the results are the whole-grid ones."""

    @pytest.mark.parametrize("degree", [200, 4000])   # 4096, 65,536 points
    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 3.0, 4.0])
    def test_lp_norm_bitwise_on_one_block(self, degree, p):
        f = zero_mean_series(np.random.default_rng(degree), degree)
        G = approx_ops._grid_size(degree)
        assert G <= approx_ops._BLOCK
        nv = lp_norm(f, p)
        assert (nv.value, nv.error_estimate) == unblocked_lp(
            f.uniform_samples(G), p, f.degree)

    @staticmethod
    def check_many_blocks(ke, p, rule):
        value, err = unblocked_lp(mirrored_grid(grid_source(ke), 1 << 20), p,
                                  ke.truncation_index, rule)
        nv = lp_norm(ke, p)
        assert nv.value == pytest.approx(value, rel=1e-14, abs=0.0)
        assert nv.error_estimate == pytest.approx(with_tail(ke, p, err),
                                                  rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 3.0, 4.0])
    def test_lp_norm_on_many_blocks(self, deep_profile, p):
        # a non-integer beta walks the whole grid
        self.check_many_blocks(deep_profile.evaluator(0.5), p,
                               blocked_trapezoid)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 3.0, 4.0])
    def test_half_walk_on_many_blocks(self, deep_profile, beta, p):
        # an integer beta walks half the grid, as strictly checked
        self.check_many_blocks(deep_profile.evaluator(beta), p,
                               half_period_trapezoid)

    @pytest.mark.parametrize("G", [1 << 17, (1 << 17) + 3])
    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 3.0])
    def test_kink_correction_across_blocks(self, G, p):
        B = approx_ops._BLOCK
        rng = np.random.default_rng(G)
        s = rng.uniform(0.5, 2.0, G)
        s[B - 1], s[B] = 0.7, -0.3           # across a block boundary
        s[B + 1] = -1.1                      # first panel of a block
        s[G - 1], s[0] = -0.5, 0.9           # the wrap panel (G-1, 0)
        s[100], s[101], s[102] = -1.0, 0.0, 1.0   # an exact zero: no panel
        s[200], s[201] = -0.0, -1.0
        s[300:310] = np.where(np.arange(10) % 2, -1.0, 1.0) * 1.3
        h = TWO_PI / G
        for grid in (s, s[::2]):
            sums, _ = approx_ops._grid_pass(grid, (p,), h)
            assert sums[p] == blocked_trapezoid(grid, p, h)

    @pytest.mark.parametrize("p", [4.0, 4.0 / 3.0, 3.0])
    def test_power_helper_within_ulps_of_np_power(self, p):
        rng = np.random.default_rng(11)
        w = np.concatenate(([0.0, 1.0], 10.0 ** rng.uniform(-30.0, 3.0, 5000),
                            rng.uniform(0.0, 1.0, 5000)))
        ref = np.power(w, p)
        got = approx_ops._power(w, p, np.empty_like(w))
        assert got[0] == 0.0 and got[1] == 1.0
        # the float 4/3 is not 4/3: np.power's w^p then differs from
        # w cbrt(w) by about (p - 4/3) ln w relative, on top of the ulps
        miss = float(Fraction(p) - Fraction(4, 3)) if p < 2.0 else 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            drift = np.nan_to_num(np.abs(ref * miss * np.log(w)))
        assert np.all(np.abs(got - ref) <= 3.0 * np.spacing(ref) + drift)

    def test_even_order_error_is_rounding(self):
        # |sin|^4 is a trigonometric polynomial of degree 4, which the
        # rule integrates exactly on every 512th of the 4,096 nodes: the
        # estimate is the rounding of those 8 terms
        f = FourierSeries(a0=0.0, a=[0.0], b=[1.0])
        nv = lp_norm(f, 4.0)
        eps = np.finfo(float).eps
        full = blocked_trapezoid(f.uniform_samples(4096), 4.0,
                                 TWO_PI / 4096, 512)[0]
        assert nv.value == full ** 0.25
        assert nv.error_estimate == nv.value * (full * (8 + 2) * eps) / (
            4.0 * full)
        assert abs(nv.value - (0.75 * math.pi) ** 0.25) <= nv.error_estimate
        # at p = 16 the 4,096 nodes of a degree-256 series no longer
        # integrate |g|^p exactly, so the half-grid estimate is back
        top = FourierSeries(a0=0.0, a=np.zeros(256), b=np.ones(256))
        assert approx_ops._grid_size(top.degree) == 4096
        nv = lp_norm(top, 16.0)
        assert nv.error_estimate > 1e-6 * nv.value

    @pytest.mark.parametrize("alpha, r, n", [(2.0, 0.7, 112), (1.0, 0.5, 40)])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_four_norm_matches_the_convolution_oracle(self, alpha, r, n,
                                                      beta):
        # int |K*|^4 = int |K*^2|^2 = 2 pi sum |delta_m|^2, delta = gamma *
        # gamma the self-convolution of K*'s complex coefficients: the
        # p = 4 record, summed on its exact stride-4 sub-grid, lies within
        # its own estimate of that
        ke = KernelEvaluator.build(PsiFunction.exp_power(alpha, r), n, beta)
        G = approx_ops._grid_size(ke.truncation_index)
        assert exact_stride(4.0, ke.truncation_index, G) == 4
        own = kernel_series(ke)
        half = 0.5 * (own.a - 1j * own.b)
        gamma = np.concatenate((np.conj(half[::-1]), [0.5 * own.a0], half))
        delta = np.convolve(gamma, gamma)
        oracle = (TWO_PI * float(np.sum(np.abs(delta) ** 2))) ** 0.25
        nv = lp_norm(ke, 4.0)
        assert abs(nv.value - oracle) <= nv.error_estimate

    def test_argmax_keeps_first_index_rule(self):
        B = approx_ops._BLOCK
        base = np.random.default_rng(4).uniform(-1.0, 1.0, 2 * B + 5)
        cases = [
            {B + 7: -5.0},                   # negative peak, second block
            {10: 5.0, B + 7: -5.0},          # tie across blocks
            {10: -5.0, B + 7: 5.0},
            {20: -5.0, 30: 5.0},             # tie inside a block
            {20: 5.0, 30: -5.0},
            {2 * B + 4: -5.0},               # peak in the short last block
        ]
        for case in cases:
            s = base.copy()
            for i, v in case.items():
                s[i] = v
            _, (i, top) = approx_ops._grid_pass(s, (), 1.0, peak=True)
            assert i == int(np.argmax(np.abs(s)))
            assert top == abs(s[i])

    def test_orders_in_one_pass_match_single_orders(self, deep_kernel):
        one_block = zero_mean_series(np.random.default_rng(7), 300)
        orders = (1.0, 4.0 / 3.0, 4.0, math.inf)
        for g in (kernel_series(deep_kernel), one_block):
            together = approx_ops._norms(g, orders)
            assert together == {p: lp_norm(g, p) for p in orders}
            assert together[math.inf] == sup_norm(g)
        ke = KernelEvaluator.build(PsiFunction.exp_power(2.0, 0.3), 200, 0.0)
        approx_ops._norms(ke, orders)
        assert ke._norm_cache == {p: lp_norm(deep_kernel, p) for p in orders}

    @pytest.mark.parametrize("u, v", [
        pytest.param(1.0, 1.0, id="1.0"), pytest.param(1.0, -1.0, id="-1.0"),
        (0.7, -0.3)])
    def test_mirror_block_at_integer_beta_is_the_multiply_add(
            self, deep_profile, u, v):
        # (u, v) = (1, +-1) adds or subtracts f_{-j}; the products by +-1
        # it skips are exact, so the bits are those of u f_j + v f_{-j},
        # written here on the natural grid; the row mirror writes a block
        # of columns of every row (node Lq + r at row r, column q) from the
        # eight rows the split FFT wrote, or from that grid read as rows
        G, C = 1 << 20, approx_ops._BLOCK // 8
        f = deep_profile.folded.uniform_samples(G)
        split = deep_profile.folded._phases(G)
        assert split.shape == (8, G // 8)
        natural = psiapprox.series._rows(f)
        assert natural.shape == split.shape and not natural.flags.c_contiguous
        # the first block, an interior one, the half walk's last block, a
        # whole walk's last and the whole grid
        M = G // 8
        for lo, hi in ((0, C), (3 * C, 4 * C), (M // 2 - C, M // 2),
                       (M - C, M), (0, M)):
            j = 8 * np.arange(lo, hi) + np.arange(8)[:, None]
            want = np.multiply(f[j], u) + np.multiply(f[-j % G], v)
            for rows in (split, natural):
                got = approx_ops._mirror_rows(rows, u, v, lo, hi, np.empty(
                    j.size), np.empty(j.size))
                assert np.array_equal(got, want)
            # (1, 0), a series without a mirror, reads f itself
            assert np.array_equal(approx_ops._mirror_rows(
                split, 1.0, 0.0, lo, hi, np.empty(j.size), np.empty(j.size)),
                f[j])

    @pytest.mark.parametrize("alpha, r, n, L", [
        (1.0, 0.5, 40, 1), (0.5, 0.5, 100, 2), (2.0, 0.3, 200, 8)])
    def test_pass_is_layout_blind(self, alpha, r, n, L):
        # the norm pass walks f in the rows its FFTs wrote; its natural
        # copy must give the same sums, half-grid sums and argmax, on the
        # half walk (node G/2), the whole walk (wrap panel) and f itself,
        # mirror (1, 0)
        kp = kernels.kernel_profile(PsiFunction.exp_power(alpha, r), n)
        G = approx_ops._grid_size(kp.truncation_index)
        rows, natural = kp.folded._phases(G), kp.folded.uniform_samples(G)
        assert rows.shape == (L, G // L)
        orders, h = (1.0, 4.0 / 3.0, 3.0, 4.0), TWO_PI / G
        for mirror in [kp.evaluator(beta).mirror
                       for beta in (0.0, 1.0, 0.5, 1.7)] + [(1.0, 0.0)]:
            assert approx_ops._grid_pass(
                rows, orders, h, peak=True, mirror=mirror
            ) == approx_ops._grid_pass(natural, orders, h, peak=True,
                                       mirror=mirror)

    @staticmethod
    def check_no_grid_sized_temporaries(profile, beta, monkeypatch):
        # on this host's cores and as on hosts of 8 and 16 cores: each
        # worker holds one set of pass buffers, and the worker cap keeps
        # their sum below half the grid
        profile.folded._phases(1 << 20)   # cache the profile's 8 MB grid
        for cores in (psiapprox.series._CORES, 8, 16):
            monkeypatch.setattr(psiapprox.series, "_CORES", cores)
            for norm in (lambda g: lp_norm(g, 4.0 / 3.0),
                         lambda g: lp_norm(g, 1.0), sup_norm):
                ke = profile.evaluator(beta)
                tracemalloc.start()
                try:
                    norm(ke)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 4 * 2 ** 20

    def test_grid_norms_take_no_grid_sized_temporaries(self, deep_profile,
                                                       monkeypatch):
        self.check_no_grid_sized_temporaries(deep_profile, 0.5, monkeypatch)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_half_walk_takes_no_grid_sized_temporaries(self, deep_profile,
                                                       monkeypatch, beta):
        self.check_no_grid_sized_temporaries(deep_profile, beta, monkeypatch)


class TestSupRefinement:
    """Newton steps read g' and g'' off `_local`, the interpolant of the
    cached grid, and the value at the last iterate too: no K-term sum."""

    @staticmethod
    def tables(monkeypatch, size):
        """[(name, argument)] of each np.cos and np.sin call on a
        `size`-long array, from here on: K-long tables."""
        seen = []
        for name in ("cos", "sin"):
            def spy(x, *args, fn=getattr(np, name), name=name, **kwargs):
                if np.size(x) == size:
                    seen.append((name, np.array(x)))
                return fn(x, *args, **kwargs)
            monkeypatch.setattr(np, name, spy)
        return seen

    @staticmethod
    def peak_node(ke):
        """The grid, and (i, |g_i|) at the argmax, as `_norms` finds them."""
        G = approx_ops._grid_size(ke.truncation_index)
        return G, approx_ops._grid_pass(ke.folded._phases(G), (), TWO_PI / G,
                                        peak=True, mirror=ke.mirror)[1]

    @classmethod
    def refined(cls, ke, monkeypatch):
        """`_sup_refined` at ke's grid argmax, and the last point `_local`
        read: the last iterate."""
        G, found = cls.peak_node(ke)
        points = []
        local = approx_ops._local
        monkeypatch.setattr(approx_ops, "_local", lambda source, G, t: (
            points.append(t) or local(source, G, t)))
        nv = approx_ops._sup_refined(grid_source(ke), False, *found, G,
                                     ke.moments)
        monkeypatch.undo()
        return nv, points[-1]

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_sup_norm_matches_an_independent_peak(self, psi_slow, beta):
        # golden-section search on direct sums from the argmax of the
        # kernel's own FFT, not of its profile's mirrored grid
        ke = KernelEvaluator.build(psi_slow, 200, beta)
        nv = sup_norm(ke)
        ref = golden_peak(ke, approx_ops._grid_size(ke.truncation_index))
        assert abs(nv.value - ref) <= nv.error_estimate + 1e-15 * ref

    @pytest.mark.parametrize("beta, steps", [(0.0, 0), (1.0, 1)])
    def test_sup_norm_makes_one_table_off_node_zero(self, deep_profile, beta,
                                                    steps, monkeypatch):
        # an even kernel peaks at node 0, where g' = sum k b_k is exactly
        # 0: no Newton step and no read of the interpolant; an odd one
        # vanishes there and steps on the interpolant, whose node table
        # gives its value too: no K-long cos or sin table either way
        ke = deep_profile.evaluator(beta)
        points, local = [], approx_ops._local
        monkeypatch.setattr(approx_ops, "_local", lambda source, G, t: (
            points.append(t) or local(source, G, t)))
        seen = self.tables(monkeypatch, ke.truncation_index)
        assert sup_norm(ke).value > 0.0
        assert not seen
        assert bool(points) == bool(steps)

    def test_sweep_step_does_no_kernel_long_work(self, psi_slow, deep_profile,
                                                 monkeypatch):
        # one deep sweep step, criterion 5's modes at beta 0 and 1: no
        # K-long cos or sin table and no K-term sum, which only point
        # values take
        made, calls = [], []
        evaluator = kernels.KernelProfile.evaluator
        monkeypatch.setattr(kernels.KernelProfile, "evaluator", lambda *a: (
            made.append(evaluator(*a)) or made[-1]))
        for name in ("eval", "__call__", "_row_sums"):
            monkeypatch.setattr(FourierSeries, name, lambda *a, name=name, fn=(
                getattr(FourierSeries, name)): calls.append(name) or fn(*a))
        seen = self.tables(monkeypatch, deep_profile.truncation_index)
        modes = [(mode, p) for mode in ("theorem1", "theorem2")
                 for p in (1.0, 2.0, 4.0, math.inf)]
        reports = verify_sweep(psi_slow, [0.0, 1.0], modes, [200])
        assert len(reports) == 16 and all(rep.ok for rep in reports)
        assert [ke.truncation_index for ke in made] == [
            deep_profile.truncation_index] * 2
        assert not seen and not calls

    @pytest.mark.parametrize("alpha, r, n", [
        (2.0, 0.3, 226), (0.5, 0.5, 200), (1.0, 0.5, 40)])
    def test_estimate_covers_the_sums_rounding(self, alpha, r, n,
                                               monkeypatch):
        # the value is the interpolant's at the last iterate t: the
        # long-double sum at t and the long-double peak both lie within
        # the estimate, which past the last Newton step is `_local`'s
        # bound e sum |c_k| there (kernels whose values moved by up to 3.5
        # of the old estimate when the K-term sums left BLAS)
        ke = KernelEvaluator.build(PsiFunction.exp_power(alpha, r), n, 1.0)
        nv, t = self.refined(ke, monkeypatch)
        G = approx_ops._grid_size(ke.truncation_index)
        bound = approx_ops._local(grid_source(ke), G, t)[3] * ke.moments[0]
        assert bound <= nv.error_estimate <= 1.001 * bound
        own = kernel_series(ke)
        for ref in (abs(long_double_sums(own, t)[0]),
                    long_double_peak(own, t)):
            assert abs(nv.value - ref) <= nv.error_estimate

    @pytest.mark.parametrize("alpha, r", [
        (0.5, 0.5), (0.5, 0.7), (1.0, 0.5), (1.0, 0.7), (2.0, 0.3),
        (2.0, 0.5), (2.0, 0.7)])
    def test_estimate_covers_the_long_double_peak(self, alpha, r,
                                                   monkeypatch):
        # every 8th n of criterion 5 at beta = 1: the refined value lies
        # within its estimate of the long-double sum at its last iterate
        # and of the long-double peak
        psi = PsiFunction.exp_power(alpha, r)
        for n in range(exp_power_thresholds(alpha, r)[2], 257, 8):
            ke = kernels.kernel_profile(psi, n).evaluator(1.0)
            nv, t = self.refined(ke, monkeypatch)
            own = kernel_series(ke)
            for ref in (abs(long_double_sums(own, t)[0]),
                        long_double_peak(own, t)):
                assert abs(nv.value - ref) <= nv.error_estimate, n

    @pytest.mark.parametrize("beta", [1.25, 1.7])
    def test_sum_at_the_wrapped_iterate(self, psi_slow, beta, monkeypatch):
        # at (2.0, 0.3), n = 160 these kernels peak near 2 pi, where a
        # K-term sum at t rounds kt by about eps |t| sum k |c_k|; read off
        # the grid, the value needs no wrap of t into [-pi, pi]: the
        # estimate is the mirrored kernel's (beta -> -beta peaks at
        # 2 pi - t) and still holds the long-double sum and peak
        kp = kernels.kernel_profile(psi_slow, 160)
        ke = kp.evaluator(beta)
        G, (i, _) = self.peak_node(ke)
        assert i > G // 2
        nv, t = self.refined(ke, monkeypatch)
        assert t > 6.0
        mirrored, s = self.refined(kp.evaluator(-beta), monkeypatch)
        assert s == pytest.approx(TWO_PI - t, abs=1e-12)
        assert nv.error_estimate == pytest.approx(mirrored.error_estimate,
                                                  rel=1e-6)
        own = kernel_series(ke)
        for ref in (abs(long_double_sums(own, t)[0]),
                    long_double_peak(own, t)):
            assert abs(nv.value - ref) <= nv.error_estimate

    @pytest.mark.parametrize("alpha, r", [
        (0.5, 0.5), (0.5, 0.7), (1.0, 0.5), (1.0, 0.7), (2.0, 0.3),
        (2.0, 0.5), (2.0, 0.7)])
    def test_even_kernel_peak_is_its_coefficient_sum(self, alpha, r):
        # at beta = 0 every c_k >= 0, so the maximum is K*(0) = sum c_k
        # exactly; on every 8th n of criterion 5 the node-0 sample, taken
        # with no Newton step, lies within its reported estimate (the
        # certified tail) of that sum in long double
        psi = PsiFunction.exp_power(alpha, r)
        for n in range(exp_power_thresholds(alpha, r)[2], 257, 8):
            kp = kernels.kernel_profile(psi, n)
            nv = sup_norm(kp.evaluator(0.0))
            exact = np.sum(kp.coeffs.astype(np.longdouble))
            assert abs(nv.value - exact) <= nv.error_estimate, n

    def test_refinement_takes_no_table_sized_temporaries(self, deep_profile):
        # no cos or sin table and no series: nothing K-long at all
        ke = deep_profile.evaluator(1.0)
        G, found = self.peak_node(ke)
        tracemalloc.start()
        try:
            approx_ops._sup_refined(grid_source(ke), False, *found, G,
                                    ke.moments)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ke.truncation_index

    @pytest.fixture(scope="class", params=["split rows", "natural", "plain"])
    def layout(self, request, deep_profile, psi_half):
        """A series, its grid's source (f, u, v) and its grid size: a
        kernel's profile in eight split-FFT rows or in natural order, or a
        plain series, the source of its own grid."""
        if request.param == "plain":
            g = zero_mean_series(np.random.default_rng(5), 300)
            return g, (g, 1.0, 0.0), approx_ops._grid_size(g.degree)
        kp = (deep_profile if request.param == "split rows"
              else kernels.kernel_profile(psi_half, 40))
        G = approx_ops._grid_size(kp.truncation_index)
        assert kp.folded._phases(G).shape[0] == (
            8 if request.param == "split rows" else 1)
        ke = kp.evaluator(0.5)
        return kernel_series(ke), grid_source(ke), G

    def test_local_interpolant_matches_the_sums(self, layout):
        series, source, G = layout
        h, m = TWO_PI / G, approx_ops._LOCAL_M
        rng = np.random.default_rng(11)
        # random points, nodes 0 and G - 1 themselves, and points within m
        # nodes of them, where the nodes read wrap mod G
        ts = np.concatenate([rng.uniform(0.0, TWO_PI, 20), [0.0, h * (G - 1)],
                             h * rng.uniform(-m, m, 10),
                             h * (G - 1 + rng.uniform(-m, m, 10))])
        # the weights are those of the point (t/h) 2 pi/G, within eps |t|
        # of t: where |g'| is near sum k |c_k|, that shift alone moves g
        # by more than the bound e, so the long-double sums are taken there
        pi = 4 * np.arctan(np.longdouble(1))
        want = np.array([[float(x) for x in long_double_sums(
            series, t / h * (2 * pi / G))] for t in ts])
        got = np.array([approx_ops._local(source, G, t) for t in ts])
        S = float(np.sum(np.hypot(series.a, series.b)))
        assert np.all(np.abs(got[:, 0] - want[:, 0]) <= got[:, 3] * S)
        # relative to sum |c_k| K^d, about ten times the largest errors
        # measured at m = 24 over the three layouts: 0.9e-16 to 2.8e-16
        # (g), 3.5e-15 to 1.2e-14 (g') and 0.8e-12 to 2.7e-12 (g'')
        scale = S * float(series.degree) ** np.arange(3)
        assert np.all(np.abs(got[:, :3] - want) <= [3e-15, 1.2e-13, 3e-11] * scale)

    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 400),
           st.integers(-60, 60))
    @example(0, 40, 600)
    @example(0, 40, -600)
    @example(7, 400, 600)
    @example(7, 400, -600)
    def test_power_of_two_scaling_is_exact(self, seed, degree, e):
        # nothing in the norms, the interpolant or the estimates depends
        # on g's scale: 2^e g has 2^e times every value and estimate, also
        # at 2^+-600, whose records are taken in units of 2^e', and at
        # p = 4/3 when e is a multiple of 3 (cbrt then scales exactly)
        g = zero_mean_series(np.random.default_rng(seed), degree)
        scaled = FourierSeries(a0=0.0, a=np.ldexp(g.a, e), b=np.ldexp(g.b, e))
        orders = (1.0, 2.0, math.inf) + ((4.0 / 3.0,) if e % 3 == 0 else ())
        assert approx_ops._norms(scaled, orders) == {
            p: approx_ops.NormValue(math.ldexp(nv.value, e),
                                    math.ldexp(nv.error_estimate, e))
            for p, nv in approx_ops._norms(g, orders).items()}

    @pytest.mark.parametrize("alpha, r, n", [
        (2.0, 0.7, 880), (2.0, 0.7, 2369), (1.0, 0.7, 2369), (1.0, 0.7, 6377)])
    def test_far_scale_kernels_keep_their_unit_records(self, alpha, r, n):
        # psi(n) ~ 1e-100 and 1e-200 for two pairs: every order's record,
        # value and estimate less the tail, is 2^e times that of the kernel
        # with coefficients |c_k| 2^-e, which lies at unit scale
        kp = kernels.kernel_profile(PsiFunction.exp_power(alpha, r), n)
        e = 3 * round(math.log2(kp.moments[0]) / 3)
        assert e < -300
        half = np.ldexp(kp.folded.a, -e)
        unit = dataclasses.replace(
            kp, coeffs=np.ldexp(kp.coeffs, -e), tail_eps=0.0,
            folded=FourierSeries(0.0, half, half),
            moments=tuple(math.ldexp(m, -e) for m in kp.moments))
        orders = (1.0, 4.0 / 3.0, 2.0, 4.0, math.inf)
        for beta in (0.0, 1.0, 0.5):
            far = dataclasses.replace(kp, tail_eps=0.0).evaluator(beta)
            got = approx_ops._norms(far, orders)
            assert got == {p: approx_ops.NormValue(
                math.ldexp(nv.value, e), math.ldexp(nv.error_estimate, e))
                for p, nv in approx_ops._norms(unit.evaluator(beta),
                                               orders).items()}
            assert all(nv.value > 0.0 for nv in got.values())


class TestHalfWalk:
    """At integer beta K* is exactly even or odd, so the pass walks |K*|
    over nodes 0..G/2 of the grid only."""

    ORDERS = (1.0, 4.0 / 3.0, 3.0, 4.0)

    @staticmethod
    def check_half_walk(series, source):
        """The half walk of a series' grid, mirrored from source = (f, u, v),
        against that whole grid and the series' own samples."""
        G = approx_ops._grid_size(series.degree)
        h = TWO_PI / G
        f, u, v = source
        assert abs(u) == abs(v) == 1.0
        g = mirrored_grid(source, G)
        own = series.uniform_samples(G)
        assert np.max(np.abs(g - own)) <= 4.0 * approx_ops._EPS * np.max(
            np.abs(own))
        assert np.array_equal(np.abs(g[1:]), np.abs(g[:0:-1]))
        if u != v:   # odd: exact zeros at 0 and pi
            assert g[0] == 0.0 and g[G // 2] == 0.0
        sums, found = approx_ops._grid_pass(
            f.uniform_samples(G), TestHalfWalk.ORDERS, h, peak=True,
            mirror=(u, v))
        for p in TestHalfWalk.ORDERS:
            # the bits of whole-array sums, on one block or on eight
            assert sums[p] == half_period_trapezoid(g, p, h)
            assert all(type(x) is float for x in sums[p])   # not np.float64
            # and the whole walk, up to the order of the rounding
            assert sums[p] == pytest.approx(blocked_trapezoid(g, p, h),
                                            rel=1e-12, abs=0.0)
        # the p = inf node and value are the whole walk's, bit for bit
        i = int(np.argmax(np.abs(g)))
        assert found == (i, abs(g[i]))
        assert found == approx_ops._grid_pass(g, (), h, peak=True)[1]

    @pytest.fixture(scope="class", params=["deep", "one block"])
    def profile(self, request, deep_profile, psi_half):
        if request.param == "deep":   # 2^20 points: eight half-walk blocks
            return deep_profile
        kp = kernels.kernel_profile(psi_half, 40)   # 2^16 points
        assert approx_ops._grid_size(kp.truncation_index) == 1 << 16
        return kp

    @pytest.mark.parametrize("beta", [0, 1, 2, 3])
    def test_half_walk_matches_whole_arrays(self, profile, beta):
        ke = profile.evaluator(beta)
        self.check_half_walk(kernel_series(ke), grid_source(ke))
        G = approx_ops._grid_size(ke.truncation_index)
        g = mirrored_grid(grid_source(ke), G)
        whole = approx_ops._grid_pass(g, (), TWO_PI / G, peak=True)[1]
        ref = approx_ops._sup_refined(grid_source(ke), beta % 2 == 0, *whole,
                                      G, ke.moments)
        assert sup_norm(ke) == approx_ops.NormValue(
            ref.value, with_tail(ke, math.inf, ref.error_estimate))

    @pytest.mark.parametrize("alpha, r, n, before", [
        (1.0, 0.5, 20, 4.27e-8), (2.0, 0.7, 112, 2.31e-4),
        (0.5, 0.7, 60, 1.13e-5), (2.0, 0.3, 170, 9.28e-9)])
    def test_odd_kernel_four_thirds_accuracy(self, alpha, r, n, before):
        # at beta = 1 the kernel's samples at 0 and pi are exact zeros, so
        # no sign change (and no kink panel) is born from rounding there;
        # `before` is the relative error when cos(pi/2) was 6.1e-17
        ke = KernelEvaluator.build(PsiFunction.exp_power(alpha, r), n, 1.0)
        nv = lp_norm(ke, 4.0 / 3.0)
        ref = odd_kernel_lp(ke, 4.0 / 3.0)
        assert abs(nv.value - ref) < before * ref
        assert abs(nv.value - ref) <= nv.error_estimate

    @settings(max_examples=200, deadline=None, database=None,
              derandomize=True)
    @given(st.integers(1, 40), st.integers(0, 3), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 2000))
    def test_random_coefficient_tables(self, k_start, beta, seed, size):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(size) * np.exp(-rng.uniform(0, 30, size))
        pad = np.zeros(k_start - 1)
        half = np.concatenate((pad, 0.5 * coeffs))
        cos, sin = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[beta]
        series = FourierSeries(a0=0.0, a=np.concatenate((pad, coeffs * cos)),
                               b=np.concatenate((pad, coeffs * sin)))
        folded = FourierSeries(a0=0.0, a=half, b=half)
        self.check_half_walk(series, (folded, cos + sin, cos - sin))


class TestDuality:
    @pytest.fixture
    def ke16(self, psi_half):
        return KernelEvaluator.build(psi_half, 16, 0.0)

    @pytest.fixture
    def ke9(self, psi_half):
        return KernelEvaluator.build(psi_half, 9, 0.0)

    def test_conjugate_pair_attains(self, ke16):
        ex = duality_extremal_phi(ke16, 2.0, x0=0.0)
        assert ex.ratio >= 0.999
        assert ex.norm_p == pytest.approx(1.0, rel=1e-10)
        assert not ex.mean_corrected

    def test_sign_function_attains(self, ke16):
        ex = duality_extremal_phi(ke16, math.inf, x0=1.0)
        assert ex.ratio >= 0.999
        assert abs(ex.mean_offset) <= 5e-3   # below the correction trigger
        assert ex.p_prime == 1.0

    def test_mollified_bump_attains(self, ke16):
        ex = duality_extremal_phi(ke16, 1.0, x0=0.0)
        assert ex.ratio >= 0.98
        assert ex.mollify_width is not None
        # reported mean is the bump's own, deliberately not corrected
        assert not ex.mean_corrected
        assert abs(ex.mean_offset) == pytest.approx(1.0 / TWO_PI, rel=1e-12)

    def test_sign_function_mean_corrected(self):
        # at (0.5, 0.7), n = 12, x0 = 0 the sign function's mean passes
        # MEAN_TOL, so it is shifted and rescaled to a zero-mean unit phi
        psi = PsiFunction.exp_power(0.5, 0.7)
        ke = KernelEvaluator.build(psi, 12, 0.0)
        ex = duality_extremal_phi(ke, math.inf, x0=0.0)
        assert ex.mean_corrected
        assert ex.norm_p == 1.0
        assert abs(ex.mean_offset) <= 1e-15
        assert ex.ratio >= 0.97
        # the callable, on 256 nodes of the working grid, takes one level
        # where S > 0 and one where S < 0; with them the grid's S gives
        # the attainment
        G, h = ex.grid_size, TWO_PI / ex.grid_size
        S = kernel_series(ke).uniform_samples(G)[
            (round(ex.x0 / h) - np.arange(G)) % G]
        j = np.arange(0, G, G // 256)
        vals = np.asarray(ex(h * j), dtype=float)
        up, down = vals[S[j] > 0.0], vals[S[j] < 0.0]
        assert np.ptp(up) == 0.0 and np.ptp(down) == 0.0
        attained = h * (up[0] * np.sum(S[S > 0.0])
                        + down[0] * np.sum(S[S < 0.0])) / math.pi
        assert attained == pytest.approx(ex.attainment, rel=1e-9)

    def test_callable_reproduces_attainment(self, ke9):
        ex = duality_extremal_phi(ke9, 2.0, x0=0.7)
        # at p = 2 phi = S / ||S||_2 on the working grid, so the attainment
        # is h sum S^2 / (pi ||S||_2): the callable on 256 of its nodes is
        # S times the scale the attainment gives
        G, h = ex.grid_size, TWO_PI / ex.grid_size
        S = kernel_series(ke9).uniform_samples(G)[
            (round(ex.x0 / h) - np.arange(G)) % G]
        j = np.arange(0, G, G // 256)
        vals = np.asarray(ex(h * j), dtype=float)
        scale = math.pi * ex.attainment / (h * float(np.sum(S * S)))
        np.testing.assert_allclose(vals, scale * S[j], rtol=1e-9,
                                   atol=1e-12 * float(np.max(np.abs(vals))))

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_reads_the_norm_grid(self, deep_profile, beta):
        # K ~ 51k: the working grid is the 2^20-point norm grid, which
        # the norm pass sampled; the extremal reads those cached samples
        # under the kernel's mirror, makes no FFT, and its S is the
        # pass's grid at nodes i0 - j, bit for bit
        ke = deep_profile.evaluator(beta)
        lp_norm(ke, 1.0)
        cached = list(ke.folded._sample_cache)
        ex = duality_extremal_phi(ke, 2.0, x0=1.0)
        assert list(ke.folded._sample_cache) == cached
        G, h = ex.grid_size, TWO_PI / ex.grid_size
        assert [G] == cached
        g = ke.folded._mirrored(G, *ke.mirror)
        S = g[(round(ex.x0 / h) - np.arange(G)) % G]
        # at p = p' = 2, phi = S / ||S||_2: the records by its arithmetic
        phi = np.sign(S) * np.abs(S) ** 1.0 / (
            h * float(np.sum(np.abs(S) ** 2.0))) ** 0.5
        assert ex.attainment == h * float(np.sum(phi * S)) / math.pi
        assert ex.mean_offset == h * float(np.sum(phi)) / TWO_PI

    def test_x0_snapped_to_grid(self, ke9):
        # the working grid is the norm grid, at least 2^17 points
        ex = duality_extremal_phi(ke9, 2.0, x0=0.1234)
        assert ex.grid_size == 1 << 17
        h = TWO_PI / ex.grid_size
        assert ex.x0 == pytest.approx(round(0.1234 / h) * h, abs=1e-15)

    @pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
    def test_p_prime_is_the_conjugate_exponent(self, ke16, p):
        ex = duality_extremal_phi(ke16, p, x0=0.0)
        assert ex.p_prime == approx_ops.conjugate_exponent(p)

    def test_sum_leaving_float64_refused(self, psi_half):
        # p' = 1001: sum |S|^{p'} underflowed to 0 and phi was 0/0, nan
        ke = KernelEvaluator.build(psi_half, 12, 0.0)
        with pytest.raises(NumericError, match="order 1001.0"):
            duality_extremal_phi(ke, 1.001, 0.0)

    def test_invalid_p(self, ke16):
        for p in (0.7, math.nan, -math.inf):
            with pytest.raises(DomainError):
                duality_extremal_phi(ke16, p, x0=0.0)

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_non_finite_x0_refused(self, ke16, x0):
        # NaN used to raise ValueError and inf OverflowError
        with pytest.raises(DomainError, match="finite"):
            duality_extremal_phi(ke16, 2.0, x0=x0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_target_is_the_kernel_norm(self, ke16, p):
        ex = duality_extremal_phi(ke16, p, x0=0.0)
        assert ex.target == lp_norm(ke16, ex.p_prime).value / math.pi

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("alpha, n", [(1.0, 16), (2.0, 12)])
    def test_attainment_within_hoelder(self, alpha, n, beta, p):
        # criterion 6's kernels: Hoelder's inequality caps the attainment at
        # ||phi||_p ||K*||_{p'} / pi, up to the norm record's estimate.  At
        # p = inf the p' = 1 estimate is the size of its error, not a margin
        # above it, so that order waits on an exact p' = 1 quadrature
        psi = PsiFunction.exp_power(alpha, 0.5)
        ke = KernelEvaluator.build(psi, n, beta)
        ex = duality_extremal_phi(ke, p, x0=0.0)
        nv = lp_norm(ke, ex.p_prime)
        assert ex.attainment <= (ex.norm_p * (nv.value + nv.error_estimate)
                                 / math.pi)

    @pytest.mark.parametrize("p", [4.0 / 3.0, 2.0, 4.0, math.inf])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1000, 2369])
    def test_far_scale_kernels_attain(self, n, beta, p):
        # at (2.0, 0.7) sum |c_k| is 3.2e-109 (n = 1000) and 1.0e-199
        # (n = 2369): on the unscaled grid sum |S|^{p'} underflows to 0, and
        # phi is nan at n = 1000, p = 4/3 and inf at n = 2369, p = 2; in
        # units of 2^e it does not.  The ratio above 1 at p = 4 and inf
        # is the p' = 4/3 and 1 records' chord kink bias, not the extremal's
        ke = KernelEvaluator.build(PsiFunction.exp_power(2.0, 0.7), n, beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ex = duality_extremal_phi(ke, p, x0=0.0)
            values = ex(np.linspace(0.0, 6.0, 7))
        assert 0.999 <= ex.ratio <= 1.01
        assert ex.norm_p == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.isfinite(values)) and np.any(values != 0.0)

    def test_checks_build_no_kernel(self, psi_half, monkeypatch):
        # the extremal and the residual check read the kernel they are
        # given: neither builds a profile or an evaluator of its own
        ke = KernelEvaluator.build(psi_half, 9, 1.0)

        def refuse(*args):
            raise AssertionError("a kernel was built")
        monkeypatch.setattr(kernels, "kernel_profile", refuse)
        monkeypatch.setattr(KernelEvaluator, "build", refuse)
        for p in (1.0, 2.0, math.inf):
            assert math.isfinite(duality_extremal_phi(ke, p, x0=0.5).ratio)
        phi = zero_mean_series(np.random.default_rng(17), 20)
        assert residual_consistency(ke, phi, [0.3, 4.0]) <= 1e-8
