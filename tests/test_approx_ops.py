"""Taper multiplier, synthesis, norm machinery, duality extremals."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from psiapprox import (DegenerateGapError, DomainError, FourierSeries,
                       KernelEvaluator, PsiFunction, QuadratureSpec,
                       approx_ops, apply_vn, duality_extremal_phi,
                       kernel_norm, lp_norm, residual_consistency, sup_norm,
                       synthesize_class_function, taper_coefficients)

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
    s = ke.uniform_samples(grid)
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


def roll_kink(s, p, h):
    """Sign-change panel correction over whole-grid np.roll neighbours."""
    if p == 2.0 * round(p / 2.0):
        return 0.0
    nxt = np.roll(s, -1)
    cross = s * nxt < 0.0
    if not np.any(cross):
        return 0.0
    A = np.abs(s[cross])
    B = np.abs(nxt[cross])
    exact = (A ** (p + 1.0) + B ** (p + 1.0)) / ((p + 1.0) * (A + B))
    trap = 0.5 * (A ** p + B ** p)
    return float(h * np.sum(exact - trap))


def unblocked_lp(s, p):
    """lp_norm's trapezoid and Richardson estimate with whole-grid arrays:
    one np.sum over |s|^p per grid, the half grid copied out of s."""
    h = TWO_PI / s.size

    def integral(samples, step):
        return (step * float(np.sum(np.abs(samples) ** p))
                + roll_kink(samples, p, step))

    full = integral(s, h)
    half = integral(s[::2], 2.0 * h)
    value = full ** (1.0 / p)
    return value, value * (abs(full - half) / 3.0) / (p * full)


@pytest.fixture(scope="module")
def deep_kernel(psi_slow):
    """(2.0, 0.3), n = 200: K ~ 51k, so its norms take a 2^20-point grid."""
    ke = KernelEvaluator.build(psi_slow, 200, 0.0)
    assert approx_ops._grid_size(approx_ops.DEFAULT_QUAD,
                                 ke.series.degree) == 1 << 20
    return ke


def golden_peak(ke, G=1 << 14):
    """max |K*| by golden-section search in the cell around the FFT argmax."""
    h = TWO_PI / G
    i = int(np.argmax(np.abs(ke.uniform_samples(G))))
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
        assert tc.value(0) == 1.0
        assert tc.value(9) == 0.0   # beyond degree: dropped entirely

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
        for _ in range(3):
            phi = zero_mean_series(rng, 40)
            xs = rng.uniform(0.0, TWO_PI, 9)
            assert residual_consistency(psi_half, 0.0, 16, phi, xs) <= 1e-8

    def test_rotated_class(self, psi_half):
        rng = np.random.default_rng(13)
        phi = zero_mean_series(rng, 25)
        xs = rng.uniform(0.0, TWO_PI, 5)
        assert residual_consistency(psi_half, 1.0, 9, phi, xs) <= 1e-8


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
        assert ke.series._sample_cache == {}
        assert nv.value == math.sqrt(math.pi * ke.series.energy())
        # worst-case rounding of the degree-term sum, nothing more
        assert nv.error_estimate <= 1e-12 * nv.value

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_callable_targets_refused(self, p):
        # norms take coefficient series; a plain callable has no degree
        with pytest.raises(DomainError):
            lp_norm(lambda t: np.cos(t), p)

    @pytest.mark.parametrize("quad", [None, QuadratureSpec(8.0)])
    def test_orders_share_one_grid(self, psi_half, quad):
        # the trapezoid orders and the sup scan size their grid alike, so a
        # kernel is sampled on one grid however many orders it is normed in
        ke = KernelEvaluator.build(psi_half, 40, 0.5)
        for p in (1.0, 4.0 / 3.0, 4.0, math.inf):
            lp_norm(ke, p, quad)
        assert len(ke.series._sample_cache) == 1

    def test_float_protocol(self):
        f = FourierSeries(a0=0.0, a=[0.0], b=[1.0])
        assert float(lp_norm(f, 2.0)) == lp_norm(f, 2.0).value

    def test_invalid_exponent(self):
        f = FourierSeries(a0=0.0, a=[1.0], b=[0.0])
        for p in (0.5, math.nan):
            with pytest.raises(DomainError):
                lp_norm(f, p)

    def test_quadrature_spec_validation(self):
        for points in (4.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                QuadratureSpec(points_per_wavelength=points)

    def test_kernel_norm_tail_budget(self, psi_half):
        ke = KernelEvaluator.build(psi_half, 16, 0.0)
        plain = lp_norm(ke, 2.0)
        kn = kernel_norm(psi_half, 0.0, 16, 2.0, evaluator=ke)
        assert kn.value == plain.value
        assert kn.error_estimate >= plain.error_estimate


class TestBlockedPasses:
    """Grid norms run block by block; the results are the whole-grid ones."""

    @pytest.mark.parametrize("degree", [200, 4000])   # 4096, 65,536 points
    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 3.0, 4.0])
    def test_lp_norm_bitwise_on_one_block(self, degree, p):
        f = zero_mean_series(np.random.default_rng(degree), degree)
        G = approx_ops._grid_size(approx_ops.DEFAULT_QUAD, degree)
        assert G <= approx_ops._BLOCK
        nv = lp_norm(f, p)
        assert (nv.value, nv.error_estimate) == unblocked_lp(
            f.uniform_samples(G), p)

    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 3.0, 4.0])
    def test_lp_norm_on_many_blocks(self, deep_kernel, p):
        value, err = unblocked_lp(deep_kernel.uniform_samples(1 << 20), p)
        nv = lp_norm(deep_kernel, p)
        assert nv.value == pytest.approx(value, rel=1e-14, abs=0.0)
        assert nv.error_estimate == pytest.approx(err, rel=1e-10, abs=0.0)

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
            assert approx_ops._kink_correction(grid, p, h) == roll_kink(
                grid, p, h)

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
            assert approx_ops._argmax_abs(s) == int(np.argmax(np.abs(s)))

    def test_grid_norms_take_no_grid_sized_temporaries(self, deep_kernel):
        deep_kernel.uniform_samples(1 << 20)   # cache the 8 MB grid first
        for norm in (lambda g: lp_norm(g, 4.0 / 3.0),
                     lambda g: lp_norm(g, 1.0), sup_norm):
            tracemalloc.start()
            try:
                norm(deep_kernel)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2 ** 20


class TestDuality:
    def test_conjugate_pair_attains(self, psi_half):
        ex = duality_extremal_phi(psi_half, 0.0, 16, 2.0, x0=0.0)
        assert ex.ratio >= 0.999
        assert ex.norm_p == pytest.approx(1.0, rel=1e-10)
        assert not ex.mean_corrected

    def test_sign_function_attains(self, psi_half):
        ex = duality_extremal_phi(psi_half, 0.0, 16, math.inf, x0=1.0)
        assert ex.ratio >= 0.999
        assert abs(ex.mean_offset) <= 5e-3   # below the correction trigger
        assert ex.p_prime == 1.0

    def test_mollified_bump_attains(self, psi_half):
        ex = duality_extremal_phi(psi_half, 0.0, 16, 1.0, x0=0.0)
        assert ex.ratio >= 0.98
        assert ex.mollify_width is not None
        # reported mean is the bump's own, deliberately not corrected
        assert not ex.mean_corrected
        assert abs(ex.mean_offset) == pytest.approx(1.0 / TWO_PI, rel=1e-12)

    def test_callable_reproduces_attainment(self, psi_half):
        ke = KernelEvaluator.build(psi_half, 9, 0.0)
        ex = duality_extremal_phi(psi_half, 0.0, 9, 2.0, x0=0.7,
                                  evaluator=ke, grid_size=1 << 13)
        G = ex.grid_size
        grid = TWO_PI * np.arange(G) / G
        vals = np.asarray(ex(grid), dtype=float)
        kern = ke.uniform_samples(G)
        s = kern[(int(round(ex.x0 / (TWO_PI / G))) - np.arange(G)) % G]
        attained = (TWO_PI / G) * float(np.sum(vals * s)) / math.pi
        assert attained == pytest.approx(ex.attainment, rel=1e-9)

    def test_x0_snapped_to_grid(self, psi_half):
        ex = duality_extremal_phi(psi_half, 0.0, 9, 2.0, x0=0.1234,
                                  grid_size=1 << 14)
        h = TWO_PI / ex.grid_size
        assert ex.x0 == pytest.approx(round(0.1234 / h) * h, abs=1e-15)

    def test_invalid_p(self, psi_half):
        with pytest.raises(DomainError):
            duality_extremal_phi(psi_half, 0.0, 9, 0.7, x0=0.0)
