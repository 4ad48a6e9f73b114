"""Residual kernel construction, its three representations, tail control."""

import json
import math

import mpmath
import numpy as np
import pytest

from psiapprox import (DegenerateGapError, DomainError, FourierSeries,
                       InvalidPsiError, KernelEvaluator, NumericError,
                       PsiFunction, certified_tail_sum, characteristics,
                       dirichlet, envelope_check, exp_power_thresholds,
                       lemma1_check, tail_sum_bound_check, taper_coefficients,
                       truncation_index, verify_sweep)
from psiapprox import approx_ops, kernels
from psiapprox.cli import main
from psiapprox.psi_core import LN2, _solve_eta
from psiapprox.series import FFT_BLOCK, _node

from conftest import kernel_series

TWO_PI = 2.0 * math.pi


def mpmath_kernel(kp, t, betas):
    """[the truncated kernel sum c_k cos(kr - beta pi/2) at each beta],
    r = t mod 2 pi taken at 400 digits from the float t, the sum at 50."""
    with mpmath.workdps(400):
        r = mpmath.fmod(mpmath.mpf(t), 2 * mpmath.pi)
    terms = list(zip(range(kp.taper_start, kp.truncation_index + 1),
                     map(mpmath.mpf, kp.coeffs.tolist())))
    with mpmath.workdps(50):
        C = mpmath.fsum(c * mpmath.cos(k * r) for k, c in terms)
        S = mpmath.fsum(c * mpmath.sin(k * r) for k, c in terms)
        return [float(mpmath.cospi(b / 2) * C + mpmath.sinpi(b / 2) * S)
                for b in betas]


def dirichlet_direct(k, beta, t):
    th = 0.5 * math.pi * beta
    t = np.asarray(t, dtype=float)
    acc = math.cos(th) / 2.0 + np.zeros_like(t)
    for nu in range(1, k + 1):
        acc = acc + np.cos(nu * t - th)
    return acc


class TestDirichlet:
    def test_closed_form_vs_direct_sum(self):
        rng = np.random.default_rng(17)
        ts = rng.uniform(-math.pi, math.pi, 500)
        ts = ts[np.abs(ts) > 2e-3]  # keep away from the series switchover
        for k in (0, 1, 2, 7, 40):
            for beta in (0.0, 1.0, 0.35):
                got = dirichlet(k, beta, ts)
                np.testing.assert_allclose(got, dirichlet_direct(k, beta, ts),
                                           rtol=0, atol=1e-12)

    def test_value_at_zero(self):
        # beta = 0: all cosines are 1 at t = 0
        assert dirichlet(6, 0.0, 0.0) == pytest.approx(6.5, abs=1e-14)

    def test_hand_computed_point(self):
        # k=2, beta=1 at t=pi/2: sin(t)+sin(2t) = 1 + 0
        assert dirichlet(2, 1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-13)

    def test_branches_agree_near_switchover(self):
        # just above the boundary the closed form takes over; it must match
        # the defining sum at the same point to near machine precision
        for beta in (0.0, 1.0, 0.6):
            for t in (1.0005e-3, 2e-3, 9.99e-4):
                assert dirichlet(25, beta, t) == pytest.approx(
                    float(dirichlet_direct(25, beta, t)), abs=1e-11)

    def test_periodicity(self):
        t = 1.234
        assert dirichlet(9, 0.5, t) == pytest.approx(
            dirichlet(9, 0.5, t + TWO_PI), rel=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            dirichlet(-1, 0.0, 0.5)
        with pytest.raises(DomainError):
            dirichlet(np.array([3, -1]), 0.0, 0.5)

    def test_orders_array_matches_scalar_calls(self):
        # both branches: closed form away from 0 and the summed series within
        # T_SWITCH, where one partial sum serves every order at a point
        ks = np.array([0, 1, 2, 7, 40, 333, 7])
        ts = np.array([0.0, 1e-4, -1e-4, 9.99e-4, 1e-4, 0.3, -2.5, math.pi,
                       TWO_PI + 5e-4])
        for beta in (0.0, 1.0, 0.35):
            for t in ts:
                got = dirichlet(ks, beta, t)
                want = [dirichlet(int(k), beta, t) for k in ks]
                assert np.array_equal(got, want)
            table = dirichlet(ks[:, None], beta, ts[None, :])
            assert np.array_equal(table, [dirichlet(int(k), beta, ts)
                                          for k in ks])
            assert np.array_equal(dirichlet(ks, beta, ts[:ks.size]),
                                  [dirichlet(int(k), beta, float(t))
                                   for k, t in zip(ks, ts)])


class TestTruncation:
    def test_probe_inequality_holds(self, psi_half):
        for n, eps in ((9, 1e-10), (16, 1e-14), (40, 1e-12)):
            K = truncation_index(psi_half, n, eps)
            assert K >= n
            rho = float(psi_half(K + 2)) / float(psi_half(K + 1))
            assert float(psi_half(K + 1)) / (1.0 - rho) <= eps * (1 + 1e-9)

    def test_monotone_in_eps(self, psi_half):
        eps_list = (1e-8, 1e-10, 1e-12, 1e-14)
        ks = [truncation_index(psi_half, 16, e) for e in eps_list]
        assert ks == sorted(ks)

    def test_certified_tail_dominates_true_tail(self, psi_half):
        for K in (200, 1000, 5000):
            bound = certified_tail_sum(psi_half, K)
            ks = np.arange(K + 1, K + 60000, dtype=float)
            true_tail = float(np.sum(psi_half(ks)))
            assert true_tail <= bound
            assert bound <= 6.0 * true_tail  # not wildly loose

    @pytest.mark.parametrize("K, log_first", [
        (4304, -699.5), (4610, -734.0), (5200, -798.5)])
    def test_certified_tail_far_down(self, K, log_first):
        # (2.0, 0.7): the halving blocks run below e^-700, and at K = 5200
        # below the smallest subnormal; none is dropped, so the bound stays
        # positive and covers the 30-digit tail (at K = 4610 it read 0)
        psi = PsiFunction.exp_power(2.0, 0.7)
        assert float(psi.log_value(K + 1.0)) == pytest.approx(log_first,
                                                               abs=0.05)
        with mpmath.workdps(30):
            tail = mpmath.nsum(lambda k: mpmath.exp(-2 * k ** mpmath.mpf(0.7)),
                               [K + 1, mpmath.inf])
        bound = certified_tail_sum(psi, K)
        assert bound >= max(tail, math.ulp(0.0))
        assert bound <= max(3 * tail, math.ulp(0.0))

    def test_tail_budget_far_down_grows_K(self):
        # at (2.0, 0.7), n = 4300, K = 4610 certified a tail of 0; its
        # positive bound now passes the budget, so K grows until it fits
        psi = PsiFunction.exp_power(2.0, 0.7)
        kp = kernels.kernel_profile(psi, 4300)
        assert kp.truncation_index > 4610
        assert 0.0 < kp.certified_tail <= kp.tail_eps

    def test_certified_tail_unit_gap(self, psi_unit_gap):
        # geometric series: tail of 2^-t from K+1 is exactly 2 * 2^-(K+1);
        # the block bound pays a factor (gap + 1) = 2 on top
        bound = certified_tail_sum(psi_unit_gap, 30)
        exact = 2.0 * 2.0 ** (-31.0)
        assert exact <= bound <= 2.2 * exact

    def test_tail_blocks_start_at_halving_points(self, psi_half, sqrt_profiles,
                                                 monkeypatch):
        custom, table, _ = sqrt_profiles
        halving = PsiFunction.halving_point
        starts = []
        monkeypatch.setattr(PsiFunction, "halving_point",
                            lambda psi, t: starts.append(t) or halving(psi, t))
        for psi in (psi_half, custom, table):
            for K in (30, 200):
                starts.clear()
                certified_tail_sum(psi, K)
                assert starts[:2] == [K + 1.0, halving(psi, K + 1.0)]
                assert all(halving(psi, s) == s_next
                           for s, s_next in zip(starts, starts[1:]))

    def test_solved_tails_bound_thirty_digits(self, sqrt_profiles):
        # the custom tail by mpmath.nsum; the table's sums its knots exactly
        # plus the geometric run past its last knot
        custom, table, log_v = sqrt_profiles
        with mpmath.workdps(30):
            q = mpmath.exp(mpmath.mpf(float(log_v[-1] - log_v[-2])))
            past = mpmath.exp(mpmath.mpf(float(log_v[-1]))) * q / (1 - q)
            for K in (30, 200, 1000):
                tails = {
                    custom: mpmath.nsum(lambda k: mpmath.exp(-mpmath.sqrt(k)),
                                        [K + 1, mpmath.inf]),
                    table: mpmath.fsum(mpmath.exp(mpmath.mpf(float(x)))
                                       for x in log_v[K:]) + past}
                for psi, tail in tails.items():
                    bound = certified_tail_sum(psi, K)
                    assert tail <= bound <= 3 * tail, (K, bound, tail)

    def test_closed_form_halving_keeps_K(self, monkeypatch):
        # exp-power halving points come in closed form; K must be the one
        # the solved chain gives, and each point within resolution of it
        closed = PsiFunction.halving_point
        points = []

        def recording(psi, t):
            points.append((psi, t))
            return closed(psi, t)

        others = [(0.5, 0.5), (0.5, 0.7), (1.0, 0.7), (2.0, 0.5), (2.0, 0.7)]
        cases = [(2.0, 0.3, range(160, 257)), (1.0, 0.5, range(11, 65))] + [
            (a, r, range(exp_power_thresholds(a, r)[2], 257, 8))
            for a, r in others]
        for alpha, r, ns in cases:
            psi = PsiFunction.exp_power(alpha, r)
            for n in ns:
                gap = characteristics(psi, float(n)).eta_gap
                monkeypatch.setattr(PsiFunction, "halving_point", recording)
                K = kernels._tail_budget(psi, n, gap)[1]
                monkeypatch.setattr(PsiFunction, "halving_point", _solve_eta)
                assert kernels._tail_budget(psi, n, gap)[1] == K, (alpha, r, n)
        monkeypatch.undo()
        assert len(points) > 1000
        for psi, t in points:
            eta = closed(psi, t)
            assert abs(eta - _solve_eta(psi, t)) <= 8 * math.ulp(eta)

    def test_halving_point_of_a_table_solves(self):
        ts = np.arange(1.0, 200.0)
        psi = PsiFunction.from_table(ts, np.exp(-np.sqrt(ts)))
        eta = psi.halving_point(30.0)
        assert eta == _solve_eta(psi, 30.0)
        assert abs(psi.log_value(eta) - psi.log_value(30.0) + LN2) <= 1e-14

    @pytest.mark.parametrize("alpha, r", [
        (0.5, 0.5), (0.5, 0.7), (1.0, 0.5), (1.0, 0.7),
        (2.0, 0.3), (2.0, 0.5), (2.0, 0.7)])
    def test_index_is_minimal(self, alpha, r):
        # the bisection leaves K - 1 a failed probe, so no step down can pay
        psi = PsiFunction.exp_power(alpha, r)
        n_min = exp_power_thresholds(alpha, r)[2]
        for n in (n_min, (n_min + 256) // 2, 256):
            eps = (kernels.TAIL_EPS_SCALE * float(psi(float(n)))
                   * characteristics(psi, float(n)).eta_gap)
            K = truncation_index(psi, n, eps)
            assert K > n, (alpha, r, n)
            l1, l2 = (float(psi.log_value(float(k))) for k in (K, K + 1))
            estimate = l1 - math.log1p(-math.exp(l2 - l1))
            assert estimate > math.log(eps) + 1e-12, (alpha, r, n, K)

    def test_search_refuses_past_max_grid(self):
        # log psi falls by 4e-7 per step past t = 3: K would be ~8.7e7
        flat = PsiFunction.from_table([1.0, 2.0, 3.0, 4.0],
                                      [1.0, 0.5, 0.25, 0.2499999])
        eps = (kernels.TAIL_EPS_SCALE * float(flat(3.0))
               * characteristics(flat, 3.0).eta_gap)
        with pytest.raises(NumericError, match="MAX_GRID"):
            truncation_index(flat, 3, eps)
        with pytest.raises(NumericError, match="MAX_GRID"):
            kernels.kernel_profile(flat, 3)

    def test_enlargement_refuses_past_max_grid(self, psi_half, monkeypatch):
        seen = []

        def never_fits(psi, K):
            seen.append(K)
            return math.inf
        monkeypatch.setattr(kernels, "certified_tail_sum", never_fits)
        with pytest.raises(NumericError, match="MAX_GRID"):
            kernels.kernel_profile(psi_half, 16)
        assert max(seen) <= kernels.MAX_GRID < int(max(seen) * 1.25) + 1

    def test_rejects_non_decaying_profile(self):
        flat = PsiFunction.custom(lambda t: np.full_like(
            np.asarray(t, dtype=float), 0.5))
        with pytest.raises(InvalidPsiError):
            truncation_index(flat, 4, 1e-6)


class TestKernelEvaluator:
    def test_coefficients_tie_to_taper(self, psi_half):
        # c_k must equal (1 - lambda(k)) psi(k) below n and psi(k) above;
        # at beta = 0 the cosine coefficient a_k is c_k itself
        n = 16
        a = kernel_series(KernelEvaluator.build(psi_half, n, 0.0)).a
        tc = taper_coefficients(psi_half, n)
        for k in range(1, n):
            want = (1.0 - tc.lam[k]) * float(psi_half(float(k)))
            assert a[k - 1] == pytest.approx(want, abs=1e-18, rel=1e-13)
        for k in range(n, n + 40):
            assert a[k - 1] == pytest.approx(
                float(psi_half(float(k))), rel=1e-13)

    def test_window_start_and_gap(self, psi_half):
        ke = KernelEvaluator.build(psi_half, 9, 0.0)
        # eta(9) = 13.639..., floor 13, so harmonics start at 2*9-13+1 = 6
        assert ke.eta_floor == 13
        assert ke.eta_floor - ke.n == 4
        assert ke.taper_start == 6
        a = kernel_series(ke).a
        assert a[5 - 1] == 0.0
        assert a[6 - 1] > 0.0

    def test_degenerate_gap_raises(self):
        psi = PsiFunction.exp_power(2.0, 1.0)  # halves every 0.35 steps
        with pytest.raises(DegenerateGapError):
            KernelEvaluator.build(psi, 5, 0.0)

    def test_representations_agree(self, psi_half, psi_unit_gap):
        # points inside T_SWITCH take the summed Dirichlet kernels; the
        # unit-gap profile at n = 10 has an empty taper
        assert KernelEvaluator.build(psi_unit_gap, 10, 0.0).taper_start == 10
        ts = np.concatenate([np.linspace(0.01, math.pi, 101),
                             -np.linspace(0.01, math.pi, 7),
                             [0.0, 1e-4, -1e-4, 9.99e-4]])
        for psi, n, beta in ((psi_half, 9, 0.0), (psi_half, 9, 1.0),
                             (psi_half, 16, 0.5), (psi_unit_gap, 10, 0.0),
                             (psi_unit_gap, 10, 0.7)):
            # the three routes share K, so they differ only by rounding
            ke = KernelEvaluator.build(psi, n, beta)
            base = ke.eval(ts, "direct")
            for rep in ("x", "for1"):
                np.testing.assert_allclose(ke.eval(ts, rep), base,
                                           rtol=0, atol=1e-12)

    def test_representations_agree_at_default_budget(self, psi_half):
        ke = KernelEvaluator.build(psi_half, 9, 0.0)
        ts = np.array([0.5, 1.5])
        base = ke.eval(ts, "direct")
        for rep in ("x", "for1"):
            np.testing.assert_allclose(ke.eval(ts, rep), base,
                                       rtol=0, atol=1e-12)

    def test_value_at_zero_unit_gap(self, psi_unit_gap):
        # 2^-t profile, n = 10: peak value telescopes to 2^-9
        ke = KernelEvaluator.build(psi_unit_gap, 10, 0.0)
        assert float(ke.eval(0.0)) == pytest.approx(2.0 ** -9, rel=1e-9)

    @pytest.mark.parametrize("t", [-7.5, 5.0, 1e17, 1e300])
    def test_point_values_reduce_t(self, psi_half, capsys, t):
        # t is reduced once, exactly enough: every route, and kernel-eval,
        # lies within eps sum k |c_k| of the exactly reduced sum, where an
        # unreduced k t at 1e300 keeps no digit of the phase
        kp = kernels.kernel_profile(psi_half, 9)
        betas = (0.0, 0.5, 1.0)
        k = np.arange(kp.taper_start, kp.truncation_index + 1)
        tol = np.finfo(float).eps * float(np.sum(k * kp.coeffs))
        for beta, want in zip(betas, mpmath_kernel(kp, t, betas)):
            ke = kp.evaluator(beta)
            got = [ke.eval(t, rep) for rep in ("direct", "x", "for1")]
            got.append(kernel_series(ke).eval(t))
            if t == 1e300:
                assert main(["kernel-eval", "--alpha", "1", "--r", "0.5",
                             "--n", "9", "--beta", str(beta), "--t",
                             "1e300"]) == 0
                got.append(json.loads(capsys.readouterr().out)["rows"][0][
                    "value"])
            assert max(abs(v - want) for v in got) <= tol

    def test_uniform_samples_match_eval(self, psi_half):
        ke = KernelEvaluator.build(psi_half, 9, 1.0)   # K = 2041
        G = 4096
        grid = TWO_PI * np.arange(G) / G
        np.testing.assert_allclose(kernel_series(ke).uniform_samples(G),
                                   ke.eval(grid), rtol=0, atol=1e-12)

    def test_beta_rotation_of_coefficients(self, psi_half):
        # beta = 2 flips the sign of every harmonic: cos(kt - pi) = -cos(kt)
        k0 = KernelEvaluator.build(psi_half, 9, 0.0)
        k2 = KernelEvaluator.build(psi_half, 9, 2.0)
        ts = np.linspace(0.2, 3.0, 9)
        np.testing.assert_allclose(k2.eval(ts), -k0.eval(ts), atol=1e-15)

    def test_tail_eps_budget_certified(self, psi_half):
        ke = KernelEvaluator.build(psi_half, 16, 0.0)
        assert ke.tail_eps == (kernels.TAIL_EPS_SCALE * float(psi_half(16.0))
                               * characteristics(psi_half, 16.0).eta_gap)
        assert ke.certified_tail <= ke.tail_eps

    def test_invalid_n(self, psi_half):
        with pytest.raises(DomainError):
            KernelEvaluator.build(psi_half, 0, 0.0)

    @pytest.mark.parametrize("tail_eps", [math.inf, math.nan, 0.0, -1e-12])
    def test_tail_budget_must_be_finite_positive(self, psi_half, tail_eps):
        # an infinite budget would certify any truncation
        with pytest.raises(DomainError):
            truncation_index(psi_half, 12, tail_eps)

    @pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan])
    def test_beta_must_be_finite(self, psi_half, beta):
        with pytest.raises(DomainError):
            KernelEvaluator.build(psi_half, 12, beta)

    def test_evaluator_offset_and_phase(self, psi_half):
        # sum_{k=A}^{K} c_k cos(kt - pi/2) = sum c_k sin(kt), and at beta
        # = 0.7 the phase's cos and sin, with no harmonic below A
        kp = kernels.kernel_profile(psi_half, 9)
        ks = np.arange(kp.taper_start, kp.truncation_index + 1)
        ts = np.linspace(0.3, 5.9, 23)
        for beta in (1.0, 0.7):
            ke = kp.evaluator(beta)
            want = [np.sum(kp.coeffs * np.cos(ks * t - 0.5 * math.pi * beta))
                    for t in ts]
            np.testing.assert_allclose(ke.eval(ts), want, rtol=0, atol=1e-14)
        f = kp.folded
        assert f.degree == kp.truncation_index and f.a0 == 0.0
        assert not f.a[:kp.taper_start - 1].any()
        assert not f.b[:kp.taper_start - 1].any()

    def test_evaluator_quarter_turns_are_exact(self, psi_half):
        # every whole number of quarter turns gives cos, sin in {0, +-1}:
        # the kernel is exactly even or odd, the mirror (u, v) exactly
        # (+-1, +-1), and a point value has the bits of the kernel's own
        # series (u +- v is 0 or +-2, and f's c_k / 2 is exact); elsewhere
        # cos and sin are math's of beta pi/2, and a point value lies
        # within eps sum |c_k| of that series
        kp = kernels.kernel_profile(psi_half, 9)
        ts = np.concatenate(([0.5, 1.0, -2.0, 3.1, 1e300],
                             np.random.default_rng(5).uniform(-9, 9, 30)))
        for beta, cos, sin in ((-1, 0, -1), (0, 1, 0), (1, 0, 1),
                               (2, -1, 0), (3, 0, -1), (5, 0, 1)):
            ke = kp.evaluator(float(beta))
            assert kernels._phase(float(beta)) == (cos, sin)
            assert ke.mirror == (cos + sin, cos - sin)
            assert np.array_equal(ke.eval(ts), kernel_series(ke).eval(ts))
        ke = kp.evaluator(0.5)
        cos, sin = math.cos(0.25 * math.pi), math.sin(0.25 * math.pi)
        assert kernels._phase(0.5) == (cos, sin)
        assert ke.mirror == (cos + sin, cos - sin)
        np.testing.assert_allclose(
            ke.eval(ts), kernel_series(ke).eval(ts), rtol=0,
            atol=np.finfo(float).eps * kp.moments[0])
        for beta in (math.nan, math.inf, 1.5e308):   # the last: th overflows
            with pytest.raises(DomainError):
                kp.evaluator(beta)


def fft_samples(ke, G):
    """ke's samples by an FFT of its own coefficients, not its profile's."""
    return kernel_series(ke).uniform_samples(G)


def pass_grid(ke, G):
    """The G-point grid the norm pass walks for ke: u f_j + v f_{-j} over
    its profile's f samples, by the row mirror, in natural order."""
    return ke.folded._mirrored(G, *ke.mirror)


class TestMirroredSamples:
    """The norm pass mirrors its profile's one FFT for every beta; that
    grid is the FFT of the kernel's own coefficients."""

    @pytest.fixture(scope="class")
    def deep_profile(self, psi_slow):
        return kernels.kernel_profile(psi_slow, 200)

    @pytest.mark.parametrize("G", [4096, 1 << 20])   # one-shot; split route
    @pytest.mark.parametrize("beta", [0.0, 1.0, 0.5, -1.3, 2.7])
    def test_agrees_with_the_phased_fft(self, deep_profile, psi_half, beta, G):
        # 4,096 points carry the (1.0, 0.5), n = 9 kernel (K = 2041) in
        # one irfft, 2^20 points the (2.0, 0.3), n = 200 one (K ~ 51k) in
        # eight split transforms
        kp = (deep_profile if G > FFT_BLOCK
              else kernels.kernel_profile(psi_half, 9))
        ke = kp.evaluator(beta)
        assert ke.folded._phases(G).shape[0] == (8 if G > FFT_BLOCK else 1)
        ref = fft_samples(ke, G)
        s = pass_grid(ke, G)
        eps = np.finfo(float).eps
        assert np.max(np.abs(s - ref)) <= 4.0 * eps * np.max(np.abs(ref))

    def test_beta_zero_peak_sample_keeps_its_bits(self, psi_slow):
        # K*(0) at beta = 0 is the p = inf norm of `kernel-norm`; the
        # mirrored pass doubles f_0 of the split transform, which must
        # equal a one-shot irfft of the kernel's own coefficients
        for n in range(160, 257):
            ke = kernels.kernel_profile(psi_slow, n).evaluator(0.0)
            G = approx_ops._grid_size(ke.truncation_index)
            assert G > FFT_BLOCK   # the split route
            f, u, v = ke.folded, *ke.mirror
            node0 = _node(f._phases(G), u, v, 0)
            own = kernel_series(ke)
            spec = np.concatenate(([0.0], own.a - 1j * own.b))
            assert node0 == np.fft.irfft(0.5 * spec, G, norm="forward")[0]

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_profile_sums_keep_the_series_bits(self, deep_profile, beta):
        ke = deep_profile.evaluator(beta)
        own = kernel_series(ke)
        # the second derivative's coefficients, up to sign
        k = np.arange(1.0, own.degree + 1.0)
        d2a, d2b = k * (k * own.a), k * (k * own.b)
        assert 2.0 * ke.folded.energy() == own.energy()
        assert ke.moments[1] == float(np.sum(np.hypot(d2a, d2b)))
        # and a plain series' moments, from its own coefficients
        assert ke.moments == kernels._moments(np.hypot(own.a, own.b))


class TestLemma1:
    def test_random_instances(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(30):
            N = int(rng.integers(1, 45))
            M = N + int(rng.integers(1, 45))
            lam = rng.uniform(0.0, 1.0, M)
            gamma = float(rng.uniform(0.2, 3.0))
            t = rng.uniform(1e-3, math.pi, 200)
            worst = max(worst, lemma1_check(lam, gamma, N, M, t))
        assert worst <= 1e-12

    def test_argument_validation(self):
        lam = np.ones(10)
        with pytest.raises(DomainError):
            lemma1_check(lam, 1.0, 5, 5, [0.5])  # N >= M
        with pytest.raises(DomainError):
            lemma1_check(lam[:2], 1.0, 2, 9, [0.5])  # sequence too short


def envelopes(kp, a, b):
    """The pointwise (times t^2) and uniform envelopes of the kernel."""
    psi_n, gap = float(kp.psi(float(kp.n))), kp.eta_gap
    return (math.pi ** 2 * (2 * (b + 1) ** 2 / b ** 2 + a / (a - 1))
            * psi_n / gap, (2 * b / (b - 2) + 1 / a + 0.5) * psi_n * gap)


class TestEnvelopes:
    def test_pointwise_and_uniform_hold(self, psi_half):
        a, b, _ = exp_power_thresholds(1.0, 0.5)
        for n in (11, 16, 24):
            ke = KernelEvaluator.build(psi_half, n, 0.0)
            rep = envelope_check(ke, a, b)
            assert rep.status == "ok"
            assert rep.all_ok
            assert rep.pointwise_margin > 0
            assert rep.uniform_margin > 0

    def test_precondition_violation_reported(self, psi_half):
        ke = KernelEvaluator.build(psi_half, 16, 0.0)
        rep = envelope_check(ke, 50.0, 3.0)  # gap(16) = 6.03 < a = 50
        assert rep.status == "precondition_violated"
        assert any("gap" in msg or "a" in msg for msg in rep.preconditions)

    def test_formula_breakdown_gives_none(self, psi_half):
        ke = KernelEvaluator.build(psi_half, 16, 0.0)
        rep = envelope_check(ke, 0.5, 1.0)  # constants undefined at b <= 2
        assert rep.status == "precondition_violated"
        assert rep.uniform_ok is None

    def test_tail_bound_holds(self, psi_half):
        a, b, _ = exp_power_thresholds(1.0, 0.5)
        rep = tail_sum_bound_check(psi_half, 16, a, b)
        assert rep.status == "ok"
        assert rep.ok
        assert rep.max_abs <= rep.bound

    def test_tail_bound_from_evaluator_is_identical(self, psi_half):
        a, b, _ = exp_power_thresholds(1.0, 0.5)
        for n in range(11, 41):
            for beta in (0.0, 1.0):
                ke = KernelEvaluator.build(psi_half, n, beta)
                assert (tail_sum_bound_check(psi_half, n, a, b, beta=beta)
                        == tail_sum_bound_check(psi_half, n, a, b, beta=beta,
                                                evaluator=ke))

    @pytest.mark.parametrize("alpha, r, n", [
        (1.0, 0.5, 11), (2.0, 0.5, 17), (2.0, 0.7, 106), (2.0, 0.3, 200)])
    def test_certificates_bound_a_dense_scan(self, alpha, r, n):
        # 16 nodes per wavelength of the top harmonic, as the norm grid
        psi = PsiFunction.exp_power(alpha, r)
        a, b, _ = exp_power_thresholds(alpha, r)
        kp = kernels.kernel_profile(psi, n)
        rep = envelope_check(kp, a, b)
        point_env, uni_env = envelopes(kp, a, b)
        point_cert = point_env - rep.pointwise_margin
        uni_cert = uni_env - rep.uniform_margin
        tail_cert = tail_sum_bound_check(psi, n, a, b, evaluator=kp).max_abs
        G = approx_ops._grid_size(kp.truncation_index)
        t = kernels._wrap(TWO_PI * np.arange(G) / G)
        rounding = 1.0 + (kp.truncation_index + 3) * np.finfo(float).eps
        tail_only = np.arange(1, kp.truncation_index + 1) >= n
        for beta in (0.0, 0.5, 1.0, 1.7):
            series = kernel_series(kp.evaluator(beta))
            mag = np.abs(series.uniform_samples(G))
            assert np.max(t * t * mag) <= point_cert
            assert np.max(mag) <= uni_cert
            tail = FourierSeries(0.0, series.a * tail_only,
                                 series.b * tail_only)
            assert np.max(np.abs(tail.uniform_samples(G))) <= tail_cert
            if beta == 0.0:   # K*(0) = S: attained up to the rounding factor
                assert uni_cert <= (mag[0] + kp.certified_tail) * rounding ** 2

    def test_tail_bound_refuses_another_profile(self, psi_half, psi_slow):
        a, b, _ = exp_power_thresholds(1.0, 0.5)
        for kp in (kernels.kernel_profile(psi_half, 17),
                   kernels.kernel_profile(psi_slow, 16)):
            with pytest.raises(DomainError):
                tail_sum_bound_check(psi_half, 16, a, b, evaluator=kp)

    def test_checks_sample_no_grid(self, psi_half, monkeypatch):
        a, b, _ = exp_power_thresholds(1.0, 0.5)
        kp = kernels.kernel_profile(psi_half, 16)

        class NoFFT:
            def __getattr__(self, name):
                raise AssertionError(f"np.fft.{name} called")
        monkeypatch.setattr(np, "fft", NoFFT())
        assert envelope_check(kp, a, b).all_ok
        assert tail_sum_bound_check(psi_half, 16, a, b).ok
        assert tail_sum_bound_check(psi_half, 16, a, b, evaluator=kp).ok

    def test_tail_bound_refuses_bad_preconditions(self, psi_half):
        rep = tail_sum_bound_check(psi_half, 16, 50.0, 3.0)
        assert rep.status == "precondition_violated"
        assert rep.max_abs is None
        rep2 = tail_sum_bound_check(psi_half, 16, 3.0, 2.0)
        assert rep2.status == "precondition_violated"


class TestHypotheses:
    """One rule for the paper's hypotheses: a > floor, b > 2,
    eta(n) - n >= a and mu(n) >= b, with floor 2 for the brackets, 1 for
    the envelopes and 0 for the tail-sum bound."""

    N = 20   # psi_half: gap 6.68, mu 2.99

    def statuses(self, psi, a, b):
        kp = kernels.kernel_profile(psi, self.N)
        rows = verify_sweep(psi, [0.0], [("theorem1", 2.0)], [self.N], a=a, b=b)
        return (rows[0].status, envelope_check(kp, a, b).status,
                tail_sum_bound_check(psi, self.N, a, b).status)

    def test_boundaries_are_inclusive(self, psi_half):
        prof = characteristics(psi_half, float(self.N))
        gap, mu = prof.eta_gap, prof.mu
        assert gap > 2.0 and mu > 2.0
        assert self.statuses(psi_half, gap, mu) == ("ok",) * 3
        violated = ("precondition_violated",) * 3
        above = np.nextafter(gap, math.inf)
        assert self.statuses(psi_half, above, mu) == violated
        assert self.statuses(psi_half, gap, np.nextafter(mu, math.inf)) \
            == violated

    def test_floors(self, psi_half):
        b = characteristics(psi_half, float(self.N)).mu
        kp = kernels.kernel_profile(psi_half, self.N)
        for a in (1.5, 2.0):   # (1, 2]: no brackets, envelopes certified
            assert self.statuses(psi_half, a, b) == (
                "precondition_violated", "ok", "ok")
            assert envelope_check(kp, a, b).all_ok
        for a in (1.0, 0.5):   # <= 1: the envelope constants are undefined
            env = envelope_check(kp, a, b)
            assert env.preconditions == (f"a = {a} is not > 1",)
            assert env.pointwise_margin is None and env.uniform_margin is None
            assert tail_sum_bound_check(psi_half, self.N, a, b).ok
        for a in (0.0, -1.0):  # <= 0: the tail-sum bound refuses too
            tail = tail_sum_bound_check(psi_half, self.N, a, b)
            assert tail.status == "precondition_violated"
            assert tail.preconditions == (f"a = {a} is not > 0",)
            assert tail.bound is None

    @pytest.mark.parametrize("a, b", [(100.0, 1.5), (3.0, 50.0),
                                      (100.0, 50.0), (3.0, 2.0)])
    def test_checks_word_a_shortfall_alike(self, psi_half, a, b):
        kp = kernels.kernel_profile(psi_half, self.N)
        env = envelope_check(kp, a, b).preconditions
        assert env
        assert env == tail_sum_bound_check(psi_half, self.N, a, b).preconditions
        assert env == tail_sum_bound_check(psi_half, self.N, a, b,
                                           evaluator=kp).preconditions

    def test_tail_check_builds_the_kernel_profile(self):
        # exp(-t): eta(n) - n = ln 2 < 1, so floor(eta(n)) = n and no
        # kernel exists, once the hypotheses with a = 0.5 hold
        psi = PsiFunction.exp_power(1.0, 1.0)
        with pytest.raises(DegenerateGapError):
            tail_sum_bound_check(psi, 5, 0.5, 3.0)
        assert tail_sum_bound_check(psi, 5, 1.0, 3.0).status \
            == "precondition_violated"
