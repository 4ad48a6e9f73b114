"""Residual kernel construction, its three representations, tail control."""

import math

import numpy as np
import pytest

from psiapprox import (DegenerateGapError, DomainError, InvalidPsiError,
                       KernelEvaluator, PsiFunction, certified_tail_sum,
                       characteristics, dirichlet, envelope_check,
                       exp_power_thresholds, lemma1_check,
                       tail_sum_bound_check, taper_coefficients,
                       truncation_index)
from psiapprox import kernels
from psiapprox.psi_core import LN2, _solve_log_decreasing

TWO_PI = 2.0 * math.pi


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

    def test_certified_tail_unit_gap(self, psi_unit_gap):
        # geometric series: tail of 2^-t from K+1 is exactly 2 * 2^-(K+1);
        # the block bound pays a factor (gap + 1) = 2 on top
        bound = certified_tail_sum(psi_unit_gap, 30)
        exact = 2.0 * 2.0 ** (-31.0)
        assert exact <= bound <= 2.2 * exact

    def test_closed_form_halving_keeps_K(self, monkeypatch):
        # exp-power halving points come in closed form; K must be the one
        # the bisected chain gave, and each point within its tolerance
        tol = kernels.TAIL_ETA_TOL
        closed = PsiFunction.halving_point
        points = []

        def recording(psi, t, tol):
            points.append((psi, t))
            return closed(psi, t, tol)

        def bisected(psi, t, tol):
            return _solve_log_decreasing(
                psi.log_value, float(psi.log_value(t)) - LN2, float(t), tol)

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
                monkeypatch.setattr(PsiFunction, "halving_point", bisected)
                assert kernels._tail_budget(psi, n, gap)[1] == K, (alpha, r, n)
        monkeypatch.undo()
        assert len(points) > 1000
        for psi, t in points:
            assert abs(psi.log_value(closed(psi, t, tol))
                       - psi.log_value(bisected(psi, t, tol))) <= tol

    def test_halving_point_of_a_table_bisects(self):
        ts = np.arange(1.0, 200.0)
        psi = PsiFunction.from_table(ts, np.exp(-np.sqrt(ts)))
        target = float(psi.log_value(30.0)) - LN2
        assert psi.halving_point(30.0, 1e-6) == _solve_log_decreasing(
            psi.log_value, target, 30.0, 1e-6)

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
        ke = KernelEvaluator.build(psi_half, n, 0.0)
        tc = taper_coefficients(psi_half, n)
        for k in range(1, n):
            want = (1.0 - tc.lam[k]) * float(psi_half(float(k)))
            assert ke.series.a[k - 1] == pytest.approx(want, abs=1e-18,
                                                       rel=1e-13)
        for k in range(n, n + 40):
            assert ke.series.a[k - 1] == pytest.approx(
                float(psi_half(float(k))), rel=1e-13)

    def test_window_start_and_gap(self, psi_half):
        ke = KernelEvaluator.build(psi_half, 9, 0.0)
        # eta(9) = 13.639..., floor 13, so harmonics start at 2*9-13+1 = 6
        assert ke.eta_floor == 13
        assert ke.gap_int == 4
        assert ke.taper_start == 6
        assert ke.series.a[5 - 1] == 0.0
        assert ke.series.a[6 - 1] > 0.0

    def test_degenerate_gap_raises(self):
        psi = PsiFunction.exp_power(2.0, 1.0)  # halves every 0.35 steps
        with pytest.raises(DegenerateGapError):
            KernelEvaluator.build(psi, 5, 0.0)

    def test_representations_agree(self, psi_half):
        ts = np.concatenate([np.linspace(0.01, math.pi, 101),
                             -np.linspace(0.01, math.pi, 7)])
        for n, beta in ((9, 0.0), (9, 1.0), (16, 0.5)):
            # the three routes share K, so they differ only by rounding
            ke = KernelEvaluator.build(psi_half, n, beta)
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

    def test_uniform_samples_match_eval(self, psi_half):
        ke = KernelEvaluator.build(psi_half, 9, 1.0)
        G = 512
        grid = TWO_PI * np.arange(G) / G
        np.testing.assert_allclose(ke.series.uniform_samples(G), ke.eval(grid),
                                   rtol=0, atol=1e-12)

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

    def test_tail_bound_refuses_bad_preconditions(self, psi_half):
        rep = tail_sum_bound_check(psi_half, 16, 50.0, 3.0)
        assert rep.status == "precondition_violated"
        assert rep.max_abs is None
        rep2 = tail_sum_bound_check(psi_half, 16, 3.0, 2.0)
        assert rep2.status == "precondition_violated"
