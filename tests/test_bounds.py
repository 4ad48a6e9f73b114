"""Bracket constants, validity thresholds, certified reports."""

import dataclasses
import math

import numpy as np
import pytest

from psiapprox import (DomainError, PsiFunction, approx_ops, asymp_scan,
                       bounds, characteristics, conjugate_exponent, const_Ca,
                       const_Cab, const_Cab_p, const_Cab_star,
                       exp_power_characteristics, exp_power_thresholds,
                       verify_sweep, verify_theorem1,
                       verify_theorem2)

# direct formula evaluations, frozen before the module was written
THRESHOLD_TABLE = {
    (0.5, 0.3): (5.559419, 2.000253, 2716),
    (0.5, 0.5): (3.418662, 2.028753, 40),
    (0.5, 0.7): (2.450305, 2.185953, 9),
    (1.0, 0.3): (3.505100, 2.002549, 271),
    (1.0, 0.5): (2.433477, 2.112910, 11),
    (1.0, 0.7): (2.055770, 2.487131, 12),
    (2.0, 0.3): (2.602307, 2.025394, 28),
    (2.0, 0.5): (2.116708, 2.423117, 10),
    (2.0, 0.7): (2.005696, 3.234931, 106),
}


class TestConstants:
    def test_frozen_values(self):
        assert const_Ca(3.0) == pytest.approx(8.206866823843523e-06,
                                              rel=1e-9)
        assert const_Cab_star(3.0, 3.0) == pytest.approx(51.89853809660376,
                                                         rel=1e-9)
        assert const_Cab(3.0, 3.0) == pytest.approx(2.015962612497341,
                                                    rel=1e-9)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            const_Ca(2.0)
        with pytest.raises(DomainError):
            const_Cab_star(1.0, 3.0)
        with pytest.raises(DomainError):
            const_Cab_star(3.0, 2.0)
        with pytest.raises(DomainError):
            const_Cab(0.0, 3.0)
        with pytest.raises(DomainError):
            const_Cab_p(3.0, 3.0, math.inf)

    def test_p_family_is_min_of_branches(self):
        for p in (1.0, 2.0, 7.0, 30.0):
            want = min((2 * p) ** (1 - 1 / p) * const_Cab(3.0, 3.0),
                       const_Cab_star(3.0, 3.0))
            assert const_Cab_p(3.0, 3.0, p) == want

    def test_crossover_at_three_three(self):
        # the C*_{a,b} branch takes over from integer p = 16 on
        star = const_Cab_star(3.0, 3.0)
        assert const_Cab_p(3.0, 3.0, 15.0) < star
        assert const_Cab_p(3.0, 3.0, 15.0) == (
            (2 * 15) ** (1 - 1 / 15) * const_Cab(3.0, 3.0))
        assert const_Cab_p(3.0, 3.0, 16.0) == star

    def test_conjugate_exponent(self):
        assert conjugate_exponent(1.0) == math.inf
        assert conjugate_exponent(math.inf) == 1.0
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0)
        for p in (0.5, math.nan, -math.inf):
            with pytest.raises(DomainError):
                conjugate_exponent(p)
        # one map from p to p', the norm engine's, under every name
        assert conjugate_exponent is approx_ops.conjugate_exponent
        assert bounds.conjugate_exponent is approx_ops.conjugate_exponent


class TestThresholds:
    def test_frozen_grid(self):
        for (alpha, r), (fa, fb, fn) in THRESHOLD_TABLE.items():
            a, b, n_min = exp_power_thresholds(alpha, r)
            assert a == pytest.approx(fa, abs=5e-7)
            assert b == pytest.approx(fb, abs=5e-7)
            assert n_min == fn

    def test_exact_workhorse_values(self):
        a, b, n_min = exp_power_thresholds(1.0, 0.5)
        assert a == pytest.approx(2.4334773587754635, rel=1e-12)
        assert b == pytest.approx(2.1129099598352252, rel=1e-12)
        assert n_min == 11

    def test_thresholds_are_attained_at_n_min(self):
        for (alpha, r), (_, _, n_min) in THRESHOLD_TABLE.items():
            psi = PsiFunction.exp_power(alpha, r)
            a, b, _ = exp_power_thresholds(alpha, r)
            prof = characteristics(psi, float(n_min))
            assert prof.eta_gap >= a * (1.0 - 1e-12)
            assert prof.mu >= b * (1.0 - 1e-12)

    def test_r_domain(self):
        with pytest.raises(DomainError):
            exp_power_thresholds(1.0, 1.0)
        with pytest.raises(DomainError):
            exp_power_thresholds(-1.0, 0.5)


class TestExpPowerCharacteristics:
    def test_matches_bisection(self, psi_half):
        for n in (11, 16, 64, 250):
            ch = exp_power_characteristics(1.0, 0.5, n)
            prof = characteristics(psi_half, float(n))
            assert ch.eta_gap == pytest.approx(prof.eta_gap, rel=1e-10)
            assert ch.mu == pytest.approx(prof.mu, rel=1e-10)

    def test_frozen_gap_bracket(self):
        ch = exp_power_characteristics(1.0, 0.5, 16)
        assert ch.eta_gap == pytest.approx(6.025630458397764, rel=1e-12)
        assert ch.gap_lower == pytest.approx(5.545177444479562, rel=1e-12)
        assert ch.gap_upper == pytest.approx(9.388801555825173, rel=1e-12)

    def test_bracket_property_on_grid(self):
        for alpha, r in THRESHOLD_TABLE:
            for n in (1, 3, 20, 120, 1500):
                ch = exp_power_characteristics(alpha, r, n)
                assert ch.gap_lower <= ch.eta_gap * (1 + 1e-12)
                assert ch.eta_gap <= ch.gap_upper * (1 + 1e-12)

    def test_dict_fields(self):
        d = dataclasses.asdict(exp_power_characteristics(1.0, 0.5, 16))
        assert d["n_min"] == 11
        assert set(d) == {"alpha", "r", "n", "eta_gap", "mu", "a_thresh",
                          "b_thresh", "n_min", "gap_lower", "gap_upper"}


class TestVerify:
    def test_theorem1_certifies(self, psi_half):
        for p in (1.0, 2.0, math.inf):
            rep = verify_theorem1(psi_half, 0.0, p, 16)
            assert rep.status == "ok"
            assert rep.pass_lower and rep.pass_upper
            assert rep.lower <= rep.proxy + rep.tol
            assert rep.proxy <= rep.upper + rep.tol

    def test_theorem2_certifies(self, psi_half):
        rep = verify_theorem2(psi_half, 1.0, 2.0, 16)
        assert rep.status == "ok"
        assert rep.ok

    def test_x_exponent_differs_between_modes(self, psi_half):
        # theorem1 at p uses gap^(1/p); theorem2 at s uses gap^(1/s')
        r1 = verify_theorem1(psi_half, 0.0, 4.0, 16)
        r2 = verify_theorem2(psi_half, 0.0, 4.0, 16)
        prof = characteristics(psi_half, 16.0)
        w = float(psi_half(16.0))
        assert r1.X == pytest.approx(w * prof.eta_gap ** 0.25, rel=1e-9)
        assert r2.X == pytest.approx(w * prof.eta_gap ** 0.75, rel=1e-9)

    def test_zero_proxy_fails_the_lower_bracket(self):
        # ||K*||_4 underflows to 0 at (2.0, 0.7), n = 1000, where C_a < 1e-6:
        # the tolerance is the error estimate alone, so 0 cannot pass
        rep = verify_theorem2(PsiFunction.exp_power(2.0, 0.7), 0.0, 4.0, 1000)
        assert rep.status == "ok" and rep.proxy == 0.0
        assert 0.0 < rep.lower < 1e-6 * rep.X
        assert rep.tol < rep.lower
        assert not rep.pass_lower and rep.pass_upper and not rep.ok

    def test_non_finite_beta_refused(self, psi_half):
        # n = 3 is below the preconditions, so no evaluator checks beta
        for beta in (math.nan, math.inf):
            for n in (3, 16):
                with pytest.raises(DomainError):
                    verify_theorem1(psi_half, beta, 2.0, n)

    def test_below_threshold_reports_violation(self, psi_half):
        rep = verify_theorem1(psi_half, 0.0, 2.0, 5)
        assert rep.status == "precondition_violated"
        assert rep.proxy is None
        assert rep.pass_lower is None

    def test_custom_profile_needs_explicit_ab(self, psi_half):
        custom = PsiFunction.custom(lambda t: psi_half(t))
        with pytest.raises(DomainError):
            verify_theorem1(custom, 0.0, 2.0, 16)
        rep = verify_theorem1(custom, 0.0, 2.0, 16, a=2.43, b=2.11)
        assert rep.status == "ok"
        assert rep.ok

    def test_report_dict_schema(self, psi_half):
        d = dataclasses.asdict(verify_theorem1(psi_half, 0.0, math.inf, 16))
        assert list(d) == ["family", "alpha", "r", "beta", "n", "mode",
                           "p_or_s", "a", "b", "X", "lower", "proxy",
                           "upper", "pass_lower", "pass_upper", "tol",
                           "status"]
        assert d["p_or_s"] == math.inf
        assert d["mode"] == "theorem1"

    def test_sweep_order_and_reuse(self, psi_half):
        modes = [("theorem1", 2.0), ("theorem2", 2.0)]
        reps = verify_sweep(psi_half, [0.0, 1.0], modes, [11, 12])
        assert len(reps) == 8
        assert [r.n for r in reps] == [11, 11, 11, 11, 12, 12, 12, 12]
        assert [r.beta for r in reps[:4]] == [0.0, 0.0, 1.0, 1.0]
        assert all(r.ok for r in reps)

    def test_sweep_computes_each_norm_order_once(self, psi_half, monkeypatch):
        modes = ([("theorem1", v) for v in (1.0, 2.0, 4.0, math.inf)]
                 + [("theorem2", v) for v in (1.0, 2.0, 4.0, math.inf)])
        fresh = []   # one evaluator per report: nothing to share
        for n in (11, 12):
            for beta in (0.0, 1.0):
                for mode, value in modes:
                    fn = verify_theorem1 if mode == "theorem1" else verify_theorem2
                    fresh.append(fn(psi_half, beta, value, n))
        counts = {"profiles": 0, "ffts": 0, "passes": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped
        monkeypatch.setattr(bounds, "kernel_profile",
                            counting("profiles", bounds.kernel_profile))
        monkeypatch.setattr(approx_ops, "_grid_pass",
                            counting("passes", approx_ops._grid_pass))
        monkeypatch.setattr(np.fft, "irfft", counting("ffts", np.fft.irfft))
        reps = verify_sweep(psi_half, [0.0, 1.0], modes, [11, 12])
        # one profile and one FFT per n, which both betas mirror block by
        # block, no beta's grid sampled on its own; per (n, beta) evaluator
        # one walk over its grid for orders 1, 4/3, 4 and inf (2 is
        # Parseval's)
        assert counts == {"profiles": 2, "ffts": 2, "passes": 4}
        assert reps == fresh

    def test_sweep_matches_single_calls(self, psi_half):
        rep_s = verify_sweep(psi_half, [0.0], [("theorem1", 2.0)], [16])[0]
        rep_1 = verify_theorem1(psi_half, 0.0, 2.0, 16)
        assert rep_s == rep_1


class TestAsymp:
    def test_short_scan_bounded(self):
        scan = asymp_scan(1.0, 0.5, "theorem1", math.inf, range(11, 26))
        assert scan.spread <= 50.0
        assert scan.ratio_min > 0
        assert len(scan.rows) == 15
        # the X-normalized ratio sits inside the bracket constants
        a, b, _ = exp_power_thresholds(1.0, 0.5)
        for row in scan.rows:
            assert const_Ca(a) <= row.ratio_X <= const_Cab_star(a, b)

    def test_scans_below_threshold(self):
        # n_min = 11 here; the gate against it is the caller's
        scan = asymp_scan(1.0, 0.5, "theorem1", 2.0, [8, 11])
        assert [row.n for row in scan.rows] == [8, 11]

    def test_mode_validation(self):
        with pytest.raises(DomainError):
            asymp_scan(1.0, 0.5, "theorem3", 2.0, [11, 12])
        with pytest.raises(DomainError):
            asymp_scan(1.0, 0.5, "theorem1", 2.0, [])

    def test_dict_round(self):
        scan = asymp_scan(1.0, 0.5, "theorem1", 2.0, [11, 13])
        d = dataclasses.asdict(scan)
        assert d["mode"] == "theorem1"
        assert len(d["rows"]) == 2
        assert d["spread"] == scan.spread

