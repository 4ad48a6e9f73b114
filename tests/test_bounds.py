"""Bracket constants, validity thresholds, certified reports."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from psiapprox import (DomainError, KernelEvaluator, PsiFunction,
                       approx_ops, asymp_scan, bounds, characteristics,
                       conjugate_exponent, const_Ca, const_Cab, const_Cab_p,
                       const_Cab_star, exp_power_characteristics,
                       exp_power_thresholds, verify_sweep, verify_theorem1,
                       verify_theorem2)
from psiapprox.series import FFT_BLOCK

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
# sha256 of the float.hex of every proxy and tol of one deep sweep step.
# A change that moves a bit updates the digest here and says why in
# CHANGES.md.
DEEP_STEP_SHA256 = (
    "a49dcb08f8ec5975c86e557b5043b1cf718204057cfdc1d39e26e32120e1183b")


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
        # at (2.0, 0.7), n = 1000, psi(n) ~ 1e-109 and C_a < 1e-6: ||K*||_4,
        # taken in units of 2^e, no longer underflows to 0 and the proxy
        # sits in its bracket, near the sharp constant L_4 ~ 0.49 times X
        psi = PsiFunction.exp_power(2.0, 0.7)
        rep = verify_theorem2(psi, 0.0, 4.0, 1000)
        assert rep.status == "ok" and rep.ok
        assert 0.45 <= rep.proxy / rep.X <= 1.45
        assert 0.0 < rep.lower < 1e-6 * rep.X
        # a zero record keeps its error estimate as the tolerance alone,
        # so a zero proxy cannot pass the lower bracket
        prof = characteristics(psi, 1000.0)
        ke = KernelEvaluator.build(psi, 1000, 0.0)
        ke._norm_cache[4.0] = approx_ops.NormValue(0.0, math.pi * rep.tol)
        zero = bounds._verify(psi, 0.0, "theorem2", 4.0, 1000, rep.a, rep.b,
                              prof, ke)
        assert zero.proxy == 0.0 and zero.tol == rep.tol < zero.lower
        assert not zero.pass_lower and zero.pass_upper and not zero.ok

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

    def test_deep_step_samples_f_in_cache_sized_ffts(self, psi_slow,
                                                      monkeypatch):
        # (2.0, 0.3), n = 200 takes a 2^20-point grid; a sweep step samples
        # its profile's f once, as G / FFT_BLOCK irffts of FFT_BLOCK points,
        # each written to one contiguous row of the cached grid
        profiles, sizes, outs = [], [], []
        profile, irfft = bounds.kernel_profile, np.fft.irfft

        def profiling(*args, **kwargs):
            profiles.append(profile(*args, **kwargs))
            return profiles[-1]

        def sizing(a, n=None, *args, **kwargs):
            sizes.append(n)
            outs.append(kwargs.get("out"))
            return irfft(a, n, *args, **kwargs)
        monkeypatch.setattr(bounds, "kernel_profile", profiling)
        monkeypatch.setattr(np.fft, "irfft", sizing)
        modes = [(mode, v) for mode in ("theorem1", "theorem2")
                 for v in (1.0, 2.0, 4.0, math.inf)]
        verify_sweep(psi_slow, [0.0, 1.0], modes, [200])
        (prof,) = profiles
        G = approx_ops._grid_size(prof.truncation_index)
        L = G // FFT_BLOCK
        assert G == 1 << 20
        assert list(prof.folded._sample_cache) == [G]
        assert sizes == [FFT_BLOCK] * L
        assert all(out.ndim == 1 and out.flags.c_contiguous for out in outs)
        # the natural-order reader gives the bits of the strided route,
        # which wrote each transform to the nodes Lq + r of a G-point array
        f = prof.folded
        spec = 0.5 * np.concatenate(([f.a0], f.a - 1j * f.b))
        c = 2j * math.pi / G
        w = np.outer(np.exp(256 * c * np.arange(-(-spec.size // 256))),
                     np.exp(c * np.arange(256))).ravel()[:spec.size]
        strided = np.empty(G)
        for r in range(L):
            irfft(spec, FFT_BLOCK, norm="forward", out=strided[r::L])
            spec *= w
        assert np.array_equal(f.uniform_samples(G), strided)
        assert list(f._sample_cache) == [G]

    def test_deep_step_keeps_its_bits(self, psi_slow):
        # (2.0, 0.3), n = 160 over criterion 5's betas and eight modes: a
        # 2^20-point split grid, K ~ 49k
        modes = [(mode, v) for mode in ("theorem1", "theorem2")
                 for v in (1.0, 2.0, 4.0, math.inf)]
        reps = verify_sweep(psi_slow, [0.0, 1.0], modes, [160])
        K = KernelEvaluator.build(psi_slow, 160, 0.0).truncation_index
        assert approx_ops._grid_size(K) == 1 << 20 and 48_000 < K < 50_000
        assert len(reps) == 16 and all(rep.ok for rep in reps)
        text = " ".join(float.hex(v) for rep in reps
                        for v in (rep.proxy, rep.tol))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == DEEP_STEP_SHA256, f"observed sha256 {digest}"

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

