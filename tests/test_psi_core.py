"""Profile evaluation, halving points, and the gap/ratio characteristics."""

import math

import mpmath
import numpy as np
import pytest

from psiapprox import (CapabilityError, DomainError, InvalidPsiError,
                       NumericError, PsiFunction, characteristics,
                       eta_derivative, eval_psi_prime, exp_power_thresholds,
                       finite_difference_psi_prime, guarded_eta_floor,
                       lemma2_margins)

LN2 = math.log(2.0)


def closed_form_eta(alpha, r, t):
    # solve exp(-a eta^r) = exp(-a t^r)/2 for eta
    return t * (1.0 + LN2 / (alpha * t ** r)) ** (1.0 / r)


class TestPsiFunction:
    def test_exp_power_values(self):
        psi = PsiFunction.exp_power(1.0, 0.5)
        assert psi(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert psi(4.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
        # log route is exact, no exp/log round trip
        assert psi.log_value(9.0) == -3.0

    def test_vectorized_eval(self):
        psi = PsiFunction.exp_power(0.5, 0.7)
        ts = np.linspace(1.0, 50.0, 17)
        np.testing.assert_allclose(psi(ts), np.exp(-0.5 * ts ** 0.7),
                                   rtol=1e-15)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            PsiFunction.exp_power(0.0, 0.5)
        with pytest.raises(DomainError):
            PsiFunction.exp_power(1.0, -1.0)
        # an infinite alpha or r made psi 0 past t = 1, and mu overflow
        for alpha, r in ((math.inf, 0.5), (1.0, math.inf),
                         (math.nan, 0.5), (1.0, math.nan)):
            with pytest.raises(DomainError):
                PsiFunction.exp_power(alpha, r)

    def test_power_overflow_names_the_inputs(self):
        # a finite r whose t^r float64 cannot hold: every scalar route
        # refuses it with alpha, r and t named, not a bare OverflowError
        psi = PsiFunction.exp_power(1.0, 1e300)
        for route in (psi, psi.log_value, psi.derivative,
                      psi.halving_point):
            with pytest.raises(DomainError, match=r"1\.0 t\^1e\+300.* t = 5\.0"):
                route(5.0)
        assert psi(1.0) == math.exp(-1.0)   # 1^r is still 1

    def test_derivative_exp_power(self):
        psi = PsiFunction.exp_power(1.0, 0.5)
        t = 9.0
        expected = -0.5 * t ** (-0.5) * math.exp(-math.sqrt(t))
        assert eval_psi_prime(psi, t) == pytest.approx(expected, rel=1e-14)
        assert finite_difference_psi_prime(psi, t) == pytest.approx(
            expected, rel=1e-7)

    def test_custom_without_derivative(self):
        raw = PsiFunction.exp_power(1.0, 0.5)
        psi = PsiFunction.custom(lambda t: raw(t))
        with pytest.raises(CapabilityError):
            eval_psi_prime(psi, 5.0)
        # finite difference fallback still works
        assert finite_difference_psi_prime(psi, 9.0) == pytest.approx(
            eval_psi_prime(raw, 9.0), rel=1e-6)

    def test_from_table_matches_source(self):
        src = PsiFunction.exp_power(1.0, 0.5)
        ts = np.unique(np.concatenate([np.linspace(1, 40, 400),
                                       np.geomspace(40, 4000, 400)]))
        tab = PsiFunction.from_table(ts, src(ts))
        probe = np.linspace(2.0, 30.0, 50)
        np.testing.assert_allclose(tab(probe), src(probe), rtol=2e-4)

    def test_from_table_rejects_bad_data(self):
        with pytest.raises(InvalidPsiError):
            PsiFunction.from_table([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(InvalidPsiError):
            PsiFunction.from_table([1.0, 2.0], [0.5, -0.1])
        for ts, vs in (([1.0, math.nan, 3.0], [0.5, 0.25, 0.1]),
                       ([1.0, 2.0, 3.0], [0.5, math.nan, 0.1]),
                       ([1.0, 2.0, math.inf], [0.5, 0.25, 0.1])):
            with pytest.raises(DomainError):
                PsiFunction.from_table(ts, vs)


class TestHalvingPoint:
    def test_unit_gap_profile_exact(self, psi_unit_gap):
        # exp(-t ln2) halves every unit step: eta(t) = t+1, mu(t) = t
        for t in np.linspace(1.0, 900.0, 37):
            prof = characteristics(psi_unit_gap, float(t))
            assert abs(prof.eta - (t + 1.0)) <= 1e-12 * max(1.0, t)
            assert abs(prof.mu - t) <= 1e-9 * max(1.0, t)

    def test_bisection_matches_closed_form(self, psi_half):
        for n in (2, 5, 9, 33, 160, 1000):
            prof = characteristics(psi_half, float(n))
            assert prof.eta == pytest.approx(
                closed_form_eta(1.0, 0.5, float(n)), rel=1e-10)

    def test_frozen_profile_at_nine(self, psi_half):
        prof = characteristics(psi_half, 9.0)
        # oracle: closed form evaluated independently
        assert prof.eta == pytest.approx(13.639336097277875, rel=1e-10)
        assert prof.eta_gap == pytest.approx(4.639336097277875, rel=1e-9)
        assert prof.mu == pytest.approx(1.9399327428079074, rel=1e-9)
        assert prof.floor_gap == 4

    def test_floor_snap_on_integer_eta(self, psi_unit_gap):
        # eta(7) = 8 exactly; the floor must not drop to 7
        prof = characteristics(psi_unit_gap, 7.0)
        assert prof.floor_gap == 1

    def test_one_solve_per_call(self, psi_unit_gap, monkeypatch):
        # eta(7) = 8 sits on an integer, where the floor needs no re-solve
        calls = []
        solve = PsiFunction.halving_point
        monkeypatch.setattr(PsiFunction, "halving_point",
                            lambda *args: calls.append(args) or solve(*args))
        assert characteristics(psi_unit_gap, 7.0).floor_gap == 1
        assert len(calls) == 1

    def test_floor_snaps_only_within_float_noise(self):
        assert guarded_eta_floor(8.0 - 1e-15) == 8
        assert guarded_eta_floor(8.0 + 1e-15) == 8
        assert guarded_eta_floor(8.0 - 1e-11) == 7
        assert guarded_eta_floor(13.639336097277875) == 13
        assert guarded_eta_floor(1e6 - 64 * 2.2e-16 * 1e6) == 1_000_000

    @pytest.mark.parametrize("alpha, r", [(1.0, 0.5), (2.0, 0.3)])
    def test_eta_within_ulps_of_fifty_digits(self, alpha, r):
        # every criterion-5 n of the pair: eta(n) = (n^r + ln 2/alpha)^{1/r}
        # of the float64 alpha and r, to 50 digits
        psi = PsiFunction.exp_power(alpha, r)
        with mpmath.workdps(50):
            a, r_mp = mpmath.mpf(alpha), mpmath.mpf(r)
            for n in range(exp_power_thresholds(alpha, r)[2], 257):
                eta = characteristics(psi, n).eta
                ref = (mpmath.mpf(n) ** r_mp + mpmath.log(2) / a) ** (1 / r_mp)
                assert abs(mpmath.mpf(eta) - ref) <= 8 * math.ulp(eta), n

    def test_floor_bracket_property(self, psi_half):
        rng = np.random.default_rng(11)
        for t in rng.integers(2, 300, 25):
            prof = characteristics(psi_half, float(t))
            assert prof.eta - 1.0 < prof.eta_floor <= prof.eta + 1e-9
            assert prof.floor_gap == prof.eta_floor - t

    def test_log_space_survives_underflow(self, psi_half):
        # psi(6e5) = exp(-774.6) underflows to 0.0 in double precision, but
        # the halving point is still found through the log route
        assert float(psi_half(6.0e5)) == 0.0
        big = characteristics(psi_half, 6.0e5)
        assert big.eta == pytest.approx(closed_form_eta(1.0, 0.5, 6.0e5),
                                        rel=1e-10)

    def test_eta_derivative_routes(self, psi_half):
        # forward difference against the implicit-function form
        # eta'(t) = psi'(t) / (2 psi'(eta))
        t = 9.0
        prof = characteristics(psi_half, t)
        implicit = eval_psi_prime(psi_half, t) / (
            2.0 * eval_psi_prime(psi_half, prof.eta))
        assert eta_derivative(psi_half, t) == pytest.approx(implicit, rel=1e-5)
        assert eta_derivative(psi_half, t) == pytest.approx(
            1.2310490601866484, rel=1e-5)

    def test_unit_gap_eta_derivative(self, psi_unit_gap):
        assert eta_derivative(psi_unit_gap, 12.0) == pytest.approx(1.0, abs=1e-7)


class TestOneEta:
    SOLVE_TS = (12.0, 40.0, 256.0, 2077.0, 5000.0)

    def test_characteristics_read_the_halving_point(self, psi_half,
                                                    sqrt_profiles):
        custom, table, _ = sqrt_profiles
        for psi in (psi_half, PsiFunction.exp_power(2.0, 0.3), custom, table):
            for t in (1.0, 11.0, 12.5, 256.0, 2077.0):
                assert characteristics(psi, t).eta == psi.halving_point(t)

    def test_custom_eta_within_ulps_of_fifty_digits(self, sqrt_profiles):
        custom, _, _ = sqrt_profiles
        with mpmath.workdps(50):
            for t in self.SOLVE_TS:
                eta = custom.halving_point(t)
                ref = (mpmath.sqrt(t) + mpmath.log(2)) ** 2
                assert abs(mpmath.mpf(eta) - ref) <= 2 * math.ulp(eta), t

    def test_table_eta_within_ulps_of_its_interpolant(self, sqrt_profiles):
        # t is a knot, so log psi(t) is its knot log; the root lies on the
        # chord between the two knot logs around it
        _, table, log_v = sqrt_profiles
        with mpmath.workdps(50):
            for t in self.SOLVE_TS:
                eta = table.halving_point(t)
                i = int(math.floor(eta))   # knot i sits at index i - 1
                lo, hi = (mpmath.mpf(float(x)) for x in log_v[i - 1:i + 1])
                target = mpmath.mpf(float(log_v[int(t) - 1])) - mpmath.log(2)
                root = i + (target - lo) / (hi - lo)
                assert i <= root <= i + 1
                assert abs(mpmath.mpf(eta) - root) <= 2 * math.ulp(eta), t

    def test_solve_cost(self, psi_half, sqrt_profiles, monkeypatch):
        custom, table, _ = sqrt_profiles
        calls = []
        log_value = PsiFunction.log_value
        monkeypatch.setattr(PsiFunction, "log_value",
                            lambda psi, t: calls.append(t) or log_value(psi, t))
        for psi in (custom, table):
            for t in self.SOLVE_TS:
                calls.clear()
                psi.halving_point(t)
                assert len(calls) <= 16, (psi, t, len(calls))
        calls.clear()
        for n in range(11, 257):
            characteristics(psi_half, n)
        assert calls == []


class TestLemma2Margins:
    def test_frozen_unit_gap(self, psi_unit_gap):
        m = lemma2_margins(psi_unit_gap, 5.0, 5.0)
        assert m.lower == pytest.approx(0.34722222222222227, rel=1e-12)
        assert m.value == pytest.approx(1.4426950408889634, rel=1e-12)
        assert m.upper == pytest.approx(4.8, rel=1e-12)
        assert m.ordered

    def test_frozen_growing_gap(self, psi_half):
        m = lemma2_margins(psi_half, 9.0, 1.94)
        assert m.lower == pytest.approx(1.0100308514805756, rel=1e-9)
        assert m.value == pytest.approx(6.0, rel=1e-12)
        assert m.upper == pytest.approx(28.122985826797837, rel=1e-9)

    def test_ordered_on_random_points(self, psi_half):
        rng = np.random.default_rng(5)
        for t in rng.uniform(11.0, 400.0, 15):
            b = min(2.0, characteristics(psi_half, float(t)).mu)
            m = lemma2_margins(psi_half, float(t), b)
            assert m.lower <= m.value <= m.upper

    def test_finite_difference_path(self, psi_half):
        nod = PsiFunction.custom(lambda t: psi_half(t))
        m = lemma2_margins(nod, 9.0, 1.94)
        assert m.used_finite_difference
        assert m.value == pytest.approx(6.0, rel=1e-6)

    @pytest.mark.parametrize("b", [math.inf, math.nan, 0.0, -1.0])
    def test_b_outside_the_positive_reals_refused(self, psi_half, b):
        # no t has mu(t) >= inf, so an infinite b would certify nothing
        with pytest.raises(DomainError):
            lemma2_margins(psi_half, 20.0, b)

    def test_table_profile_right_derivative(self, psi_half):
        t = np.arange(1.0, 400.0, 0.25)
        tab = PsiFunction.from_table(t, np.exp(-np.sqrt(t)))
        for at in (20.0, 50.0, 100.0):
            m = lemma2_margins(tab, at, 2.11)
            assert m.ordered
            assert not m.used_finite_difference
            assert m.value == pytest.approx(
                lemma2_margins(psi_half, at, 2.11).value, rel=5e-3)
