"""Dense trigonometric polynomials and their exact FFT sampling."""

import math
import tracemalloc

import numpy as np
import pytest

from psiapprox import DomainError, FourierSeries, KernelEvaluator, PsiFunction

TWO_PI = 2.0 * math.pi


def random_series(rng, degree, decay=1.0):
    k = np.arange(1, degree + 1, dtype=float)
    return FourierSeries(a0=float(rng.standard_normal()),
                         a=rng.standard_normal(degree) / k ** decay,
                         b=rng.standard_normal(degree) / k ** decay)


def test_eval_memory_is_blocked():
    # 4096 points on the (1.0, 0.5), n = 9 kernel (degree 2041): dense
    # points x degree matrices would take over 100 MB
    ke = KernelEvaluator.build(PsiFunction.exp_power(1.0, 0.5), 9, 0.0)
    ts = TWO_PI * np.arange(4096) / 4096
    ref = ke.series.uniform_samples(4096)
    tracemalloc.start()
    try:
        vals = ke.series.eval(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_eval_single_harmonic():
    f = FourierSeries(a0=0.0, a=[0.0, 1.0], b=[0.0, 0.0])
    ts = np.linspace(0, TWO_PI, 9)
    np.testing.assert_allclose(f(ts), np.cos(2 * ts), atol=1e-15)


def test_uniform_samples_match_eval():
    rng = np.random.default_rng(0)
    f = random_series(rng, 50)
    G = 128
    grid = TWO_PI * np.arange(G) / G
    np.testing.assert_allclose(f.uniform_samples(G), f(grid), atol=1e-12)


def test_uniform_samples_alias_exact():
    # grid coarser than the degree: e^{ik 2pi j/G} = e^{i(k mod G) 2pi j/G},
    # so the wrapped FFT buffer still reproduces exact point values
    rng = np.random.default_rng(1)
    f = random_series(rng, 300)
    G = 64
    grid = TWO_PI * np.arange(G) / G
    np.testing.assert_allclose(f.uniform_samples(G), f(grid),
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("degree", [63, 64, 65])
def test_uniform_samples_near_nyquist(degree):
    # degree < G/2 takes the real-FFT route, G/2 and above the wrap route
    rng = np.random.default_rng(degree)
    f = random_series(rng, degree)
    G = 128
    grid = TWO_PI * np.arange(G) / G
    np.testing.assert_allclose(f.uniform_samples(G), f(grid),
                               rtol=0, atol=1e-12)


def test_sample_cache_is_reused():
    f = FourierSeries(a0=1.0, a=[1.0], b=[0.5])
    s1 = f.uniform_samples(32)
    s2 = f.uniform_samples(32)
    assert s1 is s2
    assert not s1.flags.writeable


def test_from_cosine_profile_offset_and_phase():
    # sum_{k=3}^{5} c_k cos(kt - pi/2) = sum c_k sin(kt)
    coeffs = [2.0, -1.0, 0.5]
    f = FourierSeries.from_cosine_profile(3, coeffs, phase=math.pi / 2)
    ts = np.linspace(0.3, 5.9, 23)
    want = sum(c * np.sin(k * ts) for k, c in zip((3, 4, 5), coeffs))
    np.testing.assert_allclose(f(ts), want, atol=1e-14)
    assert f.degree == 5
    assert f.a0 == 0.0


def test_antiderivative_inverts_differentiation():
    rng = np.random.default_rng(2)
    f = random_series(rng, 20)
    f = FourierSeries(a0=0.0, a=f.a, b=f.b)  # zero mean required
    F = f.antiderivative()
    h = 1e-6
    ts = np.linspace(0.5, 5.5, 11)
    dF = (F(ts + h) - F(ts - h)) / (2 * h)
    np.testing.assert_allclose(dF, f(ts), rtol=1e-7, atol=1e-7)


def test_derivative_mirrors_antiderivative():
    rng = np.random.default_rng(6)
    f = random_series(rng, 20)
    df = f.derivative()
    assert df.a0 == 0.0
    back = df.antiderivative()
    np.testing.assert_allclose(back.a, f.a, rtol=1e-14, atol=0)
    np.testing.assert_allclose(back.b, f.b, rtol=1e-14, atol=0)
    h = 1e-6
    ts = np.linspace(0.5, 5.5, 11)
    np.testing.assert_allclose(df(ts), (f(ts + h) - f(ts - h)) / (2 * h),
                               rtol=1e-6, atol=1e-6)


def test_antiderivative_needs_zero_mean():
    f = FourierSeries(a0=1.0, a=[1.0], b=[0.0])
    with pytest.raises(DomainError):
        f.antiderivative()


def test_energy_matches_quadrature():
    rng = np.random.default_rng(3)
    f = random_series(rng, 30)
    G = 4096
    s = f.uniform_samples(G)
    # (1/pi) int f^2 = a0^2/2 + sum(a^2+b^2)
    quad = float(np.sum(s * s)) * (TWO_PI / G) / math.pi
    assert f.energy() == pytest.approx(quad, rel=1e-12)


def test_subtraction_pads_degrees():
    f = FourierSeries(a0=2.0, a=[1.0, 0.5], b=[0.0, 0.25])
    g = FourierSeries(a0=1.0, a=[1.0], b=[1.0])
    d = f - g
    ts = np.linspace(0, 6, 13)
    np.testing.assert_allclose(d(ts), f(ts) - g(ts), atol=1e-14)
    assert d.degree == 2


def test_truncated_and_scaled():
    rng = np.random.default_rng(4)
    f = random_series(rng, 12)
    t3 = f.truncated(3)
    assert t3.degree == 3
    np.testing.assert_allclose(t3.a, f.a[:3])
    g = f.scaled(-2.0)
    ts = np.linspace(0, 6, 7)
    np.testing.assert_allclose(g(ts), -2.0 * f(ts), atol=1e-13)


def test_dict_round_trip():
    rng = np.random.default_rng(5)
    f = random_series(rng, 8)
    g = FourierSeries.from_dict(f.to_dict())
    assert f == g


def test_equality_by_coefficients():
    f = FourierSeries(a0=0.5, a=[1.0, 2.0], b=[3.0, 4.0])
    g = FourierSeries(a0=0.5, a=[1.0, 2.0], b=[3.0, 4.0])
    h = FourierSeries(a0=0.5, a=[1.0, 2.1], b=[3.0, 4.0])
    assert f == g
    assert f != h
