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


@pytest.mark.parametrize("degree, G", [(300, 1 << 12), (50_000, 1 << 20)])
def test_uniform_samples_bitwise_at_power_of_two(degree, G):
    # the spectrum is halved before an unscaled inverse FFT; on a
    # power-of-two grid that equals irfft's 1/G then a 0.5 G rescale
    f = random_series(np.random.default_rng(degree), degree)
    spec = np.concatenate(([f.a0], f.a - 1j * f.b))
    assert np.array_equal(f.uniform_samples(G),
                          np.fft.irfft(spec, G) * (0.5 * G))


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


def test_from_cosine_profile_quarter_turns_are_exact():
    # every whole number of quarter turns gives cos, sin in {0, +-1}
    coeffs = np.array([2.0, -1.0, 0.5])
    for q, (cos, sin) in zip(range(-4, 5), [(1, 0), (0, 1), (-1, 0),
                                            (0, -1)] * 3):
        f = FourierSeries.from_cosine_profile(3, coeffs, 0.5 * math.pi * q)
        assert np.array_equal(f.a[2:], coeffs * cos)
        assert np.array_equal(f.b[2:], coeffs * sin)
    f = FourierSeries.from_cosine_profile(3, coeffs, 0.25 * math.pi)
    assert np.array_equal(f.a[2:], coeffs * math.cos(0.25 * math.pi))
    for phase in (math.nan, math.inf):
        with pytest.raises(DomainError):
            FourierSeries.from_cosine_profile(3, coeffs, phase)


@pytest.mark.parametrize("G", [7, 64, 4099, (1 << 17) + 3])
def test_mirrored_samples_on_any_grid(G):
    # odd sizes and sizes past one norm-pass block; 7 points alias the
    # degree-12 series.  A series built as a mirror of `folded` samples from
    # its own coefficients, leaving folded's grids alone, and on any grid
    # its samples are u f_j + v f_{-j} of folded's, which the norm pass reads
    rng = np.random.default_rng(G)
    coeffs = rng.standard_normal(10)
    half = np.concatenate((np.zeros(2), 0.5 * coeffs))
    for phase in (0.0, 0.4, -2.1):
        folded = FourierSeries(a0=0.0, a=half, b=half)
        f = FourierSeries.from_cosine_profile(3, coeffs, phase, folded)
        s = f.uniform_samples(G)
        assert folded._sample_cache == {}
        _, u, v = f._mirror
        fs = folded.uniform_samples(G)
        np.testing.assert_allclose(s, u * fs + v * fs[-np.arange(G) % G],
                                   rtol=0, atol=1e-13)


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


def test_equality_by_coefficients():
    f = FourierSeries(a0=0.5, a=[1.0, 2.0], b=[3.0, 4.0])
    g = FourierSeries(a0=0.5, a=[1.0, 2.0], b=[3.0, 4.0])
    h = FourierSeries(a0=0.5, a=[1.0, 2.1], b=[3.0, 4.0])
    assert f == g
    assert f != h
