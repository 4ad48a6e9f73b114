"""Dense trigonometric polynomials and their exact FFT sampling."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from psiapprox import (DomainError, FourierSeries, KernelEvaluator, PsiFunction,
                       kernels)
from psiapprox.series import FFT_BLOCK

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


@pytest.mark.parametrize("degree", [63, 64, 65])
def test_uniform_samples_near_nyquist(degree):
    # the smallest odd and even grids above twice the degree: the top
    # harmonic sits just below the Nyquist index of the real FFT
    f = random_series(np.random.default_rng(degree), degree)
    for G in (2 * degree + 1, 2 * degree + 2):
        grid = TWO_PI * np.arange(G) / G
        np.testing.assert_allclose(f.uniform_samples(G), f(grid),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("G", [-1, 0, 1, 99, 100])
def test_grids_at_most_twice_the_degree_are_refused(G):
    # a grid of at most twice the degree aliases the top harmonics
    f = random_series(np.random.default_rng(8), 50)
    with pytest.raises(DomainError, match="twice the degree"):
        f.uniform_samples(G)
    assert f._sample_cache == {}
    assert f.uniform_samples(101).size == 101


@pytest.mark.parametrize("degree, G", [(300, 1 << 12), (50_000, 1 << 20)])
def test_uniform_samples_bitwise_at_power_of_two(degree, G):
    # the spectrum is halved before an unscaled inverse FFT; on a
    # power-of-two grid that equals irfft's 1/G then a 0.5 G rescale.
    # Above FFT_BLOCK points the split transform keeps node 0's bits, and
    # every other node is as accurate as the one-shot irfft's
    f = random_series(np.random.default_rng(degree), degree)
    spec = np.concatenate(([f.a0], f.a - 1j * f.b))
    one_shot = np.fft.irfft(spec, G) * (0.5 * G)
    s = f.uniform_samples(G)
    if G <= FFT_BLOCK:
        assert np.array_equal(s, one_shot)
        return
    eps = np.finfo(float).eps
    total = 0.5 * abs(f.a0) + float(np.sum(np.hypot(f.a, f.b)))
    assert s[0] == one_shot[0]
    assert np.max(np.abs(s - one_shot)) <= 4.0 * eps * total
    # a long-double direct sum on 64 nodes, every residue mod G / FFT_BLOCK;
    # k j is reduced mod G before it becomes an angle
    nodes = np.arange(64) * (G // 64 + 1)
    k = np.arange(1, degree + 1)
    two_pi = 8.0 * np.arctan(np.longdouble(1.0))
    a, b = f.a.astype(np.longdouble), f.b.astype(np.longdouble)
    ref = np.array([0.5 * np.longdouble(f.a0) + np.sum(
        a * np.cos(t) + b * np.sin(t)) for t in (
            two_pi * ((k * j) % G) / G for j in nodes)])
    err_split = np.abs(s[nodes] - ref).astype(float)
    err_one_shot = np.abs(one_shot[nodes] - ref).astype(float)
    assert np.all(err_split <= err_one_shot + 1e-16 * total)


def test_sample_cache_is_reused():
    f = FourierSeries(a0=1.0, a=[1.0], b=[0.5])
    s1 = f.uniform_samples(32)
    s2 = f.uniform_samples(32)
    assert s1 is s2
    assert not s1.flags.writeable


@pytest.mark.parametrize("G", [7, 64, 4099, (1 << 17) + 3])
def test_mirror_built_series_leaves_folded_samples_alone(G):
    # odd sizes and sizes past one norm-pass block; 7 points carry a
    # degree-3 series of one harmonic, the others degree 12.  A kernel's
    # series, the mirror u f(t) + v f(-t) of its profile's `folded` f,
    # samples from its own coefficients and caches no grid on folded
    coeffs = np.random.default_rng(G).standard_normal(min(10, (G - 1) // 2 - 2))
    half = np.concatenate((np.zeros(2), 0.5 * coeffs))
    base = kernels.kernel_profile(PsiFunction.exp_power(1.0, 0.5), 3)
    ts = TWO_PI * np.arange(G) / G
    for beta in (0.0, 0.25, -1.3):
        folded = FourierSeries(a0=0.0, a=half, b=half)
        kp = dataclasses.replace(base, truncation_index=half.size,
                                 taper_start=3, coeffs=coeffs, folded=folded)
        ke = kp.evaluator(beta)
        got = ke.series.uniform_samples(G)
        assert folded._sample_cache == {}
        u, v = ke.mirror
        np.testing.assert_allclose(got, u * folded(ts) + v * folded(-ts),
                                   rtol=0, atol=1e-13 * np.sum(np.abs(coeffs)))


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
