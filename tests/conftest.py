import math

import numpy as np
import pytest

from psiapprox import FourierSeries, PsiFunction, approx_ops, kernels, series


def kernel_series(ke):
    """The kernel ke as a plain series of its own coefficients,
    a_k = c_k cos th and b_k = c_k sin th (th = beta pi/2) on harmonics
    1..K: what its profile's folded f and its mirror stand for."""
    cos, sin = kernels._phase(ke.beta)
    a, b = np.zeros((2, ke.truncation_index))
    a[ke.taper_start - 1:] = ke.coeffs * cos
    b[ke.taper_start - 1:] = ke.coeffs * sin
    return FourierSeries(0.0, a, b)


def walk(s, orders=(), peak=False, mirror=(1.0, 0.0), strides=None):
    """One walk of `approx_ops._grid_pass` (step 2 pi / s.size) over the
    samples s, natural or in split rows, as the cached grid of a series
    of no other use: (sums, found)."""
    f = FourierSeries(0.0, [0.0], [0.0], {s.size: s})
    return approx_ops._grid_pass(f, s.size, [(mirror, orders, peak)],
                                 strides or {})[0]


@pytest.fixture(scope="session")
def psi_half():
    """exp(-t^(1/2)): the workhorse profile with a growing gap."""
    return PsiFunction.exp_power(1.0, 0.5)


@pytest.fixture(scope="session")
def psi_unit_gap():
    """exp(-t ln 2): halving advances by exactly one, so eta(t) = t + 1."""
    return PsiFunction.exp_power(math.log(2.0), 1.0)


@pytest.fixture(scope="session")
def psi_slow():
    """exp(-2 t^0.3): slow decay, wide taper windows."""
    return PsiFunction.exp_power(2.0, 0.3)


@pytest.fixture(scope="session")
def sqrt_profiles():
    """exp(-sqrt t) as a custom callable and as a 6,000-knot table (the
    knots at t = 1..6000), with the table's knot logs as it keeps them:
    the profiles whose eta is solved, not taken in closed form."""
    ts = np.arange(1.0, 6001.0)
    values = np.exp(-np.sqrt(ts))
    return (PsiFunction.custom(lambda t: np.exp(-np.sqrt(t))),
            PsiFunction.from_table(ts, values), np.log(values))


@pytest.fixture
def set_workers(monkeypatch):
    """set_workers(count) runs deep grids on count workers, whatever the
    host's cores and the worker cap."""
    def set_count(count):
        monkeypatch.setattr(series, "_CORES", count)
        monkeypatch.setattr(series, "_MAX_WORKERS", count)
    return set_count
