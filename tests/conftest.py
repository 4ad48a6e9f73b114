import math

import pytest

from psiapprox import PsiFunction, series


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


@pytest.fixture
def set_workers(monkeypatch):
    """set_workers(count) runs deep grids on count workers, whatever the
    host's cores and the worker cap."""
    def set_count(count):
        monkeypatch.setattr(series, "_CORES", count)
        monkeypatch.setattr(series, "_MAX_WORKERS", count)
    return set_count
