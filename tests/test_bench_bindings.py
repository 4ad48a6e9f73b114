"""Names the benchmark's tracer (perfbench/spans.py) rebinds.

The tracer wraps each traced function at every module-level binding of it
and patches three classes' attributes; it runs only under `--trace 1`, so
these checks, and one install and uninstall of the tracer itself, keep a
moved import from silently dropping a traced layer.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from psiapprox import (PsiFunction, approx_ops, bounds, cli, kernels,
                       psi_core, series)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    """perfbench/spans.py, loaded by path."""
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(spans) -> dict:
    """Every module-level name of the traced modules and every attribute of
    the patched classes, mapped to the object it holds."""
    owners = [importlib.import_module(name) for name in spans.MODULES]
    owners += [kernels.KernelEvaluator, series.FourierSeries,
               psi_core.PsiFunction]
    return {(owner.__name__, attr): value for owner in owners
            for attr, value in vars(owner).items()}


def test_tracer_installs_and_restores_every_binding(spans):
    before = bindings(spans)
    tracer = spans.Tracer().install()   # raises on a traced name it misses
    try:
        patched = bindings(spans)
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            key = (owner.__name__, attr)
            assert before[key] is original and patched[key] is not original
        # a sweep under the tracer: one kernel_norm span per bracket
        bounds.verify_sweep(PsiFunction.exp_power(1.0, 0.5), [0.0, 1.0],
                            [("theorem1", 2.0), ("theorem2", 4.0)], [12])
        names = [rec[0] for rec in tracer.spans]
        assert names.count("bounds.verify") == 4
        assert names.count("approx_ops.kernel_norm") == 4
    finally:
        tracer.uninstall()
    after = bindings(spans)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_kernel_norm_and_sup_norm_bindings():
    assert bounds.kernel_norm is approx_ops.kernel_norm
    assert cli.kernel_norm is approx_ops.kernel_norm
    assert callable(approx_ops.sup_norm)


def test_characteristics_bound_in_every_traced_module():
    for mod in (kernels, approx_ops, bounds, cli):
        assert mod.characteristics is psi_core.characteristics, mod.__name__


def test_build_is_a_classmethod():
    assert isinstance(kernels.KernelEvaluator.__dict__["build"], classmethod)


def test_tail_sum_bound_check_takes_beta_by_keyword():
    sig = inspect.signature(kernels.tail_sum_bound_check)
    sig.bind("psi", 16, 3.0, 3.0, beta=0.0)
    assert list(sig.parameters)[:4] == ["psi", "n", "a", "b"]
