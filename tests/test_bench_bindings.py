"""Names the benchmark's tracer (perfbench/spans.py) rebinds.

The tracer wraps each traced function at every module-level binding of it
and patches two class attributes; it runs only under `--trace 1`, so these
checks keep a moved import from silently dropping a traced layer.
"""

import inspect

from psiapprox import approx_ops, bounds, cli, kernels, psi_core


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
