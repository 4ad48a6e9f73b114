"""The package's public names all resolve, its code calls no BLAS, its
generic layers import nothing kernel-specific, and no module reads a
`series` attribute: a kernel is its profile's folded f and its mirror."""

import ast
from pathlib import Path

import psiapprox

# numpy entry points that hand a product-sum to BLAS
BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum"}
# the modules the generic layers (psi_core, series) may not import
UPPER_LAYERS = {"kernels", "approx_ops", "bounds", "cli"}


def test_every_exported_name_imports():
    missing = [name for name in psiapprox.__all__
               if not hasattr(psiapprox, name)]
    assert missing == []
    namespace = {}
    exec("from psiapprox import *", namespace)
    assert set(psiapprox.__all__) <= set(namespace)


def test_no_blas_products():
    # every sum is numpy's pairwise one, whose rounding the sup norm's
    # estimate bounds; a BLAS product also wakes OpenBLAS's thread pool
    found = []
    for path in sorted(Path(psiapprox.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            func = getattr(node, "func", None)
            name = getattr(func, "attr", getattr(func, "id", None))
            if (isinstance(getattr(node, "op", None), ast.MatMult)
                    or isinstance(node, ast.Call) and name in BLAS_CALLS):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_generic_layers_import_no_kernel_code():
    # psi_core and series know profiles and trigonometric series, not
    # kernels: whatever a kernel needs of a grid, its evaluator carries
    package = Path(psiapprox.__file__).parent
    found = []
    for name in ("psi_core.py", "series.py"):
        for node in ast.walk(ast.parse((package / name).read_text(), name)):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [
                    f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if any(set(m.split(".")) & UPPER_LAYERS for m in modules):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_kernel_series_is_read_only_in_kernels():
    # point values, norms, extremals, residual checks and reports read a
    # kernel through its profile's folded f and its mirror: no module
    # reads a `series` attribute, and an evaluator has none
    found = []
    for path in sorted(Path(psiapprox.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "series":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert not hasattr(psiapprox.KernelEvaluator, "series")


READERS = ("_rows", "_mirror_rows", "_sums", "_crossings", "_pairs",
           "_node")


def test_row_layout_is_read_in_series():
    # series writes a split grid as rows and alone reads them: the other
    # modules hand the rows to its readers and never index them
    found = {}
    for path in sorted(Path(psiapprox.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in READERS:
                found.setdefault(node.name, []).append(path.name)
    assert found == {name: ["series.py"] for name in READERS}
