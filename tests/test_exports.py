"""The package's public names all resolve, and its code calls no BLAS."""

import ast
from pathlib import Path

import psiapprox

# numpy entry points that hand a product-sum to BLAS
BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum"}


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
