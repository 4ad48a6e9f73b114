"""The package's public names all resolve."""

import psiapprox


def test_every_exported_name_imports():
    missing = [name for name in psiapprox.__all__
               if not hasattr(psiapprox, name)]
    assert missing == []
    namespace = {}
    exec("from psiapprox import *", namespace)
    assert set(psiapprox.__all__) <= set(namespace)
