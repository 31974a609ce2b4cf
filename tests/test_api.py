"""The public package surface.

Every name a package lists in ``__all__`` must resolve, so removing a
module cannot leave a dangling re-export behind.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.common",
    "repro.exp",
    "repro.kernel",
    "repro.machine",
    "repro.obs",
    "repro.policy",
    "repro.ptpol",
    "repro.sim",
    "repro.store",
    "repro.trace",
    "repro.workloads",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_resolve(package):
    module = importlib.import_module(package)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(exported) <= set(namespace)
