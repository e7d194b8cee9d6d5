"""Every name a module lists in ``__all__`` must exist.

A stale entry breaks ``from module import *`` only when someone runs it, so
a rename or deletion that forgets ``__all__`` is caught here instead.
"""

import importlib
import pkgutil

import pytest

import tpsdvqa

MODULES = [
    module
    for module in (
        importlib.import_module(f"tpsdvqa.{info.name}")
        for info in pkgutil.iter_modules(tpsdvqa.__path__)
    )
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
