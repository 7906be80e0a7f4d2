"""Every exported name resolves, so deleting a function or class without
its ``__all__`` entry fails here rather than at ``from ldrank import *``."""

import importlib
import pkgutil

import pytest

import ldrank

_MODULES = ["ldrank"] + [
    f"ldrank.{info.name}" for info in pkgutil.iter_modules(ldrank.__path__)
]


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []

