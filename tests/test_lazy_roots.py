"""The package roots export lazily.

``repro``, ``repro.analysis``, ``repro.core``, ``repro.obs`` and
``repro.service`` import an exported name's module when the name is
first read; each must still hand out the very object its defining module
holds.
"""

from __future__ import annotations

import importlib

import pytest

import repro

ROOTS = ("repro", "repro.analysis", "repro.core", "repro.obs", "repro.service")


def test_dir_lists_every_export():
    for root in ROOTS:
        package = importlib.import_module(root)
        assert set(dir(package)) >= set(package.__all__)


@pytest.mark.parametrize("root", ROOTS)
def test_every_export_is_its_defining_modules_object(root):
    package = importlib.import_module(root)
    for name in package.__all__:
        value = getattr(package, name)
        defining = importlib.import_module(package._EXPORTS[name])
        assert value is getattr(defining, name), name
        owner = getattr(value, "__module__", None)
        if owner is not None and owner.startswith("repro."):
            assert value is getattr(importlib.import_module(owner), name), name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["PostcardScheduler"] is repro.PostcardScheduler


@pytest.mark.parametrize("root", ROOTS)
def test_an_unknown_attribute_raises_attribute_error(root):
    package = importlib.import_module(root)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")
