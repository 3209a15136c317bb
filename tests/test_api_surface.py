"""Hygiene tests on the public API surface."""

import importlib

import pytest

import repro


def test_all_names_are_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"


def test_all_has_no_duplicates():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_version_is_a_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


SUBPACKAGES = [
    "repro.lp",
    "repro.lp.backends",
    "repro.net",
    "repro.charging",
    "repro.timeexp",
    "repro.traffic",
    "repro.core",
    "repro.flowbased",
    "repro.baselines",
    "repro.extensions",
    "repro.sim",
    "repro.analysis",
    "repro.obs",
]


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists {name!r}"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackages_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20


def test_every_public_symbol_documented():
    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj) and not isinstance(obj, type):
            if not getattr(obj, "__doc__", None):
                undocumented.append(name)
        elif isinstance(obj, type):
            if not obj.__doc__:
                undocumented.append(name)
    assert not undocumented, f"missing docstrings: {undocumented}"


def test_cli_reachable_via_dash_m(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["--help"])
    assert "simulate" in capsys.readouterr().out
