"""The package roots export lazily, and a daemon imports what it runs.

``repro``, ``repro.analysis``, ``repro.core``, ``repro.obs`` and
``repro.service`` import an exported name's module when the name is
first read; each must still hand out the very object its defining module
holds.  An escalated slot loads the HiGHS backend and HiGHS's extension,
and no ``scipy`` package at all.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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


def test_an_escalated_slot_loads_no_scipy_package(tmp_path):
    """A fresh interpreter: a default daemon, two fast-lane slots, then a
    file no fast-lane path can fit, which the LP lane schedules."""
    script = textwrap.dedent(f"""
        import sys
        from repro.service.config import ServiceConfig
        from repro.service.server import ServiceDaemon

        broker = ServiceDaemon(ServiceConfig(
            tick_seconds=0, socket_path={str(tmp_path / "d.sock")!r})).broker
        for slot in range(2):
            broker.submit({{"id": f"f{{slot}}", "source": 0, "destination": 1,
                           "size_gb": 1.0, "deadline_slots": 4}})
            assert broker.process_slot()[0][1]["lane"] == "fast"
        broker.submit({{"id": "big", "source": 0, "destination": 1,
                       "size_gb": 10 * broker.config.capacity, "deadline_slots": 1}})
        assert broker.process_slot()[0][1]["lane"] == "lp"
        assert "scipy.optimize._highspy._core" in sys.modules
        print(sorted(m for m in ("scipy", "scipy.sparse") if m in sys.modules))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
