"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.net.generators import (
    complete_topology,
    fig1_topology,
    fig3_topology,
    line_topology,
)
from repro.traffic.spec import TransferRequest


@pytest.fixture
def fig1():
    """The Fig. 1 motivating topology (3 DCs, infinite capacity)."""
    return fig1_topology()


@pytest.fixture
def fig3():
    """The Fig. 3 worked-example topology (4 DCs, capacity 5)."""
    return fig3_topology()


@pytest.fixture
def fig3_files():
    """The two files of the Fig. 3 example, released at t=3."""
    return [
        TransferRequest(2, 4, 8.0, 4, release_slot=3),
        TransferRequest(1, 4, 10.0, 2, release_slot=3),
    ]


@pytest.fixture
def small_complete():
    """A seeded 5-DC complete topology with moderate capacity."""
    return complete_topology(5, capacity=50.0, seed=42)


@pytest.fixture
def line3():
    """A 3-node bidirectional path A-B-C with capacity 10."""
    return line_topology(3, capacity=10.0)


@pytest.fixture
def fsyncs(monkeypatch):
    """Every fsync issued while the test runs, counted at the name the
    spine proxies (``repro.service.wal``'s own ``os``)."""
    calls = []
    real = os.fsync
    monkeypatch.setattr(
        "repro.service.wal.os.fsync", lambda fd: (calls.append(fd), real(fd))[1]
    )
    return calls
