"""Solver backends for the LP toolkit."""

from __future__ import annotations

from typing import Dict, Type

from repro.errors import SolverError
from repro.lp.backends.base import Backend
from repro.lp.backends.highs import HighsBackend
from repro.lp.backends.simplex import SimplexBackend

_BACKENDS: Dict[str, Type[Backend]] = {
    "highs": HighsBackend,
    "simplex": SimplexBackend,
}


def get_backend(name: str) -> Backend:
    """Look up a backend by name (``"highs"`` or ``"simplex"``)."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise SolverError(f"unknown LP backend {name!r}; available: {known}") from None
    return cls()


def register_backend(name: str, cls: Type[Backend]) -> None:
    """Register a custom backend class under ``name``."""
    _BACKENDS[name] = cls


__all__ = [
    "Backend",
    "HighsBackend",
    "SimplexBackend",
    "get_backend",
    "register_backend",
]
