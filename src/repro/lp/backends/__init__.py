"""The LP toolkit's solver: HiGHS, through the binding scipy vendors."""

from repro.lp.backends.highs import HighsBackend

__all__ = ["HighsBackend"]
