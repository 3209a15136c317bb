"""The LP toolkit's solver: HiGHS, through the binding scipy vendors (``highs``)."""
