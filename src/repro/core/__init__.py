"""The paper's primary contribution: the Postcard optimizer.

At every slot ``t`` the online controller receives the newly released
files ``K(t)``, builds the LP of Sec. V on a time-expanded graph over
``[t, t + max_k T_k]`` — respecting capacity already committed to
earlier files and the charged volumes ``X_ij(t-1)`` already paid for —
solves it, and commits the resulting store-and-forward schedule.
"""

from repro import _lazy_exports

#: Exported name -> the module that provides it (imported on first use).
_EXPORTS = {
    "Scheduler": "repro.core.interfaces",
    "NetworkState": "repro.core.state",
    "ScheduleEntry": "repro.core.schedule",
    "TransferSchedule": "repro.core.schedule",
    "SEMANTICS_FLUID": "repro.core.schedule",
    "SEMANTICS_STORE_AND_FORWARD": "repro.core.schedule",
    "PostcardModel": "repro.core.formulation",
    "build_postcard_model": "repro.core.formulation",
    "PostcardScheduler": "repro.core.scheduler",
    "OfflineResult": "repro.core.offline",
    "solve_offline": "repro.core.offline",
    "empirical_competitive_ratio": "repro.core.offline",
    "LookaheadPostcardScheduler": "repro.core.lookahead",
    "ReplanningPostcardScheduler": "repro.core.replan",
    "ActiveFile": "repro.core.replan",
    "TimedPath": "repro.core.paths",
    "decompose_paths": "repro.core.paths",
    "DualBoundResult": "repro.core.bounds",
    "dual_lower_bound": "repro.core.bounds",
    "SoftDeadlineResult": "repro.core.soft",
    "solve_soft_deadline": "repro.core.soft",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
