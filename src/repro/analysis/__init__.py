"""Statistics and table rendering for the experiment harness."""

from repro import _lazy_exports

_EXPORTS = {
    "ConfidenceInterval": "repro.analysis.stats",
    "mean_ci": "repro.analysis.stats",
    "percentile": "repro.analysis.stats",
    "format_table": "repro.analysis.tables",
    "sparkline": "repro.analysis.plots",
    "utilization_rows": "repro.analysis.plots",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
