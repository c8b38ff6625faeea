"""Analysis: statistics, interference monitoring, experiment runners."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "advisor": ("AdvisorLoop", "BudgetAdvisor", "BudgetPlan",
                "ManagerObservation"),
    "experiment": ("ContentionExperiment", "ContentionResult"),
    "interference": ("InterferenceMatrix", "SystemInterferenceMonitor"),
    "stats": ("LatencyStats", "bytes_per_cycle", "percentile",
              "performance_percent"),
})
