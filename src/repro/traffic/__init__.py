"""Traffic generators: scripted drivers, a core model, a DMA engine,
workload patterns, and malicious managers."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "core_model": ("CoreModel",),
    "dma": ("DmaEngine",),
    "driver": ("ManagerDriver", "Op"),
    "malicious": ("BandwidthHog", "StallingWriter", "TricklingWriter"),
    "patterns": ("MemoryTrace", "TraceOp", "random_trace",
                 "sequential_trace", "strided_trace", "susan_like_trace"),
})
