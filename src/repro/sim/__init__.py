"""Cycle-based simulation kernel (clock, components, channels, tracing)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "channel": ("Channel", "ChannelPair", "ExpressRoute", "drain"),
    "kernel": ("Component", "SimulationError", "Simulator"),
    "tracing": ("TraceEvent", "Tracer"),
})
