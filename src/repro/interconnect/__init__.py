"""AXI interconnect: arbiters, address map, crossbar, NoC."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "address_map": ("AddressMap", "AddressRange"),
    "arbiter": ("FixedPriorityArbiter", "RoundRobinArbiter"),
    "crossbar": ("AxiCrossbar",),
    "noc": ("AxiNoc", "Flit"),
})
