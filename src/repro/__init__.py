"""AXI-REALM reproduction: a cycle-accurate AXI4 interconnect simulator
with real-time traffic regulation and monitoring.

Reproduces *AXI-REALM: A Lightweight and Modular Interconnect Extension for
Traffic Regulation and Monitoring of Heterogeneous Real-Time SoCs*
(Benz, Ottaviano, et al., DATE 2024) in pure Python: the REALM unit and all
the substrates its evaluation depends on (AXI4 protocol model, crossbar,
LLC/DRAM/SPM memories, core and DMA traffic generators, baseline
regulators, and the 12 nm area model).

Quick start::

    from repro.analysis import ContentionExperiment

    exp = ContentionExperiment()
    baseline = exp.run_single_source()
    contended = exp.run_without_reservation()
    regulated = exp.run(fragmentation=1)
    print(regulated.perf_percent, regulated.worst_case_latency)
"""

__version__ = "1.0.0"

from repro._lazy import lazy_exports

_SUBPACKAGES = ("analysis", "area", "axi", "baselines", "control",
                "interconnect", "mem", "realm", "sim", "soc", "system",
                "traffic")

# Subpackages load on first use: ``import repro`` costs nothing else.
__getattr__, __dir__ = lazy_exports(
    __name__, dict.fromkeys(_SUBPACKAGES, ()))[:2]
__all__ = ["__version__", *_SUBPACKAGES]
