"""Declarative system construction: :class:`SystemBuilder` and :class:`System`.

Every evaluation scenario in the paper is the same recipe — N managers
(optionally guarded by a REALM unit or a baseline regulator), one
interconnect (crossbar, NoC, or a direct wire), and one or more memory
backends (SRAM, DRAM, or an LLC-fronted DRAM) — yet the seed repo wired
each of them by hand in tests, benchmarks, examples, and the experiment
runner.  The builder replaces all of that with one declarative path::

    system = (
        SystemBuilder()
        .add_manager("core")
        .add_manager("dma", protect=True, granularity=1,
                     regions=[RegionConfig(0, 2**20, 4096, 1000)])
        .add_sram("mem", base=0x0, size=0x40000)
        .build()
    )
    driver = system.add_driver("core")
    system.sim.run(1000)

Interconnect selection is automatic (a single manager talking to a single
memory is wired directly; anything else gets a crossbar) and can be forced
with :meth:`SystemBuilder.with_crossbar`, :meth:`SystemBuilder.with_noc`,
or :meth:`SystemBuilder.with_direct`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.axi.ports import AxiBundle
from repro.control.plane import ControlPlane
from repro.control.wiring import register_system, register_traffic
from repro.interconnect.address_map import AddressMap
from repro.interconnect.crossbar import AxiCrossbar
from repro.mem.cache import CacheLLC
from repro.mem.dram import DramModel, DramTiming
from repro.mem.sram import SramMemory
from repro.realm.bus_guard import BusGuard
from repro.realm.config import RealmUnitParams
from repro.realm.regions import RegionConfig
from repro.realm.register_file import RealmRegisterFile
from repro.realm.unit import RealmUnit
from repro.sim.kernel import Component, SimulationError, Simulator
from repro.traffic.driver import ManagerDriver

# A regulator factory receives the (up, down) bundles and returns the
# component to insert between the manager and the interconnect.
RegulatorFactory = Callable[[AxiBundle, AxiBundle], Component]


@dataclass
class ManagerSpec:
    """One manager-side port of the system."""

    name: str
    protect: bool = False
    realm_params: Optional[RealmUnitParams] = None
    granularity: Optional[int] = None
    regions: Sequence[RegionConfig] = ()
    regulation: Optional[bool] = None
    throttle: Optional[bool] = None
    regulator: Optional[RegulatorFactory] = None
    driver: bool | str = False
    capacity: int = 2
    node: Optional[tuple[int, int]] = None


@dataclass
class MemorySpec:
    """One subordinate memory of the system."""

    name: str
    kind: str  # "sram" | "dram" | "cached_dram"
    base: int
    size: int
    read_latency: int = 1
    write_latency: int = 1
    timing: Optional[DramTiming] = None
    capacity: int = 2
    node: Optional[tuple[int, int]] = None
    # cached_dram only:
    cache_name: str = "llc"
    llc_capacity: int = 64 * 1024
    llc_ways: int = 8
    line_bytes: int = 64
    hit_latency: int = 1
    front_capacity: int = 4


@dataclass
class System:
    """The assembled platform returned by :meth:`SystemBuilder.build`."""

    sim: Simulator
    ports: dict[str, AxiBundle]
    downstream: dict[str, AxiBundle]
    realms: dict[str, RealmUnit]
    regulators: dict[str, Component]
    drivers: dict[str, ManagerDriver]
    memories: dict[str, Component]
    caches: dict[str, CacheLLC]
    interconnect: Optional[Component]
    addr_map: AddressMap
    bus_guard: Optional[BusGuard] = None
    regfile: Optional[RealmRegisterFile] = None
    control: Optional[ControlPlane] = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def port(self, name: str) -> AxiBundle:
        """The traffic-facing bundle of manager *name*."""
        return self.ports[name]

    def realm(self, name: str) -> RealmUnit:
        return self.realms[name]

    def driver(self, name: str) -> ManagerDriver:
        return self.drivers[name]

    def memory(self, name: str) -> Component:
        return self.memories[name]

    def cache(self, name: str = "llc") -> CacheLLC:
        return self.caches[name]

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def add_driver(self, name: str, driver_name: str = "") -> ManagerDriver:
        """Attach a scripted driver to manager *name* (idempotent)."""
        if name not in self.drivers:
            self.drivers[name] = self.sim.add(
                ManagerDriver(self.ports[name], name=driver_name or f"{name}.drv")
            )
            if self.control is not None:
                register_traffic(self.control, name, self.drivers[name])
        return self.drivers[name]

    def attach(self, name: str, factory: Callable[[AxiBundle], Component]):
        """Build a traffic generator on manager *name*'s port and add it.

        The generator's counters and rate/enable knobs are published on
        the control plane under ``traffic.<name>.*``.
        """
        component = self.sim.add(factory(self.ports[name]))
        if self.control is not None:
            register_traffic(self.control, name, component)
        return component

    def trace(self, pattern: str = "port.*", max_events: int = 1_000_000):
        """A :class:`~repro.sim.Tracer` subscribed through the probe-event
        API to every channel matching *pattern* (default: all manager
        ports)."""
        from repro.sim.tracing import Tracer

        if self.control is None:
            raise SimulationError("system was built without a control plane")
        tracer = Tracer(self.sim, max_events=max_events)
        tracer.watch_probes(self.control.probes, pattern)
        return tracer

    def warm_cache(self, addr: int, size: int, cache: str = "llc") -> None:
        """Pre-load cache lines from the backing DRAM (hot-LLC scenarios)."""
        llc = self.caches[cache]
        dram = self._backing_of[cache]
        line = llc.line_bytes
        start = addr & ~(line - 1)
        a = start
        while a < addr + size:
            llc.install_line(a, dram.store.read(a, line))
            a += line

    def checkpoint(self, path=None) -> dict:
        """Whole-system state at this commit boundary (see
        :meth:`repro.sim.Simulator.checkpoint`)."""
        return self.sim.checkpoint(path)

    def restore(self, source) -> None:
        """Restore a checkpoint into this system (fresh build of the
        same declaration, or this system itself for rewinding)."""
        self.sim.restore_checkpoint(source)

    def run_until_idle(self, max_cycles: int = 100_000) -> int:
        """Run until every attached driver has finished its script."""
        drivers = list(self.drivers.values())
        return self.sim.run_until(
            lambda: all(d.idle for d in drivers),
            max_cycles=max_cycles,
            what="drivers to finish",
        )

    def idle(self) -> bool:
        """True when no beat is buffered on any manager port."""
        return all(port.idle() for port in self.ports.values())

    _backing_of: dict[str, DramModel] = field(default_factory=dict, repr=False)


class SystemBuilder:
    """Fluent, declarative constructor for simulation platforms."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        name: str = "system",
        active_set: bool = True,
        batched: bool = True,
        control: bool = True,
    ) -> None:
        self.sim = (
            sim
            if sim is not None
            else Simulator(name, active_set=active_set, batched=batched)
        )
        self.name = name
        self._control_enabled = control
        self._managers: list[ManagerSpec] = []
        self._memories: list[MemorySpec] = []
        self._interconnect = "auto"  # auto | direct | crossbar | noc
        self._xbar_opts: dict = {}
        self._noc_opts: dict = {}
        self._built = False

    # ------------------------------------------------------------------
    # managers
    # ------------------------------------------------------------------
    def add_manager(
        self,
        name: str,
        *,
        protect: bool = False,
        realm_params: Optional[RealmUnitParams] = None,
        granularity: Optional[int] = None,
        regions: Sequence[RegionConfig] = (),
        regulation: Optional[bool] = None,
        throttle: Optional[bool] = None,
        regulator: Optional[RegulatorFactory] = None,
        driver: bool | str = False,
        capacity: int = 2,
        node: Optional[tuple[int, int]] = None,
    ) -> "SystemBuilder":
        """Declare a manager port.

        ``protect=True`` inserts a REALM unit between the manager and the
        interconnect (``realm_params``/``granularity``/``regions``/
        ``regulation``/``throttle`` configure it); ``regulator`` inserts a
        custom component instead (e.g. a baseline regulator factory
        ``lambda up, down: AbuRegulator(up, down, ...)``).  ``driver=True``
        (or a driver name) attaches a scripted :class:`ManagerDriver`.
        ``node`` places the manager on a NoC mesh.
        """
        if any(m.name == name for m in self._managers):
            raise ValueError(f"duplicate manager {name!r}")
        if regions or granularity is not None or realm_params is not None:
            protect = True  # regulation arguments imply a REALM unit
        if protect and regulator is not None:
            raise ValueError("choose either a REALM unit or a custom regulator")
        self._managers.append(
            ManagerSpec(
                name=name,
                protect=protect,
                realm_params=realm_params,
                granularity=granularity,
                regions=tuple(regions),
                regulation=regulation,
                throttle=throttle,
                regulator=regulator,
                driver=driver,
                capacity=capacity,
                node=node,
            )
        )
        return self

    # ------------------------------------------------------------------
    # interconnect flavor
    # ------------------------------------------------------------------
    def with_crossbar(self, qos_arbitration: bool = False) -> "SystemBuilder":
        self._interconnect = "crossbar"
        self._xbar_opts = {"qos_arbitration": qos_arbitration}
        return self

    def with_noc(
        self, width: int, height: int, router_depth: int = 4
    ) -> "SystemBuilder":
        self._interconnect = "noc"
        self._noc_opts = {
            "width": width,
            "height": height,
            "router_depth": router_depth,
        }
        return self

    def with_direct(self) -> "SystemBuilder":
        """Wire a single manager straight into a single memory port."""
        self._interconnect = "direct"
        return self

    # ------------------------------------------------------------------
    # memories
    # ------------------------------------------------------------------
    def add_sram(
        self,
        name: str = "sram",
        *,
        base: int = 0,
        size: int,
        read_latency: int = 1,
        write_latency: int = 1,
        capacity: int = 2,
        node: Optional[tuple[int, int]] = None,
    ) -> "SystemBuilder":
        self._add_memory(
            MemorySpec(
                name=name,
                kind="sram",
                base=base,
                size=size,
                read_latency=read_latency,
                write_latency=write_latency,
                capacity=capacity,
                node=node,
            )
        )
        return self

    def add_dram(
        self,
        name: str = "dram",
        *,
        base: int = 0,
        size: int,
        timing: Optional[DramTiming] = None,
        capacity: int = 2,
        node: Optional[tuple[int, int]] = None,
    ) -> "SystemBuilder":
        self._add_memory(
            MemorySpec(
                name=name, kind="dram", base=base, size=size,
                timing=timing, capacity=capacity, node=node,
            )
        )
        return self

    def add_cached_dram(
        self,
        name: str = "dram",
        *,
        base: int,
        size: int,
        timing: Optional[DramTiming] = None,
        cache_name: str = "llc",
        llc_capacity: int = 64 * 1024,
        llc_ways: int = 8,
        line_bytes: int = 64,
        hit_latency: int = 1,
        front_capacity: int = 4,
        node: Optional[tuple[int, int]] = None,
    ) -> "SystemBuilder":
        """A DRAM with a last-level cache in front of it (the Cheshire
        memory system: the LLC front port is what the interconnect sees)."""
        self._add_memory(
            MemorySpec(
                name=name,
                kind="cached_dram",
                base=base,
                size=size,
                timing=timing,
                cache_name=cache_name,
                llc_capacity=llc_capacity,
                llc_ways=llc_ways,
                line_bytes=line_bytes,
                hit_latency=hit_latency,
                front_capacity=front_capacity,
                node=node,
            )
        )
        return self

    def _add_memory(self, spec: MemorySpec) -> None:
        if any(m.name == spec.name for m in self._memories):
            raise ValueError(f"duplicate memory {spec.name!r}")
        self._memories.append(spec)

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def build(self) -> System:
        if self._built:
            raise SimulationError("SystemBuilder.build() called twice")
        if not self._managers:
            raise ValueError("system needs at least one manager")
        if not self._memories:
            raise ValueError("system needs at least one memory")
        self._built = True
        sim = self.sim

        flavor = self._interconnect
        if flavor == "auto":
            flavor = (
                "direct"
                if len(self._managers) == 1 and len(self._memories) == 1
                else "crossbar"
            )
        if flavor == "direct" and (
            len(self._managers) != 1 or len(self._memories) != 1
        ):
            raise ValueError("direct wiring needs exactly one manager and memory")

        # Manager-side bundles and their regulation stages.
        ports: dict[str, AxiBundle] = {}
        downstream: dict[str, AxiBundle] = {}
        realms: dict[str, RealmUnit] = {}
        regulators: dict[str, Component] = {}
        for spec in self._managers:
            up = AxiBundle(sim, f"{spec.name}.mgr", capacity=spec.capacity)
            ports[spec.name] = up
            if spec.protect:
                down = AxiBundle(sim, f"{spec.name}.xbar", capacity=spec.capacity)
                unit = sim.add(
                    RealmUnit(
                        up,
                        down,
                        params=spec.realm_params or RealmUnitParams(),
                        name=f"realm.{spec.name}",
                    )
                )
                realms[spec.name] = unit
                self._configure_realm(unit, spec)
            elif spec.regulator is not None:
                down = AxiBundle(sim, f"{spec.name}.xbar", capacity=spec.capacity)
                regulators[spec.name] = sim.add(spec.regulator(up, down))
            else:
                down = up
            downstream[spec.name] = down

        # Memory-side bundles, address map, and backends.
        addr_map = AddressMap()
        mem_ports: list[AxiBundle] = []
        memories: dict[str, Component] = {}
        caches: dict[str, CacheLLC] = {}
        backing: dict[str, DramModel] = {}
        for index, spec in enumerate(self._memories):
            addr_map.add_range(spec.base, spec.size, port=index, name=spec.name)
            if flavor == "direct":
                port = downstream[self._managers[0].name]
            else:
                cap = (
                    spec.front_capacity
                    if spec.kind == "cached_dram"
                    else spec.capacity
                )
                port_name = (
                    f"{spec.cache_name}.front"
                    if spec.kind == "cached_dram"
                    else spec.name
                )
                port = AxiBundle(sim, port_name, capacity=cap)
            mem_ports.append(port)
            memories[spec.name] = self._build_memory(
                sim, spec, port, caches, backing
            )

        # Interconnect.
        interconnect: Optional[Component] = None
        if flavor == "crossbar":
            interconnect = sim.add(
                AxiCrossbar(
                    [downstream[m.name] for m in self._managers],
                    mem_ports,
                    addr_map,
                    name="xbar",
                    **self._xbar_opts,
                )
            )
        elif flavor == "noc":
            from repro.interconnect.noc import AxiNoc

            width = self._noc_opts["width"]
            height = self._noc_opts["height"]
            mgr_nodes = self._place_nodes(
                [m.node for m in self._managers], column=0, height=height
            )
            mem_nodes = self._place_nodes(
                [m.node for m in self._memories], column=width - 1, height=height
            )
            interconnect = sim.add(
                AxiNoc(
                    width,
                    height,
                    {
                        node: downstream[m.name]
                        for node, m in zip(mgr_nodes, self._managers)
                    },
                    {node: port for node, port in zip(mem_nodes, mem_ports)},
                    addr_map,
                    name="noc",
                    router_depth=self._noc_opts["router_depth"],
                )
            )

        # Shared configuration space behind the bus guard.
        bus_guard = regfile = None
        if realms:
            bus_guard = BusGuard()
            regfile = RealmRegisterFile(list(realms.values()), guard=bus_guard)
            # The guard's ownership claim is machine state a checkpoint
            # must carry (a restored run may never re-claim).
            sim.register_state_client("bus_guard", bus_guard)

        system = System(
            sim=sim,
            ports=ports,
            downstream=downstream,
            realms=realms,
            regulators=regulators,
            drivers={},
            memories=memories,
            caches=caches,
            interconnect=interconnect,
            addr_map=addr_map,
            bus_guard=bus_guard,
            regfile=regfile,
        )
        system._backing_of = backing
        if self._control_enabled:
            system.control = ControlPlane(sim)
            register_system(system.control, system)
        for spec in self._managers:
            if spec.driver:
                name = spec.driver if isinstance(spec.driver, str) else ""
                system.add_driver(spec.name, driver_name=name)
        return system

    # ------------------------------------------------------------------
    @staticmethod
    def _configure_realm(unit: RealmUnit, spec: ManagerSpec) -> None:
        if spec.granularity is not None:
            unit.set_granularity(spec.granularity)
        for index, region in enumerate(spec.regions):
            # configure_region snapshots the field values at call time,
            # so runtime knob writes can never mutate the caller's spec
            # and leak one run's reconfiguration into the next build.
            unit.configure_region(index, region)
        if spec.regulation is not None:
            unit.set_regulation_enabled(spec.regulation)
        if spec.throttle is not None:
            unit.set_throttle_enabled(spec.throttle)

    @staticmethod
    def _build_memory(
        sim: Simulator,
        spec: MemorySpec,
        port: AxiBundle,
        caches: dict[str, CacheLLC],
        backing: dict[str, DramModel],
    ) -> Component:
        if spec.kind == "sram":
            return sim.add(
                SramMemory(
                    port,
                    base=spec.base,
                    size=spec.size,
                    read_latency=spec.read_latency,
                    write_latency=spec.write_latency,
                    name=spec.name,
                )
            )
        if spec.kind == "dram":
            return sim.add(
                DramModel(
                    port,
                    base=spec.base,
                    size=spec.size,
                    timing=spec.timing or DramTiming(),
                    name=spec.name,
                )
            )
        if spec.kind == "cached_dram":
            back = AxiBundle(sim, f"{spec.cache_name}.back")
            caches[spec.cache_name] = sim.add(
                CacheLLC(
                    port,
                    back,
                    line_bytes=spec.line_bytes,
                    ways=spec.llc_ways,
                    capacity=spec.llc_capacity,
                    hit_latency=spec.hit_latency,
                    name=spec.cache_name,
                )
            )
            dram = sim.add(
                DramModel(
                    back,
                    base=spec.base,
                    size=spec.size,
                    timing=spec.timing or DramTiming(),
                    name=spec.name,
                )
            )
            backing[spec.cache_name] = dram
            return dram
        raise ValueError(f"unknown memory kind {spec.kind!r}")  # pragma: no cover

    @staticmethod
    def _place_nodes(
        requested: list[Optional[tuple[int, int]]], column: int, height: int
    ) -> list[tuple[int, int]]:
        """Fill in missing NoC placements along a mesh column."""
        used = {node for node in requested if node is not None}
        auto = (
            (column, y) for y in range(height) if (column, y) not in used
        )
        placed = []
        for node in requested:
            if node is None:
                try:
                    node = next(auto)
                except StopIteration:  # pragma: no cover - config error
                    raise ValueError("mesh too small for auto-placement")
            placed.append(node)
        return placed
