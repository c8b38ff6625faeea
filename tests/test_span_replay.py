"""Span-replay (DESIGN.md section 11): closed-form steady-state
evolution must be bit-identical to step-by-step execution.

The property test drives a randomized streaming system — burst lengths,
fragment granularities, finite budgets that exhaust mid-stream, period
edges crossing running spans, write buffer on/off, SRAM or LLC source
data that changes value at drawn offsets — through the same horizon
with span replay enabled and disabled, and diffs every observable plus
a CRC of the data read.  The targeted tests pin the negotiation
machinery itself: abort taxonomy, hook clamping, span statistics kept
out of the probe namespace, and profile stats.
"""

from __future__ import annotations

import dataclasses
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.realm import RegionConfig
from repro.realm.config import RealmUnitParams
from repro.scenario import apply_smoke, expand, load_file, run_point
from repro.sim import Simulator
from repro.sim.span import MIN_SPAN
from repro.system import SystemBuilder
from repro.traffic import DmaEngine

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

UNLIMITED = 1 << 62
DRAM_BASE = 0x40000


class _DigestingDma(DmaEngine):
    """A DmaEngine that folds the data of every R beat it takes into a
    CRC, so a span that replays a wrong value shows in the fingerprint
    (the model itself discards read data)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.read_crc = 0

    def _tick_read(self) -> None:
        for beat in self.port.r._queue:  # what recv_up_to will take
            self.read_crc = zlib.crc32(beat.data or b"", self.read_crc)
        super()._tick_read()

    def span_offer(self, cycle, bound):
        offer = super().span_offer(cycle, bound)
        if offer is None or not self.port.r._queue:
            return offer
        data = self.port.r._queue[0].data or b""

        def apply(n: int) -> None:
            offer.apply(n)
            for _ in range(n):
                self.read_crc = zlib.crc32(data, self.read_crc)

        return dataclasses.replace(offer, apply=apply)


def _streaming_system(
    *,
    span_replay: bool,
    burst_beats: int,
    granularity: int,
    budget: int,
    period: int,
    gap: int,
    write_buffer: bool,
    source: str = "sram",
    pokes: tuple = (),
):
    """The DMA streams from the SRAM (or, with ``source="llc"``, from a
    warmed LLC) into the SRAM; *pokes* are ``(offset, byte)`` writes into
    the source before the run, so read spans stop on a value change."""
    sim = Simulator(active_set=True, batched=True, span_replay=span_replay)
    builder = (
        SystemBuilder(sim=sim)
        .with_crossbar()
        .add_manager(
            "dma",
            granularity=granularity,
            realm_params=RealmUnitParams(write_buffer_present=write_buffer),
            regions=[RegionConfig(base=0, size=0x80000,
                                  budget_bytes=budget,
                                  period_cycles=period)],
        )
        .add_sram("mem", base=0, size=0x40000)
    )
    src_base = 0x0
    if source == "llc":
        src_base = DRAM_BASE
        builder.add_cached_dram("dram", base=DRAM_BASE, size=0x10000)
    system = builder.build()
    backing = system.memories["dram" if source == "llc" else "mem"]
    for offset, value in pokes:
        backing.store.write(src_base + offset, bytes([value]))
    if source == "llc":
        system.warm_cache(DRAM_BASE, 0x8000)
    dma = system.attach(
        "dma",
        lambda port: _DigestingDma(
            port, src_base=src_base, src_size=0x8000, dst_base=0x10000,
            dst_size=0x8000, burst_beats=burst_beats, inter_burst_gap=gap,
        ),
    )
    return system, dma


def _fingerprint(system, dma) -> tuple:
    realm = system.realm("dma")
    snap = realm.region_snapshot(0)
    memory = system.memories["mem"]
    return (
        system.sim.cycle,
        dma.bytes_read,
        dma.read_crc,
        dma.bytes_written,
        dma.read_bursts,
        dma.write_bursts,
        snap.total_bytes,
        snap.read_bytes,
        snap.write_bytes,
        snap.bytes_this_period,
        snap.stall_cycles,
        snap.txn_count,
        snap.latency_sum,
        snap.latency_max,
        snap.cycles_into_period,
        realm.mr.denied_by_budget,
        realm.denied_by_budget,
        realm.isolated,
        realm.outstanding,
        memory.reads_served,
        memory.writes_served,
        memory.read_beats,
        memory.write_beats,
        tuple(
            (ch.sent_total, ch.recv_total, ch.busy_cycles)
            for ch in system.ports["dma"].channels
        ),
        bytes(memory.store._data),
        tuple(
            (llc.hits, llc.misses, tuple(tuple(ways) for ways in llc._sets))
            for llc in system.caches.values()
        ),
    )


def _run_fingerprint(span_replay: bool, horizon: int, **cfg) -> tuple:
    system, dma = _streaming_system(span_replay=span_replay, **cfg)
    system.sim.run(horizon)
    return _fingerprint(system, dma)


@settings(max_examples=30, deadline=None)
@given(
    burst_beats=st.sampled_from([4, 16, 64, 256]),
    granularity=st.sampled_from([1, 16, 64, 256]),
    budget=st.sampled_from([2048, 4096, UNLIMITED]),
    period=st.sampled_from([512, 1024, UNLIMITED]),
    gap=st.sampled_from([0, 3]),
    write_buffer=st.booleans(),
    horizon=st.integers(min_value=300, max_value=2500),
    source=st.sampled_from(["sram", "llc"]),
    pokes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=0xFFF),
                  st.integers(min_value=1, max_value=255)),
        max_size=6,
    ),
)
def test_span_replay_equals_step_by_step(
    burst_beats, granularity, budget, period, gap, write_buffer, horizon,
    source, pokes,
):
    """Closed-form span evolution == per-cycle stepping for randomized
    configurations, including budget exhaustion (small budgets deplete
    after one burst), period-edge replenishes inside running spans, and
    source data that changes value at drawn offsets, in the SRAM or in
    a warmed LLC."""
    if period == UNLIMITED:
        budget = UNLIMITED  # a finite budget needs a period to replenish
    cfg = dict(burst_beats=burst_beats, granularity=granularity,
               budget=budget, period=period, gap=gap,
               write_buffer=write_buffer, source=source,
               pokes=tuple(pokes))
    with_spans = _run_fingerprint(True, horizon, **cfg)
    without = _run_fingerprint(False, horizon, **cfg)
    assert with_spans == without


def test_spans_engage_on_steady_stream():
    """The showcase configuration actually exercises the machinery: most
    of the run is covered by spans, and the per-unit counters agree with
    the kernel's."""
    system, _ = _streaming_system(
        span_replay=True, burst_beats=256, granularity=256,
        budget=UNLIMITED, period=UNLIMITED, gap=0, write_buffer=False,
    )
    system.sim.run(4000)
    sim = system.sim
    assert sim.spans_entered > 0
    assert sim.span_cycles_replayed > 2000, (
        "steady streaming should spend most cycles inside spans"
    )
    realm = system.realm("dma")
    assert realm.span_cycles <= sim.span_cycles_replayed
    assert realm.span_hits <= sim.spans_entered


def test_span_replay_off_never_spans():
    system, _ = _streaming_system(
        span_replay=False, burst_beats=256, granularity=256,
        budget=UNLIMITED, period=UNLIMITED, gap=0, write_buffer=False,
    )
    system.sim.run(2000)
    assert system.sim.spans_entered == 0
    assert system.sim.span_cycles_replayed == 0
    assert not system.sim.span_replay_enabled


def test_reset_clears_span_state():
    system, _ = _streaming_system(
        span_replay=True, burst_beats=256, granularity=256,
        budget=UNLIMITED, period=UNLIMITED, gap=0, write_buffer=False,
    )
    system.sim.run(2000)
    assert system.sim.spans_entered > 0
    system.sim.reset()
    assert system.sim.spans_entered == 0
    assert system.sim.span_cycles_replayed == 0
    assert system.sim.span_aborts == {}
    assert system.sim._span_probe is None
    assert system.realm("dma").span_hits == 0
    assert system.realm("dma").span_cycles == 0


def test_scheduled_hook_clamps_spans_to_its_boundary():
    """A hook due within MIN_SPAN cycles of a would-be span start aborts
    the span (cause: window), so scheduled observation/reconfiguration
    always executes on the per-beat path at exactly its cycle."""
    system, _ = _streaming_system(
        span_replay=True, burst_beats=256, granularity=256,
        budget=UNLIMITED, period=UNLIMITED, gap=0, write_buffer=False,
    )
    seen = []
    sim = system.sim
    # A hook every 2 cycles keeps n_max below MIN_SPAN forever.
    def reschedule(cycle):
        seen.append(cycle)
        if cycle < 996:
            sim.call_at(cycle + 2, reschedule)
    sim.call_at(2, reschedule)
    sim.run(1000)
    assert sim.spans_entered == 0
    assert sim.span_aborts.get("window", 0) > 0
    assert seen == list(range(2, 998, 2))
    assert MIN_SPAN > 2  # the premise of the clamp in this test


def test_span_unit_stats_are_metrics_not_probes():
    """Per-unit span counters describe the execution strategy, so they
    stay out of the probe namespace (a sampled report must not depend on
    the kernel) and reach the flight recorder's metrics instead."""
    spec = apply_smoke(load_file(SCENARIO_DIR / "stream_steady.toml"))
    point = expand(spec)[0]
    from repro.scenario.runner import _elaborate_point, _execute_run

    system, generators = _elaborate_point(point, active_set=True, batched=True)
    _execute_run(system, point.spec, point.label, generators)
    assert not [p for p in system.control.probes.paths() if ".span_" in p]
    counters = run_point(point, profile=True).metrics["counters"]
    for manager in ("dma", "idma"):
        unit = system.realms[manager]
        assert counters[f"span.unit.{manager}.hits"] == unit.span_hits
        assert counters[f"span.unit.{manager}.cycles"] == unit.span_cycles
    assert sum(u.span_cycles for u in system.realms.values()) > 0


def test_profile_reports_span_stats():
    spec = apply_smoke(load_file(SCENARIO_DIR / "stream_steady.toml"))
    point = expand(spec)[0]
    result = run_point(point, profile=True)
    stats = result.span_stats
    assert stats is not None and stats["enabled"]
    assert stats["spans_entered"] > 0
    assert stats["span_cycles_replayed"] > 0
    assert set(stats["units"]) == {"dma", "idma"}
    total = sum(u["span_cycles"] for u in stats["units"].values())
    assert total >= stats["span_cycles_replayed"]  # both units join most spans
    # The stats describe the execution strategy, not the modelled SoC:
    # the per-beat reference reports the same observables with zero spans.
    reference = run_point(point, batched=False, profile=True)
    assert reference.span_stats["spans_entered"] == 0
    assert reference.observables == result.observables


def test_span_stats_absent_without_profile():
    spec = apply_smoke(load_file(SCENARIO_DIR / "stream_steady.toml"))
    point = expand(spec)[0]
    assert run_point(point).span_stats is None
