"""One campaign in a fresh interpreter, timed from the outside in.

Spawned by ``run.py`` once per measured campaign; never imported by it.
Usage::

    python3 perfbench/campaign.py MODE SCENARIO REPORT STAMPS [--fork]
        [--set FIELD=VALUE ...]

MODE is one of:

``plain``
    The user's command, untouched: ``repro.cli.main(["run", ...])`` with
    ``--jobs 1 --json REPORT``.  The only instrumentation is a wrapper
    around ``repro.scenario.runner.build_system`` that stamps the moment
    the first point starts elaborating (the end of set-up).
``traced``
    The same campaign driven layer by layer from this file: each layer's
    public entry point is called (or wrapped) here and recorded as a
    span, and the run goes through ``run_campaign(profile=True)`` so the
    flight recorder's work counters ride along.  Nothing inside ``src/``
    is traced.
``oracle``
    The reference mode: ``plain`` on the naive kernel with the per-beat
    datapath (no active set, no batching, no spans, no fork tree).
``warm``
    Import everything a campaign imports and load the scenario, then
    exit: compiles the ``.pyc`` files and warms the page cache so that
    no measured campaign pays for them.

STAMPS receives a JSON object with ``time.monotonic()`` stamps (the
parent stamps the spawn on the same clock) and, when traced, the layer
metrics and the recorded spans.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from time import perf_counter

#: Span-abort causes of ``repro.sim.span.attempt_span``, reported even
#: when zero so every traced run prints the same metric names.
ABORT_CAUSES = ("window", "opaque", "no_offer", "boundary", "no_flows",
                "short", "stitch", "listener")
#: Packages whose components are ticked; ``tick.<pkg>_*`` groups by them.
TICK_PACKAGES = ("realm", "interconnect", "mem", "traffic")


def _parse(argv: list[str]):
    mode, scenario, report, stamps = argv[:4]
    fork = "--fork" in argv[4:]
    sets = [argv[i + 1] for i, arg in enumerate(argv) if arg == "--set"]
    return mode, scenario, report, stamps, fork, sets


class Spans:
    """In-memory span recorder: ``(name, id, start, end, parent)`` rows.

    ``id`` is the label of the campaign point the span belongs to
    (``campaign`` outside any point, ``prefix`` for a shared fork-tree
    prefix edge); ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.rows: list = []
        self.stack: list = []
        self.point = "campaign"

    def wrap(self, name: str, fn):
        rows = self.rows
        stack = self.stack

        def traced(*args, **kwargs):
            index = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            point = self.point
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rows[index] = (name, point, start, perf_counter(), parent)
                stack.pop()

        return traced

    def total(self, *names: str) -> float:
        return sum(r[3] - r[2] for r in self.rows if r[0] in names)

    def count(self, *names: str) -> int:
        return sum(1 for r in self.rows if r[0] in names)

    def self_times(self) -> dict:
        """Per span name: total duration minus what child spans cover."""
        own = [r[3] - r[2] for r in self.rows]
        for r in self.rows:
            if r[4] >= 0:
                own[r[4]] -= r[3] - r[2]
        totals: dict = {}
        for r, seconds in zip(self.rows, own):
            totals[r[0]] = totals.get(r[0], 0.0) + seconds
        return dict(sorted(totals.items()))


def run_plain(scenario: str, report: str, fork: bool, sets: list[str],
              stamps: dict, flags: tuple = ()) -> None:
    import repro.cli
    import repro.scenario.runner as runner

    build_system = runner.build_system

    def stamped(*args, **kwargs):
        stamps.setdefault("setup_end", time.monotonic())
        return build_system(*args, **kwargs)

    runner.build_system = stamped
    argv = ["run", scenario, "--jobs", "1", "--json", report, *flags]
    if fork:
        argv.append("--fork")
    for item in sets:
        argv += ["--set", item]
    code = repro.cli.main(argv)
    stamps["report_written"] = time.monotonic()
    if code != 0:
        raise SystemExit(code)


def run_traced(scenario: str, report: str, fork: bool, sets: list[str],
               stamps: dict) -> None:
    spans = Spans()
    layer: dict = {}

    t0 = perf_counter()
    import repro.cli  # noqa: F401  (the layer being timed)
    layer["cli.import_s"] = perf_counter() - t0

    import pickle

    import repro.scenario.runner as runner
    import repro.sim.kernel as kernel
    import repro.snapshot as snapshot
    from repro.cli import parse_cli_value
    from repro.scenario import apply_overrides, expand, load_file
    from repro.scenario.fork import plan_fork_tree
    from repro.scenario.report import CampaignResult
    from repro.system.builder import System

    spec = spans.wrap("scenario.load", load_file)(scenario)
    overrides = []
    for item in sets:
        field, _, value = item.partition("=")
        overrides.append((field, parse_cli_value(value)))
    spec = spans.wrap("scenario.load", apply_overrides)(spec, overrides)
    points = spans.wrap("scenario.expand", expand)(spec)
    # The planner is timed on every workload's points; the campaign
    # itself plans (and forks) only with --fork.
    tree = spans.wrap("fork.plan", plan_fork_tree)(points)

    # Component name -> package, for grouping the recorder's tick rows.
    packages: dict = {}
    components = [0]
    encoded_bytes = [0]
    # Every simulator that ran: the kernel keeps its span tallies per
    # simulator and never snapshots them, so they add up without
    # counting a fork-tree prefix twice.
    sims: dict = {}

    def install_control(system, spec):
        for c in system.sim.components:
            packages[c.name] = type(c).__module__.split(".")[1]
        components[0] += len(system.sim.components)
        return runner_install_control(system, spec)

    def sim_run(fn):
        def run(sim, *args, **kwargs):
            sims[sim] = None
            return fn(sim, *args, **kwargs)
        return run

    def capture(sim):
        tree = timed_capture(sim)
        encoded_bytes[0] += len(
            pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL))
        return tree

    def run_point(point, **kwargs):
        spans.point = point.label
        try:
            return traced_point(point, **kwargs)
        finally:
            spans.point = "prefix"

    def run_campaign(*args, **kwargs):
        # Work outside any point is a fork-tree prefix edge.
        spans.point = "prefix"
        try:
            return runner.run_campaign(*args, **kwargs)
        finally:
            spans.point = "campaign"

    def collect_observables(system, spec, generators):
        # Snapshot round trip of every point's final state: times the
        # codec on every workload and checks that a restore is invisible
        # (the observables collected after it must match the oracle).
        timed_restore(system.sim, capture(system.sim))
        return timed_collect(system, spec, generators)

    runner_install_control = runner.install_control
    traced_point = spans.wrap("point", runner.run_point)
    timed_collect = spans.wrap("report.collect", runner.collect_observables)
    timed_capture = spans.wrap("snapshot.capture", snapshot.capture_simulator)
    timed_restore = spans.wrap("snapshot.restore", snapshot.restore_simulator)

    runner.run_point = run_point
    runner.build_system = spans.wrap("elaborate.build_system",
                                     runner.build_system)
    runner.attach_traffic = spans.wrap("elaborate.attach_traffic",
                                       runner.attach_traffic)
    runner.install_control = spans.wrap("elaborate.install_control",
                                        install_control)
    System.warm_cache = spans.wrap("elaborate.warm_cache", System.warm_cache)
    runner.collect_observables = collect_observables
    kernel.attempt_span = spans.wrap("span.negotiate", kernel.attempt_span)
    kernel.Simulator.run = spans.wrap("kernel.run",
                                      sim_run(kernel.Simulator.run))
    kernel.Simulator.run_until = spans.wrap(
        "kernel.run", sim_run(kernel.Simulator.run_until))
    snapshot.capture_simulator = capture
    snapshot.restore_simulator = timed_restore

    result = spans.wrap("campaign", run_campaign)(
        spec, jobs=1, fork=fork, profile=True)
    spans.wrap("report.write", CampaignResult.write_json)(result, report)
    stamps["report_written"] = time.monotonic()

    counters: dict = {}
    for point in result.points:
        for name, value in point.metrics["counters"].items():
            counters[name] = counters.get(name, 0) + value
    gauges = [point.metrics["gauges"] for point in result.points]
    executed = (result.fork_stats or {}).get(
        "executed", {"prefix_cycles": 0, "saved_cycles": 0})

    layer["scenario.load_s"] = spans.total("scenario.load")
    layer["scenario.expand_s"] = spans.total("scenario.expand")
    layer["scenario.points"] = len(points)
    layer["fork.plan_s"] = spans.total("fork.plan")
    layer["fork.snapshot_nodes"] = tree.snapshot_nodes if fork else 0
    layer["fork.prefix_cycles"] = executed["prefix_cycles"]
    layer["fork.saved_cycles"] = executed["saved_cycles"]
    elaborate = ("elaborate.build_system", "elaborate.attach_traffic",
                 "elaborate.install_control", "elaborate.warm_cache")
    layer["elaborate.s"] = spans.total(*elaborate)
    layer["elaborate.calls"] = spans.count("elaborate.build_system")
    layer["elaborate.components"] = components[0]

    ticks = counters.get("kernel.ticks_executed", 0)
    layer["kernel.run_s"] = spans.total("kernel.run")
    for name in ("ticks_executed", "ticks_skipped", "cycles_fast_forwarded",
                 "fast_forwards", "hooks_fired"):
        layer[f"kernel.{name}"] = counters.get(f"kernel.{name}", 0)
    layer["kernel.wakes"] = sum(
        v for k, v in counters.items() if k.startswith("wake."))
    layer["kernel.us_per_tick"] = 1e6 * layer["kernel.run_s"] / max(ticks, 1)

    attempts = spans.count("span.negotiate")
    entered = sum(sim.spans_entered for sim in sims)
    layer["span.attempts"] = attempts
    layer["span.entered"] = entered
    layer["span.hit_ratio"] = entered / attempts if attempts else 0.0
    layer["span.cycles_replayed"] = sum(
        sim.span_cycles_replayed for sim in sims)
    layer["span.negotiate_s"] = spans.total("span.negotiate")
    aborts: dict = {}
    for sim in sims:
        for cause, count in sim.span_aborts.items():
            aborts[cause] = aborts.get(cause, 0) + count
    unknown = set(aborts) - set(ABORT_CAUSES)
    if unknown:
        raise SystemExit(f"unlisted span-abort causes: {sorted(unknown)}")
    if attempts != entered + sum(aborts.values()):
        raise SystemExit("span attempts are not entered + aborted")
    for cause in ABORT_CAUSES:
        layer[f"span.abort.{cause}"] = aborts.get(cause, 0)

    layer["express.installed"] = counters.get("express.installed", 0)
    layer["express.cancelled"] = counters.get("express.cancelled", 0)
    for phase in ("tick", "express", "commit"):
        layer[f"kernel.{phase}_s"] = sum(
            g[f"phase.{phase}_seconds"] for g in gauges)

    tick_s = dict.fromkeys(TICK_PACKAGES, 0.0)
    tick_n = dict.fromkeys(TICK_PACKAGES, 0)
    for name, seconds, count in (
        row for point in result.points for row in point.profile or []
    ):
        package = packages[name]
        tick_s[package] += seconds
        tick_n[package] += count
    for package in TICK_PACKAGES:
        layer[f"tick.{package}_s"] = tick_s[package]
        layer[f"tick.{package}_ticks"] = tick_n[package]

    layer["snapshot.capture_s"] = spans.total("snapshot.capture")
    layer["snapshot.restore_s"] = spans.total("snapshot.restore")
    layer["snapshot.captures"] = spans.count("snapshot.capture")
    layer["snapshot.restores"] = spans.count("snapshot.restore")
    layer["snapshot.encoded_bytes"] = encoded_bytes[0]
    layer["report.collect_s"] = spans.total("report.collect")
    layer["report.write_s"] = spans.total("report.write")

    stamps["layer"] = layer
    stamps["self_s"] = spans.self_times()
    stamps["spans"] = spans.rows


def run_warm(scenario: str) -> None:
    import repro.cli  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.scenario.runner  # noqa: F401
    import repro.snapshot  # noqa: F401
    from repro.scenario import expand, load_file

    expand(load_file(scenario))


def main(argv: list[str]) -> None:
    mode, scenario, report, stamps_path, fork, sets = _parse(argv)
    stamps: dict = {}
    if mode == "plain":
        run_plain(scenario, report, fork, sets, stamps)
    elif mode == "oracle":
        run_plain(scenario, report, False, sets, stamps,
                  flags=("--naive-kernel", "--per-beat"))
    elif mode == "traced":
        run_traced(scenario, report, fork, sets, stamps)
    elif mode == "warm":
        run_warm(scenario)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(stamps_path).write_text(json.dumps(stamps), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
