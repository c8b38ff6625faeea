"""Campaign benchmark for the AXI-REALM reproduction.

Runs one workload -- a shipped scenario at full scale, as a sequential
``repro run --jobs 1`` campaign -- again and again in fresh interpreters
for ``--seconds`` seconds, checks every point against a reference-mode
oracle, and prints the metrics named in ``BENCHMARK.json``::

    python3 perfbench/run.py --workload fig6a_until --seed 3 --seconds 35 \\
        --trace 0

``--trace 0`` reports the end-to-end host metrics of untraced campaigns,
each scaled to a reference host speed by the host-speed probe timed
just before and just after it (see ``PROBE_REF_S``).
``--trace 1`` alternates untraced and traced campaigns and reports the
per-layer metrics of the traced ones (see ``perfbench/README.md`` for
the layer map).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record, and in traced runs the recorded spans, are written
under ``.perfbench/``.  The exit status is 0 only when every point
matched the oracle and, in traced runs, every work counter repeated
exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# name -> (scenario file, fork-tree execution).  noc_hog.toml is left
# out: its host cost swings by about 1.7x with the seed, because on some
# seeds the core and the hog stop making progress part-way through a
# point (see perfbench/README.md), so no bound could hold across seeds.
WORKLOADS = {
    "stream_span": ("scenarios/stream_steady.toml", False),
    "fig6a_until": ("scenarios/fig6a.toml", False),
    "budget_fork": ("scenarios/budget_grid.toml", True),
}
CHILD = "perfbench/campaign.py"
PROBE = "perfbench/probe.py"
#: What ``perfbench/probe.py`` prints when it did all of its work.
PROBE_CHECKSUM = 1_400_050
#: The reference host speed: a host on which the probe takes this long.
#: A campaign's host times are multiplied by PROBE_REF_S over the mean
#: of the probes timed just before and just after it.  The host this
#: benchmark runs on (two vCPUs of a shared machine) slows down by up
#: to 2x for minutes at a time; the probe slows down with it, so the
#: scaled times stay put while the raw ones wander (see README.md).
PROBE_REF_S = 0.2
OUT = Path(".perfbench")
#: A campaign that runs longer than this counts as timed out: every
#: one of its points fails.
CAMPAIGN_TIMEOUT_S = 120.0
#: Traced campaigns per traced run; their work counters must agree.
MIN_TRACED = 2
#: Per-layer units whose values are work counts, not host times: they
#: must repeat exactly between traced campaigns of one run.
EXACT_UNITS = ("count", "cycles", "bytes", "ratio")
#: Per-layer units of host times, scaled like the end-to-end ones.
HOST_TIME_UNITS = ("s", "us")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def preflight(scenario: str) -> dict:
    """The benchmark spec, or exit 2 when the checkout is incomplete."""
    missing = [
        path for path in ("BENCHMARK.json", CHILD, PROBE,
                          "src/repro/cli.py", scenario)
        if not Path(path).is_file()
    ]
    if missing:
        print(f"perfbench: missing from the checkout: {', '.join(missing)}",
              file=sys.stderr)
        raise SystemExit(2)
    return json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))


def seed_overrides(scenario: str, seed: int) -> list[str]:
    """``--set`` items that route the workload seed into the scenario:
    ``scenario.seed`` plus every traffic seed the file pins (unpinned
    traffic seeds derive from ``scenario.seed`` already)."""
    import tomllib

    raw = tomllib.loads(Path(scenario).read_text(encoding="utf-8"))
    items = [f"scenario.seed={seed}"]
    for manager, binding in raw.get("traffic", {}).items():
        if "seed" in binding:
            items.append(f"traffic.{manager}.seed={seed}")
    return items


def source_hash(scenario: str) -> str:
    """Hash of everything the oracle's result depends on."""
    digest = hashlib.sha256()
    files = sorted(Path("src/repro").rglob("*.py"))
    for path in files + [Path(scenario), Path(CHILD)]:
        digest.update(str(path).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Campaign:
    """One spawned campaign: its outcome, stamps and resource usage."""

    def __init__(self, mode: str, scenario: str, fork: bool,
                 sets: list[str], tag: str) -> None:
        self.mode = mode
        base = OUT / "runs" / tag
        self.report_path = base.with_suffix(".report.json")
        stamps_path = base.with_suffix(".stamps.json")
        err_path = base.with_suffix(".stderr.txt")
        for path in (self.report_path, stamps_path):
            path.unlink(missing_ok=True)
        argv = [sys.executable, CHILD, mode, scenario,
                str(self.report_path), str(stamps_path)]
        if fork:
            argv.append("--fork")
        for item in sets:
            argv += ["--set", item]
        env = dict(os.environ, PYTHONPATH="src")
        with open(err_path, "w", encoding="utf-8") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                    stderr=err, env=env)
            status, usage = _wait(proc, start + CAMPAIGN_TIMEOUT_S)
        self.timed_out = status is None
        self.ok = status == 0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        #: Mean of the probes timed just before and after; set by main.
        self.probe_s = PROBE_REF_S
        self.stamps: dict = {}
        self.report = None
        if self.ok:
            self.stamps = json.loads(stamps_path.read_text(encoding="utf-8"))
            if self.report_path.is_file():
                self.report = json.loads(
                    self.report_path.read_text(encoding="utf-8"))
            written = self.stamps.get("report_written", start)
            self.wall_s = written - start
            self.setup_s = self.stamps.get("setup_end", written) - start
        else:
            tail = err_path.read_text(encoding="utf-8")[-2000:]
            reason = "timed out" if self.timed_out else f"exit {status}"
            print(f"perfbench: {mode} campaign {reason}:\n{tail}",
                  file=sys.stderr)

    def digest(self) -> dict:
        """``CampaignResult.digest()`` as read back from the report."""
        if self.report is None:
            return {}
        return {p["label"]: p["observables"] for p in self.report["points"]}

    def sim_cycles(self) -> int:
        return sum(p["sim_cycles"] for p in self.report["points"])

    def scaled(self, seconds: float) -> float:
        """*seconds* of this campaign at the reference host speed."""
        return seconds * PROBE_REF_S / self.probe_s


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap *proc* with its own rusage; kill it at *deadline*.

    Returns ``(exit status or None when killed, rusage)``.
    """
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > deadline:
                proc.kill()
                _, _, usage = os.wait4(proc.pid, 0)
                proc.returncode = -9
                return None, usage
            time.sleep(0.02)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
        raise


def probe() -> float:
    """Seconds one run of the host-speed probe takes, spawn included."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, PROBE], capture_output=True,
                         text=True, timeout=60, check=True).stdout
    seconds = time.monotonic() - start
    if out.split() != [str(PROBE_CHECKSUM)]:
        raise SystemExit(f"perfbench: the probe printed {out!r}")
    return seconds


def oracle_digest(workload: str, scenario: str, sets: list[str],
                  seed: int) -> dict:
    """Reference-mode digest, computed once per (source, workload, seed)
    and cached under ``.perfbench/oracle``; never timed."""
    cache = OUT / "oracle" / f"{workload}-s{seed}-{source_hash(scenario)}.json"
    if cache.is_file():
        return json.loads(cache.read_text(encoding="utf-8"))
    run = Campaign("oracle", scenario, False, sets, f"{workload}-oracle")
    if not run.ok:
        raise SystemExit("perfbench: the reference-mode oracle failed")
    digest = run.digest()
    cache.write_text(json.dumps(digest), encoding="utf-8")
    return digest


def failed_points(run: Campaign, oracle: dict) -> int:
    """Points that raised, timed out, or differ from the oracle."""
    if not run.ok:
        return len(oracle)
    got = run.digest()
    return sum(1 for label, obs in oracle.items() if got.get(label) != obs)


def conditions() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "warmup": "one untimed warm-up interpreter compiles the .pyc "
                  "files and loads the scenario before timing; the "
                  "oracle is computed (or read from cache) before timing",
        "host_times": f"scaled to a host where {PROBE} takes "
                      f"{PROBE_REF_S} s, by the probes around each campaign",
    }


def end_to_end(runs: list[Campaign], attempted: int, failed: int) -> dict:
    ok = [r for r in runs if r.ok]
    if not ok:
        return {}
    med = statistics.median
    return {
        "wall_s": med(r.scaled(r.wall_s) for r in ok),
        "cpu_s": med(r.scaled(r.cpu_s) for r in ok),
        "setup_s": med(r.scaled(r.setup_s) for r in ok),
        "sim_cycles_per_s": med(
            r.sim_cycles() / r.scaled(r.wall_s - r.setup_s) for r in ok),
        "peak_rss_mb": med(r.peak_rss_mb for r in ok),
        "point_success_rate": (attempted - failed) / attempted,
    }


def per_layer(plain: list[Campaign], traced: list[Campaign],
              units: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics (median over traced campaigns, host times at
    the reference host speed) and the work counters that did not repeat
    exactly between them."""
    exact = [name for name, unit in units.items() if unit in EXACT_UNITS]
    layers = [
        {name: r.scaled(value) if units.get(name) in HOST_TIME_UNITS
         else value for name, value in r.stamps["layer"].items()}
        for r in traced if r.ok
    ]
    plain_ok = [r for r in plain if r.ok]
    if not layers or not plain_ok:
        return {}, []
    metrics = {
        name: layers[0][name] if name in exact
        else statistics.median(layer[name] for layer in layers)
        for name in layers[0]
    }
    untraced = statistics.median(r.scaled(r.wall_s) for r in plain_ok)
    traced_wall = statistics.median(
        r.scaled(r.wall_s) for r in traced if r.ok)
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / untraced - 1.0)
    metrics["host.probe_s"] = statistics.median(
        r.probe_s for r in plain_ok + traced)
    drift = [
        name for name in exact
        if len({json.dumps(layer[name]) for layer in layers}) != 1
    ]
    return metrics, drift


def main(argv=None) -> int:
    # SIGTERM unwinds like Ctrl-C, so the running campaign is killed and
    # reaped (see _wait) instead of being orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    args = parse_args(argv)
    scenario, fork = WORKLOADS[args.workload]
    bench = preflight(scenario)
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "oracle").mkdir(parents=True, exist_ok=True)
    run_conditions = conditions()
    print(f"conditions: {json.dumps(run_conditions)}", flush=True)

    sets = seed_overrides(scenario, args.seed)
    oracle = oracle_digest(args.workload, scenario, sets, args.seed)
    if not Campaign("warm", scenario, fork, sets,
                    f"{args.workload}-warm").ok:
        raise SystemExit("perfbench: the warm-up interpreter failed")

    plain: list[Campaign] = []
    traced: list[Campaign] = []
    start = time.monotonic()
    rounds: list[float] = []
    before = probe()

    def measured(mode: str) -> Campaign:
        nonlocal before
        run = Campaign(mode, scenario, fork, sets, f"{args.workload}-{mode}")
        after = probe()
        run.probe_s = (before + after) / 2
        before = after
        return run

    while True:
        began = time.monotonic()
        plain.append(measured("plain"))
        if args.trace:
            traced.append(measured("traced"))
        rounds.append(time.monotonic() - began)
        # Stop when another round would end past --seconds, so a run
        # measures for about --seconds instead of overshooting by up to
        # a whole round.
        ends = time.monotonic() + statistics.median(rounds) - start
        done = ends > args.seconds
        if done and (not args.trace or len(traced) >= MIN_TRACED):
            break

    runs = plain + traced
    attempted = len(oracle) * len(runs)
    failed = sum(failed_points(r, oracle) for r in runs)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    drift: list[str] = []
    if args.trace:
        units = {m["name"]: m["unit"] for m in wanted}
        values, drift = per_layer(plain, traced, units)
    else:
        values = end_to_end(plain, attempted, failed)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    correct = failed == 0 and not drift and not missing
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in values
    }

    for name, metric in metrics.items():
        print(f"{name:<28} {metric['value']:>16.6g} {metric['unit']}")
    print(f"campaigns: {len(plain)} untraced, {len(traced)} traced; "
          f"points: {attempted} attempted, {failed} failed "
          f"(point_error_rate {failed / attempted:.6g})")
    if drift:
        print(f"work counters differ between traced runs: {drift}")
    if missing:
        print(f"metrics not produced: {missing}")

    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "overrides": sets,
        "conditions": run_conditions, "correct": correct,
        "metrics": metrics, "counter_drift": drift,
        "campaigns": [
            {k: getattr(r, k, None) for k in
             ("mode", "ok", "timed_out", "wall_s", "setup_s", "cpu_s",
              "peak_rss_mb", "probe_s")}
            for r in runs
        ],
    }
    if traced and traced[0].ok:
        record["self_s"] = traced[0].stamps["self_s"]
        spans = {
            "columns": ["name", "id", "start", "end", "parent"],
            "campaigns": [r.stamps["spans"] for r in traced if r.ok],
        }
        (OUT / f"{tag}.spans.json").write_text(json.dumps(spans),
                                               encoding="utf-8")
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2),
                                     encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
