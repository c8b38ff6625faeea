"""What `repro run` imports: a plain campaign loads only the modules its
command line and scenario need, every optional layer loads only when an
option or the scenario asks for it, and it loads before the first point
elaborates (so no import lands inside a timed run).  The public package
exports, which resolve on first use, must all still resolve."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tomllib
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"

#: Never loaded by a plain ``repro run scenarios/stream_steady.toml``.
PLAIN_RUN_SKIPS = (
    "asyncio",
    "ssl",
    "concurrent.futures.process",
    "repro.telemetry",
    "repro.lint",
    "repro.analysis.advisor",
    "repro.analysis.experiment",
    "repro.soc",
    "repro.area",
    "repro.baselines",
    "repro.interconnect.noc",
    "repro.traffic.malicious",
    "repro.snapshot",
)

#: Packages whose public names resolve on first attribute access.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.interconnect",
    "repro.lint",
    "repro.scenario",
    "repro.sim",
    "repro.snapshot",
    "repro.telemetry",
    "repro.traffic",
)

# Runs `repro.cli.main(argv)` and writes the loaded module names, both
# when the first point starts elaborating and at the end, as JSON.
_CHILD = """
import json, sys
import repro.cli
import repro.scenario.runner as runner

build_system = runner.build_system
seen = {}

def first_build(*args, **kwargs):
    seen.setdefault("at_first_point", sorted(sys.modules))
    return build_system(*args, **kwargs)

runner.build_system = first_build
code = repro.cli.main(sys.argv[2:])
seen["final"] = sorted(sys.modules)
seen["code"] = code
with open(sys.argv[1], "w") as fh:
    json.dump(seen, fh)
"""


def _python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def _run_modules(tmp_path: Path, *argv: str) -> dict:
    out = tmp_path / "modules.json"
    proc = _python("-c", _CHILD, str(out), "run", *argv, "--smoke",
                   "--jobs", "1", "--json", str(tmp_path / "report.json"))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(out.read_text())
    assert seen["code"] == 0
    return seen


def _loaded(modules: list[str], name: str) -> bool:
    return any(m == name or m.startswith(name + ".") for m in modules)


def test_plain_run_loads_no_optional_layer(tmp_path):
    seen = _run_modules(tmp_path, str(SCENARIOS / "stream_steady.toml"))
    loaded = [name for name in PLAIN_RUN_SKIPS
              if _loaded(seen["final"], name)]
    assert not loaded, f"a plain run imported {loaded}"


@pytest.mark.parametrize("scenario, flags, needs", [
    ("stream_steady.toml", (), ()),
    ("budget_grid.toml", ("--fork",), ("repro.snapshot.state",
                                       "repro.snapshot.store")),
    ("noc_hog.toml", (), ("repro.interconnect.noc",
                          "repro.traffic.malicious")),
    ("baseline_shootout.toml", (), ("repro.baselines",)),
    ("advisor_loop.toml", ("--profile",), ("repro.analysis.advisor",
                                           "repro.obs.recorder")),
])
def test_optional_layers_load_before_the_first_point(tmp_path, scenario,
                                                     flags, needs):
    seen = _run_modules(tmp_path, str(SCENARIOS / scenario), *flags)
    before = set(seen["at_first_point"])
    assert set(needs) <= before
    late = sorted(m for m in set(seen["final"]) - before
                  if m.startswith("repro"))
    assert not late, f"imported while points ran: {late}"


def test_checkpoint_option_loads_the_snapshot_layer(tmp_path):
    seen = _run_modules(tmp_path, str(SCENARIOS / "stream_steady.toml"),
                        "--checkpoint-every", "100000",
                        "--checkpoint-dir", str(tmp_path))
    assert "repro.snapshot.store" in seen["at_first_point"]


def test_every_lazy_export_resolves_and_is_listed():
    # In a fresh interpreter, so that nothing is imported beforehand.
    script = """
import sys
from importlib import import_module
bad = []
for package in sys.argv[1:]:
    module = import_module(package)
    listed = dir(module)
    for name in module.__all__:
        if name not in listed:
            bad.append(f"{package}.{name} missing from dir()")
        try:
            getattr(module, name)
        except AttributeError as exc:
            bad.append(f"{package}.{name}: {exc}")
print("\\n".join(bad))
"""
    proc = _python("-c", script, *LAZY_PACKAGES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_lazy_exports_behave_like_module_attributes():
    analysis = import_module("repro.analysis")
    from repro.analysis import ContentionExperiment
    from repro.analysis.experiment import ContentionExperiment as direct

    assert ContentionExperiment is direct
    assert analysis.ContentionExperiment is direct
    assert "ContentionExperiment" in vars(analysis)  # resolved once
    assert import_module("repro").analysis is analysis
    assert import_module("repro.snapshot").codec.SnapshotError
    with pytest.raises(AttributeError, match="no_such_name"):
        analysis.no_such_name  # noqa: B018


def test_lint_front_ends_still_work(capsys):
    from repro.cli import main

    assert main(["lint", "--list-rules"]) == 0
    listed = capsys.readouterr().out
    assert "snapshot-coverage" in listed

    # The `repro-lint` console script, as pyproject.toml declares it.
    scripts = tomllib.loads(
        (ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, func = scripts["repro-lint"].partition(":")
    assert getattr(import_module(module), func)(["--list-rules"]) == 0
    assert capsys.readouterr().out == listed
