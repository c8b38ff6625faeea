"""Every probe is kernel-neutral: sampling the whole probe namespace
gives the same report in both supported execution modes.

The golden traces lock only the probes each scenario chooses to
sample.  Here every shipped scenario, at smoke scale, samples ``*``
every 97 cycles (off every period edge the scenarios use) on the
reference oracle (naive kernel, per-beat datapath, no span replay) and
on the fast stack (active set, batched datapath, span replay).  A probe
that reads execution strategy instead of modelled state — span-replay
statistics, say — shows up as a report difference (DESIGN.md
section 11).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.scenario import load_file, run_campaign
from repro.scenario.spec import validate

SCENARIOS = sorted(
    (Path(__file__).resolve().parent.parent / "scenarios").glob("*.toml")
)

EVERY = 97


def _report(spec, **mode) -> dict:
    report = run_campaign(spec, smoke=True, **mode).to_json_dict()
    del report["active_set"], report["batched"]  # the mode itself
    return report


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_sampling_every_probe_is_mode_neutral(path: Path):
    tree = load_file(path).to_dict()
    tree["probes"] = {"sample": ["*"], "every": EVERY}
    spec = validate(tree)
    reference = _report(spec, active_set=False, batched=False)
    fast = _report(spec, active_set=True, batched=True)
    assert any(
        point["observables"]["control"]["series"]
        for point in reference["points"]
    ), "the sampler recorded nothing"
    assert fast == reference
