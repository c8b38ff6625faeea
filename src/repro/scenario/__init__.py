"""Declarative scenario/campaign subsystem.

A scenario file (TOML or JSON) declares a complete experiment — topology,
traffic bindings, sweep grid, metrics — and this package validates it,
expands the campaign into concrete points with deterministic seeds, runs
them (sequentially or over a process pool), and aggregates the results
into JSON/CSV reports and golden-trace digests.

Typical use::

    from repro.scenario import load_file, run_campaign

    spec = load_file("scenarios/fig6a.toml")
    result = run_campaign(spec, jobs=4)
    print(result.format_table())
    result.write_json("fig6a_report.json")
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "errors": ("ScenarioError",),
    "fork": ("ForkNode", "ForkPlan", "ForkTree", "plan_fork",
             "plan_fork_tree"),
    "loader": ("dumps", "load_file", "loads"),
    "report": ("CampaignResult", "PointResult"),
    "runner": ("attach_traffic", "build_system", "collect_observables",
               "install_control", "run_campaign", "run_point"),
    "spec": ("AdviseSpec", "AxisSpec", "CampaignSpec", "ManagerScenario",
             "MemoryScenario", "PointSpec", "ProbesSpec", "RegulatorSpec",
             "RunSpec", "ScenarioSpec", "ScheduleActionSpec",
             "TopologySpec", "TrafficScenario", "WarmSpec",
             "realm_params_to_dict", "validate"),
    "sweep": ("ExpandedPoint", "apply_overrides", "apply_smoke",
              "axis_schedule_settable", "derive_seed", "expand",
              "set_by_path"),
})
