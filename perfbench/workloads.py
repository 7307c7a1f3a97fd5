"""Benchmark workloads: one paper preset x scheme each, with the run length
fixed here so that every commit measures the same simulated work."""

from __future__ import annotations

from dataclasses import dataclass, field

# Entry points that every workload calls at least once; a traced run that
# records 0 calls on one of them has patched a name nobody looks up.
COMMON_FIRES = (
    "config.resolve", "config.build_run_config", "engine.Simulation",
    "mobility.generate_scenario", "engine.Simulation.run", "mobility.step",
    "dcc.smooth_density", "mac_sps.select_candidates",
    "mac_sps.SensingStore.record_subframe", "mac_sps.SensingStore.cbp_counts",
    "mac_sps.on_transmission", "channel.resolve_subframe",
    "metrics.MetricsStore.record_arrays", "metrics.MetricsStore.update_roi",
    "metrics.pdr", "metrics.slt", "metrics.ipg_stats", "metrics.blind_nodes",
    "metrics.write_ipg_csv", "engine.EventLog.write_csv", "engine.EventLog.digest",
    "cli.write_outputs",
)
# Rate and range control run only under an enabled DCC scheme.
DCC_CONTROL = ("dcc.compute_itt", "dcc.update_power")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    scheme: str
    overrides: dict = field(default_factory=dict)
    fires: tuple[str, ...] = COMMON_FIRES

    @property
    def duration_s(self) -> float:
        return float(self.overrides["run.duration_s"])


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("freeway-dense", "freeway-low", "baseline",
             {"run.duration_s": 2.0, "run.warmup_s": 1.0}),
    Workload("freeway-reselect", "freeway-high", "dcc-7",
             {"run.duration_s": 2.0, "run.warmup_s": 1.0, "scenario.speed_sigma": 1.0},
             fires=COMMON_FIRES + DCC_CONTROL),
    Workload("ring-sparse", "mini-low", "baseline",
             {"run.duration_s": 6.0, "run.warmup_s": 1.0}),
    # Not listed in BENCHMARK.json: a sub-second run for the benchmark's own tests.
    Workload("tiny", "mini-low", "baseline",
             {"run.duration_s": 0.5, "run.warmup_s": 0.2}),
)}
