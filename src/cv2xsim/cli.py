"""Command-line entry points: single runs, baseline-vs-scheme sweeps, config
validation, and preset listing.

A sweep computes each `gains__<scenario>__<scheme>.csv` in memory from the PDR
and SLT bins its jobs return, one (scheme, baseline) pair of runs per seed.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from pathlib import Path

from . import __version__, config, dcc, engine, metrics, mobility


def _parse_sets(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise config.ConfigError(f"--set expects section.key=value, got {pair!r}")
        out[key.strip()] = value.strip()
    return out


def _out_root(explicit: str | None) -> Path:
    return Path(explicit or os.environ.get("CV2XSIM_OUT", "runs"))


def _resolve_from_args(args) -> dict[str, object]:
    file_values = config.read_config_file(args.config) if args.config else None
    overrides = _parse_sets(args.set)
    return config.resolve(file_values, overrides, scenario=args.scenario,
                          scheme=args.scheme, seed=args.seed)


def write_outputs(out_dir: Path, resolved: dict[str, object],
                  result: engine.RunResult) -> dict:
    """Emit the full artifact set for one run and return its summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    config.write_manifest(out_dir / "manifest.json", resolved, __version__)

    store = result.metrics
    # one pass over the ledger: the SLT bins' pass gives the PDR bins too
    slt_rows = metrics.slt(store, result.observation_s)
    pdr_rows = metrics.pdr(store)
    ipg = metrics.ipg_stats(store)
    blind = metrics.blind_nodes(store)
    metrics.write_bin_csv(out_dir / "pdr_vs_distance.csv", pdr_rows, "pdr")
    metrics.write_bin_csv(out_dir / "slt_vs_distance.csv", slt_rows, "slt_bytes_per_s")
    metrics.write_ipg_csv(out_dir / "ipg.csv", ipg)
    metrics.write_blind_csv(out_dir / "blind_nodes.csv", blind)
    metrics.write_timeseries_csv(out_dir / "timeseries.csv", result.timeseries)
    result.event_log.write_csv(out_dir / "txevents.csv")

    warmup = result.config.warmup_s
    post = [row for row in result.timeseries if row[0] >= warmup]

    def post_mean(col: int) -> float | None:
        # no sample after warm-up: there is no mean, and 0 would read as one
        return sum(r[col] for r in post) / len(post) if post else None

    summary = {
        "n_ue": result.n_ue,
        "observation_s": result.observation_s,
        "tx_events": len(result.event_log.tx_events),
        "event_log_digest": result.event_log.digest(),
        "mean_cbp_pct": post_mean(1),
        "mean_power_dbm": post_mean(2),
        "mean_itt_ms": post_mean(3),
        "blind_ue_count": blind.blind_ue_count,
        "blind_pairs": len(blind.pairs),
        "collided_by_second": {str(k): v for k, v in sorted(result.collided_by_second().items())},
    }
    with open(out_dir / "summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    return summary


def execute_run(resolved: dict[str, object], out_dir: Path) -> tuple[dict, metrics.RunBins]:
    """Build, run and write one run; return its summary and (PDR, SLT) bins,
    read from the ledger pass that `write_outputs` made."""
    cfg = config.build_run_config(resolved)
    result = engine.run(cfg)
    summary = write_outputs(out_dir, resolved, result)
    return summary, (metrics.pdr(result.metrics),
                     metrics.slt(result.metrics, result.observation_s))


def _run_name(resolved: dict[str, object]) -> str:
    """The directory of one run under the output root."""
    return f"{resolved['run.scenario']}__{resolved['run.scheme']}__seed{resolved['run.seed']}"


def _cmd_run(args) -> int:
    resolved = _resolve_from_args(args)
    out_dir = Path(args.out) if args.out else _out_root(None) / _run_name(resolved)
    summary, _ = execute_run(resolved, out_dir)
    print(f"run complete: {out_dir}")
    print(f"  tx_events={summary['tx_events']} blind_ues={summary['blind_ue_count']} "
          f"mean_itt={_shown(summary['mean_itt_ms'], 'ms')} "
          f"mean_cbp={_shown(summary['mean_cbp_pct'], '%')}")
    return 0


def _shown(value: float | None, unit: str) -> str:
    return "n/a" if value is None else f"{value:.1f}{unit}"


def _sweep_axis(text: str, option: str, parse=str) -> list:
    """The comma-separated entries of one sweep option, parsed, each once."""
    values = []
    for entry in filter(None, (e.strip() for e in text.split(","))):
        try:
            value = parse(entry)
        except ValueError:
            raise config.ConfigError(f"{option}: {entry!r} is not an integer") from None
        if value in values:
            raise config.ConfigError(f"{option}: {entry!r} is given twice")
        values.append(value)
    return values


def _cmd_sweep(args) -> int:
    scenarios = _sweep_axis(args.scenarios, "--scenarios")
    schemes = _sweep_axis(args.schemes, "--schemes")
    seeds = _sweep_axis(args.seeds, "--seeds", parse=int)
    if not scenarios or not schemes or not seeds:
        raise config.ConfigError("sweep needs at least one scenario, scheme, and seed")
    if args.workers is not None and args.workers < 1:
        raise config.ConfigError(f"--workers must be at least 1, got {args.workers}")
    file_values = config.read_config_file(args.config) if args.config else None
    overrides = _parse_sets(args.set)
    root = _out_root(args.out)

    # every job's config is built, and so checked, before any job starts
    jobs = {}       # (scenario, scheme, seed) -> (tag, resolved config)
    for scenario in scenarios:
        for scheme in schemes:
            for seed in seeds:
                tag = f"{scenario}/{scheme}/seed{seed}"
                resolved = config.resolve(file_values, overrides, scenario=scenario,
                                          scheme=scheme, seed=seed)
                try:
                    config.build_run_config(resolved)
                except config.ConfigError as e:
                    raise config.ConfigError([f"{tag}: {err}" for err in e.errors]) from None
                jobs[scenario, scheme, seed] = (tag, resolved)

    bins = {}       # (scenario, scheme, seed) -> the run's (PDR, SLT) bins
    failures = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
        futures = {pool.submit(execute_run, resolved, root / _run_name(resolved)): (job, tag)
                   for job, (tag, resolved) in jobs.items()}
        for fut in concurrent.futures.as_completed(futures):
            job, tag = futures[fut]
            try:
                _, bins[job] = fut.result()
                print(f"done {tag}")
            except Exception as e:  # noqa: BLE001 - sweep reports every failure
                failures.append(f"{tag}: {e}")
    if failures:
        print("sweep failed:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 3

    # per-scheme gains against the baseline run of the same scenario and seed
    if "baseline" in schemes:
        for scenario in scenarios:
            for scheme in schemes:
                if scheme != "baseline":
                    pairs = [(bins[scenario, scheme, seed], bins[scenario, "baseline", seed])
                             for seed in seeds]
                    metrics.write_gains_csv(root / f"gains__{scenario}__{scheme}.csv",
                                            metrics.gains(pairs))
    print(f"sweep complete: {len(jobs)} runs under {root}")
    return 0


def _cmd_validate(args) -> int:
    resolved = _resolve_from_args(args)
    config.build_run_config(resolved)
    print("configuration OK; resolved values:")
    for key in sorted(resolved):
        print(f"  {key} = {resolved[key]}")
    return 0


def _cmd_presets(_args) -> int:
    columns = {f"scenario.{key}" for key in ("vehicle_count", "speed_kmh", "road_length_km",
                                              "wraparound")}
    print("scenario presets:")
    for name, keys in mobility.PRESETS.items():
        p = mobility.ScenarioConfig(**config.section(config.resolve(scenario=name), "scenario"))
        print(f"  {name:16s} {p.vehicle_count:5d} vehicles  "
              f"{p.density_veh_km_lane:6.1f} veh/(km.lane)  {p.speed_kmh:5.1f} km/h  "
              f"{p.road_length_km:.1f} km {'ring' if p.wraparound else 'road'}"
              + "".join(f"  {key}={value}" for key, value in keys.items() if key not in columns))
    print("congestion-control schemes:")
    for name, keys in dcc.SCHEMES.items():
        print(f"  {name:8s} " + "  ".join(f"{key}={value}" for key, value in keys.items()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cv2xsim",
                                     description="C-V2X mode-4 sidelink simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI config file or a prior run's manifest.json")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override one resolved value (repeatable)")

    p_run = sub.add_parser("run", help="execute one simulation")
    add_common(p_run)
    p_run.add_argument("--scenario", help="scenario preset name")
    p_run.add_argument("--scheme", help="congestion-control scheme name")
    p_run.add_argument("--seed", type=int, help="run seed")
    p_run.add_argument("--out", help="output directory (default: $CV2XSIM_OUT/<auto>)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario x scheme x seed grid")
    add_common(p_sweep)
    p_sweep.add_argument("--scenarios", required=True, help="comma-separated preset names")
    p_sweep.add_argument("--schemes", required=True, help="comma-separated scheme names")
    p_sweep.add_argument("--seeds", required=True, help="comma-separated integers")
    p_sweep.add_argument("--workers", type=int, default=None, help="parallel worker count")
    p_sweep.add_argument("--out", help="output root (default: $CV2XSIM_OUT or ./runs)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="check a configuration without running")
    add_common(p_val)
    p_val.add_argument("--scenario", help="scenario preset name")
    p_val.add_argument("--scheme", help="congestion-control scheme name")
    p_val.add_argument("--seed", type=int, help="run seed")
    p_val.set_defaults(func=_cmd_validate)

    p_presets = sub.add_parser("presets", help="list scenario and scheme presets")
    p_presets.set_defaults(func=_cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except config.ConfigError as e:
        print(f"configuration error:\n{e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
