"""Benchmark for cv2xsim: host time, simulation speed and memory of one run.

    python3 perfbench/run.py --workload freeway-dense --seed 1 --seconds 44 --trace 0

Runs the workload again and again, each time in a fresh single-threaded
child process (perfbench/child.py), as many at once as there are CPUs, until
--seconds have passed (at least MIN_RUNS runs). Every run's output files are checked:
against the digests pinned in perfbench/pins.json when the seed is pinned,
otherwise against the first run of this invocation, whose digests are
printed. A run that raises, exits non-zero, times out or writes other
outputs counts as failed.

With --trace 0 the last stdout line carries the end-to-end metrics, medians
over the runs. With --trace 1 traced and untraced runs alternate and it
carries the per-layer metrics of the traced runs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import COMMON_FIRES, DCC_CONTROL, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"
PINS = HERE / "pins.json"
PINNED_FILES = ("pdr_vs_distance.csv", "slt_vs_distance.csv", "ipg.csv",
                "blind_nodes.csv", "timeseries.csv", "txevents.csv")
MIN_RUNS = 4
# As many children at once as there are CPUs, as `cv2xsim sweep` runs its pool.
WORKERS = len(os.sched_getaffinity(0))
DEADLINE_S = 170.0          # the whole command must finish within 180 s

END_TO_END = (("sim_speed", "sim_s/s"), ("setup_s", "s"), ("output_s", "s"),
              ("wall_s", "s"), ("peak_rss_mb", "MiB"))

ENTRY_POINTS = COMMON_FIRES + DCC_CONTROL
PER_LAYER = tuple(
    [(f"{e}.calls", "count") for e in ENTRY_POINTS]
    + [(f"{e}.s", "s") for e in ENTRY_POINTS]
    + [("engine.step_self_s", "s"), ("cli.write_outputs.self_s", "s"),
       ("engine.subframes", "count"), ("engine.tx_events", "count"),
       ("mac_sps.reservations_scanned", "count"), ("mac_sps.escalations", "count"),
       ("mac_sps.kept_ratio", "ratio"), ("channel.links", "count"),
       ("channel.decoded_ratio", "ratio"), ("metrics.pairs_recorded", "count"),
       ("metrics.ecdf_rows", "count"), ("mem.setup_mb", "MiB"), ("mem.step_mb", "MiB"),
       ("mem.output_mb", "MiB"), ("trace.overhead_pct", "%")])


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(w: Workload, seed: int, out_dir: Path, trace_file: Path | None,
              timeout_s: float) -> dict:
    """One run in a fresh process; raises RuntimeError when it fails."""
    spec = {"scenario": w.scenario, "scheme": w.scheme, "seed": seed,
            "overrides": w.overrides, "out_dir": str(out_dir),
            "trace_file": str(trace_file) if trace_file else None}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"timed out after {timeout_s:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise RuntimeError(f"exit code {proc.returncode}: {tail[0]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("child printed no result")
    result = json.loads(lines[-1])
    if Path(result["cv2xsim_file"]).resolve().parent != ROOT / "src" / "cv2xsim":
        raise RuntimeError(f"imported cv2xsim from {result['cv2xsim_file']}, not this checkout")
    return result


def output_digests(out_dir: Path, event_log_digest: str) -> dict[str, str]:
    digests = {"event_log": event_log_digest}
    for name in PINNED_FILES:
        digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    return digests


def check_outputs(out_dir: Path, result: dict, expected: dict[str, str] | None) -> list[str]:
    """Problems with one run's outputs; empty when they are correct."""
    missing = [n for n in PINNED_FILES if not (out_dir / n).is_file()]
    if missing:
        return [f"missing output {n}" for n in missing]
    problems = []
    with open(out_dir / "txevents.csv") as f:
        rows = sum(1 for _ in f) - 1
    if rows != result["tx_events"] or rows == 0:
        problems.append(f"txevents.csv has {rows} rows, the event log {result['tx_events']}")
    with open(out_dir / "pdr_vs_distance.csv") as f:
        next(f)
        if any(not 0.0 <= float(line.split(",")[2]) <= 1.0 for line in f):
            problems.append("pdr_vs_distance.csv has a ratio outside [0, 1]")
    if expected is not None:
        got = output_digests(out_dir, result["event_log_digest"])
        problems += [f"{k} digest {got.get(k)} != expected {v}"
                     for k, v in expected.items() if got.get(k) != v]
    return problems


def fire_problems(w: Workload, layers: dict) -> list[str]:
    return [f"traced entry point {e} recorded 0 calls" for e in w.fires
            if layers.get(e, {}).get("calls", 0) == 0]


def load_pins(workload: str, seed: int) -> dict[str, str] | None:
    pin = json.loads(PINS.read_text()).get(workload)
    if pin is None or pin["seed"] != seed:
        return None
    return pin["digests"]


def measure(w: Workload, seed: int, seconds: float, trace: bool, t_start: float):
    """Run children, WORKERS at a time, until `seconds` have passed. Returns
    the untraced and traced results, runs attempted and failed, the digests
    the runs were checked against, and whether those were pinned."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    expected = load_pins(w.name, seed)
    pinned = expected is not None
    runs: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    longest = 0.0
    pending: dict[concurrent.futures.Future, tuple[Path, bool, float]] = {}
    with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        while True:
            while len(pending) < WORKERS:
                elapsed = time.perf_counter() - t_start
                if attempted >= MIN_RUNS and elapsed + longest > seconds:
                    break
                if attempted and elapsed + longest > DEADLINE_S - 10:
                    break
                if failed >= MIN_RUNS and not (runs[False] or runs[True]):
                    break
                traced = trace and attempted % 2 == 1
                out_dir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_DIR))
                fut = pool.submit(run_child, w, seed, out_dir,
                                  out_dir / "trace.json" if traced else None,
                                  max(1.0, DEADLINE_S - elapsed))
                pending[fut] = (out_dir, traced, time.perf_counter())
                attempted += 1
            if not pending:
                break
            done, _ = concurrent.futures.wait(pending, return_when=concurrent.futures.FIRST_COMPLETED)
            for fut in done:
                out_dir, traced, started = pending.pop(fut)
                longest = max(longest, time.perf_counter() - started)
                try:
                    result = fut.result()
                    problems = check_outputs(out_dir, result, expected)
                    if traced:
                        problems += fire_problems(w, result["layers"])
                        os.replace(out_dir / "trace.json",
                                   WORK_DIR / f"{w.name}-seed{seed}.trace.json")
                    if expected is None and not problems:
                        expected = output_digests(out_dir, result["event_log_digest"])
                except (RuntimeError, ValueError, KeyError, OSError) as e:
                    problems = [str(e)]
                finally:
                    shutil.rmtree(out_dir, ignore_errors=True)
                if problems:
                    failed += 1
                    for p in problems:
                        print(f"perfbench: {w.name} seed {seed} run failed: {p}", file=sys.stderr)
                else:
                    runs[traced].append(result)
    return runs[False], runs[True], attempted, failed, expected, pinned


def end_to_end(w: Workload, runs: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {"sim_speed": med(w.duration_s / r["run_s"] for r in runs),
            "setup_s": med(r["setup_s"] for r in runs),
            "output_s": med(r["output_s"] for r in runs),
            "wall_s": med(r["wall_s"] for r in runs),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in runs)}


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    med = statistics.median
    out: dict[str, float] = {}
    for e in ENTRY_POINTS:
        rows = [r["layers"].get(e, {"calls": 0, "s": 0.0, "self_s": 0.0}) for r in traced]
        out[f"{e}.calls"] = rows[0]["calls"]
        out[f"{e}.s"] = med(row["s"] for row in rows)
    out["engine.step_self_s"] = med(r["layers"]["engine.Simulation.run"]["self_s"] for r in traced)
    out["cli.write_outputs.self_s"] = med(r["layers"]["cli.write_outputs"]["self_s"] for r in traced)
    first = traced[0]
    c = first["counters"]
    out["engine.subframes"] = first["subframes"]
    out["engine.tx_events"] = first["tx_events"]
    out["mac_sps.reservations_scanned"] = c.get("reservations_scanned", 0)
    out["mac_sps.escalations"] = c.get("escalations", 0)
    out["mac_sps.kept_ratio"] = c["kept"] / c["pool"]
    out["channel.links"] = c["links"]
    out["channel.decoded_ratio"] = c["decoded"] / c["links"]
    out["metrics.pairs_recorded"] = c.get("pairs_recorded", 0)
    out["metrics.ecdf_rows"] = c.get("ecdf_rows", 0)
    for k in ("setup_mb", "step_mb", "output_mb"):
        out[f"mem.{k}"] = med(r["mem"][k] for r in traced)
    out["trace.overhead_pct"] = 100.0 * (med(r["run_s"] for r in traced)
                                         / med(r["run_s"] for r in untraced) - 1.0)
    return out


def main(argv: list[str] | None = None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cv2xsim" / "__init__.py").is_file():
        print(f"perfbench: no cv2xsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    untraced, traced, attempted, failed, digests, pinned = measure(
        w, args.seed, args.seconds, bool(args.trace), t_start)
    if not untraced or (args.trace and not traced):
        print(f"perfbench: {w.name}: no successful run to measure", file=sys.stderr)
        return 1

    e2e = end_to_end(w, untraced)
    units = dict(END_TO_END)
    print(f"perfbench {w.name} ({w.scenario} x {w.scheme}, seed {args.seed}, "
          f"{w.duration_s:g} sim s per run): {attempted} runs, {failed} failed, "
          f"{len(untraced)} untraced")
    for name, value in e2e.items():
        print(f"  {name:<14} {value:12.6g} {units[name]}  (median of {len(untraced)})")
    print(f"  {'failed_share':<14} {failed / attempted:12.6g} ratio  (of {attempted})")
    if pinned:
        print(f"  outputs checked against the digests pinned for seed {args.seed}")
    else:
        print(f"  seed {args.seed} is not pinned; outputs checked against the first run's digests:")
        for k, v in digests.items():
            print(f"    {k}: {v}")

    if args.trace:
        values, units = per_layer(traced, untraced), dict(PER_LAYER)
        print(f"  per-layer split, median of {len(traced)} traced runs:")
        for name, value in values.items():
            shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
            print(f"    {name:<42} {shown} {units[name]}")
    else:
        values = e2e
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
