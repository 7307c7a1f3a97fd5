"""One benchmark run in a fresh process.

Makes the calls that `cv2xsim.cli.execute_run` makes, timing each phase,
and prints one JSON line with the timings, peak RSS and the run's event-log
digest. With a trace file it also wraps every module entry point
(perfbench/tracer.py) and adds the per-layer split.

Usage: python3 perfbench/child.py '<json spec>'  (spec written by run.py)
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402 - imports after T0 count as set-up
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec: dict) -> dict:
    import cv2xsim
    from cv2xsim import cli, config, engine

    tracer = None
    if spec["trace_file"]:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    def call(name, fn):
        return tracer.wrap(name, fn) if tracer else fn

    resolved = call("config.resolve", config.resolve)(
        None, spec["overrides"], scenario=spec["scenario"], scheme=spec["scheme"],
        seed=spec["seed"])
    cfg = call("config.build_run_config", config.build_run_config)(resolved)
    sim = call("engine.Simulation", engine.Simulation)(cfg)
    t_setup, rss_setup = time.perf_counter(), _peak_rss_mb()
    result = call("engine.Simulation.run", sim.run)()
    t_run, rss_run = time.perf_counter(), _peak_rss_mb()
    summary = call("cli.write_outputs", cli.write_outputs)(Path(spec["out_dir"]), resolved, result)
    t_out, rss_out = time.perf_counter(), _peak_rss_mb()

    out = {
        "cv2xsim_file": cv2xsim.__file__,
        "setup_s": t_setup - T0,
        "run_s": t_run - t_setup,
        "output_s": t_out - t_run,
        "wall_s": t_out - T0,
        "peak_rss_mb": rss_out,
        "mem": {"setup_mb": rss_setup, "step_mb": rss_run - rss_setup,
                "output_mb": rss_out - rss_run},
        "subframes": sim.total_sf,
        "tx_events": len(result.event_log.tx_events),
        "event_log_digest": summary["event_log_digest"],
    }
    if tracer:
        tracer.write(spec["trace_file"])
        out["layers"] = tracer.layers()
        out["counters"] = dict(tracer.counters)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
