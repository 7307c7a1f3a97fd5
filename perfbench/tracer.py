"""Spans and counters around the public entry points of each cv2xsim module.

Every wrapper replaces the name its caller looks up at call time: the engine
imports `resolve_subframe` by name, so the span goes on
`engine.resolve_subframe`; the engine reaches selection through
`mac_sps.select_resource`, which looks up the module-level
`select_candidates`; store and log methods are patched on their classes.
Spans stay in memory until `write` is called at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, parent index or -1, start ns, end ns]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return `fn` recording one span per call; `count(counters, args,
        result)` runs after the span closes, so its cost is not the layer's."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if count is not None:
                count(counters, args, result)
            return result
        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (the span
        minus the part its child spans cover)."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, _parent, start, end), inner in zip(self.spans, child_ns):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - inner) / 1e9
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as f:
            json.dump({"names": names, "counters": dict(self.counters),
                       "spans": [[index[n], p, a, b] for n, p, a, b in self.spans]}, f)


def _count_selection(counters, args, result) -> None:
    counters["reservations_scanned"] += len(args[0].store.reservations)
    counters["escalations"] += result.escalations
    counters["kept"] += len(result.candidates)
    counters["pool"] += result.pool_size


def _count_links(counters, args, result) -> None:
    from cv2xsim.channel import Outcome
    counters["links"] += result.outcome.size - int(result.is_transmitting.sum())
    counters["decoded"] += int((result.outcome == Outcome.DECODED).sum())


def _count_pairs(counters, args, result) -> None:
    counters["pairs_recorded"] += len(args[2])


def _count_ecdf(counters, args, result) -> None:
    counters["ecdf_rows"] += int(result.ecdf_gaps_ms.size)


def install(tracer: Tracer) -> None:
    """Patch the entry points that the engine and `cli.write_outputs` call.
    The benchmark wraps the five calls it makes itself (config, Simulation,
    run, write_outputs) at the call site."""
    from cv2xsim import dcc, engine, mac_sps, metrics, mobility

    tracer.patch(mobility, "generate_scenario", "mobility.generate_scenario")
    tracer.patch(mobility, "step", "mobility.step")
    for fn in ("smooth_density", "compute_itt", "update_power"):
        tracer.patch(dcc, fn, f"dcc.{fn}")
    tracer.patch(mac_sps, "select_candidates", "mac_sps.select_candidates", _count_selection)
    tracer.patch(mac_sps, "on_transmission", "mac_sps.on_transmission")
    for fn in ("record_subframe", "cbp_counts"):
        tracer.patch(mac_sps.SensingStore, fn, f"mac_sps.SensingStore.{fn}")
    tracer.patch(engine, "resolve_subframe", "channel.resolve_subframe", _count_links)
    tracer.patch(metrics.MetricsStore, "record_arrays", "metrics.MetricsStore.record_arrays",
                 _count_pairs)
    tracer.patch(metrics.MetricsStore, "update_roi", "metrics.MetricsStore.update_roi")
    for fn in ("pdr", "slt", "blind_nodes", "write_ipg_csv"):
        tracer.patch(metrics, fn, f"metrics.{fn}")
    tracer.patch(metrics, "ipg_stats", "metrics.ipg_stats", _count_ecdf)
    for fn in ("write_csv", "digest"):
        tracer.patch(engine.EventLog, fn, f"engine.EventLog.{fn}")
