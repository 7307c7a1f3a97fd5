"""Tests of the benchmark itself, on the sub-second `tiny` workload.

    python3 -m pytest -q perfbench
"""

import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run as bench
from workloads import WORKLOADS

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=bench.ROOT, script=bench.HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), "--workload", "tiny", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,seed,declared", [(0, "2", "end_to_end"), (1, "1", "per_layer")])
def test_every_metric_prints_with_its_unit(trace, seed, declared):
    proc = _bench("--seed", seed, "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= bench.MIN_RUNS
    expected = {m["name"]: m["unit"] for m in SPEC[declared]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    table = "\n".join(lines[:-1])
    for name, unit in list(expected.items()) + [("failed_share", "ratio")]:
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in table.splitlines()), name
    if seed != "1":
        assert "is not pinned" in table and "txevents.csv:" in table


def test_tampered_output_counts_as_failed(monkeypatch):
    real = bench.run_child
    calls = itertools.count()

    def tampering(w, seed, out_dir, trace_file, timeout_s):
        result = real(w, seed, out_dir, trace_file, timeout_s)
        if next(calls) == 1:
            with open(out_dir / "slt_vs_distance.csv", "a") as f:
                f.write("0,25,1,1\n")
        return result

    monkeypatch.setattr(bench, "run_child", tampering)
    untraced, traced, attempted, failed, digests, pinned = bench.measure(
        WORKLOADS["tiny"], 1, 0.0, False, time.perf_counter())
    assert pinned and attempted == bench.MIN_RUNS
    assert failed == 1 and len(untraced) == attempted - 1


def test_check_outputs_names_the_changed_file(tmp_path):
    result = bench.run_child(WORKLOADS["tiny"], 1, tmp_path, None, 120)
    pins = bench.load_pins("tiny", 1)
    assert bench.check_outputs(tmp_path, result, pins) == []
    (tmp_path / "ipg.csv").write_text("kind,bin_lo_m,bin_hi_m,gap_ms,value\n")
    problems = bench.check_outputs(tmp_path, result, pins)
    assert len(problems) == 1 and problems[0].startswith("ipg.csv digest")


def test_declared_workloads_exist_and_are_pinned():
    pins = json.loads(bench.PINS.read_text())
    for w in SPEC["workloads"]:
        assert w["name"] in WORKLOADS
        assert set(pins[w["name"]]["digests"]) == {"event_log", *bench.PINNED_FILES}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=Path("perfbench") / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
