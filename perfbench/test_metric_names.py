"""Self-test of the benchmark definition. Run from the repository root:

    python3 -m pytest perfbench -q

Checks that BENCHMARK.json keeps its fixed shape, that the layer map covers
exactly its per-layer metrics, and that a real run emits exactly the metric
names and units BENCHMARK.json lists, with tracing off and on. Every
workload reports through the same functions, so one short workload suffices.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def names(kind):
    return [m["name"] for m in SPEC[kind]]


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    everything = names("workloads") + names("end_to_end") + names("per_layer")
    assert len(everything) == len(set(everything))
    assert all(NAME.match(n) for n in everything)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_layer_map_covers_per_layer_metrics():
    layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text())
    assert sorted(layer_map) == sorted(names("per_layer"))
    for entry in layer_map.values():
        assert set(entry["moves"]) <= set(names("end_to_end"))
        assert set(entry["workloads"]) <= set(names("workloads"))


def test_workloads_match_spec():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads

    assert sorted(workloads.WORKLOADS) == sorted(names("workloads"))


def run_bench(cwd, *args, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_metrics_equal_spec(trace, kind):
    proc = run_bench(ROOT, "--workload", "online-box", "--seed", "3", "--seconds", "0",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "online-box", "--seed", "1", "--seconds", "1",
                     "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
