"""Smoke tests for the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"analyze": None, "design_grid": 6, "tendon_wrap": 3, "reduced_cli": None}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    out = run.run(workload, seed=1, seconds=0.1, trace=False, size=TINY[workload])
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0
    assert out["detail"]["latency_tail_ms"]["value"] > 0
    lat = out["detail"]["latency"]
    assert lat["samples"] == result["attempted"]
    assert lat["beyond_tail"] == (10 if lat["samples"] > 10 else 0)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_metrics(workload):
    out = run.run(workload, seed=2, seconds=0.1, trace=True, size=TINY[workload])
    result, detail = out["result"], out["detail"]
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    self_s = [result["metrics"][f"{layer}.self_s"]["value"] for layer in run.LAYERS]
    assert all(s >= 0 for s in self_s)
    assert detail["self_s_total"] <= detail["traced_wall_s"]
    assert sum(result["metrics"][f"{layer}.share"]["value"] for layer in run.LAYERS) <= 1.0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_beam_is_bypassed_by_reduced_cli():
    out = run.run("reduced_cli", seed=3, seconds=0.1, trace=True)
    metrics = out["result"]["metrics"]
    assert metrics["beam.calls"]["value"] == 0
    assert metrics["cli.calls"]["value"] >= 1


def test_same_seed_same_inputs(tmp_path):
    sys.path.insert(0, str(run.SRC))
    import workloads

    refs = json.loads((HERE / "reference.json").read_text())

    def inputs(seed):
        tmp = Path(tempfile.mkdtemp(dir=tmp_path))
        grid = workloads.DesignGrid(refs, seed, tmp)
        reduced = workloads.ReducedCli(refs, seed, tmp)
        order = [(g.motor_station, e, loads.thrust) for g, e, loads, _ in grid.cases]
        files = [(tmp / f).read_bytes() for f in ("stress_strain.csv", "flexural.csv")]
        # the fit-material commands name the per-run CSV paths
        args = [a for a in reduced.argvs if a[0] != "fit-material"]
        return order, args, files

    first, again, other = inputs(7), inputs(7), inputs(8)
    assert first == again
    assert all(a != b for a, b in zip(first, other))
    assert len(first[0]) == 256


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
