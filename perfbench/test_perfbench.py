"""Tests of the benchmark itself (about two minutes on two cores).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMED = {"trace.overhead_ratio"}


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def deterministic(metrics: dict) -> dict:
    """The per-layer metrics that are counts, not times or rates."""
    return {
        name: m["value"]
        for name, m in metrics.items()
        if m["unit"] != "s" and not m["unit"].startswith("ns/") and not m["unit"].endswith("/s")
        and name not in TIMED
    }


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_counters_repeat_for_one_seed(workload):
    results, reports = [], []
    for _ in range(2):
        done = run(workload, 5, trace=1)
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.splitlines()[-1]))
        reports.append(json.loads((HERE / "out" / f"{workload}-seed5-trace1.json").read_text()))
    for res in results:
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert deterministic(results[0]["metrics"]) == deterministic(results[1]["metrics"])
    assert reports[0]["counters"] == reports[1]["counters"]
    assert reports[0]["digests"] == reports[1]["digests"]
    # every workload does some work in the layers it is there to measure
    metrics = results[0]["metrics"]
    expected = {
        "monte_carlo": ["run_link.frames", "stat_ftd_bits_per_s", "binom_ftd_bits_per_s", "admc_bits_per_s",
                        "mlsd_bits_per_s"],
        "physics_closed_form": ["particle_step.molecule_steps", "sample_ratio.s", "particle_bits_per_s",
                                "hit_fraction_molecule_steps_per_s", "ftd_ber_seq_per_s", "compare_points_per_s"],
    }[workload]
    assert all(metrics[name]["value"] > 0 for name in expected)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("physics_closed_form", 1, trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
