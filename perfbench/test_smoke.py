"""Smoke check of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at its ``tiny`` size (search at order 6, a 200-line
stream, a small constructions set) through ``run.py`` with and without
tracing, and asserts that every metric named in BENCHMARK.json is emitted and
that every pinned or generated expectation holds.
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
sys.path.insert(0, str(HERE))

import streamgen  # noqa: E402
import tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["errors"]
    assert result["attempted"] >= 1
    return {"info": info, **result}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_pins(workload):
    out = _run(workload, trace=0)
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())
    named = out["info"]["named_metrics"]
    assert named["error_rate"]["value"] == 0
    assert all(k in named for k in {"search9": ["planar_2lec_s", "min_2ec_s"],
                                    "constructions": ["check_s", "iso_s"],
                                    "filter-stream": ["lines_per_s"]}[workload])
    assert {"nproc", "python", "commit", "src_lines"} <= set(out["info"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    out = _run(workload, trace=1)
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert out["info"]["spans"] > 0
    assert (ROOT / out["info"]["spans_file"]).is_file()


def test_benchmark_lists_what_the_tracer_reports():
    assert [m["name"] for m in BENCH["per_layer"]] == tracing.metric_names()
    layers = json.loads((HERE / "layers.json").read_text())
    mapped = {name for entry in layers["layer_to_end_to_end"] for name in entry["layer_metrics"]}
    assert mapped == set(tracing.metric_names())
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for entry in layers["layer_to_end_to_end"]:
        for group in ("moves", "no_effect"):
            for workload, metrics in entry.get(group, {}).items():
                assert workload in WORKLOADS and set(metrics) <= end_to_end


def test_stream_is_seeded_and_its_survivors_are_the_catalog():
    a = streamgen.make_stream(7, 120, 30, 35)
    b = streamgen.make_stream(7, 120, 30, 35)
    assert a["lines"] == b["lines"]
    assert a["lines"] != streamgen.make_stream(8, 120, 30, 35)["lines"]
    pins = json.loads((HERE / "pins.json").read_text())
    forms = [streamgen.parse_graph6(f) for f in pins["catalog_forms"]]
    survivors = a["survivor_rows"]
    assert len(survivors) == len(forms) == 5
    for rows in survivors:
        assert sum(streamgen.is_isomorphic(rows, f) for f in forms) == 1


def test_refuses_to_run_without_the_program():
    """A directory holding only BENCHMARK.json and perfbench/ makes the run fail."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search9", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
