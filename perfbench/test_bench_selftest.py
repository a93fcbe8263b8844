"""Self-test of the benchmark at tiny sizes; it takes a few seconds.

It checks that every metric BENCHMARK.json names is reported with its unit,
that a failed output check is counted, and that the entry point refuses to
run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import bench_core  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str) -> bench_core.Workload:
    return replace(
        bench_core.WORKLOADS[name],
        pairs=40,
        beam=3,
        rounds=2,
        generate_calls=1,
        melody_notes=6,
        held_out=8,
        eval_melodies=3,
        evaluate_calls=1,
        trace_melodies=2,
        sweep_melodies=1,
    )


def run_tiny(name: str, trace: bool, tmp_path: Path) -> dict:
    result = bench_core.run_workload(tiny(name), 7, 0.2, trace, tmp_path / "run")
    assert not (tmp_path / "run").exists()
    return json.loads(result.to_json())


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_core.WORKLOADS)


@pytest.mark.parametrize("name", list(bench_core.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_every_named_metric_is_reported(name, trace, tmp_path):
    printed = run_tiny(name, trace, tmp_path)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == expected
    assert printed["correct"] is True and printed["failed"] == 0
    assert printed["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in printed["metrics"].values())


def test_failed_check_raises_failed_frac(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_core, "check_decode", lambda melody, results, beam: ["forced"])
    result = bench_core.run_workload(tiny("decode-small-vocab"), 7, 0.2, False, tmp_path / "run")
    printed = json.loads(result.to_json())
    assert printed["correct"] is False
    assert 0 < printed["failed"] <= printed["attempted"]
    frac = next(line for line in result.report if line.startswith("attempted"))
    assert float(frac.rsplit(" ", 1)[1]) == printed["failed"] / printed["attempted"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "decode-small-vocab", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode != 0
    assert run.stdout == ""
