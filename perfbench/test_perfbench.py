"""Tests of the benchmark itself, at smoke size.

Every workload passes its checks untraced and traced, a doctored wrong
answer is counted as a failed op, traced counts repeat exactly, and
``BENCHMARK.json`` lists exactly the metrics the runs print.  Run with
``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from perfbench import bench
from perfbench.tracing import Recorder
from perfbench.workloads import WORKLOADS, SatSolve

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXACT_UNITS = ("count", "bytes")


def _run(name: str, trace: bool, root: pathlib.Path) -> dict:
    return bench.run(name, 3, 0.01, trace, str(root), import_s=0.5, smoke=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_passes_its_checks(name, tmp_path):
    result = _run(name, False, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert [*result["metrics"]] == [m.name for m in bench.END_TO_END]
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_passes_its_checks_and_repeats_its_counts(name, tmp_path):
    first, second = _run(name, True, tmp_path), _run(name, True, tmp_path)
    assert first["correct"] and second["correct"] and first["failed"] == 0
    assert [*first["metrics"]] == [m.name for m in bench.PER_LAYER]
    exact = [m.name for m in bench.PER_LAYER if m.unit in EXACT_UNITS]
    assert [first["metrics"][n] for n in exact] == [second["metrics"][n] for n in exact]
    assert first["metrics"]["unattributed_s"]["value"] >= 0
    assert first["metrics"]["trace_overhead"]["value"] > 0
    assert (tmp_path / ".perfbench-traces" / f"{name}-seed3.jsonl").stat().st_size > 0


def test_traced_layers_are_the_workloads_own(tmp_path):
    beer = _run("beer-recovery", True, tmp_path)["metrics"]
    assert beer["core.candidates"]["value"] == 1
    assert beer["dram.words_read"]["value"] > 0
    assert beer["sat.solve_s"]["value"] == beer["store.v1.put_s"]["value"] == 0
    sat = _run("sat-solve", True, tmp_path)["metrics"]
    assert sat["sat.models"]["value"] == 24
    assert sat["sat.useful_model_ratio"]["value"] == pytest.approx(1 / 24)
    assert sat["core.solve_s"]["value"] == 0


def test_a_wrong_answer_is_a_failed_op(tmp_path, monkeypatch):
    class Doctored(SatSolve):
        """Expects code 0's answer from profile 1, so every odd op is wrong."""

        def __init__(self, seed: int, smoke: bool = False) -> None:
            super().__init__(seed, smoke)
            self._codes[1] = self._codes[0]

    monkeypatch.setitem(WORKLOADS, "sat-solve", Doctored)
    for trace in (False, True):
        result = _run("sat-solve", trace, tmp_path)
        assert not result["correct"]
        assert result["failed"] * 2 == result["attempted"]


def test_breakdown_self_times_add_up_to_the_op():
    recorder = Recorder()
    with recorder.op(7):
        with recorder.span("outer"):
            with recorder.span("inner", words=3):
                sum(range(10_000))
            sum(range(10_000))
        sum(range(10_000))
    b = recorder.breakdown(7)
    assert b.total["outer"] >= b.total["inner"] > 0
    assert b.self_time["outer"] == pytest.approx(b.total["outer"] - b.total["inner"])
    assert sum(b.self_time.values()) == pytest.approx(b.op_seconds)
    assert b.unattributed_s == pytest.approx(b.op_seconds - b.total["outer"])
    assert b.attr_sum("inner", "words") == 3


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == [*WORKLOADS]
    for key, metrics in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == [
            (m.name, m.unit, m.better) for m in metrics
        ]


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sat-solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_times_are_scaled_by_the_probes_either_side():
    reference = bench.PROBE_REFERENCE_S
    probes = [reference, reference, 3 * reference]
    assert bench._at_reference_speed([1.0, 3.0], probes) == pytest.approx([1.0, 1.5])
