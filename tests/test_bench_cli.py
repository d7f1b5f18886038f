"""The ``repro bench`` CLI: list / run / compare / update-baseline.

Includes the ISSUE-6 deliberate-regression satellite: the comparator, fed a
doctored result file, must exit non-zero — proving the CI gate can actually
fail without waiting for a real (flaky) timing regression.
"""

import json

import pytest

from repro.bench.schema import ORACLE_SKIPPED, BenchRun, ConditionRecord, WorkloadRecord
from repro.cli import main

WL = ["--workload", "table1-outcomes", "--workload", "sat-solver"]


def run_cli(*argv):
    return main(list(argv))


def test_bench_list(capsys):
    assert run_cli("bench", "list") == 0
    out = capsys.readouterr().out
    assert "sat-solver" in out and "sweep-parallel" in out


def test_bench_list_json(capsys):
    assert run_cli("bench", "list", "--json") == 0
    listing = json.loads(capsys.readouterr().out)
    by_name = {entry["name"]: entry for entry in listing}
    assert any(gate["rel_tol"] == 0.0 for gate in by_name["sat-solver"]["gated_metrics"])


@pytest.fixture(scope="module")
def result_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "result.json"
    code = run_cli(
        "bench", "run", "--tier", "smoke", *WL, "--output", str(path),
        "--check-oracles",
    )
    assert code == 0
    return path


def test_bench_run_writes_merged_schema(result_file):
    run = BenchRun.read(result_file)
    assert run.tier == "smoke"
    assert set(run.workload_names()) == {"table1-outcomes", "sat-solver"}
    assert run.environment["usable_cpus"] >= 1


def test_bench_compare_clean_pass(result_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = run_cli(
        "bench", "compare", str(result_file),
        "--baseline", str(result_file), "--report", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["ok"] and report["failures"] == []
    assert report["compared_metrics"] > 0


def test_bench_compare_missing_baseline_is_distinct_error(result_file, tmp_path):
    code = run_cli(
        "bench", "compare", str(result_file),
        "--baseline", str(tmp_path / "nope.json"),
    )
    assert code == 2


class TestDeliberateRegression:
    """Doctor a result file and prove the gate goes red."""

    def doctor(self, result_file, tmp_path, mutate):
        run = BenchRun.read(result_file)
        mutate(run)
        doctored = tmp_path / "doctored.json"
        run.write(doctored)
        return doctored

    def test_metric_regression_exits_nonzero(self, result_file, tmp_path, capsys):
        def slow_down(run):
            # Doubling a zero-tolerance deterministic count is an unambiguous
            # regression regardless of machine speed.
            condition = run.workload("sat-solver").conditions[-1]
            condition.metrics["models_enumerated"] = (
                condition.metrics["models_enumerated"] * 2
            )

        doctored = self.doctor(result_file, tmp_path, slow_down)
        code = run_cli(
            "bench", "compare", str(doctored), "--baseline", str(result_file)
        )
        assert code == 1
        assert "metric-regression" in capsys.readouterr().out

    def test_oracle_violation_exits_nonzero(self, result_file, tmp_path, capsys):
        def break_identity(run):
            condition = run.workload("sat-solver").conditions[-1]
            condition.oracles["identical_canonical_sets"] = False

        doctored = self.doctor(result_file, tmp_path, break_identity)
        code = run_cli(
            "bench", "compare", str(doctored), "--baseline", str(result_file)
        )
        assert code == 1
        assert "oracle-violation" in capsys.readouterr().out

    def test_dropped_workload_exits_nonzero(self, result_file, tmp_path):
        def drop(run):
            run.workloads = run.workloads[:1]

        doctored = self.doctor(result_file, tmp_path, drop)
        assert (
            run_cli("bench", "compare", str(doctored), "--baseline", str(result_file))
            == 1
        )


class TestRunCheckOracles:
    """`bench run --check-oracles` is the run-time oracle gate."""

    def run(self, monkeypatch, tmp_path, oracle, **artifacts):
        import repro.bench.cli as bench_cli

        record = WorkloadRecord(
            workload="sat-solver",
            conditions=[ConditionRecord("k8:incremental", oracles={"identical": oracle})],
            artifacts=artifacts,
        )
        monkeypatch.setattr(
            bench_cli,
            "run_bench",
            lambda workloads, tier: BenchRun(tier=tier, workloads=[record]),
        )
        return run_cli(
            "bench", "run", "--tier", "smoke",
            "--output", str(tmp_path / "run.json"), "--check-oracles",
        )

    def test_a_failed_oracle_exits_one_and_names_it(self, monkeypatch, tmp_path, capsys):
        assert self.run(monkeypatch, tmp_path, False) == 1
        assert "sat-solver/k8:incremental: identical" in capsys.readouterr().err

    def test_a_skipped_oracle_exits_zero_and_says_why(self, monkeypatch, tmp_path, capsys):
        reason = "only 1 usable CPU(s) for jobs=4"
        assert self.run(monkeypatch, tmp_path, ORACLE_SKIPPED, skip_reason=reason) == 0
        assert reason in capsys.readouterr().out


def test_update_baseline_from_result(result_file, tmp_path, capsys, monkeypatch):
    import repro.bench.driver as driver

    monkeypatch.setattr(driver, "repo_root", lambda: tmp_path)
    code = run_cli(
        "bench", "update-baseline", "--tier", "smoke",
        "--from-result", str(result_file),
    )
    assert code == 0
    target = tmp_path / "benchmarks" / "baselines" / "smoke.json"
    assert target.exists()
    assert BenchRun.read(target).tier == "smoke"
    assert "justification" in capsys.readouterr().out

    # tier mismatch between file and flag is refused
    code = run_cli(
        "bench", "update-baseline", "--tier", "full",
        "--from-result", str(result_file),
    )
    assert code == 2
