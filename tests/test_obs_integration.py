"""End-to-end observability: traced sweeps stay deterministic, merges stay
schema-valid, and the instrumented subsystems actually report.

The load-bearing property: turning tracing on — even with a multi-process
worker pool — must not change a single byte of the campaign store, and the
merged trace must survive schema validation including span-parent
referential consistency across the worker merge.
"""

import json

import numpy as np
import pytest

from repro.ecc import get_family
from repro.einsim import (
    CompositeInjector,
    EinsimSimulator,
    FixedErrorCountInjector,
    UniformRandomInjector,
)
from repro.obs import TRACER, read_trace, validate_events
from repro.scenarios import SweepRunner, SweepSpec, execute_cell, make_einsim_cell
from repro.store import CampaignStore


SWEEP = {
    "name": "obs-integration",
    "num_words": 300,
    "chunk_size": 128,
    "seeds": [0],
    "backends": ["packed"],
    "codes": [{"data_bits": 8}],
    "scenarios": [
        {"name": "uniform-random", "params": {"bit_error_rate": [0.005, 0.02]}},
        {"name": "burst", "params": {"burst_probability": 0.1, "burst_length": 3}},
    ],
}


@pytest.fixture(autouse=True)
def _disable_global_tracer():
    yield
    TRACER.disable()


def _run_traced_sweep(tmp_path, store_name, trace_name, jobs):
    trace_path = str(tmp_path / trace_name)
    TRACER.enable(sink_path=trace_path, meta={"test": store_name})
    try:
        spec = SweepSpec.from_dict(SWEEP)
        runner = SweepRunner(store=CampaignStore(tmp_path / store_name), jobs=jobs)
        report = runner.run(spec)
        TRACER.flush()
    finally:
        TRACER.disable()
    return report, trace_path


class TestTraceDeterminism:
    def test_traced_parallel_records_byte_identical_to_untraced_serial(
        self, tmp_path
    ):
        spec = SweepSpec.from_dict(SWEEP)
        SweepRunner(store=CampaignStore(tmp_path / "serial")).run(spec)
        report, _ = _run_traced_sweep(tmp_path, "parallel", "t.jsonl", jobs=4)
        assert report.simulated == spec.num_cells
        assert (tmp_path / "serial" / "records.jsonl").read_bytes() == (
            tmp_path / "parallel" / "records.jsonl"
        ).read_bytes()

    def test_merged_trace_is_schema_valid(self, tmp_path):
        _, trace_path = _run_traced_sweep(tmp_path, "camp", "t.jsonl", jobs=4)
        events = read_trace(trace_path)
        assert validate_events(events) == []

    def test_span_nesting_survives_worker_merge(self, tmp_path):
        _, trace_path = _run_traced_sweep(tmp_path, "camp", "t.jsonl", jobs=4)
        events = read_trace(trace_path)
        spans = {e["id"]: e for e in events if e["type"] == "span"}
        parent_pid = [e for e in events if e["type"] == "meta"][0]["pid"]
        worker_spans = [s for s in spans.values() if s["pid"] != parent_pid]
        assert worker_spans, "jobs=4 must produce worker-process spans"
        cell_ids = {
            s["id"] for s in spans.values() if s["name"] == "sweep.cell"
        }
        for span in worker_spans:
            # every worker span hangs off the merged tree: its root was
            # re-parented under the parent's per-cell span
            assert span["parent"] in spans
            if span["parent"] in cell_ids:
                continue
            assert spans[span["parent"]]["pid"] != parent_pid
        assert any(s["parent"] in cell_ids for s in worker_spans)

    def test_segment_files_are_cleaned_up(self, tmp_path):
        _, trace_path = _run_traced_sweep(tmp_path, "camp", "t.jsonl", jobs=4)
        segment_dir = tmp_path / "t.jsonl.segments"
        assert not segment_dir.exists() or not list(segment_dir.iterdir())


class TestCounters:
    def test_simulated_and_cache_hit_counters_match_cells(self, tmp_path):
        spec = SweepSpec.from_dict(SWEEP)
        _, first_trace = _run_traced_sweep(tmp_path, "camp", "first.jsonl", 4)
        counters = {
            e["name"]: e["value"]
            for e in read_trace(first_trace)
            if e["type"] == "counter"
        }
        assert counters["sweep.cells.simulated"] == spec.num_cells
        assert counters["store.appends"] == spec.num_cells
        assert counters["einsim.words_decoded"] > 0
        assert "sweep.cells.cache_hit" not in counters

        # Second run over the same store: pure cache, nothing simulated.
        _, second_trace = _run_traced_sweep(tmp_path, "camp", "second.jsonl", 4)
        counters = {
            e["name"]: e["value"]
            for e in read_trace(second_trace)
            if e["type"] == "counter"
        }
        assert counters["sweep.cells.cache_hit"] == spec.num_cells
        assert "sweep.cells.simulated" not in counters

    def test_solver_counters_flow_through_sat_solve(self):
        from repro.core import SatBeerSolver
        from repro.core.profile import MiscorrectionProfile
        from repro.scenarios import SweepRunner, make_beer_cell

        cell = make_beer_cell(vendor="B", data_bits=8, rounds_per_window=6)
        result = SweepRunner().run_cell(cell)
        profile = MiscorrectionProfile.from_dict(result["profile"])
        TRACER.enable()
        try:
            SatBeerSolver(8).solve(profile)
            counters = TRACER.counter_totals()
        finally:
            TRACER.disable()
        assert counters["sat.solve_calls"] >= 1
        assert counters["sat.propagations"] > 0

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    def test_decode_counters_are_shared_by_both_backends(self, backend):
        # The staged oracle and the fused round report under the same
        # einsim.* names: one batch per simulated batch, every word, every DUE.
        code = get_family("secded-extended-hamming").construct(16)
        simulator = EinsimSimulator(code, seed=3, backend=backend)
        TRACER.enable()
        try:
            result = simulator.simulate(
                np.ones(16, dtype=np.uint8),
                1000,
                UniformRandomInjector(0.05),
                batch_size=256,
            )
            counters = TRACER.counter_totals()
        finally:
            TRACER.disable()
        assert result.detected_words > 0
        assert counters["einsim.decode_batches"] == 4
        assert counters["einsim.words_decoded"] == 1000
        assert counters["einsim.due_words"] == result.detected_words
        assert not [name for name in counters if name.startswith("einsim.fused.")]

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    def test_sample_counters_are_shared_by_both_backends(self, backend):
        # Both backends count their error draws beside the decode counters:
        # four chunks of a two-error cell put 2,000 errors into 1,000 words.
        cell = make_einsim_cell(
            "fixed-error-count", {"num_errors": 2}, {"data_bits": 16},
            num_words=1000, backend=backend, chunk_size=256,
        )
        TRACER.enable()
        try:
            execute_cell(cell)
            counters = TRACER.counter_totals()
        finally:
            TRACER.disable()
        assert counters["einsim.errors_sampled"] == 2000
        assert counters["einsim.sample_batches"] == 4
        assert counters["einsim.sample_s"] > 0

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    def test_composite_members_are_counted_once(self, backend):
        code = get_family("sec-hamming").construct(16)
        injector = CompositeInjector(
            [UniformRandomInjector(0.0), FixedErrorCountInjector(1)]
        )
        TRACER.enable()
        try:
            EinsimSimulator(code, seed=5, backend=backend).simulate(
                np.ones(16, dtype=np.uint8), 1000, injector, batch_size=256
            )
            counters = TRACER.counter_totals()
        finally:
            TRACER.disable()
        assert counters["einsim.sample_batches"] == 4
        assert counters["einsim.errors_sampled"] == 1000

    def test_untraced_run_produces_no_trace_artifacts(self, tmp_path):
        spec = SweepSpec.from_dict(SWEEP)
        SweepRunner(store=CampaignStore(tmp_path / "camp"), jobs=2).run(spec)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"camp"}
        assert {p.name for p in (tmp_path / "camp").iterdir()} <= {
            "records.jsonl", "records.lock"
        }


class TestTracedCli:
    def test_einsim_trace_flag_writes_valid_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "einsim.jsonl"
        exit_code = main([
            "einsim", "--data-bits", "8", "--num-words", "1000",
            "--trace", str(trace_path),
        ])
        assert exit_code == 0
        events = read_trace(str(trace_path))
        assert validate_events(events) == []
        root = [e for e in events if e["type"] == "span"][-1]
        assert root["name"] == "cli.einsim"
        assert not TRACER.enabled  # the CLI wrapper disabled it again

    def test_trace_summary_and_validate_commands(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "t.jsonl"
        main(["einsim", "--data-bits", "8", "--num-words", "1000",
              "--trace", str(trace_path)])
        capsys.readouterr()
        assert main(["trace", "validate", str(trace_path)]) == 0
        assert "OK:" in capsys.readouterr().out
        assert main(["trace", "summary", str(trace_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["counters"]["einsim.words_decoded"] == 1000

    def test_trace_export_command(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "t.jsonl"
        main(["einsim", "--data-bits", "8", "--num-words", "1000",
              "--trace", str(trace_path)])
        capsys.readouterr()
        output = tmp_path / "chrome.json"
        assert main(["trace", "export", str(trace_path),
                     "--output", str(output)]) == 0
        document = json.loads(output.read_text())
        assert document["traceEvents"]

    def test_trace_validate_rejects_broken_file(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(
            {"type": "counter", "name": "c", "value": 1, "pid": 1}
        ) + "\n")
        assert main(["trace", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestBeerExperimentSpans:
    def _experiment(self):
        from repro.core import BeerExperiment, ExperimentConfig
        from repro.dram import (
            VENDOR_C,
            ChipGeometry,
            DataRetentionModel,
            RetentionCalibration,
        )

        chip = VENDOR_C.make_chip(
            num_data_bits=8,
            geometry=ChipGeometry(num_rows=32, words_per_row=8),
            seed=4,
            retention_model=DataRetentionModel(
                RetentionCalibration(1.0, 0.02, 60.0, 0.5)
            ),
        )
        config = ExperimentConfig(
            refresh_windows_s=(20.0, 40.0, 60.0),
            rounds_per_window=8,
            discover_cell_encoding=True,
            discovery_pause_s=60.0,
        )
        return BeerExperiment(chip, config)

    def _spans(self, tmp_path, action):
        trace_path = str(tmp_path / "beer.jsonl")
        TRACER.enable(sink_path=trace_path)
        try:
            result = action()
            TRACER.flush()
        finally:
            TRACER.disable()
        events = read_trace(trace_path)
        assert validate_events(events) == []
        return result, [e for e in events if e["type"] == "span"]

    def test_traced_run_emits_the_four_step_spans(self, tmp_path):
        from repro.dram import CellType

        experiment = self._experiment()
        result, spans = self._spans(tmp_path, lambda: experiment.run(solve=True))
        assert [s["name"] for s in spans] == [
            "beer.discover", "beer.measure", "beer.profile", "beer.solve",
        ]
        measure, solve = spans[1]["attrs"], spans[3]["attrs"]
        chip = experiment.chip
        eligible = sum(
            1
            for word in range(chip.num_words)
            if result.cell_types[chip.row_of_word(word)] is CellType.TRUE_CELL
        )
        config = experiment.config
        rounds = len(config.refresh_windows_s) * config.rounds_per_window
        assert 0 < eligible < chip.num_words
        assert measure["rounds"] == rounds
        assert measure["words_read"] == rounds * eligible
        assert measure["words_written"] == rounds * eligible
        assert sum(result.counts.words_observed(p) for p in result.counts.patterns) == (
            rounds * eligible
        )
        assert solve["nodes"] == result.solution.nodes_visited
        assert solve["candidates"] == result.solution.num_solutions == 1

    def test_step_methods_emit_their_spans(self, tmp_path):
        experiment = self._experiment()
        _, spans = self._spans(
            tmp_path,
            lambda: experiment.measure_counts(experiment.discover_cell_types()),
        )
        assert [s["name"] for s in spans] == ["beer.discover", "beer.measure"]
