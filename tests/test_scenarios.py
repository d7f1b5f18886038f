"""Tests for the scenario registry, sweep expansion, and cache-aware runner."""

import pytest

from repro.exceptions import ChipConfigurationError, ScenarioError
from repro.einsim import (
    BurstErrorInjector,
    CompositeInjector,
    UniformRandomInjector,
)
from repro.scenarios import (
    SweepRunner,
    SweepSpec,
    build_injector,
    get_scenario,
    make_einsim_cell,
    resolve_code,
    resolve_dataword,
    scenario_names,
)
from repro.store import CampaignStore


BASE_SWEEP = {
    "name": "unit",
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


class TestRegistry:
    def test_all_paper_mechanisms_registered(self):
        names = scenario_names()
        for expected in (
            "uniform-random",
            "data-retention-true",
            "data-retention-anti",
            "data-retention-mixed",
            "fixed-error-count",
            "per-bit-bernoulli",
            "burst",
            "row-stripe",
            "transient-stuck-overlay",
        ):
            assert expected in names

    def test_build_injector_returns_configured_instance(self):
        injector = build_injector("uniform-random", {"bit_error_rate": 0.25})
        assert isinstance(injector, UniformRandomInjector)
        assert injector.bit_error_rate == 0.25

    def test_defaults_are_applied(self):
        injector = build_injector("burst", {"burst_probability": 0.5})
        assert isinstance(injector, BurstErrorInjector)
        assert injector.burst_length == 4

    def test_overlay_builds_composite(self):
        injector = build_injector(
            "transient-stuck-overlay",
            {"transient_probability": 0.001, "stuck_fraction": 0.01},
        )
        assert isinstance(injector, CompositeInjector)
        assert len(injector.injectors) == 2

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ScenarioError):
            build_injector("no-such-scenario", {})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ScenarioError):
            build_injector("uniform-random", {"bit_error_rate": 0.1, "bogus": 1})

    def test_missing_required_parameter_rejected(self):
        with pytest.raises(ScenarioError):
            build_injector("uniform-random", {})

    def test_scenario_description_available(self):
        definition = get_scenario("row-stripe")
        assert "RowHammer" in definition.description


class TestSweepExpansion:
    def test_grid_axes_expand_as_cartesian_product(self):
        spec = SweepSpec.from_dict(BASE_SWEEP)
        # 2 BERs x 1 burst = 3 cells.
        assert spec.num_cells == 3
        scenarios = [cell.config()["scenario"] for cell in spec.cells]
        assert scenarios == ["uniform-random", "uniform-random", "burst"]

    def test_expansion_is_deterministic(self):
        first = SweepSpec.from_dict(BASE_SWEEP)
        second = SweepSpec.from_dict(BASE_SWEEP)
        assert [c.config_json for c in first.cells] == [
            c.config_json for c in second.cells
        ]

    def test_duplicate_cells_are_deduplicated(self):
        payload = dict(BASE_SWEEP)
        payload["scenarios"] = [
            {"name": "uniform-random", "params": {"bit_error_rate": 0.01}},
            {"name": "uniform-random", "params": {"bit_error_rate": 0.01}},
        ]
        assert SweepSpec.from_dict(payload).num_cells == 1

    def test_unknown_spec_field_rejected(self):
        payload = dict(BASE_SWEEP)
        payload["bogus_field"] = 1
        with pytest.raises(ScenarioError):
            SweepSpec.from_dict(payload)

    def test_empty_spec_rejected(self):
        with pytest.raises(ScenarioError):
            SweepSpec.from_dict({"name": "empty"})

    def test_beer_experiment_cells_expand(self):
        payload = dict(BASE_SWEEP)
        payload["experiments"] = [
            {"vendor": "A", "data_bits": 8, "rounds_per_window": [2, 4]}
        ]
        spec = SweepSpec.from_dict(payload)
        beer_cells = [cell for cell in spec.cells if cell.kind == "beer"]
        assert len(beer_cells) == 2
        assert {c.config()["rounds_per_window"] for c in beer_cells} == {2, 4}

    def test_beer_experiments_expand_over_seeds_and_backends(self):
        payload = dict(BASE_SWEEP)
        payload["seeds"] = [0, 1, 2]
        payload["backends"] = ["reference", "packed"]
        payload["experiments"] = [{"vendor": "A", "data_bits": 8}]
        spec = SweepSpec.from_dict(payload)
        beer_cells = [cell for cell in spec.cells if cell.kind == "beer"]
        assert len(beer_cells) == 6
        combos = {
            (c.config()["seed"], c.config()["backend"]) for c in beer_cells
        }
        assert combos == {(s, b) for s in (0, 1, 2) for b in ("reference", "packed")}

    def test_unknown_backend_rejected_before_any_cell_runs(self, tmp_path):
        from repro.scenarios import make_beer_cell

        store = CampaignStore(tmp_path / "camp")
        payload = dict(BASE_SWEEP, backends=["packed", "bogus"])
        with pytest.raises(ScenarioError, match="bogus"):
            SweepRunner(store=store).run(SweepSpec.from_dict(payload))
        assert len(store) == 0
        with pytest.raises(ScenarioError, match="nope"):
            make_beer_cell(vendor="A", data_bits=8, backend="nope")
        # A valid alias is accepted and kept as given, so its key is stable.
        cell = make_beer_cell(vendor="A", data_bits=8, backend="fused")
        assert cell.config()["backend"] == "fused"

    def test_einsim_cell_validates_backend_and_keeps_alias(self):
        args = ("uniform-random", {"bit_error_rate": 0.01}, {"data_bits": 8}, 100)
        with pytest.raises(ScenarioError, match="turbo"):
            make_einsim_cell(*args, backend="turbo")
        # An alias runs as "packed" but keeps its own name, and so its own
        # content key: cells stored under "auto" stay cache hits.
        cell = make_einsim_cell(*args, backend="auto")
        assert cell.config()["backend"] == "auto"
        assert cell.key() != make_einsim_cell(*args, backend="packed").key()

    def test_cell_key_covers_every_config_field(self):
        base = make_einsim_cell(
            "uniform-random", {"bit_error_rate": 0.01}, {"data_bits": 8}, 100
        )
        for override in (
            {"seed": 1},
            {"backend": "reference"},
            {"num_words": 101},
            {"chunk_size": 32},
            {"dataword": "zeros"},
            {"code": {"data_bits": 16}},
            {"params": {"bit_error_rate": 0.02}},
        ):
            kwargs = dict(
                scenario="uniform-random",
                params={"bit_error_rate": 0.01},
                code={"data_bits": 8},
                num_words=100,
            )
            kwargs.update(override)
            assert make_einsim_cell(**kwargs).key() != base.key()


class TestCellsRejectBadParameters:
    """A parameter the injector rejects fails when the cell is made."""

    @pytest.mark.parametrize(
        "rate", [2, "abc", True, None], ids=["two", "string", "true", "null"]
    )
    def test_make_einsim_cell(self, rate):
        with pytest.raises(ScenarioError, match="bit_error_rate"):
            make_einsim_cell(
                "uniform-random", {"bit_error_rate": rate}, {"data_bits": 8}, 100
            )

    @pytest.mark.parametrize(
        "rate", [2, "abc", True, None], ids=["two", "string", "true", "null"]
    )
    def test_sweep_spec(self, rate):
        payload = dict(BASE_SWEEP)
        payload["scenarios"] = [
            {"name": "data-retention-true", "params": {"bit_error_rate": [0.01, rate]}}
        ]
        with pytest.raises(ScenarioError, match="bit_error_rate"):
            SweepSpec.from_dict(payload)

    def test_a_bad_cell_stops_the_sweep_before_any_commit(self, tmp_path):
        payload = dict(BASE_SWEEP)
        payload["scenarios"] = [
            {"name": "uniform-random", "params": {"bit_error_rate": [0.01, True, 2]}}
        ]
        store = CampaignStore(tmp_path / "camp")
        with pytest.raises(ScenarioError):
            SweepRunner(store=store).run(SweepSpec.from_dict(payload))
        assert len(store) == 0

    def test_fault_model_probability_true(self):
        with pytest.raises(ScenarioError, match="transient_probability") as caught:
            make_einsim_cell(
                "transient-stuck-overlay",
                {"transient_probability": True, "stuck_fraction": 0.01},
                {"data_bits": 8},
                10,
            )
        assert isinstance(caught.value.__cause__, ChipConfigurationError)

    @pytest.mark.parametrize(
        "scenario, params",
        [
            ("fixed-error-count", {"num_errors": 1, "candidate_positions": [[200]]}),
            ("data-retention-mixed", {"bit_error_rate": 0.01, "anti_cell_columns": [[50]]}),
            ("per-bit-bernoulli", {"probabilities": [[0.1] * 5]}),
        ],
        ids=["candidate-past-codeword", "anti-column-past-codeword", "five-probabilities"],
    )
    def test_injector_must_fit_the_code(self, scenario, params, tmp_path):
        # The (12, 8) code's codewords have 12 bits.  The valid cell before
        # the bad one is expanded first; nothing may be committed.
        payload = dict(BASE_SWEEP)
        payload["scenarios"] = [
            {"name": "uniform-random", "params": {"bit_error_rate": 0.01}},
            {"name": scenario, "params": params},
        ]
        store = CampaignStore(tmp_path / "camp")
        with pytest.raises(ScenarioError, match=scenario) as caught:
            SweepRunner(store=store).run(SweepSpec.from_dict(payload))
        assert isinstance(caught.value.__cause__, ChipConfigurationError)
        assert len(store) == 0

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ScenarioError, match="chunk size"):
            make_einsim_cell(
                "uniform-random", {"bit_error_rate": 0.01}, {"data_bits": 8}, 100,
                chunk_size=0,
            )


class TestCellResolution:
    @pytest.mark.parametrize(
        "columns", [[3, 99], [3, -1], [], ["x"]],
        ids=["too-wide", "negative", "empty", "not-int"],
    )
    def test_bad_parity_columns_raise_scenario_error(self, columns):
        with pytest.raises(ScenarioError, match="invalid code spec"):
            resolve_code({"parity_columns": columns, "parity_bits": 3})

    def test_deterministic_code_from_data_bits(self):
        assert resolve_code({"data_bits": 8}) == resolve_code({"data_bits": 8})

    def test_seeded_code_is_reproducible(self):
        first = resolve_code({"data_bits": 8, "code_seed": 3})
        second = resolve_code({"data_bits": 8, "code_seed": 3})
        assert first == second
        assert first != resolve_code({"data_bits": 8, "code_seed": 4})

    def test_explicit_parity_columns(self):
        code = resolve_code({"parity_columns": [3, 5, 6], "parity_bits": 3})
        assert code.parity_column_ints == (3, 5, 6)

    def test_dataword_patterns(self):
        assert resolve_dataword("ones", 4).tolist() == [1, 1, 1, 1]
        assert resolve_dataword("zeros", 4).tolist() == [0, 0, 0, 0]
        assert resolve_dataword("alternating", 4).tolist() == [0, 1, 0, 1]
        assert resolve_dataword([1, 0, 1, 1], 4).tolist() == [1, 0, 1, 1]

    def test_bad_dataword_rejected(self):
        with pytest.raises(ScenarioError):
            resolve_dataword("rainbow", 4)
        with pytest.raises(ScenarioError):
            resolve_dataword([1, 0], 4)


class TestSweepRunner:
    def test_same_seed_produces_byte_identical_stores(self, tmp_path):
        spec = SweepSpec.from_dict(BASE_SWEEP)
        contents = []
        for name in ("first", "second"):
            store = CampaignStore(tmp_path / name)
            SweepRunner(store=store).run(spec)
            contents.append((tmp_path / name / "records.jsonl").read_bytes())
        assert contents[0] == contents[1]

    def test_second_invocation_served_entirely_from_cache(self, tmp_path):
        spec = SweepSpec.from_dict(BASE_SWEEP)
        store = CampaignStore(tmp_path / "camp")
        first = SweepRunner(store=store).run(spec)
        assert first.simulated == spec.num_cells and first.cached == 0

        # Re-open the store (fresh process simulation) and re-run: zero cells
        # may be simulated again.
        reopened = CampaignStore(tmp_path / "camp")
        second = SweepRunner(store=reopened).run(spec)
        assert second.simulated == 0
        assert second.cached == spec.num_cells
        assert second.completed

    def test_interrupted_sweep_resumes_to_identical_store(self, tmp_path):
        spec = SweepSpec.from_dict(BASE_SWEEP)

        uninterrupted = CampaignStore(tmp_path / "full")
        SweepRunner(store=uninterrupted).run(spec)

        interrupted = CampaignStore(tmp_path / "partial")
        partial = SweepRunner(store=interrupted).run(spec, max_new_simulations=1)
        assert not partial.completed
        assert partial.simulated == 1

        resumed = SweepRunner(store=CampaignStore(tmp_path / "partial")).run(spec)
        assert resumed.completed
        assert resumed.simulated == spec.num_cells - 1
        assert (tmp_path / "partial" / "records.jsonl").read_bytes() == (
            tmp_path / "full" / "records.jsonl"
        ).read_bytes()

    def test_results_identical_across_process_counts(self, tmp_path):
        spec = SweepSpec.from_dict(BASE_SWEEP)
        serial = SweepRunner(store=CampaignStore(tmp_path / "serial"))
        parallel = SweepRunner(store=CampaignStore(tmp_path / "parallel"), processes=2)
        serial.run(spec)
        parallel.run(spec)
        assert (tmp_path / "serial" / "records.jsonl").read_bytes() == (
            tmp_path / "parallel" / "records.jsonl"
        ).read_bytes()

    def test_backends_produce_identical_results(self, tmp_path):
        payload = dict(BASE_SWEEP)
        payload["backends"] = ["reference", "packed"]
        payload["scenarios"] = [
            {
                "name": "transient-stuck-overlay",
                "params": {"transient_probability": 0.01, "stuck_fraction": 0.05},
            },
            {"name": "data-retention-mixed", "params": {"bit_error_rate": 0.02}},
        ]
        spec = SweepSpec.from_dict(payload)
        store = CampaignStore(tmp_path / "camp")
        SweepRunner(store=store).run(spec)
        by_config = {}
        for record in store.records():
            config = dict(record.config)
            backend = config.pop("backend")
            by_config.setdefault(str(sorted(config.items())), {})[backend] = (
                record.result
            )
        assert len(by_config) == 2
        for results in by_config.values():
            assert results["reference"] == results["packed"]

    def test_runner_without_store_still_runs(self):
        spec = SweepSpec.from_dict(BASE_SWEEP)
        report = SweepRunner().run(spec)
        assert report.simulated == spec.num_cells
        assert report.cached == 0

    def test_beer_cell_produces_solvable_profile(self, tmp_path):
        from repro.core import BeerSolver
        from repro.core.profile import MiscorrectionProfile
        from repro.scenarios import make_beer_cell

        cell = make_beer_cell(vendor="B", data_bits=8, rounds_per_window=6)
        result = SweepRunner().run_cell(cell)
        profile = MiscorrectionProfile.from_dict(result["profile"])
        solution = BeerSolver(8).solve(profile)
        assert solution.num_solutions >= 1

    def test_fixed_error_count_statistics_through_runner(self):
        # A scenario with exactly two errors per word makes every word
        # uncorrectable under SEC decoding — visible end to end.
        cell = make_einsim_cell(
            "fixed-error-count",
            {"num_errors": 2},
            {"data_bits": 8},
            num_words=200,
            chunk_size=64,
        )
        result = SweepRunner().run_cell(cell)
        assert result["uncorrectable_words"] == 200
        assert sum(result["pre_correction_error_counts"]) == 400

    def test_unknown_vendor_raises_a_clear_repro_error(self):
        from repro.exceptions import ReproError
        from repro.scenarios import ExperimentCell, make_beer_cell

        reference = make_beer_cell(vendor="A", data_bits=8).config()
        reference["vendor"] = "Z"  # bypass make_beer_cell's own validation
        cell = ExperimentCell.from_config(reference)
        with pytest.raises(ReproError, match=r"unknown vendor 'Z'.*'A', 'B', 'C'"):
            SweepRunner().run_cell(cell)


class TestParallelSweepRunner:
    """jobs=N fan-out must be invisible in the store's bytes."""

    def test_parallel_store_is_byte_identical_to_serial(self, tmp_path):
        spec = SweepSpec.from_dict(BASE_SWEEP)
        serial = SweepRunner(store=CampaignStore(tmp_path / "serial"))
        parallel = SweepRunner(store=CampaignStore(tmp_path / "parallel"), jobs=4)
        serial_report = serial.run(spec)
        parallel_report = parallel.run(spec)
        assert serial_report.to_dict() == parallel_report.to_dict()
        assert parallel_report.simulated == spec.num_cells
        assert (tmp_path / "serial" / "records.jsonl").read_bytes() == (
            tmp_path / "parallel" / "records.jsonl"
        ).read_bytes()

    def test_parallel_outcomes_arrive_in_spec_order(self, tmp_path):
        spec = SweepSpec.from_dict(BASE_SWEEP)
        seen = []
        report = SweepRunner(store=CampaignStore(tmp_path / "camp"), jobs=3).run(
            spec, progress=seen.append
        )
        assert [o.cell for o in report.outcomes] == list(spec.cells)
        assert [o.cell for o in seen] == list(spec.cells)

    def test_parallel_run_resumes_an_interrupted_serial_sweep(self, tmp_path):
        spec = SweepSpec.from_dict(BASE_SWEEP)
        full = CampaignStore(tmp_path / "full")
        SweepRunner(store=full).run(spec)

        partial = SweepRunner(store=CampaignStore(tmp_path / "partial"))
        assert not partial.run(spec, max_new_simulations=1).completed

        resumed = SweepRunner(
            store=CampaignStore(tmp_path / "partial"), jobs=2
        ).run(spec)
        assert resumed.completed
        assert resumed.cached == 1 and resumed.simulated == spec.num_cells - 1
        assert (tmp_path / "partial" / "records.jsonl").read_bytes() == (
            tmp_path / "full" / "records.jsonl"
        ).read_bytes()

    def test_parallel_sweep_resumes_after_a_torn_tail_crash(self, tmp_path):
        spec = SweepSpec.from_dict(BASE_SWEEP)
        full = CampaignStore(tmp_path / "full")
        SweepRunner(store=full).run(spec)
        intact = (tmp_path / "full" / "records.jsonl").read_bytes()

        crashed = tmp_path / "crashed" / "records.jsonl"
        crashed.parent.mkdir()
        # The sweep died mid-append of its second record.
        torn_point = intact.find(b"\n") + 1
        crashed.write_bytes(intact[: torn_point + 40])

        report = SweepRunner(store=CampaignStore(tmp_path / "crashed"), jobs=2).run(
            spec
        )
        assert report.cached == 1 and report.simulated == spec.num_cells - 1
        assert crashed.read_bytes() == intact

    def test_parallel_rerun_is_fully_cached(self, tmp_path):
        spec = SweepSpec.from_dict(BASE_SWEEP)
        store = CampaignStore(tmp_path / "camp")
        SweepRunner(store=store, jobs=2).run(spec)
        second = SweepRunner(store=CampaignStore(tmp_path / "camp"), jobs=2).run(spec)
        assert second.simulated == 0 and second.cached == spec.num_cells

    def test_max_new_simulations_budget_matches_serial_semantics(self, tmp_path):
        spec = SweepSpec.from_dict(BASE_SWEEP)
        report = SweepRunner(store=CampaignStore(tmp_path / "camp"), jobs=4).run(
            spec, max_new_simulations=2
        )
        assert not report.completed
        assert report.simulated == 2
        assert len(report.outcomes) == 2

    def test_jobs_must_be_positive(self):
        with pytest.raises(ScenarioError):
            SweepRunner(jobs=0)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_duplicate_cells_in_a_spec_simulate_once(self, tmp_path, jobs):
        # SweepSpec.from_dict dedupes, but run() must not rely on that: a
        # hand-built spec repeating one cell simulates it once and serves
        # the repeat from the just-committed store record.
        cell = make_einsim_cell(
            "uniform-random", {"bit_error_rate": 0.01}, {"data_bits": 8}, 200,
            chunk_size=64,
        )
        spec = SweepSpec(name="dup", cells=(cell, cell, cell))
        report = SweepRunner(
            store=CampaignStore(tmp_path / f"camp{jobs}"), jobs=jobs
        ).run(spec)
        assert report.simulated == 1 and report.cached == 2
        lines = (tmp_path / f"camp{jobs}" / "records.jsonl").read_bytes()
        assert lines.count(b"\n") == 1


class TestCodeFamilySweeps:
    """code_family threads through specs, store keys, and resume behaviour."""

    FAMILY_SWEEP = {
        "name": "family-matrix",
        "num_words": 200,
        "chunk_size": 64,
        "seeds": [0],
        "backends": ["packed"],
        "codes": [
            {"data_bits": 8},
            {"data_bits": 8, "code_family": "secded-extended-hamming"},
            {"data_bits": 8, "code_family": "parity-detect"},
            {"data_bits": 4, "code_family": "repetition"},
        ],
        "scenarios": [
            {"name": "uniform-random", "params": {"bit_error_rate": 0.02}},
        ],
    }

    def test_resolve_code_dispatches_on_family(self):
        assert resolve_code({"data_bits": 8}).family_name == "sec-hamming"
        secded = resolve_code(
            {"data_bits": 8, "code_family": "secded-extended-hamming"}
        )
        assert secded.family_name == "secded-extended-hamming"
        assert secded.minimum_distance() == 4
        parity = resolve_code({"data_bits": 8, "code_family": "parity-detect"})
        assert parity.detect_only and parity.num_parity_bits == 1
        repetition = resolve_code({"data_bits": 4, "code_family": "repetition"})
        assert repetition.codeword_length == 12

    def test_resolve_code_seeded_family_sampling(self):
        first = resolve_code(
            {"data_bits": 6, "code_family": "secded-extended-hamming",
             "code_seed": 9}
        )
        second = resolve_code(
            {"data_bits": 6, "code_family": "secded-extended-hamming",
             "code_seed": 9}
        )
        assert first == second
        assert first.family_name == "secded-extended-hamming"

    def test_resolve_code_unknown_family_is_scenario_error(self):
        with pytest.raises(ScenarioError, match="unknown code family"):
            resolve_code({"data_bits": 8, "code_family": "turbo"})

    def test_resolve_code_invalid_family_dimensions_is_scenario_error(self):
        with pytest.raises(ScenarioError, match="invalid code spec"):
            resolve_code(
                {"data_bits": 4, "parity_bits": 6, "code_family": "repetition"}
            )

    def test_family_cells_have_distinct_store_keys(self):
        spec = SweepSpec.from_dict(self.FAMILY_SWEEP)
        assert spec.num_cells == 4
        keys = {cell.key() for cell in spec.cells}
        assert len(keys) == 4
        families = [
            cell.config()["code"].get("code_family", "sec-hamming")
            for cell in spec.cells
        ]
        assert families == [
            "sec-hamming",
            "secded-extended-hamming",
            "parity-detect",
            "repetition",
        ]

    def test_mixed_family_sweep_records_family_and_due(self, tmp_path):
        store = CampaignStore(tmp_path / "campaign")
        report = SweepRunner(store=store).run(SweepSpec.from_dict(self.FAMILY_SWEEP))
        assert report.simulated == 4
        by_family = {
            record.result["code_family"]: record.result
            for record in store.records()
        }
        assert set(by_family) == {
            "sec-hamming",
            "secded-extended-hamming",
            "parity-detect",
            "repetition",
        }
        # Detect-only parity words never miscorrect; they produce DUEs.
        assert by_family["parity-detect"]["miscorrected_words"] == 0
        assert by_family["parity-detect"]["detected_words"] > 0
        assert by_family["secded-extended-hamming"]["detected_words"] > 0

    def test_mixed_family_resume_is_byte_identical(self, tmp_path):
        spec = SweepSpec.from_dict(self.FAMILY_SWEEP)
        uninterrupted = CampaignStore(tmp_path / "full")
        SweepRunner(store=uninterrupted).run(spec)

        resumed = CampaignStore(tmp_path / "resumed")
        partial = SweepRunner(store=resumed).run(spec, max_new_simulations=2)
        assert not partial.completed
        final = SweepRunner(store=CampaignStore(tmp_path / "resumed")).run(spec)
        assert final.completed and final.cached == 2 and final.simulated == 2

        assert (tmp_path / "full" / "records.jsonl").read_bytes() == (
            tmp_path / "resumed" / "records.jsonl"
        ).read_bytes()

    def test_mixed_family_parallel_jobs_byte_identical(self, tmp_path):
        spec = SweepSpec.from_dict(self.FAMILY_SWEEP)
        serial = CampaignStore(tmp_path / "serial")
        SweepRunner(store=serial).run(spec)
        parallel = CampaignStore(tmp_path / "parallel")
        SweepRunner(store=parallel, jobs=2).run(spec)
        assert (tmp_path / "serial" / "records.jsonl").read_bytes() == (
            tmp_path / "parallel" / "records.jsonl"
        ).read_bytes()

    def test_explicit_columns_default_parity_bits_follow_family(self):
        # Regression: the default r for explicit parity_columns used to come
        # from SEC-Hamming's min_parity_bits, spuriously rejecting valid
        # SECDED column specs.
        code = resolve_code(
            {"parity_columns": [7, 11, 13],
             "code_family": "secded-extended-hamming"}
        )
        assert code.num_parity_bits == 4
        assert code.family_name == "secded-extended-hamming"

    def test_repetition_code_beyond_table_limit_is_scenario_error(self):
        with pytest.raises(ScenarioError, match="table-decode limit"):
            resolve_code({"data_bits": 16, "code_family": "repetition"})


class TestBeerCellSolve:
    """The opt-in solve flag: SAT stats ride the cell result into reports."""

    def test_solve_flag_absent_by_default_keeps_historical_keys(self):
        from repro.scenarios import make_beer_cell

        plain = make_beer_cell(vendor="A", data_bits=8)
        assert "solve" not in plain.config()
        solving = make_beer_cell(vendor="A", data_bits=8, solve=True)
        assert solving.config()["solve"] is True
        assert plain.key() != solving.key()

    def test_solved_cell_records_solver_stats(self, tmp_path):
        from repro.scenarios import make_beer_cell
        from repro.store import CampaignStore

        cell = make_beer_cell(
            vendor="B", data_bits=8, rounds_per_window=6, solve=True
        )
        store = CampaignStore(tmp_path)
        outcome = SweepRunner(store=store).run_one(cell)
        result = outcome.record.result
        assert result["num_solutions"] >= 1
        stats = result["solver_stats"]
        assert stats["propagations"] > 0
        assert set(stats) >= {"conflicts", "decisions", "propagations"}

        from repro.analysis import campaign_report_data

        (row,) = campaign_report_data(store)["beer_campaigns"]
        assert row["solved_cells"] == 1
        assert row["sat_propagations"] == stats["propagations"]
        assert row["sat_conflicts"] == stats["conflicts"]

    def test_unsolved_cells_report_zero_sat_effort(self, tmp_path):
        from repro.analysis import campaign_report_data
        from repro.scenarios import make_beer_cell
        from repro.store import CampaignStore

        store = CampaignStore(tmp_path)
        cell = make_beer_cell(vendor="A", data_bits=8, rounds_per_window=4)
        SweepRunner(store=store).run_one(cell)
        (row,) = campaign_report_data(store)["beer_campaigns"]
        assert row["solved_cells"] == 0
        assert row["sat_conflicts"] == 0

    def test_scenario_report_cli_prints_sat_lines(self, tmp_path, capsys):
        from repro.cli import main
        from repro.scenarios import make_beer_cell
        from repro.store import CampaignStore

        store = CampaignStore(tmp_path)
        cell = make_beer_cell(
            vendor="B", data_bits=8, rounds_per_window=6, solve=True
        )
        SweepRunner(store=store).run_one(cell)
        assert main(["scenario", "report", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "SAT (1 solved cells)" in out
        assert "propagations" in out
