"""Tests for the beer-tool command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.ecc import codes_equivalent, random_hamming_code, SystematicLinearCode
from repro.core import charged_patterns, expected_miscorrection_profile
from repro.einsim.engine import BACKEND_CHOICES


@pytest.fixture
def profile_file(tmp_path):
    code = random_hamming_code(6, rng=np.random.default_rng(5))
    profile = expected_miscorrection_profile(
        code, list(charged_patterns(6, [1, 2]))
    )
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile.to_dict()))
    return path, code


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_arguments(self):
        args = build_parser().parse_args(
            ["solve", "--profile", "p.json", "--backend", "sat", "--max-solutions", "3"]
        )
        assert args.command == "solve"
        assert args.backend == "sat"
        assert args.max_solutions == 3

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--profile", "p.json", "--backend", "z3"])


class TestSolveCommand:
    def test_solve_recovers_function(self, profile_file, tmp_path, capsys):
        path, code = profile_file
        output = tmp_path / "solution.json"
        exit_code = main(["solve", "--profile", str(path), "--output", str(output)])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "candidate ECC functions found: 1" in captured
        payload = json.loads(output.read_text())
        recovered = SystematicLinearCode.from_parity_columns(
            payload["candidates"][0], payload["num_parity_bits"]
        )
        assert codes_equivalent(recovered, code)

    def test_solve_with_sat_backend(self, profile_file, capsys):
        path, code = profile_file
        exit_code = main(["solve", "--profile", str(path), "--backend", "sat"])
        assert exit_code == 0
        assert "sat" in capsys.readouterr().out

    def test_solve_reports_failure_when_profile_inconsistent(self, tmp_path, capsys):
        # A self-contradictory profile: both containments => equal columns.
        payload = {
            "num_data_bits": 2,
            "entries": [
                {"charged_bits": [0], "miscorrections": [1]},
                {"charged_bits": [1], "miscorrections": [0]},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        exit_code = main(["solve", "--profile", str(path), "--parity-bits", "3"])
        assert exit_code == 1
        assert "found: 0" in capsys.readouterr().out


class TestPaperWordRoundTrip:
    def test_solve_and_verify_a_128_bit_dataword(self, tmp_path, capsys):
        # The paper's (136,128) word: the exact {1}-CHARGED profile alone
        # identifies the code, and the returned columns reproduce it.
        code = random_hamming_code(128, rng=np.random.default_rng(128))
        profile = expected_miscorrection_profile(code, list(charged_patterns(128, [1])))
        path = tmp_path / "profile128.json"
        path.write_text(json.dumps(profile.to_dict()))
        assert main(["solve", "--profile", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_solutions"] == 1
        assert payload["num_parity_bits"] == 8
        columns = payload["candidates"][0]
        recovered = SystematicLinearCode.from_parity_columns(columns, 8)
        assert codes_equivalent(recovered, code)
        exit_code = main(
            ["verify", "--profile", str(path), "--columns", ",".join(map(str, columns))]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "MATCH" in output and "MISMATCH" not in output


class TestVerifyCommand:
    def test_verify_match(self, profile_file, capsys):
        path, code = profile_file
        columns = ",".join(str(c) for c in code.parity_column_ints)
        exit_code = main(["verify", "--profile", str(path), "--columns", columns])
        assert exit_code == 0
        assert "MATCH" in capsys.readouterr().out

    def test_verify_mismatch(self, profile_file, capsys):
        path, code = profile_file
        wrong = random_hamming_code(6, rng=np.random.default_rng(99))
        if codes_equivalent(wrong, code):
            pytest.skip("random code happened to match")
        columns = ",".join(str(c) for c in wrong.parity_column_ints)
        exit_code = main(["verify", "--profile", str(path), "--columns", columns])
        assert exit_code == 1
        assert "MISMATCH" in capsys.readouterr().out


class TestBadInputExitsTwo:
    """Bad input is one stderr line and exit 2, never a result's exit 1."""

    @staticmethod
    def _assert_usage_error(exit_code, capsys):
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_beep_non_integer_error_positions(self, capsys):
        exit_code = main(["beep", "--data-bits", "16", "--error-positions", "2,x"])
        self._assert_usage_error(exit_code, capsys)

    def test_beep_out_of_range_error_positions(self, capsys):
        exit_code = main(["beep", "--data-bits", "16", "--error-positions", "2,21"])
        self._assert_usage_error(exit_code, capsys)

    def test_beep_negative_error_position(self, capsys):
        exit_code = main(["beep", "--data-bits", "16", "--error-positions=-1,3"])
        self._assert_usage_error(exit_code, capsys)

    @pytest.mark.parametrize("probability", ["1.5", "-0.1", "nan"])
    def test_beep_probability_outside_unit_interval(self, probability, capsys):
        exit_code = main([
            "beep", "--data-bits", "16", "--error-positions", "2,9",
            "--probability", probability,
        ])
        self._assert_usage_error(exit_code, capsys)

    def test_beep_zero_passes(self, capsys):
        exit_code = main([
            "beep", "--data-bits", "16", "--error-positions", "2,9", "--passes", "0",
        ])
        self._assert_usage_error(exit_code, capsys)

    def test_verify_non_integer_column(self, profile_file, capsys):
        path, code = profile_file
        columns = ",".join(str(c) for c in code.parity_column_ints[:-1]) + ",0x3"
        exit_code = main(["verify", "--profile", str(path), "--columns", columns])
        self._assert_usage_error(exit_code, capsys)

    def test_verify_column_too_wide_for_parity_bits(self, profile_file, capsys):
        path, code = profile_file
        columns = [str(c) for c in code.parity_column_ints]
        columns[0] = str(1 << code.num_parity_bits)
        exit_code = main(["verify", "--profile", str(path), "--columns", ",".join(columns)])
        self._assert_usage_error(exit_code, capsys)

    def test_verify_column_count_differs_from_profile(self, profile_file, capsys):
        path, code = profile_file
        columns = ",".join(str(c) for c in code.parity_column_ints[:-1])
        exit_code = main(["verify", "--profile", str(path), "--columns", columns])
        self._assert_usage_error(exit_code, capsys)

    @staticmethod
    def _scenario_run(*extra):
        return main([
            "scenario", "run", "--data-bits", "8", "--num-words", "50", *extra,
        ])

    def test_scenario_run_unknown_scenario(self, capsys):
        exit_code = self._scenario_run("--scenario", "nope")
        self._assert_usage_error(exit_code, capsys)

    def test_scenario_run_unknown_parameter(self, capsys):
        exit_code = self._scenario_run(
            "--scenario", "uniform-random", "--param", "bit_error_rate=0.01",
            "--param", "nope=1",
        )
        self._assert_usage_error(exit_code, capsys)

    def test_scenario_run_parameter_without_value(self, capsys):
        exit_code = self._scenario_run(
            "--scenario", "uniform-random", "--param", "bit_error_rate",
        )
        self._assert_usage_error(exit_code, capsys)

    @pytest.mark.parametrize("rate", ["2", "abc", "true", "null"])
    def test_scenario_run_bad_bit_error_rate(self, rate, capsys):
        exit_code = self._scenario_run(
            "--scenario", "uniform-random", "--param", f"bit_error_rate={rate}",
        )
        self._assert_usage_error(exit_code, capsys)

    def test_scenario_run_zero_words(self, capsys):
        exit_code = main([
            "scenario", "run", "--scenario", "uniform-random",
            "--param", "bit_error_rate=0.01", "--num-words", "0",
        ])
        self._assert_usage_error(exit_code, capsys)

    @pytest.mark.parametrize(
        "change",
        [
            {"codes": [{"parity_columns": [3, 99]}]},
            {"codes": [{"parity_columns": [3, -1]}]},
            {"scenarios": [
                {"name": "uniform-random", "params": {"bit_error_rate": [0.01, True, 2]}}
            ]},
            {"scenarios": [{"name": "nope"}]},
            {"num_words": "many"},
        ],
        ids=["column-too-wide", "negative-column", "bad-rates", "unknown-scenario",
             "non-integer-words"],
    )
    def test_scenario_sweep_bad_spec_commits_nothing(self, change, tmp_path, capsys):
        spec = {
            "name": "bad", "num_words": 50, "codes": [{"data_bits": 8}],
            "scenarios": [{"name": "uniform-random", "params": {"bit_error_rate": 0.01}}],
        }
        spec.update(change)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        store = tmp_path / "camp"
        exit_code = main(["scenario", "sweep", "--spec", str(path), "--store", str(store)])
        self._assert_usage_error(exit_code, capsys)
        assert not store.exists()

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "malformed"])
    def test_scenario_sweep_unreadable_spec(self, content, tmp_path, capsys):
        path = tmp_path / "spec.json"
        if content is not None:
            path.write_text(content)
        exit_code = main([
            "scenario", "sweep", "--spec", str(path), "--store", str(tmp_path / "camp"),
        ])
        self._assert_usage_error(exit_code, capsys)


class TestSimulateAndBeepCommands:
    def test_simulate_profile_roundtrip(self, tmp_path, capsys):
        output = tmp_path / "sim_profile.json"
        exit_code = main(
            [
                "simulate-profile",
                "--vendor", "B",
                "--data-bits", "8",
                "--rounds", "6",
                "--output", str(output),
            ]
        )
        assert exit_code == 0
        payload = json.loads(output.read_text())
        assert payload["num_data_bits"] == 8
        assert len(payload["entries"]) == 8 + 28
        # The exported profile is solvable by the solve subcommand.
        solve_exit = main(["solve", "--profile", str(output)])
        assert solve_exit == 0

    def test_beep_identifies_deterministic_errors(self, capsys):
        exit_code = main(
            ["beep", "--data-bits", "16", "--error-positions", "2,9", "--passes", "2"]
        )
        captured = capsys.readouterr().out
        assert "identified weak cells" in captured
        assert exit_code == 0

    def test_beep_reports_partial_identification(self, capsys):
        # With failure probability 0 nothing can ever be identified.
        exit_code = main(
            [
                "beep",
                "--data-bits", "16",
                "--error-positions", "2,9",
                "--probability", "0.0",
            ]
        )
        assert exit_code == 1
        assert "identified weak cells: []" in capsys.readouterr().out


class TestEinsimCommand:
    def test_parser_defaults_and_backend_choices(self):
        args = build_parser().parse_args(["einsim"])
        assert args.command == "einsim"
        assert args.backend == "packed"
        args = build_parser().parse_args(["einsim", "--backend", "packed"])
        assert args.backend == "packed"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["einsim", "--backend", "gpu"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["einsim"],
            ["simulate-profile", "--output", "p.json"],
            ["scenario", "run", "--scenario", "uniform-random"],
        ],
        ids=["einsim", "simulate-profile", "scenario-run"],
    )
    def test_backend_option_takes_the_engine_names(self, argv):
        # Every --backend option shares the engine's one tuple: both
        # implementations plus the aliases older scripts still pass.
        assert set(BACKEND_CHOICES) == {"reference", "packed", "fused", "auto"}
        parser = build_parser()
        for name in BACKEND_CHOICES:
            assert parser.parse_args(argv + ["--backend", name]).backend == name
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--backend", "gpu"])

    def test_einsim_writes_figure_data(self, tmp_path, capsys):
        output = tmp_path / "einsim.json"
        exit_code = main(
            [
                "einsim",
                "--data-bits", "8",
                "--num-words", "500",
                "--ber", "0.01",
                "--backend", "packed",
                "--chunk-size", "128",
                "--output", str(output),
            ]
        )
        assert exit_code == 0
        assert "packed backend" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert payload["num_words"] == 500
        assert payload["backend"] == "packed"
        assert len(payload["post_correction_error_counts"]) == 8
        assert len(payload["pre_correction_error_counts"]) == payload["codeword_length"]

    def test_backends_emit_identical_figure_data(self, tmp_path):
        """Smoke test: reference and packed produce identical figure data."""
        payloads = {}
        for backend in ("reference", "packed"):
            output = tmp_path / f"einsim_{backend}.json"
            exit_code = main(
                [
                    "einsim",
                    "--data-bits", "8",
                    "--num-words", "400",
                    "--ber", "0.02",
                    "--seed", "3",
                    "--backend", backend,
                    "--output", str(output),
                ]
            )
            assert exit_code == 0
            payloads[backend] = json.loads(output.read_text())
            payloads[backend].pop("backend")
        assert payloads["reference"] == payloads["packed"]


class TestJsonOutput:
    """--json turns each subcommand's stdout into one machine-readable document."""

    def test_solve_json(self, profile_file, capsys):
        path, code = profile_file
        exit_code = main(["solve", "--profile", str(path), "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_solutions"] == 1
        recovered = SystematicLinearCode.from_parity_columns(
            payload["candidates"][0], payload["num_parity_bits"]
        )
        assert codes_equivalent(recovered, code)

    def test_simulate_profile_json(self, tmp_path, capsys):
        output = tmp_path / "profile.json"
        exit_code = main(
            ["simulate-profile", "--vendor", "B", "--data-bits", "8",
             "--rounds", "4", "--output", str(output), "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vendor"] == "B"
        assert payload["num_data_bits"] == 8
        assert payload["num_entries"] == 8 + 28
        assert json.loads(output.read_text())["num_data_bits"] == 8

    def test_einsim_json(self, capsys):
        exit_code = main(
            ["einsim", "--data-bits", "8", "--num-words", "300",
             "--ber", "0.01", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_words"] == 300
        assert len(payload["post_correction_error_counts"]) == 8

    def test_beep_json(self, capsys):
        exit_code = main(
            ["beep", "--data-bits", "16", "--error-positions", "2,9", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["true_positions"] == [2, 9]
        assert payload["fully_identified"] == (exit_code == 0)


class TestScenarioCommands:
    SWEEP = {
        "name": "cli-sweep",
        "num_words": 200,
        "chunk_size": 64,
        "seeds": [0],
        "backends": ["packed"],
        "codes": [{"data_bits": 8}],
        "scenarios": [
            {"name": "uniform-random", "params": {"bit_error_rate": [0.005, 0.02]}},
            {"name": "burst", "params": {"burst_probability": 0.1}},
        ],
    }

    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.SWEEP))
        return path

    def test_scenario_list_mentions_every_registered_scenario(self, capsys):
        from repro.scenarios import scenario_names

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_scenario_list_json(self, capsys):
        assert main(["scenario", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in payload]
        assert "transient-stuck-overlay" in names

    def test_scenario_run_with_store_caches(self, tmp_path, capsys):
        store = tmp_path / "camp"
        args = ["scenario", "run", "--scenario", "uniform-random",
                "--param", "bit_error_rate=0.01", "--data-bits", "8",
                "--num-words", "200", "--store", str(store), "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cached"] is False
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cached"] is True
        assert first["result"] == second["result"]

    def test_scenario_sweep_second_run_fully_cached(self, spec_file, tmp_path, capsys):
        store = tmp_path / "camp"
        args = ["scenario", "sweep", "--spec", str(spec_file),
                "--store", str(store), "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["simulated"] == 3 and first["cached"] == 0
        assert main(args + ["--resume"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["simulated"] == 0 and second["cached"] == 3

    def test_scenario_sweep_interrupt_and_resume(self, spec_file, tmp_path, capsys):
        store = tmp_path / "camp"
        exit_code = main(
            ["scenario", "sweep", "--spec", str(spec_file), "--store", str(store),
             "--max-cells", "1", "--json"]
        )
        assert exit_code == 3
        partial = json.loads(capsys.readouterr().out)
        assert partial["simulated"] == 1 and not partial["completed"]
        assert main(
            ["scenario", "sweep", "--spec", str(spec_file), "--store", str(store),
             "--resume", "--json"]
        ) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["completed"]
        assert resumed["simulated"] == 2 and resumed["cached"] == 1

    def test_scenario_sweep_jobs_matches_serial_store(self, spec_file, tmp_path, capsys):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["scenario", "sweep", "--spec", str(spec_file),
                     "--store", str(serial), "--json"]) == 0
        capsys.readouterr()
        assert main(["scenario", "sweep", "--spec", str(spec_file),
                     "--store", str(parallel), "--jobs", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["simulated"] == 3
        assert (serial / "records.jsonl").read_bytes() == (
            parallel / "records.jsonl"
        ).read_bytes()

    def test_scenario_report(self, spec_file, tmp_path, capsys):
        store = tmp_path / "camp"
        main(["scenario", "sweep", "--spec", str(spec_file), "--store", str(store)])
        capsys.readouterr()
        assert main(["scenario", "report", "--store", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_records"] == 3
        scenarios = {row["scenario"] for row in payload["scenarios"]}
        assert scenarios == {"uniform-random", "burst"}

    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])


class TestSimulateProfileBackend:
    def test_backends_emit_identical_profiles(self, tmp_path):
        """The simulated chip campaign is backend-invariant bit for bit."""
        payloads = {}
        for backend in ("reference", "packed"):
            output = tmp_path / f"profile_{backend}.json"
            exit_code = main(
                [
                    "simulate-profile",
                    "--vendor", "A",
                    "--data-bits", "8",
                    "--rounds", "4",
                    "--backend", backend,
                    "--output", str(output),
                ]
            )
            assert exit_code == 0
            payloads[backend] = json.loads(output.read_text())
        assert payloads["reference"] == payloads["packed"]


class TestSatStatsFlag:
    def test_solve_sat_stats_requires_sat_backend(self, profile_file, capsys):
        path, _ = profile_file
        exit_code = main(["solve", "--profile", str(path), "--sat-stats"])
        assert exit_code == 2
        assert "--backend sat" in capsys.readouterr().err

    def test_solve_sat_stats_json(self, profile_file, capsys):
        path, _ = profile_file
        exit_code = main([
            "solve", "--profile", str(path), "--backend", "sat", "--sat-stats", "--json",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["solver_stats"]
        assert stats["solve_calls"] > 0
        assert stats["decisions"] > 0

    def test_solve_sat_stats_text(self, profile_file, capsys):
        path, _ = profile_file
        exit_code = main([
            "solve", "--profile", str(path), "--backend", "sat", "--sat-stats",
        ])
        assert exit_code == 0
        assert "SAT solver statistics" in capsys.readouterr().out


class TestCodeFamilyFlag:
    """--code-family threads the pluggable family registry through the CLI."""

    def test_parser_accepts_and_rejects_families(self):
        args = build_parser().parse_args(
            ["einsim", "--code-family", "secded-extended-hamming"]
        )
        assert args.code_family == "secded-extended-hamming"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["einsim", "--code-family", "turbo"])

    def test_einsim_secded_reports_due_words(self, capsys):
        exit_code = main(
            ["einsim", "--data-bits", "8", "--num-words", "2000",
             "--ber", "0.02", "--code-family", "secded-extended-hamming",
             "--backend", "packed", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["code_family"] == "secded-extended-hamming"
        assert payload["detected_words"] > 0

    def test_einsim_detect_only_family_never_miscorrects(self, capsys):
        exit_code = main(
            ["einsim", "--data-bits", "8", "--num-words", "1000",
             "--ber", "0.02", "--code-family", "parity-detect", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["miscorrected_words"] == 0
        assert payload["detected_words"] > 0
        assert payload["codeword_length"] == 9

    def test_simulate_profile_then_solve_secded_roundtrip(self, tmp_path, capsys):
        # SECDED miscorrections need >=3 coincident raw errors (doubles are
        # DUEs), so the campaign needs more rounds than the SEC default to
        # observe the full profile.
        output = tmp_path / "secded_profile.json"
        exit_code = main(
            ["simulate-profile", "--vendor", "B", "--data-bits", "8",
             "--rounds", "16", "--code-family", "secded-extended-hamming",
             "--output", str(output), "--json"]
        )
        assert exit_code == 0
        assert json.loads(capsys.readouterr().out)["code_family"] == (
            "secded-extended-hamming"
        )
        exit_code = main(
            ["solve", "--profile", str(output),
             "--code-family", "secded-extended-hamming", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["code_family"] == "secded-extended-hamming"
        assert payload["num_solutions"] == 1
        assert payload["design_space_columns"] == 11
        # The recovered function is vendor B's actual SECDED matrix (up to
        # equivalence -- B's ascending construction is its own canonical pick).
        from repro import VENDOR_B

        recovered = SystematicLinearCode.from_parity_columns(
            payload["candidates"][0], payload["num_parity_bits"]
        )
        truth = VENDOR_B.ecc_function(8, code_family="secded-extended-hamming")
        assert codes_equivalent(recovered, truth)

    def test_solve_rejects_fixed_structure_family(self, profile_file, capsys):
        path, _ = profile_file
        exit_code = main(
            ["solve", "--profile", str(path), "--code-family", "parity-detect"]
        )
        assert exit_code == 2
        assert "fixed structure" in capsys.readouterr().err

    def test_simulate_profile_rejects_fixed_structure_family(self, tmp_path, capsys):
        exit_code = main(
            ["simulate-profile", "--code-family", "repetition",
             "--output", str(tmp_path / "p.json")]
        )
        assert exit_code == 2
        assert "fixed structure" in capsys.readouterr().err

    def test_beep_rejects_detect_only_family(self, capsys):
        exit_code = main(
            ["beep", "--data-bits", "8", "--error-positions", "2",
             "--code-family", "parity-detect"]
        )
        assert exit_code == 2
        assert "detect-only" in capsys.readouterr().err

    def test_beep_secded_suppresses_miscorrection_signal(self, capsys):
        # The same two weak cells BEEP fully identifies under SEC Hamming are
        # invisible under SEC-DED: their coincident failure is a double
        # error, which the extended code *detects* instead of miscorrecting.
        # The command must still run and report the partial result honestly.
        exit_code = main(
            ["beep", "--data-bits", "16", "--error-positions", "2,9",
             "--passes", "2", "--code-family", "secded-extended-hamming",
             "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["code_family"] == "secded-extended-hamming"
        assert exit_code == 1
        assert not payload["fully_identified"]
        assert payload["miscorrections_observed"] == 0

    def test_scenario_run_code_family_changes_store_key(self, tmp_path, capsys):
        base = ["scenario", "run", "--scenario", "uniform-random",
                "--param", "bit_error_rate=0.01", "--data-bits", "8",
                "--num-words", "100", "--json"]
        assert main(base) == 0
        default_key = json.loads(capsys.readouterr().out)["key"]
        assert main(base + ["--code-family", "secded-extended-hamming"]) == 0
        secded = json.loads(capsys.readouterr().out)
        assert secded["key"] != default_key
        assert secded["config"]["code"]["code_family"] == "secded-extended-hamming"
        assert secded["result"]["code_family"] == "secded-extended-hamming"


class TestScenarioJsonOutputs:
    """scenario list/report emit one valid machine-readable JSON document."""

    def test_scenario_list_json_is_valid_and_complete(self, capsys):
        from repro.scenarios import scenario_names

        assert main(["scenario", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list)
        assert [entry["name"] for entry in payload] == [
            definition for definition in scenario_names()
        ]
        for entry in payload:
            assert set(entry) == {"name", "description", "parameters"}

    def test_scenario_report_json_is_valid(self, tmp_path, capsys):
        store = tmp_path / "camp"
        assert main(
            ["scenario", "run", "--scenario", "uniform-random",
             "--param", "bit_error_rate=0.02", "--data-bits", "8",
             "--num-words", "200", "--store", str(store)]
        ) == 0
        capsys.readouterr()
        assert main(["scenario", "report", "--store", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_records"] == 1
        row = payload["scenarios"][0]
        assert row["scenario"] == "uniform-random"
        assert {"detected_words", "detected_fraction", "code_families"} <= set(row)
        assert row["code_families"] == ["sec-hamming"]

    def test_scenario_report_aggregates_families(self, tmp_path, capsys):
        store = tmp_path / "camp"
        for family_args in ([], ["--code-family", "parity-detect"]):
            assert main(
                ["scenario", "run", "--scenario", "uniform-random",
                 "--param", "bit_error_rate=0.02", "--data-bits", "8",
                 "--num-words", "200", "--store", str(store)] + family_args
            ) == 0
        capsys.readouterr()
        assert main(["scenario", "report", "--store", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["scenarios"][0]
        assert row["code_families"] == ["parity-detect", "sec-hamming"]
        assert row["detected_words"] > 0

    def test_einsim_repetition_beyond_table_limit_fails_cleanly(self, capsys):
        exit_code = main(
            ["einsim", "--data-bits", "32", "--num-words", "10",
             "--code-family", "repetition"]
        )
        assert exit_code == 2
        assert "table-decode limit" in capsys.readouterr().err

    def test_beep_repetition_beyond_table_limit_fails_cleanly(self, capsys):
        exit_code = main(
            ["beep", "--data-bits", "16", "--error-positions", "2",
             "--code-family", "repetition"]
        )
        assert exit_code == 2
        assert "table-decode limit" in capsys.readouterr().err
