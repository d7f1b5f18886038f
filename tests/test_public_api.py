"""Tests for the top-level public API surface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestPublicApi:
    def test_version_string(self):
        assert repro.__version__
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"

    def test_readme_quickstart_round_trip(self):
        # The exact flow shown in README.md / the package docstring.
        secret = repro.random_hamming_code(16, rng=np.random.default_rng(0))
        profile = repro.expected_miscorrection_profile(
            secret, list(repro.charged_patterns(16, [1, 2]))
        )
        solution = repro.BeerSolver(16).solve(profile)
        assert solution.unique
        assert repro.codes_equivalent(solution.code, secret)

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.cli
        import repro.core
        import repro.dram
        import repro.ecc
        import repro.einsim
        import repro.gf2
        import repro.sat

        assert repro.analysis and repro.cli and repro.core and repro.dram
        assert repro.ecc and repro.einsim and repro.gf2 and repro.sat

    def test_console_script_entry_point_callable(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--help"])

    def test_key_types_are_exposed(self):
        assert repro.BeerSolver is not None
        assert repro.SatBeerSolver is not None
        assert repro.BeepProfiler is not None
        assert repro.SimulatedDramChip is not None
        assert repro.EinsimSimulator is not None
        assert repro.CDCLSolver is not None

    def test_the_library_imports_without_scipy(self):
        # numpy is the only runtime dependency (requirements.txt); a None in
        # sys.modules makes any scipy import raise ModuleNotFoundError.
        script = 'import sys; sys.modules["scipy"] = None; import repro, repro.cli'
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert result.returncode == 0, result.stderr
