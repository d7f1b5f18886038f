"""The benchmark's four workloads.

Each workload is a closed loop: one client in one process sends its next op
only after the previous one returned.  Every input is generated from the
run's seed in set-up, and the library receives only the generated inputs.
A run repeats whole cycles of the op mix, so two runs with the same seed
and length do identical work.

Each workload offers the same op twice: ``op`` calls the library the way a
user would, and ``traced_op`` makes the same calls through the proxies and
spans of :mod:`perfbench.tracing`, returning what ``op`` returns plus the
counts read from the library's outputs.  Either raises on a wrong answer.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core import (
    BeerExperiment,
    BeerSolver,
    ExperimentConfig,
    SatBeerSolver,
    charged_patterns,
    expected_miscorrection_profile,
)
from repro.dram import ChipGeometry, DataRetentionModel, RetentionCalibration, all_vendors
from repro.ecc import codes_equivalent, min_parity_bits, random_hamming_code
from repro.scenarios import SweepRunner, SweepSpec, make_einsim_cell, resolve_code
from repro.scenarios import runner as sweep_runner
from repro.store import CampaignStore

from perfbench.tracing import ChipProxy, Recorder, StoreProxy

Outputs = Dict[str, float]


class CheckFailed(Exception):
    """An op returned a wrong answer."""


def derive_seed(seed: int, *path: int) -> int:
    """A seed for one input, derived from the run's seed and the input's path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


class Workload:
    """One workload: inputs made in ``__init__`` from the seed, then ops by index."""

    name = ""
    #: Seconds one cycle of the op mix takes on the reference machine; a run
    #: of ``--seconds S`` does round(S / cycle_seconds) whole cycles.
    cycle_seconds = 1.0
    #: Ops in one cycle of the op mix.
    cycle_length = 1
    #: Ops the warm-up runs at the end of set-up (the first ones of a cycle).
    warmup_ops = 1

    def op(self, index: int, directory: str) -> Any:
        """Run op ``index`` untraced; ``directory`` is a fresh path it may create."""
        raise NotImplementedError

    def traced_op(self, index: int, directory: str, recorder: Recorder) -> Tuple[Any, Outputs]:
        """Run op ``index`` with spans; returns what :meth:`op` returns, and counts."""
        raise NotImplementedError

    def final_check(self) -> None:
        """Checks made once after the timed loop, outside every metric."""


# ---------------------------------------------------------------------------
# beer-recovery: the paper's section 5 pipeline, chip to recovered code
# ---------------------------------------------------------------------------

#: Retention calibration that makes 30-60 s refresh pauses produce errors.
FAST_RETENTION = RetentionCalibration(1.0, 0.02, 60.0, 0.5)
VENDORS = tuple(all_vendors())


class BeerRecovery(Workload):
    """Each op builds a fresh vendor chip and runs ``BeerExperiment.run(solve=True)``.

    Ops cycle through vendors A, B and C.  With 32 rounds per window, 5 of
    156 vendor C chips (half their rows are anti-cells, so they see the
    fewest words per pattern) missed one profile entry and recovered no
    code; a miss becomes exponentially rarer with more rounds, and 64 rounds
    put the expected rate near one chip in a thousand.
    """

    name = "beer-recovery"
    cycle_seconds = 6.6
    cycle_length = len(VENDORS)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self._seed = seed
        self._data_bits = 8 if smoke else 16
        self._geometry = ChipGeometry(32 if smoke else 64, 8)
        self._config = ExperimentConfig(
            pattern_weights=(1, 2),
            refresh_windows_s=(30.0, 45.0, 60.0),
            rounds_per_window=8 if smoke else 64,
            threshold=0.0,
            discover_cell_encoding=True,
            discovery_pause_s=60.0,
        )

    def _chip(self, index: int) -> Any:
        return VENDORS[index % len(VENDORS)].make_chip(
            num_data_bits=self._data_bits,
            geometry=self._geometry,
            seed=derive_seed(self._seed, 1, index),
            retention_model=DataRetentionModel(FAST_RETENTION),
        )

    def op(self, index: int, directory: str) -> Any:
        chip = self._chip(index)
        solution = BeerExperiment(chip, self._config).run(solve=True).solution
        return _checked_recovery(solution, chip.code)

    def traced_op(self, index: int, directory: str, recorder: Recorder) -> Tuple[Any, Outputs]:
        with recorder.span("dram.build"):
            chip = self._chip(index)
        experiment = BeerExperiment(ChipProxy(chip, recorder), self._config)
        # The steps of BeerExperiment.run(solve=True), in its order.
        with recorder.span("core.discover"):
            cell_types = experiment.discover_cell_types()
        with recorder.span("core.measure"):
            counts = experiment.measure_counts(cell_types if cell_types else None)
        with recorder.span("core.profile"):
            profile = counts.to_profile(self._config.threshold)
        with recorder.span("core.solve"):
            solver = BeerSolver(self._data_bits, min_parity_bits(self._data_bits))
            solution = solver.solve(profile, max_solutions=None)
        outputs = {
            "core.solve_nodes": solution.nodes_visited,
            "core.candidates": solution.num_solutions,
            "core.words_per_pattern_min": min(
                counts.words_observed(pattern) for pattern in counts.patterns
            ),
        }
        return _checked_recovery(solution, chip.code), outputs


def _checked_recovery(solution: Any, code: Any) -> Tuple[Tuple[int, ...], ...]:
    """Require one complete, correct candidate; return the candidates' columns."""
    if solution.truncated or solution.num_solutions != 1:
        raise CheckFailed(f"{solution.num_solutions} candidate codes, expected 1")
    if not codes_equivalent(solution.codes[0], code):
        raise CheckFailed("the recovered code is not equivalent to the true code")
    return tuple(candidate.parity_column_ints for candidate in solution.codes)


# ---------------------------------------------------------------------------
# einsim-sweep: a four-cell Monte-Carlo sweep into a fresh single-file store
# ---------------------------------------------------------------------------

class EinsimSweep(Workload):
    """Each op expands a 4-cell spec and runs it into a fresh single-file store.

    The (136,128) SEC code simulates 131,072 words per cell.  The three
    injector kinds reach the dense, subset and sparse paths for packed error
    masks, so a kernel change that speeds one and slows another shows.
    """

    name = "einsim-sweep"
    cycle_seconds = 1.4

    def __init__(self, seed: int, smoke: bool = False) -> None:
        rng = np.random.default_rng(derive_seed(seed, 2))
        codeword_bits = 136
        weak_cells = sorted(int(p) for p in rng.choice(codeword_bits, 8, replace=False))
        self._spec = {
            "name": "perfbench-einsim-sweep",
            "num_words": 4096 if smoke else 131072,
            "seeds": [int(rng.integers(2**31))],
            "codes": [{"data_bits": 128, "code_seed": int(rng.integers(2**31))}],
            "scenarios": [
                {"name": "data-retention-true", "params": {"bit_error_rate": [1e-3, 5e-3]}},
                {
                    "name": "fixed-error-count",
                    "params": {
                        "num_errors": 8,
                        "per_bit_probability": 0.5,
                        "candidate_positions": [weak_cells],
                    },
                },
                {"name": "fixed-error-count", "params": {"num_errors": 2}},
            ],
        }
        self._cells = len(SweepSpec.from_dict(self._spec).cells)
        self._records: Optional[bytes] = None

    def op(self, index: int, directory: str) -> Any:
        spec = SweepSpec.from_dict(self._spec)
        report = SweepRunner(CampaignStore(directory)).run(spec)
        return self._checked(report, directory)

    def traced_op(self, index: int, directory: str, recorder: Recorder) -> Tuple[Any, Outputs]:
        with recorder.span("scenarios.expand"):
            spec = SweepSpec.from_dict(self._spec)
        with recorder.span("store.open"):
            store = CampaignStore(directory)
        runner = SweepRunner(StoreProxy(store, recorder, "store"))
        execute = _timed_execute_cell(recorder, sweep_runner.execute_cell)
        with _replaced(sweep_runner, "execute_cell", execute):
            with recorder.span("scenarios.run"):
                report = runner.run(spec)
        return self._checked(report, directory), {}

    def _checked(self, report: Any, directory: str) -> bytes:
        """Require every cell simulated and records identical to the first op's."""
        if report.simulated != self._cells or not report.completed:
            raise CheckFailed(f"{report.simulated} of {self._cells} cells simulated")
        with open(os.path.join(directory, CampaignStore.RECORDS_FILENAME), "rb") as handle:
            records = handle.read()
        if self._records is None:
            self._records = records
        elif records != self._records:
            raise CheckFailed("records.jsonl differs from the first op's")
        return records

    def final_check(self) -> None:
        """The results the ops stored must equal the reference backend's."""
        stored = [json.loads(line)["result"] for line in self._records.splitlines()]
        spec = SweepSpec.from_dict(dict(self._spec, backends=["reference"]))
        reference = [outcome.record.result for outcome in SweepRunner(None).run(spec).outcomes]
        if stored != reference:
            raise CheckFailed("the default backend disagrees with the reference backend")


def _cell_kind(config: Dict[str, Any]) -> str:
    if config["scenario"] == "data-retention-true":
        return "retention"
    if config["params"]["candidate_positions"] is not None:
        return "beep"
    return "two_error"


def _timed_execute_cell(recorder: Recorder, execute: Callable[..., Dict[str, Any]]) -> Callable:
    """Wrap ``execute_cell`` in an ``einsim.execute`` span carrying the result's counts."""

    def timed(cell: Any, processes: int = 1) -> Dict[str, Any]:
        with recorder.span("einsim.execute") as span:
            result = execute(cell, processes)
        span.attrs.update(
            kind=_cell_kind(cell.config()),
            words=result["num_words"],
            miscorrected=result["miscorrected_words"],
            uncorrectable=result["uncorrectable_words"],
        )
        return result

    return timed


@contextlib.contextmanager
def _replaced(module: Any, name: str, value: Any) -> Iterator[None]:
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


# ---------------------------------------------------------------------------
# store-ingest: commit, reopen and read back 5,000 records in both layouts
# ---------------------------------------------------------------------------

#: Store layouts in the order each op writes them, with their span prefixes.
LAYOUTS = (("single-file", "store.v1"), ("sharded", "store.v2"))


class StoreIngest(Workload):
    """Each op commits 5,000 einsim-shaped records to a fresh store of each layout.

    It then reopens each store, tests membership of every key, reads every
    record and compares it with what was written.  The single-file layout
    pays on reopen, the sharded one on put and on lazy get.
    """

    name = "store-ingest"
    cycle_seconds = 2.8

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self._records = _einsim_shaped_records(
            np.random.default_rng(derive_seed(seed, 3)), 200 if smoke else 5000
        )

    def op(self, index: int, directory: str) -> Any:
        for layout, _ in LAYOUTS:
            path = os.path.join(directory, layout)
            store = CampaignStore(path, layout=layout)
            keys = [store.put(config, result).key for config, result in self._records]
            self._check_read_back(CampaignStore(path), keys)

    def traced_op(self, index: int, directory: str, recorder: Recorder) -> Tuple[Any, Outputs]:
        for layout, prefix in LAYOUTS:
            path = os.path.join(directory, layout)
            with recorder.span(prefix + ".open"):
                store = StoreProxy(CampaignStore(path, layout=layout), recorder, prefix)
            keys = [store.put(config, result).key for config, result in self._records]
            with recorder.span(prefix + ".open"):
                reopened = StoreProxy(CampaignStore(path), recorder, prefix)
            self._check_read_back(reopened, keys)
        return None, {}

    def _check_read_back(self, store: Any, keys: List[str]) -> None:
        if store.keys() != keys:
            raise CheckFailed("keys() after reopen are not in commit order")
        if not all(key in store for key in keys):
            raise CheckFailed("a committed key is missing after reopen")
        for key, (config, result) in zip(keys, self._records):
            record = store.get(key)
            if record is None or record.config != config or record.result != result:
                raise CheckFailed("a record read back differs from what was written")


def _einsim_shaped_records(
    rng: np.random.Generator, count: int
) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """Configs like ``make_einsim_cell(...).config()`` and results like ``execute_cell``'s."""
    code = resolve_code({"data_bits": 16})
    template = make_einsim_cell(
        "data-retention-true", {"bit_error_rate": 1e-3}, {"data_bits": 16}, num_words=1
    ).config()
    length = code.codeword_length
    bers = rng.uniform(1e-4, 1e-2, count)
    words = rng.integers(1_000, 1_000_000, count)
    seeds = rng.integers(0, 2**31, count)
    post = rng.integers(0, 2_000, (count, length))
    pre = rng.integers(0, 20_000, (count, length))
    bad = rng.integers(0, 500, (count, 2))
    positions = rng.random((count, code.num_data_bits)) < 0.3
    records = []
    for i in range(count):
        config = dict(
            template,
            params={"bit_error_rate": float(bers[i])},
            num_words=int(words[i]),
            seed=int(seeds[i]),
        )
        result = {
            "codeword_length": length,
            "num_data_bits": code.num_data_bits,
            "code_family": code.family_name,
            "parity_columns": [int(c) for c in code.parity_column_ints],
            "num_words": int(words[i]),
            "post_correction_error_counts": post[i].tolist(),
            "pre_correction_error_counts": pre[i].tolist(),
            "uncorrectable_words": int(bad[i, 0]),
            "miscorrected_words": int(bad[i, 1]),
            "detected_words": 0,
            "miscorrection_positions": np.flatnonzero(positions[i]).tolist(),
        }
        records.append((config, result))
    return records


# ---------------------------------------------------------------------------
# sat-solve: the paper's SAT formulation on exact profiles
# ---------------------------------------------------------------------------

class SatSolve(Workload):
    """Each op runs ``SatBeerSolver(8).solve`` on the exact {1,2}-CHARGED profile
    of one of 8 random SEC codes drawn in set-up."""

    name = "sat-solve"
    cycle_seconds = 2.0
    data_bits = 8

    def __init__(self, seed: int, smoke: bool = False) -> None:
        rng = np.random.default_rng(derive_seed(seed, 4))
        self.cycle_length = self.warmup_ops = 2 if smoke else 8
        patterns = list(charged_patterns(self.data_bits, [1, 2]))
        self._codes = [
            random_hamming_code(self.data_bits, rng=rng) for _ in range(self.cycle_length)
        ]
        self._profiles = [expected_miscorrection_profile(code, patterns) for code in self._codes]

    def op(self, index: int, directory: str) -> Any:
        position = index % self.cycle_length
        solution = SatBeerSolver(self.data_bits).solve(self._profiles[position])
        return _checked_recovery(solution, self._codes[position])

    def traced_op(self, index: int, directory: str, recorder: Recorder) -> Tuple[Any, Outputs]:
        position = index % self.cycle_length
        with recorder.span("sat.solve"):
            solution = SatBeerSolver(self.data_bits).solve(self._profiles[position])
        stats = solution.solver_stats
        outputs = {
            "sat.models": solution.nodes_visited,
            "sat.solve_calls": stats["solve_calls"],
            "sat.conflicts": stats["conflicts"],
            "sat.propagations": stats["propagations"],
            "sat.useful_model_ratio": solution.num_solutions / solution.nodes_visited,
        }
        return _checked_recovery(solution, self._codes[position]), outputs


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    workload.name: workload
    for workload in (BeerRecovery, EinsimSweep, StoreIngest, SatSolve)
}
