"""Sweep execution: cache-aware, resumable, optionally process-parallel.

The runner walks a :class:`~repro.scenarios.sweep.SweepSpec`'s cell matrix in
deterministic order.  For each cell it consults the campaign store first —
a hit is served without simulating anything; a miss is executed through the
chunked :class:`~repro.core.experiment.MonteCarloCampaign` (``einsim`` cells)
or a full :class:`~repro.core.experiment.BeerExperiment` against a simulated
vendor chip (``beer`` cells) and checkpointed to the store.

With ``jobs > 1`` the cache-miss cells are fanned out over a process pool.
Every cell's configuration carries its own deterministic seed, so workers
are fully independent; results are *committed in spec order* regardless of
completion order, which keeps the store byte-identical to a serial run of
the same spec.  Interrupting a sweep loses at most the not-yet-committed
cells; re-running the same spec completes exactly the missing cells and
produces a store byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import TRACER
from repro.dram import ChipGeometry, DataRetentionModel, all_vendors
from repro.dram.retention import FAST_RETENTION
from repro.exceptions import ScenarioError
from repro.core.experiment import BeerExperiment, ExperimentConfig, MonteCarloCampaign
from repro.einsim.injectors import SAMPLER_VERSION
from repro.scenarios.registry import build_injector
from repro.scenarios.sweep import (
    ExperimentCell,
    SweepSpec,
    resolve_code,
    resolve_dataword,
)
from repro.store import CampaignStore, ResultRecord


@dataclass
class CellOutcome:
    """What happened to one cell during a sweep run."""

    cell: ExperimentCell
    record: ResultRecord
    cached: bool


@dataclass
class SweepReport:
    """Summary of one sweep invocation."""

    spec_name: str
    total_cells: int
    simulated: int
    cached: int
    completed: bool
    outcomes: List[CellOutcome] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary (used by ``scenario sweep --json``)."""
        return {
            "name": self.spec_name,
            "total_cells": self.total_cells,
            "simulated": self.simulated,
            "cached": self.cached,
            "completed": self.completed,
        }


# ---------------------------------------------------------------------------
# Stateless cell execution (module level so process-pool workers pickle it)
# ---------------------------------------------------------------------------

def execute_cell(cell: ExperimentCell, processes: int = 1) -> Dict[str, Any]:
    """Execute one cell from scratch and return its canonical result dict.

    Pure function of the cell's configuration (every source of variation,
    including the seed, lives in the config), which is what makes both the
    content-addressed cache and the process-parallel fan-out sound.
    """
    config = cell.config()
    if cell.kind == "einsim":
        return _execute_einsim_cell(config, processes)
    return _execute_beer_cell(config)


def _execute_cell_job(job: Tuple) -> Dict[str, Any]:
    """Worker entry point: rebuild the cell and run it single-process.

    Workers always run their inner campaign with ``processes=1`` — the
    parallelism budget is spent at the cell level, and campaign results are
    bit-identical for any process count anyway.

    ``job`` is ``(kind, config_json)`` untraced, or
    ``(kind, config_json, segment_path, id_prefix)`` when the parent is
    tracing: the worker then records its own trace into ``segment_path``
    (span ids namespaced by ``id_prefix`` so the parent's deterministic
    merge can never collide ids across segments).  Tracing never touches
    the result value, so ``records.jsonl`` stays byte-identical either way.
    """
    kind, config_json = job[0], job[1]
    segment_path = job[2] if len(job) > 2 else None
    cell = ExperimentCell(kind=kind, config_json=config_json)
    if segment_path is None:
        return execute_cell(cell)
    TRACER.enable(
        sink_path=segment_path,
        id_prefix=job[3],
        meta={"role": "sweep-worker", "kind": kind},
    )
    try:
        with TRACER.span("sweep.cell.execute", kind=kind, key=cell.key()[:16]):
            result = execute_cell(cell)
        TRACER.flush()
    finally:
        TRACER.disable()
    return result


def _execute_einsim_cell(config: Dict[str, Any], processes: int) -> Dict[str, Any]:
    if config.get("sampler") != SAMPLER_VERSION:
        # The config's content key names results of another random stream;
        # running today's sampler under it would mislabel the result.
        raise ScenarioError(
            f"einsim cell was keyed for sampler {config.get('sampler')!r}, but "
            f"the injectors run sampler {SAMPLER_VERSION}; rebuild the cell "
            "with make_einsim_cell"
        )
    code = resolve_code(config["code"])
    dataword = resolve_dataword(config["dataword"], code.num_data_bits)
    injector = build_injector(config["scenario"], config["params"])
    campaign = MonteCarloCampaign(
        code,
        chunk_size=config["chunk_size"],
        processes=processes,
        backend=config["backend"],
        base_seed=config["seed"],
    )
    result = campaign.simulate(dataword, injector, config["num_words"])
    return {
        "codeword_length": code.codeword_length,
        "num_data_bits": code.num_data_bits,
        "code_family": code.family_name,
        "parity_columns": [int(c) for c in code.parity_column_ints],
        "num_words": int(result.num_words),
        "post_correction_error_counts": [
            int(c) for c in result.post_correction_error_counts
        ],
        "pre_correction_error_counts": [
            int(c) for c in result.pre_correction_error_counts
        ],
        "uncorrectable_words": int(result.uncorrectable_words),
        "miscorrected_words": int(result.miscorrected_words),
        "detected_words": int(result.detected_words),
        "miscorrection_positions": [
            int(p) for p in result.miscorrection_positions
        ],
    }


def _execute_beer_cell(config: Dict[str, Any]) -> Dict[str, Any]:
    vendors = {vendor.name: vendor for vendor in all_vendors()}
    try:
        vendor = vendors[config["vendor"]]
    except KeyError:
        raise ScenarioError(
            f"unknown vendor {config['vendor']!r}; known vendors: "
            f"{sorted(vendors)}"
        ) from None
    chip = vendor.make_chip(
        num_data_bits=config["data_bits"],
        geometry=ChipGeometry(
            num_rows=config["num_rows"], words_per_row=config["words_per_row"]
        ),
        seed=config["seed"],
        retention_model=DataRetentionModel(FAST_RETENTION),
    )
    experiment_config = ExperimentConfig(
        pattern_weights=tuple(config["pattern_weights"]),
        refresh_windows_s=tuple(config["refresh_windows_s"]),
        rounds_per_window=config["rounds_per_window"],
        threshold=config["threshold"],
        discover_cell_encoding=True,
        discovery_pause_s=max(config["refresh_windows_s"]),
    )
    result = BeerExperiment(chip, experiment_config).run(solve=False)
    profile = result.profile
    payload = {
        "num_data_bits": profile.num_data_bits,
        "num_patterns": len(profile.patterns),
        "total_miscorrections": int(profile.total_miscorrections),
        "profile": profile.to_dict(),
    }
    if config.get("solve"):
        # Recover the ECC function through the incremental SAT backend and
        # keep its statistics with the cell, so `scenario report` can
        # aggregate conflicts/decisions/propagations per campaign.
        from repro.core import SatBeerSolver

        with TRACER.span("beer.sat_solve", vendor=config["vendor"]):
            solution = SatBeerSolver(profile.num_data_bits).solve(profile)
        payload["num_solutions"] = int(solution.num_solutions)
        payload["solver_stats"] = solution.solver_stats
    return payload


class SweepRunner:
    """Executes sweep specs against an (optional) persistent campaign store.

    Parameters
    ----------
    store:
        Campaign store consulted before and written after every cell;
        ``None`` runs everything fresh with no persistence.
    processes:
        Worker processes handed to :class:`MonteCarloCampaign` *within* a
        single ``einsim`` cell.  Results are bit-identical for any value.
        Ignored while ``jobs > 1`` (workers run their campaigns inline so
        pools never nest).
    jobs:
        Number of cells executed concurrently, each in its own worker
        process.  ``1`` (the default) keeps the historical strictly-serial
        behaviour.  Any value produces a byte-identical store: results are
        committed in spec order no matter when workers finish.
    """

    def __init__(
        self,
        store: Optional[CampaignStore] = None,
        processes: int = 1,
        jobs: int = 1,
    ):
        if int(jobs) < 1:
            raise ScenarioError("jobs must be at least 1")
        self._store = store
        self._processes = int(processes)
        self._jobs = int(jobs)

    @property
    def store(self) -> Optional[CampaignStore]:
        """The campaign store, if any."""
        return self._store

    @property
    def jobs(self) -> int:
        """Number of cells executed concurrently."""
        return self._jobs

    def run(
        self,
        spec: SweepSpec,
        max_new_simulations: Optional[int] = None,
        progress: Optional[Callable[[CellOutcome], None]] = None,
    ) -> SweepReport:
        """Run every cell of ``spec``, serving cached cells from the store.

        ``max_new_simulations`` stops the sweep after that many fresh
        simulations (cached cells do not count) — the hook used to exercise
        interruption/resume behaviour deterministically.
        """
        report = SweepReport(
            spec_name=spec.name,
            total_cells=spec.num_cells,
            simulated=0,
            cached=0,
            completed=True,
        )
        # Partition pass: decide, in spec order, which cells are served from
        # cache and which must be simulated — stopping (exactly like the
        # serial walk always has) at the first miss beyond the budget.  Hit
        # checks are pure membership tests against the store's index (on a
        # sharded store an O(1) dict lookup that never parses payloads);
        # record bodies load lazily at serve time in the commit loop.  A
        # later duplicate of a cell this run will already have committed is
        # neither a miss nor submitted to a worker: by the time the commit
        # loop reaches it, the store serves it as a cache hit.
        plan: List[Tuple[ExperimentCell, bool]] = []
        miss_indices: List[int] = []
        planned_keys = set()
        for cell in spec.cells:
            key = cell.key()
            hit = self._store is not None and key in self._store
            if not hit and not (
                self._store is not None and key in planned_keys
            ):
                if max_new_simulations is not None and len(miss_indices) >= (
                    max_new_simulations
                ):
                    report.completed = False
                    break
                miss_indices.append(len(plan))
                planned_keys.add(key)
            plan.append((cell, hit))
        misses = len(miss_indices)

        pool: Optional[ProcessPoolExecutor] = None
        futures: Dict[int, "Future[Dict[str, Any]]"] = {}
        segments: Dict[int, str] = {}
        submit_cursor = 0
        # Workers write per-cell trace segments only when the parent tracer
        # has a real sink; the parent adopts them in spec order at commit
        # time, which keeps the merged trace deterministic.
        segment_dir = TRACER.segment_dir() if TRACER.enabled else None

        def submit_up_to(limit: int) -> None:
            # Keep a bounded window of cells in flight ahead of the commit
            # cursor, so a slow early cell cannot make every later result
            # buffer in memory at once.
            nonlocal submit_cursor
            while submit_cursor < len(miss_indices) and len(futures) < limit:
                index = miss_indices[submit_cursor]
                cell = plan[index][0]
                job: Tuple = (cell.kind, cell.config_json)
                if segment_dir is not None:
                    segments[index] = os.path.join(
                        segment_dir, f"segment-{index:08d}.jsonl"
                    )
                    job = job + (segments[index], f"c{index}.")
                futures[index] = pool.submit(_execute_cell_job, job)
                submit_cursor += 1

        run_span = TRACER.span(
            "sweep.run", spec=spec.name, total_cells=spec.num_cells,
            jobs=self._jobs, misses=misses,
        )
        if self._jobs > 1 and misses > 1:
            pool = ProcessPoolExecutor(max_workers=min(self._jobs, misses))
            submit_up_to(2 * self._jobs)
        try:
            with run_span:
                for index, (cell, hit) in enumerate(plan):
                    cached: Optional[ResultRecord] = None
                    if self._store is not None and (
                        hit or index not in futures
                    ):
                        # Planned hits load their record lazily here; a miss
                        # not in flight is a duplicate planned behind its
                        # first occurrence (or a serial miss) whose earlier
                        # commit may have landed by now.
                        cached = self._store.get(cell.key())
                    with TRACER.span(
                        "sweep.cell", index=index, kind=cell.kind
                    ) as cell_span:
                        if TRACER.enabled:
                            cell_span.set_attr("key", cell.key()[:16])
                        if cached is not None:
                            outcome = CellOutcome(cell=cell, record=cached, cached=True)
                            report.cached += 1
                            cell_span.set_attr("cached", True)
                            TRACER.add("sweep.cells.cache_hit")
                        else:
                            if index in futures:
                                with TRACER.span("sweep.cell.wait", index=index):
                                    result = futures.pop(index).result()
                                segment = segments.pop(index, None)
                                if segment is not None and os.path.exists(segment):
                                    TRACER.adopt_segment(
                                        segment, parent_id=cell_span.span_id
                                    )
                                    os.remove(segment)
                                submit_up_to(2 * self._jobs)
                            else:
                                with TRACER.span(
                                    "sweep.cell.execute", kind=cell.kind
                                ):
                                    result = execute_cell(cell, self._processes)
                            with TRACER.span("sweep.cell.commit", index=index):
                                record = self._commit(cell, result)
                            outcome = CellOutcome(cell=cell, record=record, cached=False)
                            report.simulated += 1
                            cell_span.set_attr("cached", False)
                            TRACER.add("sweep.cells.simulated")
                    report.outcomes.append(outcome)
                    if progress is not None:
                        progress(outcome)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            if segment_dir is not None:
                # Unadopted segments (interrupted sweep, cancelled futures)
                # must not leak into a later run's merge.
                for leftover in segments.values():
                    if os.path.exists(leftover):
                        os.remove(leftover)
        return report

    def run_one(self, cell: ExperimentCell) -> CellOutcome:
        """Run a single cell, serving it from the store when possible."""
        with TRACER.span("sweep.cell", kind=cell.kind) as cell_span:
            if TRACER.enabled:
                cell_span.set_attr("key", cell.key()[:16])
            if self._store is not None:
                cached_record = self._store.get(cell.key())
                if cached_record is not None:
                    cell_span.set_attr("cached", True)
                    TRACER.add("sweep.cells.cache_hit")
                    return CellOutcome(cell=cell, record=cached_record, cached=True)
            with TRACER.span("sweep.cell.execute", kind=cell.kind):
                result = self.run_cell(cell)
            with TRACER.span("sweep.cell.commit"):
                record = self._commit(cell, result)
            cell_span.set_attr("cached", False)
            TRACER.add("sweep.cells.simulated")
            return CellOutcome(cell=cell, record=record, cached=False)

    def run_cell(self, cell: ExperimentCell) -> Dict[str, Any]:
        """Execute one cell from scratch and return its canonical result dict."""
        return execute_cell(cell, self._processes)

    def _commit(self, cell: ExperimentCell, result: Dict[str, Any]) -> ResultRecord:
        config = cell.config()
        if self._store is not None:
            return self._store.put(config, result)
        return ResultRecord(key=cell.key(), config=config, result=result)
