"""Typed loading and reporting over persistent campaign stores.

The campaign store keeps raw JSON records; analysis code wants typed results
(:class:`~repro.einsim.simulator.SimulationResult`) and aggregate summaries.
These helpers bridge the two — they power ``beer-tool scenario report`` and
give figure/notebook code a one-call path from a store directory to numbers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.einsim.simulator import SimulationResult
from repro.scenarios.sweep import resolve_dataword
from repro.store import CampaignStore, ResultRecord


def load_simulation_results(
    store: CampaignStore, **config_filters
) -> List[Tuple[Dict[str, Any], SimulationResult]]:
    """Rehydrate every matching ``einsim`` record into a typed result.

    Returns ``(config, SimulationResult)`` pairs in store order; filters are
    equality constraints on top-level config fields (e.g.
    ``scenario="burst"``, ``backend="packed"``).  Filtering happens against
    the store's index, so on a sharded store only the *matching* records'
    payloads are ever deserialised.
    """
    pairs = []
    for record in store.query(kind="einsim", **config_filters):
        pairs.append((record.config, _to_simulation_result(record)))
    return pairs


def campaign_report_data(store: CampaignStore) -> Dict[str, Any]:
    """Aggregate a campaign store into per-scenario summary rows.

    For ``einsim`` cells: cells, words simulated, uncorrectable/miscorrected
    word fractions, and the mean per-data-bit post-correction error rate.
    ``beer`` cells are summarised per vendor with their profile sizes.
    """
    scenario_rows: Dict[str, Dict[str, Any]] = {}
    beer_rows: Dict[str, Dict[str, Any]] = {}
    family_sets: Dict[str, set] = {}
    for record in store.records():
        config, result = record.config, record.result
        if config.get("kind") == "einsim":
            row = scenario_rows.setdefault(
                config["scenario"],
                {
                    "scenario": config["scenario"],
                    "cells": 0,
                    "num_words": 0,
                    "uncorrectable_words": 0,
                    "miscorrected_words": 0,
                    "detected_words": 0,
                    "post_correction_errors": 0,
                    "data_bits_observed": 0,
                },
            )
            row["cells"] += 1
            row["num_words"] += result["num_words"]
            row["uncorrectable_words"] += result["uncorrectable_words"]
            row["miscorrected_words"] += result["miscorrected_words"]
            # Older stores predate the DUE path and code families; default to
            # zero detections and the historical single family.
            row["detected_words"] += result.get("detected_words", 0)
            family_sets.setdefault(config["scenario"], set()).add(
                result.get("code_family", "sec-hamming")
            )
            row["post_correction_errors"] += int(
                np.sum(result["post_correction_error_counts"])
            )
            row["data_bits_observed"] += (
                result["num_words"] * result["num_data_bits"]
            )
        elif config.get("kind") == "beer":
            row = beer_rows.setdefault(
                config["vendor"],
                {
                    "vendor": config["vendor"],
                    "cells": 0,
                    "num_patterns": 0,
                    "total_miscorrections": 0,
                    "solved_cells": 0,
                    "sat_conflicts": 0,
                    "sat_decisions": 0,
                    "sat_propagations": 0,
                },
            )
            row["cells"] += 1
            row["num_patterns"] += result["num_patterns"]
            row["total_miscorrections"] += result["total_miscorrections"]
            # Cells run with solve=True carry the incremental CDCL solver's
            # statistics; aggregate them so per-campaign SAT effort is
            # visible without re-running anything.
            stats = result.get("solver_stats")
            if stats:
                row["solved_cells"] += 1
                row["sat_conflicts"] += int(stats.get("conflicts", 0))
                row["sat_decisions"] += int(stats.get("decisions", 0))
                row["sat_propagations"] += int(stats.get("propagations", 0))

    for name, row in scenario_rows.items():
        words = max(row["num_words"], 1)
        bits = max(row["data_bits_observed"], 1)
        row["uncorrectable_fraction"] = row["uncorrectable_words"] / words
        row["miscorrected_fraction"] = row["miscorrected_words"] / words
        row["detected_fraction"] = row["detected_words"] / words
        row["post_correction_ber"] = row["post_correction_errors"] / bits
        row["code_families"] = sorted(family_sets.get(name, ()))

    return {
        "num_records": len(store),
        "scenarios": [scenario_rows[name] for name in sorted(scenario_rows)],
        "beer_campaigns": [beer_rows[name] for name in sorted(beer_rows)],
    }


def _to_simulation_result(record: ResultRecord) -> SimulationResult:
    config, result = record.config, record.result
    return SimulationResult(
        dataword=resolve_dataword(config["dataword"], result["num_data_bits"]),
        num_words=result["num_words"],
        post_correction_error_counts=np.asarray(
            result["post_correction_error_counts"], dtype=np.int64
        ),
        pre_correction_error_counts=np.asarray(
            result["pre_correction_error_counts"], dtype=np.int64
        ),
        uncorrectable_words=result["uncorrectable_words"],
        miscorrected_words=result["miscorrected_words"],
        miscorrection_positions=tuple(result["miscorrection_positions"]),
        detected_words=result.get("detected_words", 0),
    )
