"""Workload: bulk decode across code families, reference vs packed backends.

Port of the PR 5 ``bench_decoder.py`` writer.  For every family the packed
fast path must return corrected words and DUE masks bit-identical to the
reference oracle; detection-capable families must actually exercise the DUE
path.
"""

from __future__ import annotations

from typing import Mapping

from repro.bench.registry import (
    BenchContext,
    MetricGate,
    WorkloadResult,
    register_workload,
)
from repro.bench.schema import ORACLE_SKIPPED

#: Families whose decode produces detected-uncorrectable words that the
#: random workload must actually observe (the DUE-path coverage oracle).
DUE_FAMILIES = ("secded-extended-hamming", "parity-detect")


def _family_workloads(params: Mapping):
    from repro.ecc import get_family

    k = params["num_data_bits"]
    words = params["num_words"]
    return [
        ("sec-hamming", get_family("sec-hamming").construct(k), words),
        (
            "secded-extended-hamming",
            get_family("secded-extended-hamming").construct(k),
            words,
        ),
        ("parity-detect", get_family("parity-detect").construct(k), words),
        ("repetition-3x", get_family("repetition").construct(8), words),
        ("repetition-2x-detect", get_family("repetition").construct(8, 8), words),
    ]


def _run(params: Mapping, context: BenchContext) -> WorkloadResult:
    import numpy as np

    from repro.einsim.engine import bulk_decode_outcomes

    floor = params["speedup_floor"]
    rng = np.random.default_rng(params["seed"])
    result = WorkloadResult()
    result.artifacts["quick"] = not context.is_full
    result.artifacts["families"] = []
    for label, code, num_words in _family_workloads(params):
        received = rng.integers(
            0, 2, size=(num_words, code.codeword_length), dtype=np.uint8
        )
        timings = {}
        outputs = {}
        for backend in ("reference", "packed"):
            timings[backend] = context.control.measure(
                lambda b=backend, c=code, r=received: bulk_decode_outcomes(c, r, b)
            )
            outputs[backend] = timings[backend].last_result
        ref_corrected, ref_due = outputs["reference"]
        packed_corrected, packed_due = outputs["packed"]
        identical = bool(
            np.array_equal(ref_corrected, packed_corrected)
            and np.array_equal(ref_due, packed_due)
        )
        speedup = timings["reference"].best_seconds / max(
            timings["packed"].best_seconds, 1e-12
        )
        result.artifacts["families"].append(
            {
                "family": label,
                "codeword_length": code.codeword_length,
                "num_data_bits": code.num_data_bits,
                "detect_only": code.detect_only,
                "num_words": num_words,
            }
        )
        result.add(
            f"{label}:reference",
            metrics={"seconds": timings["reference"].best_seconds},
        )
        oracles = {"outputs_identical": identical}
        if label in DUE_FAMILIES:
            oracles["due_exercised"] = bool(ref_due.sum() > 0)
        # Every family must be at least never-slower than the reference
        # (this caught the parity-detect fold-table regression); the tiered
        # floor applies to the headline sec-hamming condition.
        family_floor = floor if label == "sec-hamming" else (
            None if floor is None else 1.0
        )
        oracles["speedup_floor"] = (
            ORACLE_SKIPPED if family_floor is None else speedup >= family_floor
        )
        result.add(
            f"{label}:packed",
            metrics={
                "seconds": timings["packed"].best_seconds,
                "speedup": speedup,
                "due_words": int(ref_due.sum()),
            },
            oracles=oracles,
        )
    return result


def _exact(metric: str):
    return (
        MetricGate(metric=metric, rel_tol=0.0, higher_is_better=True),
        MetricGate(metric=metric, rel_tol=0.0, higher_is_better=False),
    )


register_workload(
    name="decoder-families",
    description=(
        "reference vs packed bulk_decode_outcomes (corrected words + DUE "
        "masks) for every registered code family"
    ),
    tiers={
        "smoke": dict(num_data_bits=16, num_words=400, seed=0, speedup_floor=None),
        "quick": dict(num_data_bits=32, num_words=2_000, seed=0, speedup_floor=1.0),
        "full": dict(num_data_bits=128, num_words=20_000, seed=0, speedup_floor=3.0),
    },
    run=_run,
    gates=(
        # The per-family DUE counts are deterministic for a fixed seed.
        *_exact("due_words"),
        MetricGate(
            metric="speedup",
            condition="sec-hamming:packed",
            rel_tol=0.6,
            higher_is_better=True,
        ),
    ),
    tags=("core", "perf"),
)
