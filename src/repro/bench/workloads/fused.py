"""Workload: the fused Monte-Carlo decode pipeline vs the staged reference.

Two scenarios on the paper's headline (136, 128) SEC-Hamming word, both
run through :class:`repro.einsim.simulator.EinsimSimulator` end to end:

* ``mc-beep`` — the BEEP weak-cell case: eight known error-prone cells,
  each firing with probability one half
  (:class:`repro.einsim.injectors.FixedErrorCountInjector`).  The packed
  protocol keeps the round in the subset representation, which the fused
  kernel classifies from a single histogram — the headline speedup, with a
  floor of 25x over the reference at the full tier.
* ``mc-retention`` — uniform anti-cell retention failures
  (:class:`repro.einsim.injectors.DataRetentionInjector`), the coordinate
  representation: the kernel looks only at the words that hold an error.

Every tier proves bit-identity: the ``packed`` backend, which runs the
fused round, must agree with the ``reference`` oracle on every
``SimulationResult`` field (counts, DUE words, miscorrection positions) for
the same seed.  The deterministic outcome
counts are additionally gated exactly against the committed baselines.
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

#: Number of BEEP weak cells (and exact errors placed) per codeword.
_BEEP_CELLS = 8


def _results_equal(left, right) -> bool:
    import numpy as np

    return bool(
        np.array_equal(
            left.post_correction_error_counts, right.post_correction_error_counts
        )
        and np.array_equal(
            left.pre_correction_error_counts, right.pre_correction_error_counts
        )
        and left.num_words == right.num_words
        and left.uncorrectable_words == right.uncorrectable_words
        and left.miscorrected_words == right.miscorrected_words
        and left.miscorrection_positions == right.miscorrection_positions
        and left.detected_words == right.detected_words
    )


def _scenarios(code, params: Mapping):
    import numpy as np

    from repro.einsim.injectors import DataRetentionInjector, FixedErrorCountInjector

    # Evenly spread weak cells across the codeword, deterministically.
    candidates = np.linspace(
        0, code.codeword_length - 1, _BEEP_CELLS
    ).astype(np.int64)
    return [
        (
            "mc-beep",
            FixedErrorCountInjector(
                _BEEP_CELLS,
                candidate_positions=[int(c) for c in candidates],
                per_bit_probability=0.5,
            ),
            params["beep_floor"],
        ),
        (
            "mc-retention",
            DataRetentionInjector(params["retention_rate"], "anti-cell"),
            params["retention_floor"],
        ),
    ]


def _run(params: Mapping, context: BenchContext) -> WorkloadResult:
    import numpy as np

    from repro.ecc import get_family
    from repro.einsim.simulator import EinsimSimulator

    code = get_family("sec-hamming").construct(params["num_data_bits"])
    dataword = np.zeros(code.num_data_bits, dtype=np.uint8)
    num_words = params["num_words"]
    seed = params["seed"]

    result = WorkloadResult()
    result.artifacts.update(
        {
            "quick": not context.is_full,
            "codeword_length": code.codeword_length,
            "num_data_bits": code.num_data_bits,
            "num_words": num_words,
        }
    )
    for scenario, injector, floor in _scenarios(code, params):
        timings = {}
        outputs = {}
        for backend in ("reference", "packed"):
            # A fresh simulator per measured call replays the same RNG
            # stream, so repeated timing runs stay deterministic.
            def simulate(b=backend):
                simulator = EinsimSimulator(code, seed=seed, backend=b)
                return simulator.simulate(dataword, num_words, injector)

            timings[backend] = context.control.measure(simulate)
            outputs[backend] = timings[backend].last_result
        reference = outputs["reference"]
        speedup = timings["reference"].best_seconds / max(
            timings["packed"].best_seconds, 1e-12
        )
        result.add(
            f"{scenario}:reference",
            metrics={"seconds": timings["reference"].best_seconds},
        )
        result.add(
            f"{scenario}:packed",
            metrics={
                "seconds": timings["packed"].best_seconds,
                "speedup": speedup,
                "uncorrectable_words": reference.uncorrectable_words,
                "miscorrected_words": reference.miscorrected_words,
                "detected_words": reference.detected_words,
            },
            oracles={
                "results_identical": _results_equal(reference, outputs["packed"]),
                # The scenarios must actually exercise the multi-bit paths
                # the fused classifier reimplements, not just clean words.
                "multi_bit_exercised": reference.uncorrectable_words > 0,
                "speedup_floor": (
                    ORACLE_SKIPPED if floor is None else speedup >= floor
                ),
            },
        )
    return result


def _exact(metric: str):
    return (
        MetricGate(metric=metric, rel_tol=0.0, higher_is_better=True),
        MetricGate(metric=metric, rel_tol=0.0, higher_is_better=False),
    )


register_workload(
    name="decoder-fused",
    description=(
        "fused Monte-Carlo pipeline (inject+decode+classify on packed "
        "masks) of the packed backend vs reference staged simulation"
    ),
    tiers={
        "smoke": dict(
            num_data_bits=16,
            num_words=1_000,
            seed=11,
            retention_rate=0.02,
            beep_floor=None,
            retention_floor=None,
        ),
        "quick": dict(
            num_data_bits=128,
            num_words=20_000,
            seed=11,
            retention_rate=0.001,
            beep_floor=5.0,
            retention_floor=1.5,
        ),
        "full": dict(
            num_data_bits=128,
            num_words=100_000,
            seed=11,
            retention_rate=0.001,
            beep_floor=25.0,
            retention_floor=1.5,
        ),
    },
    run=_run,
    gates=(
        # Outcome counts are deterministic for a fixed seed: a drifting
        # count means a backend silently changed behaviour.
        *_exact("uncorrectable_words"),
        *_exact("miscorrected_words"),
        *_exact("detected_words"),
        MetricGate(metric="speedup", rel_tol=0.6, higher_is_better=True),
    ),
    tags=("core", "perf"),
)
