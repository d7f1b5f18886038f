"""EINSim-equivalent ECC-word error-injection simulator.

The paper evaluates BEER and BEEP with EINSim, the authors' open-source DRAM
error-correction simulator.  This package provides the equivalent Monte-Carlo
machinery in Python:

* :mod:`repro.einsim.injectors` — pre-correction error models (uniform-random
  bit errors, data-retention errors restricted to CHARGED cells, fixed error
  counts, arbitrary per-bit probabilities, bursts, row stripes, chip fault
  models and their overlays), each drawing a round's errors through one
  packed draw, ``error_mask_packed``, that both backends share;
* :mod:`repro.einsim.engine` — batched encode/syndrome/decode kernels with
  two GF(2) backends: ``reference``, the uint8 oracle, and ``packed``, the
  bit-packed fast path and the default everywhere;
* :mod:`repro.einsim.fused` — the fused Monte-Carlo pipeline the ``packed``
  backend runs for every simulation: packed error batches, per-code
  classification kernels, segmented cross-pattern calls;
* :mod:`repro.einsim.simulator` — vectorised simulation of large numbers of
  ECC words through encode → inject → decode, with per-bit post-correction
  statistics and miscorrection bookkeeping; its ``reference`` backend
  densifies the shared draw and decodes it with the staged kernels;
* :mod:`repro.einsim.statistics` — bootstrap confidence intervals and summary
  helpers used when reproducing the paper's figures.
"""

from repro.einsim.injectors import (
    BurstErrorInjector,
    CompositeInjector,
    DataRetentionInjector,
    FaultModelInjector,
    FixedErrorCountInjector,
    MixedCellRetentionInjector,
    PerBitBernoulliInjector,
    RowStripeInjector,
    UniformRandomInjector,
)
from repro.einsim.engine import (
    BACKENDS,
    bulk_decode,
    bulk_encode,
    bulk_syndrome_values,
    resolve_backend,
)
from repro.einsim.fused import (
    FusedKernel,
    FusedStats,
    PackedErrorBatch,
    get_kernel,
    packed_error_batch,
)
from repro.einsim.simulator import EinsimSimulator, SimulationResult
from repro.einsim.statistics import (
    bootstrap_confidence_interval,
    BootstrapInterval,
    relative_probabilities,
)

__all__ = [
    "BurstErrorInjector",
    "CompositeInjector",
    "DataRetentionInjector",
    "FaultModelInjector",
    "FixedErrorCountInjector",
    "MixedCellRetentionInjector",
    "PerBitBernoulliInjector",
    "RowStripeInjector",
    "UniformRandomInjector",
    "EinsimSimulator",
    "SimulationResult",
    "BACKENDS",
    "bulk_decode",
    "bulk_encode",
    "bulk_syndrome_values",
    "resolve_backend",
    "FusedKernel",
    "FusedStats",
    "PackedErrorBatch",
    "get_kernel",
    "packed_error_batch",
    "bootstrap_confidence_interval",
    "BootstrapInterval",
    "relative_probabilities",
]
