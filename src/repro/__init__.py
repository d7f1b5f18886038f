"""repro — a reproduction of BEER (Bit-Exact ECC Recovery), MICRO 2020.

BEER determines a DRAM chip's on-die ECC function (its parity-check matrix)
purely from externally visible post-correction error patterns, by inducing
data-retention errors with carefully crafted test patterns and solving for the
unique code consistent with the observed miscorrections.  BEEP then uses the
recovered function to locate pre-correction errors bit-exactly.

Quick start::

    from repro import (
        random_hamming_code, one_charged_patterns,
        expected_miscorrection_profile, BeerSolver,
    )

    code = random_hamming_code(16)                       # unknown on-die ECC
    patterns = one_charged_patterns(code.num_data_bits)  # BEER test patterns
    profile = expected_miscorrection_profile(code, patterns)
    solution = BeerSolver(code.num_data_bits).solve(profile)
    assert solution.unique and solution.code == code

See the ``examples/`` directory for end-to-end campaigns against simulated
DRAM chips and for BEEP-based error profiling.
"""

from repro.ecc import (
    FAMILY_NAMES,
    CodeFamily,
    DecodeOutcome,
    SyndromeDecoder,
    SystematicLinearCode,
    classify_decode,
    codes_equivalent,
    example_7_4_code,
    family_names,
    get_family,
    hamming_code,
    min_parity_bits,
    random_hamming_code,
)
from repro.dram import (
    CellType,
    ChipGeometry,
    DataRetentionModel,
    SimulatedDramChip,
    VENDOR_A,
    VENDOR_B,
    VENDOR_C,
    all_vendors,
)
from repro.einsim import EinsimSimulator, UniformRandomInjector, DataRetentionInjector
from repro.sat import CNF, CDCLSolver
from repro.scenarios import (
    ExperimentCell,
    SweepReport,
    SweepRunner,
    SweepSpec,
    build_injector,
    scenario_names,
)
from repro.store import CampaignStore, ResultRecord, content_key
from repro.core import (
    BeepProfiler,
    BeepResult,
    BeerExperiment,
    BeerSolution,
    BeerSolver,
    ChargedPattern,
    ExperimentConfig,
    MiscorrectionCounts,
    MiscorrectionProfile,
    SatBeerSolver,
    charged_patterns,
    discover_cell_types,
    discover_dataword_layout,
    expected_miscorrection_profile,
    miscorrections_possible,
    one_charged_patterns,
)

__version__ = "1.0.0"

__all__ = [
    "FAMILY_NAMES",
    "CodeFamily",
    "DecodeOutcome",
    "SyndromeDecoder",
    "SystematicLinearCode",
    "classify_decode",
    "codes_equivalent",
    "example_7_4_code",
    "family_names",
    "get_family",
    "hamming_code",
    "min_parity_bits",
    "random_hamming_code",
    "CellType",
    "ChipGeometry",
    "DataRetentionModel",
    "SimulatedDramChip",
    "VENDOR_A",
    "VENDOR_B",
    "VENDOR_C",
    "all_vendors",
    "EinsimSimulator",
    "UniformRandomInjector",
    "DataRetentionInjector",
    "CNF",
    "CDCLSolver",
    "BeepProfiler",
    "BeepResult",
    "BeerExperiment",
    "BeerSolution",
    "BeerSolver",
    "ChargedPattern",
    "ExperimentConfig",
    "MiscorrectionCounts",
    "MiscorrectionProfile",
    "SatBeerSolver",
    "charged_patterns",
    "discover_cell_types",
    "discover_dataword_layout",
    "expected_miscorrection_profile",
    "miscorrections_possible",
    "one_charged_patterns",
    "ExperimentCell",
    "SweepReport",
    "SweepRunner",
    "SweepSpec",
    "build_injector",
    "scenario_names",
    "CampaignStore",
    "ResultRecord",
    "content_key",
    "__version__",
]
