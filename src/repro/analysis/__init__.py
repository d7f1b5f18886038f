"""Figure/table data generators and analytical models.

Each public function reproduces the data behind one of the paper's tables or
figures; the figure workloads of :mod:`repro.bench` run them and gate the
paper's claims.  The functions return plain Python/numpy structures so that
benchmarks, tests, and examples can render them however they like (the
benchmarks print them as ASCII tables).
"""

from repro.analysis.figures import (
    figure1_error_probability_data,
    figure3_manufacturer_profile_data,
    figure4_threshold_data,
    figure5_uniqueness_data,
    figure6_runtime_data,
    figure8_beep_pass_data,
    figure9_beep_probability_data,
    table1_outcome_data,
    table2_miscorrection_profile_data,
)
from repro.analysis.backends import (
    bulk_decode_comparison_data,
    gf2_backend_comparison_data,
    solver_input_comparison_data,
)
from repro.analysis.campaigns import campaign_report_data, load_simulation_results
from repro.analysis.runtime import ExperimentRuntimeModel
from repro.analysis.secondary_ecc import SecondaryEccDesigner, SecondaryEccPlan

__all__ = [
    "figure1_error_probability_data",
    "figure3_manufacturer_profile_data",
    "figure4_threshold_data",
    "figure5_uniqueness_data",
    "figure6_runtime_data",
    "figure8_beep_pass_data",
    "figure9_beep_probability_data",
    "table1_outcome_data",
    "table2_miscorrection_profile_data",
    "bulk_decode_comparison_data",
    "gf2_backend_comparison_data",
    "solver_input_comparison_data",
    "ExperimentRuntimeModel",
    "SecondaryEccDesigner",
    "SecondaryEccPlan",
    "campaign_report_data",
    "load_simulation_results",
]
