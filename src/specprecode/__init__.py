"""Mask-compliant spectral precoding for CP-OFDM.

The library shapes frequency-domain OFDM symbols so that the transmit
spectrum satisfies explicit power bounds at a set of out-of-band
frequencies, optionally under an in-band error budget.  It provides the
closed-form projections the solvers are built from, two unconstrained
precoders (consensus ADMM and a semi-analytical sweep method), their
budget-constrained variants, classical null-space baselines, an interior
point oracle for certification, and the spectral metrics (leakage powers,
error vector magnitude, PSD, ACLR) used to evaluate runs.
"""

__version__ = "0.1.0"

from .baselines import (LogBarrierProblem, LogBarrierResult, OracleConfig,
                        bisection_rank1_oracle, ensp_precode, logbarrier_solve,
                        nsp_precode)
from .config import (DEFAULT_SCENARIO, MASK2_DB, ScenarioConfig,
                     expand_evm_profile, selective_edge_profile)
from .constrained import (EsspConfig, EvmConstraint, FeasibilityReport,
                          eadmm_precode, essp_precode, feasibility_probe)
from .errors import ConfigError, DegenerateConstraintError, NumericalError
from .metrics import (AclrReport, MaskSpec, PsdAccumulator, PsdConfig, PsdEstimate,
                      aclr, analytic_inband_reference, calibrate_mask,
                      kernel_psd_prediction, oobe_power)
from .projections import project_rank1
from .runner import compare_runs, run_scenario
from .signal_model import (DataGrid, FrequencyGrid, OfdmNumerology, SpectralKernel,
                           build_kernel, generate_qam_block, generate_qam_grid,
                           qam_constellation, read_waveform, synthesize_time_signal,
                           write_waveform)
from .unconstrained import (AdmmConfig, FactoredInverse, SolverReport,
                            SspConfig, admm_precode, mask_bounds, ssp_precode)

__all__ = [
    "__version__",
    "AclrReport", "AdmmConfig", "ConfigError", "DataGrid",
    "DEFAULT_SCENARIO", "DegenerateConstraintError", "EsspConfig", "EvmConstraint",
    "FactoredInverse", "FeasibilityReport", "FrequencyGrid",
    "LogBarrierProblem", "LogBarrierResult", "MASK2_DB", "MaskSpec",
    "NumericalError", "OfdmNumerology", "OracleConfig",
    "PsdAccumulator", "PsdConfig", "PsdEstimate",
    "ScenarioConfig", "SolverReport", "SpectralKernel", "SspConfig",
    "aclr", "admm_precode", "analytic_inband_reference", "bisection_rank1_oracle",
    "build_kernel", "calibrate_mask", "compare_runs",
    "eadmm_precode", "ensp_precode", "essp_precode",
    "expand_evm_profile", "feasibility_probe", "generate_qam_block", "generate_qam_grid",
    "kernel_psd_prediction", "logbarrier_solve", "mask_bounds", "nsp_precode",
    "oobe_power", "project_rank1",
    "qam_constellation",
    "read_waveform", "run_scenario", "selective_edge_profile", "ssp_precode",
    "synthesize_time_signal", "write_waveform",
]
