"""Symmetric KL divergence estimation for conditional categorical laws.

Estimate the symmetric (Jeffreys) divergence between the two conditional
symbol distributions of a binary-labeled population from i.i.d. samples,
with exact asymptotic variances, normal confidence intervals, closed-form
finite-sample tail bounds, and a Monte Carlo harness that verifies the
convergence, normality, coverage, and bound claims against simulated data.
"""

from .asymptotics import (
    ConfidenceInterval,
    VarianceResult,
    confidence_interval,
    exact_sigma2,
    influence_value,
    normal_cdf,
    normal_quantile,
    plugin_sigma2,
)
from .bounds import (
    BOUND_NAMES,
    DEFAULT_G_GRID,
    BoundTableRow,
)
from .estimator import (
    DegenerateSampleError,
    EstimateResult,
    plug_in_estimate,
)
from .io import (
    CountsFormatError,
    config_to_dict,
    load_config,
    parse_config_dict,
    read_counts_csv,
    write_bounds_csv,
    write_manifest,
    write_records_csv,
    write_summary_json,
)
from .model import (
    EPS_POSITIVE,
    SIMPLEX_ATOL,
    CountTable,
    PopulationModel,
    as_positive_prob_vector,
    as_prob_vector,
    sample_batch,
    sym_kl_divergence,
)
from .montecarlo import (
    CHECK_NAMES,
    COVERAGE_TOLERANCE,
    KS_THRESHOLD,
    CheckResult,
    ExperimentConfig,
    ExperimentResult,
    ExperimentSummary,
    ReplicationColumns,
    SampleSizeSummary,
    bound_table,
    check_bound_rows,
    coverage_rate,
    ks_statistic,
    run_experiment,
)
from .streams import replication_stream

__version__ = "0.1.0"

__all__ = [
    "BOUND_NAMES",
    "CHECK_NAMES",
    "COVERAGE_TOLERANCE",
    "DEFAULT_G_GRID",
    "EPS_POSITIVE",
    "KS_THRESHOLD",
    "SIMPLEX_ATOL",
    "BoundTableRow",
    "CheckResult",
    "ConfidenceInterval",
    "CountTable",
    "CountsFormatError",
    "DegenerateSampleError",
    "EstimateResult",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentSummary",
    "PopulationModel",
    "ReplicationColumns",
    "SampleSizeSummary",
    "VarianceResult",
    "as_positive_prob_vector",
    "as_prob_vector",
    "bound_table",
    "check_bound_rows",
    "confidence_interval",
    "config_to_dict",
    "coverage_rate",
    "exact_sigma2",
    "influence_value",
    "ks_statistic",
    "load_config",
    "normal_cdf",
    "normal_quantile",
    "parse_config_dict",
    "plug_in_estimate",
    "plugin_sigma2",
    "read_counts_csv",
    "replication_stream",
    "run_experiment",
    "sample_batch",
    "sym_kl_divergence",
    "write_bounds_csv",
    "write_manifest",
    "write_records_csv",
    "write_summary_json",
]
