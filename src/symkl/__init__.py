"""Symmetric KL divergence estimation for conditional categorical laws.

Estimate the symmetric (Jeffreys) divergence between the two conditional
symbol distributions of a binary-labeled population from i.i.d. samples,
with exact asymptotic variances, normal confidence intervals, closed-form
finite-sample tail bounds, and a Monte Carlo harness that verifies the
convergence, normality, coverage, and bound claims against simulated data.

The public names below are loaded on first use (PEP 562): ``import symkl``
imports no submodule, and so no numpy, until one of them is read.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "asymptotics": ("confidence_interval", "exact_sigma2", "influence_value", "normal_cdf",
                    "normal_quantile", "plugin_sigma2"),
    "bounds": ("BOUND_NAMES", "DEFAULT_G_GRID", "BoundTableRow"),
    "estimator": ("DegenerateSampleError", "plug_in_estimate"),
    "io": ("CountsFormatError", "config_to_dict", "load_config", "parse_config_dict",
           "read_counts_csv", "write_bounds_csv", "write_manifest", "write_records_csv",
           "write_summary_json"),
    "model": ("EPS_POSITIVE", "SIMPLEX_ATOL", "CountTable", "PopulationModel",
              "as_prob_vector", "sample_batch", "sym_kl_divergence"),
    "montecarlo": ("CHECK_NAMES", "COVERAGE_TOLERANCE", "KS_THRESHOLD", "CheckResult",
                   "ExperimentConfig", "ExperimentResult", "ExperimentSummary",
                   "ReplicationColumns", "SampleSizeSummary", "bound_table",
                   "check_bound_rows", "coverage_rate", "ks_statistic", "run_experiment"),
    "streams": ("replication_stream",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
