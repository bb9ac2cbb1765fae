"""The package namespace: a lazy export table (PEP 562) over the submodules."""

import importlib
import inspect

import pytest

import symkl

from conftest import run_python

PUBLIC = {
    "BOUND_NAMES", "CHECK_NAMES", "COVERAGE_TOLERANCE", "DEFAULT_G_GRID", "EPS_POSITIVE",
    "KS_THRESHOLD", "SIMPLEX_ATOL", "BoundTableRow", "CheckResult", "CountTable",
    "CountsFormatError", "DegenerateSampleError", "ExperimentConfig", "ExperimentResult",
    "ExperimentSummary", "PopulationModel", "ReplicationColumns", "SampleSizeSummary",
    "as_prob_vector", "bound_table",
    "check_bound_rows", "confidence_interval", "config_to_dict", "coverage_rate",
    "exact_sigma2", "influence_value", "ks_statistic", "load_config", "normal_cdf",
    "normal_quantile", "parse_config_dict", "plug_in_estimate", "plugin_sigma2",
    "read_counts_csv", "replication_stream", "run_experiment", "sample_batch",
    "sym_kl_divergence", "write_bounds_csv", "write_manifest", "write_records_csv",
    "write_summary_json",
}


def test_all_is_the_public_api():
    assert len(PUBLIC) == 42
    assert symkl.__all__ == sorted(PUBLIC)


def test_each_name_is_its_defining_modules_object():
    for module_name, names in symkl._EXPORTS.items():
        module = importlib.import_module(f"symkl.{module_name}")
        for name in names:
            value = getattr(symkl, name)
            assert value is getattr(module, name), name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name


def test_dir_lists_every_name():
    assert set(PUBLIC) | {"__version__"} <= set(dir(symkl))


def test_unknown_attribute():
    with pytest.raises(AttributeError) as info:
        symkl.no_such_name  # noqa: B018
    assert str(info.value) == "module 'symkl' has no attribute 'no_such_name'"


def test_star_import_under_warnings_as_errors():
    child = run_python("-W", "error", "-c",
                       "import sys, symkl\n"
                       "assert 'numpy' not in sys.modules\n"
                       "from symkl import *\n"
                       "print(sorted(set(symkl.__all__) - set(globals())))")
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_python_m_cli_warns_nothing():
    # runpy warns when importing the package has already imported symkl.cli
    child = run_python("-W", "error", "-m", "symkl.cli", "--help")
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    assert child.stdout.startswith("usage: symkl")
