"""The harness's power: seeded defects that its checks must catch.

Each row is a defect, a monkeypatch of one function, run on the README model
at n = (100, 1000) with the ``lln``, ``clt`` and ``coverage`` checks, next to
the same config unpatched, which must pass them all.  A row names the check
that must fail the defect; a defect that no check fails at this size is a
strict xfail naming the ROADMAP item whose check would catch it, so the row
flips when that item lands.
"""

import pytest

from symkl import ExperimentConfig, PopulationModel, normal_quantile, run_experiment
from symkl import asymptotics, montecarlo

README_MODEL = PopulationModel(label_prob=0.5, cond_p=(0.5, 0.5), cond_q=(0.25, 0.75))
CHECKS = ("lln", "clt", "coverage")
SEED = 3  # seeds 1-4 and 6 pass unpatched at both sizes; seed 5's coverage gap is 0.0215


def failed_checks(replications: int) -> list[str]:
    """The names of the checks that the config at ``replications`` fails."""
    config = ExperimentConfig(README_MODEL, (100, 1000), replications, SEED, checks=CHECKS)
    return [check.name for check in run_experiment(config).summary.checks if not check.passed]


def sigma2_hat_times(factor):
    """The kernel's plug-in variance column, scaled by ``factor``."""
    def defect(monkeypatch):
        kernel = montecarlo.replication_columns

        def scaled(n1, n0):
            reason, estimate, sigma2_hat = kernel(n1, n0)
            return reason, estimate, factor * sigma2_hat
        monkeypatch.setattr(montecarlo, "replication_columns", scaled)
    return defect


def z_at_level(monkeypatch):
    """The interval's quantile taken at ``level`` instead of ``(1 + level) / 2``."""
    monkeypatch.setattr(montecarlo, "interval_z", lambda level, name: normal_quantile(level))


def variance_times(factor):
    """The one variance function, and so both sigma2 and sigma2_hat, scaled by ``factor``."""
    def defect(monkeypatch):
        shared = asymptotics._variance_from_sums

        def scaled(*moments):
            return factor * shared(*moments)
        monkeypatch.setattr(asymptotics, "_variance_from_sums", scaled)
        monkeypatch.setattr(montecarlo, "_variance_from_sums", scaled)
    return defect


# defect, replications, the check that must fail it (None: any of CHECKS)
DEFECTS = [
    # Wald coverage falls to about 0.92: a gap of 0.034 against the 0.02 tolerance
    pytest.param(sigma2_hat_times(0.8), 2000, "coverage", id="sigma2_hat-x0.8"),
    # a 90% interval: a gap of 0.061
    pytest.param(z_at_level, 2000, "coverage", id="z-at-level"),
    # the scaled errors' sd is 3.4% below sigma: KS 0.031 against 0.04, and
    # coverage 0.952; only a check that compares sigma2 with the variance of
    # the scaled errors (ROADMAP item 1) can tell
    pytest.param(variance_times(1.07), 20000, None, id="sigma2-x1.07", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 1: no check compares sigma2 with the Monte Carlo variance")),
]


@pytest.mark.parametrize("defect, replications, check", DEFECTS)
def test_a_check_fails_the_defect(monkeypatch, defect, replications, check):
    unpatched = failed_checks(replications)
    if unpatched:  # pytest.fail, not assert: never an expected failure
        pytest.fail(f"the unpatched config fails {unpatched}")
    defect(monkeypatch)
    failed = failed_checks(replications)
    assert failed if check is None else check in failed, failed
