"""The harness's power: seeded defects that its checks must catch.

Each row is a defect, a monkeypatch of one function, run next to the same
config unpatched, which must pass.  The estimator's rows run on the README
model at n = (100, 1000) with the ``lln``, ``clt`` and ``coverage`` checks,
and name the check that must fail the defect; the bounds' rows run the
``bounds`` check on the ``bounds-check`` preset.  A defect that no check
fails at this size is a strict xfail naming the ROADMAP item whose check
would catch it, so the row flips when that item lands.
"""

import pytest

from symkl import ExperimentConfig, PopulationModel, normal_quantile, run_experiment
from symkl import asymptotics, bounds, montecarlo

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


def estimate_shifted(monkeypatch):
    """The kernel's estimate column plus ``2 / n``, the order of a ``k1 + 1`` normaliser."""
    kernel = montecarlo.replication_columns

    def shifted(n1, n0):
        reason, estimate, sigma2_hat = kernel(n1, n0)
        return reason, estimate + 2.0 / (n1.sum(1) + n0.sum(1)), sigma2_hat
    monkeypatch.setattr(montecarlo, "replication_columns", shifted)


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
    # 0.03 sd of the error at n = 1000: KS 0.029 and a coverage gap of 0.004;
    # only a check of the mean error against the O(1/n) bias (ROADMAP item 14)
    # can tell
    pytest.param(estimate_shifted, 20000, None, id="estimate-plus-2-over-n", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 14: no check compares the mean error with the O(1/n) bias")),
]


@pytest.mark.parametrize("defect, replications, check", DEFECTS)
def test_a_check_fails_the_defect(monkeypatch, defect, replications, check):
    unpatched = failed_checks(replications)
    if unpatched:  # pytest.fail, not assert: never an expected failure
        pytest.fail(f"the unpatched config fails {unpatched}")
    defect(monkeypatch)
    failed = failed_checks(replications)
    assert failed if check is None else check in failed, failed


def bounds_check_passes() -> bool:
    """Whether the ``bounds`` check passes on the ``bounds-check`` preset: the
    README model at n = (100, 1000, 10000), 100 000 tables, the default seed."""
    rows = montecarlo.bound_table(README_MODEL, (100, 1000, 10000), replications=100_000,
                                  master_seed=20260815)
    return montecarlo.check_bound_rows(rows).passed


def bounds_over(factor):
    """Every bound divided by ``factor``."""
    def defect(monkeypatch):
        values = bounds._bound_values

        def shrunk(model, n, g):
            return {name: value / factor for name, value in values(model, n, g).items()}
        monkeypatch.setattr(bounds, "_bound_values", shrunk)
    return defect


BOUND_DEFECTS = [
    # label_freq at n = 100, g = 0.05: bound 0.303 against a frequency of 0.321,
    # margin +0.0132 (the unpatched margin is -0.00069)
    pytest.param(bounds_over(4.0), id="bounds-div4"),
    # margin -0.00024: label_freq, the tightest bound, may shrink about 3.8 times
    # (log_ratio 28 times) with the preset still passing, so only exact tails
    # (ROADMAP item 5) or tighter bounds (item 19) can tell
    pytest.param(bounds_over(3.0), id="bounds-div3", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP items 5 and 19: the paper's bounds are too loose for the check")),
]


@pytest.mark.parametrize("defect", BOUND_DEFECTS)
def test_the_bounds_check_fails_the_defect(monkeypatch, defect):
    if not bounds_check_passes():
        pytest.fail("the unpatched preset fails the bounds check")
    defect(monkeypatch)
    assert not bounds_check_passes()
