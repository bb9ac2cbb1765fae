"""The sampler and the estimation kernel against the exact r = 2 law."""

import math

import pytest

from symkl import ExperimentConfig, run_experiment

from exact_law import exact_law

# n: exact (coverage, degenerate share) of the README model
EXACT = {40: (0.86700, 4.81e-3), 100: (0.90183, 1.6e-6)}


def degenerate_share(model, n):
    """P(empty label class or empty cell) at r = 2, in closed form."""
    (p0, p1), (q0, q1), pi = model.cond_p, model.cond_q, model.label_prob
    full = math.fsum(
        math.comb(n, k) * pi**k * (1 - pi) ** (n - k)
        * (1 - p0**k - p1**k) * (1 - q0 ** (n - k) - q1 ** (n - k))
        for k in range(1, n)
    )
    return 1.0 - full


class TestExactLaw:
    @pytest.mark.parametrize("n", sorted(EXACT))
    def test_known_values(self, test_model, n):
        coverage, degenerate = exact_law(test_model, n)
        want_coverage, want_degenerate = EXACT[n]
        assert coverage == pytest.approx(want_coverage, abs=5e-6)
        assert degenerate == pytest.approx(want_degenerate, rel=0.04)
        assert degenerate == pytest.approx(degenerate_share(test_model, n), rel=1e-9, abs=1e-15)

    def test_run_experiment_lands_within_four_sd(self, test_model):
        replications = 20_000
        config = ExperimentConfig(model=test_model, n_values=tuple(sorted(EXACT)),
                                  replications=replications, master_seed=2026)
        for summary in run_experiment(config).summary.per_n:
            coverage, degenerate = exact_law(test_model, summary.n)
            # in counts, with one count of slack for discreteness: at n = 100 the
            # expected degenerate count is 0.03, and a 4-sd band alone admits none
            drawn = degenerate * replications
            sd = math.sqrt(drawn * (1.0 - degenerate))
            assert abs(summary.degenerate_count - drawn) <= 4.0 * sd + 1.0
            valid = replications - summary.degenerate_count
            sd = math.sqrt(coverage * (1.0 - coverage) / valid)
            assert abs(summary.coverage - coverage) <= 4.0 * sd
