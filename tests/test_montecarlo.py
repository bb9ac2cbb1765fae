import math

import numpy as np
import pytest

from symkl import (
    CHECK_NAMES,
    ExperimentConfig,
    PopulationModel,
    ReplicationRecord,
    coverage_rate,
    exact_sigma2,
    ks_statistic,
    lln_curve,
    normal_cdf,
    run_experiment,
    run_replication,
)


def make_config(test_model, **overrides):
    base = dict(
        model=test_model,
        n_values=(300, 900),
        replications=40,
        master_seed=2026,
        ci_level=0.95,
        checks=(),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def make_record(n, rep, eta=0.1, covered=True, degenerate=False):
    if degenerate:
        return ReplicationRecord(
            rep_index=rep, n=n, estimate=None, eta=None, scaled_eta=None,
            sigma2_hat=None, ci_lower=None, ci_upper=None, covered=None,
            degenerate=True,
        )
    return ReplicationRecord(
        rep_index=rep, n=n, estimate=0.27 + eta, eta=eta,
        scaled_eta=math.sqrt(n) * eta, sigma2_hat=4.4, ci_lower=0.0,
        ci_upper=1.0, covered=covered, degenerate=False,
    )


class TestExperimentConfig:
    def test_valid(self, test_model):
        config = make_config(test_model, checks=("lln", "clt"))
        assert config.n_values == (300, 900)
        assert config.checks == ("lln", "clt")

    def test_n_values_must_increase(self, test_model):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_config(test_model, n_values=(500, 500))
        with pytest.raises(ValueError, match="strictly increasing"):
            make_config(test_model, n_values=(900, 300))

    def test_n_values_nonempty_positive(self, test_model):
        with pytest.raises(ValueError, match="empty"):
            make_config(test_model, n_values=())
        with pytest.raises(ValueError, match=">= 1"):
            make_config(test_model, n_values=(0, 5))

    def test_replications_positive(self, test_model):
        with pytest.raises(ValueError, match="replications"):
            make_config(test_model, replications=0)

    def test_run_limits_fit_the_stream_key(self, test_model):
        with pytest.raises(ValueError, match="replications"):
            make_config(test_model, replications=(1 << 32) + 1)
        with pytest.raises(ValueError, match="sample sizes"):
            make_config(test_model, n_values=range(1, (1 << 16) + 2))
        make_config(test_model, replications=1 << 32, n_values=range(1, (1 << 16) + 1))

    def test_master_seed_range(self, test_model):
        with pytest.raises(ValueError, match="64-bit"):
            make_config(test_model, master_seed=-1)
        with pytest.raises(ValueError, match="64-bit"):
            make_config(test_model, master_seed=1 << 64)
        make_config(test_model, master_seed=(1 << 64) - 1)

    def test_level_domain(self, test_model):
        with pytest.raises(ValueError, match="ci_level"):
            make_config(test_model, ci_level=1.0)

    def test_unknown_check(self, test_model):
        with pytest.raises(ValueError, match="unknown checks"):
            make_config(test_model, checks=("normality",))

    def test_duplicate_check(self, test_model):
        with pytest.raises(ValueError, match="duplicates"):
            make_config(test_model, checks=("lln", "lln"))

    def test_clt_rejected_at_null(self):
        null_model = PopulationModel(
            label_prob=0.5, cond_p=(0.3, 0.7), cond_q=(0.3, 0.7)
        )
        with pytest.raises(ValueError, match="clt"):
            make_config(null_model, checks=("clt",))
        # other checks remain allowed there
        make_config(null_model, checks=("lln", "coverage", "bounds"))

    def test_lln_needs_two_sizes(self, test_model):
        with pytest.raises(ValueError, match="lln"):
            make_config(test_model, n_values=(500,), checks=("lln",))

    def test_check_names_constant(self):
        assert CHECK_NAMES == ("lln", "clt", "coverage", "bounds")


class TestKsStatistic:
    def test_single_point_at_median(self):
        assert ks_statistic([0.0]) == pytest.approx(0.5, abs=1e-15)

    def test_exact_quantile_grid(self):
        from symkl import normal_quantile

        m = 100_000
        grid = [normal_quantile((i - 0.5) / m) for i in range(1, m + 1)]
        assert ks_statistic(grid) <= 1.0 / (2 * m) + 1e-9

    def test_fixed_seed_normal_samples(self):
        # 2000 standard normal draws stay under the m=2000 critical value
        # 0.0364 for at least 96 of 100 fixed seeds
        below = sum(
            ks_statistic(np.random.default_rng(seed).standard_normal(2000)) < 0.0364
            for seed in range(100)
        )
        assert below >= 96

    def test_detects_wrong_location(self):
        sample = np.random.default_rng(5).standard_normal(2000) + 1.0
        assert ks_statistic(sample) > 0.3

    def test_custom_cdf(self):
        uniform = (np.arange(1, 101) - 0.5) / 100
        assert ks_statistic(uniform, cdf=lambda x: np.clip(x, 0, 1)) <= 0.005 + 1e-12

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError, match="nonempty"):
            ks_statistic([])
        with pytest.raises(ValueError, match="finite"):
            ks_statistic([0.0, float("inf")])


class TestCoverageAndCurve:
    def test_coverage_rate(self):
        records = [make_record(100, i, covered=(i % 4 != 0)) for i in range(8)]
        assert coverage_rate(records) == pytest.approx(0.75)

    def test_coverage_skips_degenerate(self):
        records = [make_record(100, 0, covered=True), make_record(100, 1, degenerate=True)]
        assert coverage_rate(records) == 1.0

    def test_coverage_needs_valid_records(self):
        with pytest.raises(ValueError, match="non-degenerate"):
            coverage_rate([make_record(100, 0, degenerate=True)])

    def test_lln_curve_medians(self):
        records = [make_record(100, i, eta=e) for i, e in enumerate((0.1, -0.3, 0.2))]
        records += [make_record(1000, i, eta=e) for i, e in enumerate((0.05, -0.01, 0.02))]
        curve = lln_curve(records)
        assert list(curve) == [100, 1000]
        assert curve[100] == pytest.approx(0.2)
        assert curve[1000] == pytest.approx(0.02)

    def test_lln_curve_needs_two_sizes(self):
        with pytest.raises(ValueError, match="2 distinct"):
            lln_curve([make_record(100, i) for i in range(5)])


class TestRunReplication:
    def test_deterministic(self, test_model):
        truth = test_model.sym_divergence()
        a = run_replication(test_model, 400, 0.95, truth, 11, 0, 3)
        b = run_replication(test_model, 400, 0.95, truth, 11, 0, 3)
        assert a == b
        assert not a.degenerate
        assert a.scaled_eta == pytest.approx(math.sqrt(400) * a.eta, rel=1e-15)
        assert a.ci_lower <= a.estimate <= a.ci_upper

    def test_degenerate_record_has_no_values(self, test_model):
        # two draws cannot populate all four cells
        rec = run_replication(test_model, 2, 0.95, 0.0, 11, 0, 0)
        assert rec.degenerate
        assert rec.estimate is None and rec.eta is None and rec.covered is None


class TestRunExperiment:
    def test_record_layout(self, test_model):
        config = make_config(test_model)
        result = run_experiment(config)
        assert len(result.records) == 2 * 40
        keys = [(r.n, r.rep_index) for r in result.records]
        assert keys == sorted(keys)
        assert {r.n for r in result.records} == {300, 900}

    def test_summary_contents(self, test_model):
        config = make_config(test_model, checks=("lln", "clt", "coverage"))
        result = run_experiment(config)
        summary = result.summary
        assert summary.sigma2_exact == exact_sigma2(test_model).sigma2
        assert summary.true_divergence == test_model.sym_divergence()
        assert [s.n for s in summary.per_n] == [300, 900]
        for s in summary.per_n:
            assert s.replications == 40
            assert 0.0 <= s.coverage <= 1.0
            assert s.ks_normalized is not None
        assert [c.name for c in summary.checks] == ["lln", "clt", "coverage"]

    def test_worker_count_is_invisible(self, test_model):
        config = make_config(test_model)
        seq = run_experiment(config, workers=1)
        par = run_experiment(config, workers=3)
        assert seq.records == par.records

    def test_degenerate_replications_counted_not_resampled(self, test_model):
        config = make_config(test_model, n_values=(2, 3), replications=25)
        result = run_experiment(config)
        assert len(result.records) == 50
        for s in result.summary.per_n:
            assert s.degenerate_count == 25
            assert s.eta_mean is None
            assert s.coverage is None

    def test_all_degenerate_fails_requested_checks(self, test_model):
        config = make_config(
            test_model, n_values=(2, 3), replications=10, checks=("lln", "coverage")
        )
        result = run_experiment(config)
        assert not result.summary.all_checks_passed
        for check in result.summary.checks:
            assert not check.passed

    def test_clt_check_fails_far_from_limit(self, test_model):
        # 30 replications at n=50 sit visibly off the normal limit
        config = make_config(
            test_model, n_values=(50,), replications=30, master_seed=7, checks=("clt",)
        )
        result = run_experiment(config)
        clt = result.summary.checks[0]
        assert clt.name == "clt"
        assert not clt.passed
        assert "ks=" in clt.detail

    def test_bounds_check_populates_rows(self, test_model):
        config = make_config(
            test_model, n_values=(200, 400), replications=2000, checks=("bounds",)
        )
        result = run_experiment(config)
        assert result.summary.checks[0].name == "bounds"
        assert result.summary.checks[0].passed
        assert len(result.summary.bound_rows) == 6 * 2 * 4
        assert all(r.empirical is not None for r in result.summary.bound_rows)

    def test_scaled_error_normalized_ks_is_small(self, test_model):
        # the 0.04 threshold is calibrated for 2000 replications: KS noise
        # alone sits near 1.36/sqrt(M) at the 5% point
        config = make_config(
            test_model, n_values=(5000,), replications=2000, master_seed=15,
            checks=("clt", "coverage"),
        )
        result = run_experiment(config)
        assert result.summary.all_checks_passed
        ks = result.summary.per_n[0].ks_normalized
        assert ks < 0.04

    def test_workers_validation(self, test_model):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(make_config(test_model), workers=0)


class TestKsAgainstExactSigmaDecreases:
    def test_ks_improves_with_n(self, test_model):
        # median KS over 5 master seeds shrinks from n=400 to n=8000
        ks_small, ks_large = [], []
        for seed in range(5):
            config = make_config(
                test_model, n_values=(400, 8000), replications=250, master_seed=seed
            )
            per_n = run_experiment(config).summary.per_n
            ks_small.append(per_n[0].ks_normalized)
            ks_large.append(per_n[1].ks_normalized)
        assert float(np.median(ks_large)) <= float(np.median(ks_small))
