import math
from dataclasses import fields

import numpy as np
import pytest

from symkl import (
    CHECK_NAMES,
    CountTable,
    ExperimentConfig,
    PopulationModel,
    ReplicationColumns,
    confidence_interval,
    coverage_rate,
    exact_sigma2,
    ks_statistic,
    lln_curve,
    normal_cdf,
    normal_quantile,
    plug_in_estimate,
    plugin_sigma2,
    run_experiment,
    run_replication,
    sample_batch,
)
from symkl.model import TableBlock, block_rows, sample_counts, table_blocks
from symkl.montecarlo import (
    REASON_EMPTY_CELL,
    REASON_EMPTY_LABEL,
    REASON_NONE,
    _median,
    evaluate,
    replication_columns,
)
from symkl.streams import replication_stream

from conftest import assert_columns_equal, make_columns, random_simplex


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
    """One row for :func:`make_columns`."""
    if degenerate:
        return (n, rep, True, REASON_EMPTY_CELL, *[math.nan] * 6, False)
    return (n, rep, False, REASON_NONE, 0.27 + eta, eta, math.sqrt(n) * eta, 4.4, 0.0, 1.0,
            covered)


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

    def test_sample_sizes_fit_int64(self, test_model):
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            make_config(test_model, n_values=(5, 1 << 63))
        assert make_config(test_model, n_values=((1 << 63) - 1,)).n_values == ((1 << 63) - 1,)

    def test_master_seed_range(self, test_model):
        with pytest.raises(ValueError, match="64-bit"):
            make_config(test_model, master_seed=-1)
        with pytest.raises(ValueError, match="64-bit"):
            make_config(test_model, master_seed=1 << 64)
        make_config(test_model, master_seed=(1 << 64) - 1)

    def test_non_integral_values_rejected(self, test_model):
        # a fractional part is an error, never truncated; integral floats pass
        for field, bad in (("n_values", (100.9, 1000.5)), ("n_values", (100, math.inf)),
                           ("replications", 10.7), ("master_seed", 3.9),
                           ("master_seed", math.nan)):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                make_config(test_model, **{field: bad})
        config = make_config(test_model, n_values=(1e2, 1e4), replications=1e1, master_seed=3.0)
        assert (config.n_values, config.replications, config.master_seed) == ((100, 10000), 10, 3)
        assert all(type(n) is int for n in config.n_values)

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
        assert coverage_rate(make_columns(records)) == pytest.approx(0.75)

    def test_coverage_skips_degenerate(self):
        records = [make_record(100, 0, covered=True), make_record(100, 1, degenerate=True)]
        assert coverage_rate(make_columns(records)) == 1.0

    def test_coverage_needs_valid_records(self):
        with pytest.raises(ValueError, match="non-degenerate"):
            coverage_rate(make_columns([make_record(100, 0, degenerate=True)]))

    def test_lln_curve_medians(self):
        records = [make_record(100, i, eta=e) for i, e in enumerate((0.1, -0.3, 0.2))]
        records += [make_record(1000, i, eta=e) for i, e in enumerate((0.05, -0.01, 0.02))]
        curve = lln_curve(make_columns(records))
        assert list(curve) == [100, 1000]
        assert curve[100] == pytest.approx(0.2)
        assert curve[1000] == pytest.approx(0.02)

    def test_lln_curve_needs_two_sizes(self):
        with pytest.raises(ValueError, match="2 distinct"):
            lln_curve(make_columns([make_record(100, i) for i in range(5)]))

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 999, 1000])
    def test_median_equals_numpy(self, size):
        rng = np.random.default_rng(size)
        for _ in range(20):
            sample = rng.standard_normal(size) * 10.0 ** int(rng.integers(-6, 6))
            assert _median(sample) == float(np.median(sample))

    def test_lln_curve_names_all_degenerate_sizes(self):
        records = [make_record(n, i, degenerate=True) for n in (100, 2000) for i in range(3)]
        records += [make_record(20000, i, eta=0.01) for i in range(3)]
        records.append(make_record(20000, 3, degenerate=True))
        with pytest.raises(ValueError) as info:
            lln_curve(make_columns(records))
        message = str(info.value)
        assert "2 distinct" in message
        assert "every replication was degenerate at n = 100, 2000" in message
        assert "20000" not in message


class TestRunReplication:
    def test_deterministic(self, test_model):
        truth = test_model.sym_divergence()
        a = run_replication(test_model, 400, 0.95, truth, 11, 0, 3)
        b = run_replication(test_model, 400, 0.95, truth, 11, 0, 3)
        assert_columns_equal(a, b)
        assert len(a) == 1
        assert not a.degenerate[0]
        assert a.scaled_eta[0] == pytest.approx(math.sqrt(400) * a.eta[0], rel=1e-15)
        assert a.ci_lower[0] <= a.estimate[0] <= a.ci_upper[0]

    def test_matches_scalar_oracles_on_its_stream(self, test_model):
        truth = test_model.sym_divergence()
        rec = run_replication(test_model, 400, 0.9, truth, 11, 2, 5)
        counts = sample_batch(test_model, 400, replication_stream(11, 2, 5))
        est = plug_in_estimate(counts)
        variance = plugin_sigma2(counts)
        ci = confidence_interval(est, variance, 0.9)
        assert rec.rep_index.tolist() == [5] and rec.n.tolist() == [400]
        assert rec.estimate[0] == pytest.approx(est.value, rel=1e-13, abs=0.0)
        assert rec.sigma2_hat[0] == pytest.approx(variance.sigma2, rel=1e-13, abs=0.0)
        assert rec.ci_lower[0] == pytest.approx(ci.lower, rel=1e-13, abs=0.0)
        assert rec.ci_upper[0] == pytest.approx(ci.upper, rel=1e-13, abs=0.0)
        assert rec.covered[0] == ci.contains(truth)

    def test_degenerate_record_has_no_values(self, test_model):
        # two draws cannot populate all four cells
        rec = run_replication(test_model, 2, 0.95, 0.0, 11, 0, 0)
        assert rec.degenerate[0]
        assert math.isnan(rec.estimate[0]) and math.isnan(rec.eta[0]) and not rec.covered[0]


def assert_columns_match_oracle(n1, n0, truth, level=0.95):
    """Every row of the kernel against the scalar functions on its table."""
    cols = replication_columns(n1, n0, truth, normal_quantile((1.0 + level) / 2.0))
    for i in range(len(n1)):
        counts = CountTable(n1=n1[i], n0=n0[i])
        est = plug_in_estimate(counts)
        assert cols.degenerate[i] == est.degenerate
        if est.degenerate:
            assert np.isnan(cols.estimate[i]) and not cols.covered[i]
            continue
        variance = plugin_sigma2(counts)
        ci = confidence_interval(est, variance, level)
        assert cols.covered[i] == ci.contains(truth)
        for got, want in (
            (cols.estimate[i], est.value),
            (cols.sigma2_hat[i], variance.sigma2),
            (cols.ci_lower[i], ci.lower),
            (cols.ci_upper[i], ci.upper),
        ):
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert cols.eta[i] == cols.estimate[i] - truth
        assert cols.scaled_eta[i] == math.sqrt(counts.n) * cols.eta[i]
    return cols


class TestReplicationColumns:
    @pytest.mark.parametrize("r", [2, 50, 1000])
    def test_random_tables_match_scalar_oracles(self, r):
        rng = np.random.default_rng(r)
        # four label probabilities from uniform(0.2, 0.8), then two far from
        # 0.5, where a wrong variance shows most.  A small n leaves empty cells
        # in many rows, a large n in none; far from 0.5 at r = 1000, n = 2000 r
        # still leaves every row degenerate, so those take 10**6 r.
        for label_probs, large_n in (([None] * 4, 2000 * r), ([0.02, 0.98], 10**6 * r)):
            tables = []
            for label_prob in label_probs:
                model = PopulationModel(
                    label_prob=float(rng.uniform(0.2, 0.8)) if label_prob is None else label_prob,
                    cond_p=random_simplex(rng, r, min_entry=1e-7),
                    cond_q=random_simplex(rng, r, min_entry=1e-7),
                )
                for n in (4 * r, large_n):
                    tables.append(sample_counts(model, n, 10, rng)[1:])
            n1 = np.vstack([t[0] for t in tables])
            n0 = np.vstack([t[1] for t in tables])
            cols = assert_columns_match_oracle(n1, n0, truth=0.5)
            assert cols.degenerate.any() and not cols.degenerate.all()

    def test_hand_made_tables(self):
        n1 = np.array([
            [0, 0, 0],  # no label-1 samples
            [1, 2, 3],  # no label-0 samples
            [0, 4, 1],  # zero cell in p_hat
            [3, 4, 1],  # zero cell in q_hat
            [1, 2, 3],  # p_hat == q_hat
            [5, 1, 2],
        ])
        n0 = np.array([
            [1, 2, 3],
            [0, 0, 0],
            [2, 2, 2],
            [2, 0, 2],
            [2, 4, 6],
            [1, 3, 7],
        ])
        for truth in (0.0, 0.2):
            cols = assert_columns_match_oracle(n1, n0, truth)
            assert cols.degenerate.tolist() == [True, True, True, True, False, False]
            assert cols.reason.tolist() == [
                REASON_EMPTY_LABEL, REASON_EMPTY_LABEL, REASON_EMPTY_CELL, REASON_EMPTY_CELL,
                REASON_NONE, REASON_NONE,
            ]
            assert cols.n.tolist() == (n1.sum(axis=1) + n0.sum(axis=1)).tolist()
            assert cols.rep_index.tolist() == list(range(6))
            # equal empirical laws: zero variance, point interval at 0
            assert cols.estimate[4] == 0.0 and cols.sigma2_hat[4] == 0.0
            assert cols.ci_lower[4] == cols.ci_upper[4] == 0.0
            assert cols.covered[4] == (truth == 0.0)

    def test_summary_counts_each_reason(self, test_model):
        # every table holds n = 6 draws
        n1 = np.array([[0, 0], [4, 2], [1, 1], [2, 3], [1, 2], [0, 4], [3, 1]])
        n0 = np.array([[2, 4], [0, 0], [0, 4], [0, 1], [1, 2], [1, 1], [1, 1]])
        records = replication_columns(n1, n0, 0.0, 1.96)
        config = make_config(test_model, n_values=(6,), replications=7)
        (stats,) = evaluate(config, records, ()).per_n
        assert stats.degenerate_empty_label == 2
        assert stats.degenerate_empty_cell == 3
        assert stats.degenerate_count == 5
        assert stats.replications == 7

    def test_empty_has_the_kernel_column_types(self):
        one_table = replication_columns(np.array([[3, 1]]), np.array([[1, 3]]), 0.5, 1.96)
        empty = ReplicationColumns.empty()
        for f in fields(ReplicationColumns):
            column = getattr(empty, f.name)
            assert column.dtype == getattr(one_table, f.name).dtype, f.name
            assert column.shape == (0,), f.name

    def test_block_rows(self):
        assert block_rows(2) == 1 << 15
        assert block_rows(1000) == 65
        assert block_rows(1 << 16) == 1
        assert block_rows(1 << 20) == 1


class TestRunExperiment:
    def test_record_layout(self, test_model):
        config = make_config(test_model)
        result = run_experiment(config)
        assert len(result.records) == 2 * 40
        keys = list(zip(result.records.n.tolist(), result.records.rep_index.tolist()))
        assert keys == sorted(keys)
        assert set(result.records.n.tolist()) == {300, 900}

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
        assert_columns_equal(seq.records, par.records)

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

    @pytest.mark.parametrize("records", [True, False])
    def test_each_table_drawn_once(self, monkeypatch, records):
        # r=1000 puts 65 tables in a block: blocks of 65, 65 and 20 at each n
        weights = np.array([1.0 + (j % 7) / 10 for j in range(1000)])
        model = PopulationModel(label_prob=0.4, cond_p=weights / weights.sum(),
                                cond_q=weights[::-1] / weights.sum())
        config = make_config(model, n_values=(2000, 20000), replications=150,
                             checks=("lln", "bounds"))
        draw = TableBlock.draw
        drawn = []

        def counting_draw(block):
            drawn.append(block.key)
            return draw(block)

        monkeypatch.setattr(TableBlock, "draw", counting_draw)
        result = run_experiment(config, records=records)
        layout = table_blocks(model, config.n_values, config.replications, config.master_seed)
        assert len(layout) == 6
        assert drawn == [block.key for block in layout]
        assert len(result.records) == (300 if records else 0)
        assert len(result.summary.bound_rows) == 6 * 2 * 4

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
        with pytest.raises(ValueError, match="workers must be an integer, got 2.5"):
            run_experiment(make_config(test_model), workers=2.5)


def reference_summaries(records, sigma_exact):
    """Per-n statistics computed row by row, as from per-row records."""
    by_n = {}
    for row in zip(records.n.tolist(), records.degenerate.tolist(), records.eta.tolist(),
                   records.scaled_eta.tolist(), records.covered.tolist()):
        by_n.setdefault(row[0], []).append(row)
    out = {}
    for n, group in by_n.items():
        valid = [row for row in group if not row[1]]
        head = (n, len(group), len(group) - len(valid))
        if not valid:
            out[n] = head + (None,) * 9
            continue
        eta = np.array([row[2] for row in valid])
        scaled = np.array([row[3] for row in valid])
        covered = [row[4] for row in valid]

        def var(a):
            return float(np.var(a, ddof=1)) if a.size > 1 else None

        out[n] = head + (
            float(eta.mean()), float(np.median(eta)), var(eta),
            float(scaled.mean()), float(np.median(scaled)), var(scaled),
            float(np.median(np.abs(eta))), ks_statistic(scaled / sigma_exact),
            sum(covered) / len(covered),
        )
    return out


class TestColumnarSummaries:
    def test_per_n_summaries_equal_row_wise_reference(self, test_model):
        # n=2 is always degenerate at r=2, n=6 often, n=300 rarely
        config = make_config(test_model, n_values=(2, 6, 40, 300), replications=300)
        records = run_experiment(config).records
        assert records.degenerate.any() and not records.degenerate.all()
        sigma = math.sqrt(exact_sigma2(test_model).sigma2)
        want = reference_summaries(records, sigma)
        per_n = evaluate(config, records, ()).per_n
        assert [s.n for s in per_n] == list(want)
        for s in per_n:
            got = (s.n, s.replications, s.degenerate_count, s.eta_mean, s.eta_median,
                   s.eta_variance, s.scaled_eta_mean, s.scaled_eta_median,
                   s.scaled_eta_variance, s.median_abs_eta, s.ks_normalized, s.coverage)
            assert got == want[s.n]
            assert s.degenerate_empty_label + s.degenerate_empty_cell == s.degenerate_count
        curve = lln_curve(records)
        assert curve == {n: row[9] for n, row in want.items() if row[9] is not None}

    def test_rows_must_be_sorted_by_n(self, test_model):
        records = make_columns([make_record(1000, 0), make_record(100, 0), make_record(1000, 1)])
        with pytest.raises(ValueError, match="sorted by n"):
            lln_curve(records)
        with pytest.raises(ValueError, match="sorted by n"):
            evaluate(make_config(test_model), records, ())

    def test_empty_records_give_no_per_n(self, test_model):
        summary = evaluate(make_config(test_model), ReplicationColumns.empty(), ())
        assert summary.per_n == ()


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
