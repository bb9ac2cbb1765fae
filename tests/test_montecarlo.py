import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from symkl import (
    CHECK_NAMES,
    CheckResult,
    CountTable,
    DegenerateSampleError,
    ExperimentConfig,
    PopulationModel,
    ReplicationColumns,
    bound_table,
    confidence_interval,
    coverage_rate,
    exact_sigma2,
    influence_value,
    ks_statistic,
    normal_cdf,
    normal_quantile,
    plug_in_estimate,
    plugin_sigma2,
    run_experiment,
    sym_kl_divergence,
)
from symkl import model as symkl_model
from symkl import montecarlo
from symkl import streams
from symkl.bounds import DEFAULT_G_GRID, _exceed_counts
from symkl.model import TableBlock, block_rows, sample_counts, table_blocks
from symkl.montecarlo import (
    REASON_EMPTY_CELL,
    REASON_EMPTY_LABEL,
    REASON_NONE,
    _lln_curve,
    _median,
    _per_n,
    evaluate,
    replication_columns,
)

from conftest import assert_columns_equal, make_columns, random_simplex, traced_peak


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
        return (n, rep, REASON_EMPTY_CELL, *[math.nan] * 6, False)
    return (n, rep, REASON_NONE, 0.27 + eta, eta, math.sqrt(n) * eta, 4.4, 0.0, 1.0,
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
                           ("master_seed", math.nan),
                           # numeric strings are not numbers, although float() reads them
                           ("n_values", ("100", "1e3")), ("n_values", (100, b"1000")),
                           ("replications", "10"), ("master_seed", "3")):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                make_config(test_model, **{field: bad})
        config = make_config(test_model, n_values=(1e2, 1e4), replications=1e1, master_seed=3.0)
        assert (config.n_values, config.replications, config.master_seed) == ((100, 10000), 10, 3)
        assert all(type(n) is int for n in config.n_values)

    def test_level_domain(self, test_model):
        with pytest.raises(ValueError, match="ci_level"):
            make_config(test_model, ci_level=1.0)
        with pytest.raises(ValueError, match="ci_level: integer too large for a float"):
            make_config(test_model, ci_level=10**400)

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
        curve = _lln_curve(_per_n(make_columns(records), 0.0))
        assert list(curve) == [100, 1000]
        assert curve[100] == pytest.approx(0.2)
        assert curve[1000] == pytest.approx(0.02)

    def test_lln_curve_needs_two_sizes(self):
        with pytest.raises(ValueError, match="2 distinct"):
            _lln_curve(_per_n(make_columns([make_record(100, i) for i in range(5)]), 0.0))

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
            _lln_curve(_per_n(make_columns(records), 0.0))
        message = str(info.value)
        assert "2 distinct" in message
        assert "every replication was degenerate at n = 100, 2000" in message
        assert "20000" not in message


# The reason code of each kind of ``plug_in_estimate`` reason.
REASON_KINDS = {"empty label class": REASON_EMPTY_LABEL, "zero cell": REASON_EMPTY_CELL}


def assert_columns_match_oracle(n1, n0, truth, level=0.95):
    """Every row of the kernel against the scalar functions on its table.

    A row's reason code is the kind of ``plug_in_estimate``'s reason, and
    ``plugin_sigma2`` raises that reason on exactly the degenerate rows.
    """
    cols = replication_columns(n1, n0, truth, normal_quantile((1.0 + level) / 2.0))
    for i in range(len(n1)):
        counts = CountTable(n1=n1[i], n0=n0[i])
        est = plug_in_estimate(counts)
        if est.degenerate:
            kinds = [code for kind, code in REASON_KINDS.items() if est.reason.startswith(kind)]
            assert kinds == [cols.reason[i]], (i, est.reason)
            with pytest.raises(DegenerateSampleError) as info:
                plugin_sigma2(counts)
            assert str(info.value) == est.reason
            assert np.isnan(cols.estimate[i]) and not cols.covered[i]
            continue
        assert cols.reason[i] == REASON_NONE
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


def out_of_place_columns(n1, n0, truth, z, first_rep=0):
    """The kernel as plain expressions, one new array per step: the reference
    for the in-place kernel's bits.  It lacks the kernel's rounding test for
    the label-1 frequency, which only sizes above 2**53 reach."""
    m1 = n1.sum(axis=1)
    m0 = n0.sum(axis=1)
    sizes = m1 + m0
    degenerate = np.any(n1 == 0, axis=1) | np.any(n0 == 0, axis=1)
    reason = np.where(degenerate, REASON_EMPTY_CELL, REASON_NONE).astype(np.int8)
    reason[(m1 == 0) | (m0 == 0)] = REASON_EMPTY_LABEL
    ok = ~degenerate
    n1, n0, m1, m0, n = n1[ok], n0[ok], m1[ok], m0[ok], sizes[ok]
    p_hat = n1 / m1[:, None]
    q_hat = n0 / m0[:, None]
    log_ratio = np.log(p_hat) - np.log(q_hat)
    estimate = np.sum((p_hat - q_hat) * log_ratio, axis=1)
    b = 1.0 + log_ratio - q_hat / p_hat
    c = 1.0 - log_ratio - p_hat / q_hat
    s_pb = np.sum(p_hat * b, axis=1)[:, None]
    s_qc = np.sum(q_hat * c, axis=1)[:, None]
    p = (m1 / n)[:, None]
    q = 1.0 - p
    w1 = b / p - (2.0 - p) * s_pb - p * s_qc
    w0 = c / q - q * s_pb - (2.0 - q) * s_qc
    t1 = p * p_hat * w1
    t0 = q * q_hat * w0
    mean = np.sum(t1, axis=1) + np.sum(t0, axis=1)
    second = np.sum(t1 * w1, axis=1) + np.sum(t0 * w0, axis=1)
    sigma2 = np.maximum(second - mean * mean, 0.0)
    half = z * np.sqrt(sigma2 / n)
    lower = estimate - half
    upper = estimate + half
    eta = estimate - truth

    def column(values, fill=np.nan):
        out = np.full(ok.shape, fill, dtype=values.dtype)
        out[ok] = values
        return out

    return ReplicationColumns(
        n=sizes, rep_index=np.arange(first_rep, first_rep + ok.size, dtype=np.int64),
        reason=reason, estimate=column(estimate), eta=column(eta),
        scaled_eta=column(np.sqrt(n) * eta), sigma2_hat=column(sigma2),
        ci_lower=column(lower), ci_upper=column(upper),
        covered=column((lower <= truth) & (truth <= upper), fill=False),
    )


class TestColumnsEqual:
    def test_tells_signed_zeros_apart(self):
        # records.csv writes -0 and 0, which assert_array_equal takes as equal
        plus = make_columns([make_record(100, 0, eta=0.0), make_record(100, 1, degenerate=True)])
        minus = make_columns([make_record(100, 0, eta=-0.0), make_record(100, 1, degenerate=True)])
        assert_columns_equal(plus, plus)
        assert_columns_equal(minus, minus)
        with pytest.raises(AssertionError, match="eta sign"):
            assert_columns_equal(plus, minus)


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
            # p_hat[1] near 1e-13: every cell is positive, so the table has an estimate
            tiny = assert_columns_match_oracle(np.array([[10**13, 1]]), np.array([[5, 5]]), truth)
            assert tiny.estimate.tolist() == [14.966803104458304]
            # the label-1 frequency rounds to 1: label 0 is empty in double precision
            for count in (1 << 60, 4 * 10**18):
                n1_huge, n0_huge = np.array([[count, count]]), np.array([[1, 1]])
                est = plug_in_estimate(CountTable(n1=n1_huge[0], n0=n0_huge[0]))
                assert est.reason == "empty label class: label-1 frequency rounds to 1"
                huge = assert_columns_match_oracle(n1_huge, n0_huge, truth)
                assert huge.reason.tolist() == [REASON_EMPTY_LABEL]

    @pytest.mark.parametrize("r", [2, 50, 1000])
    def test_in_place_kernel_keeps_every_bit(self, r):
        # the oracle tests allow 1e-13, which a reordered operation would pass
        rng = np.random.default_rng(40 + r)
        model = PopulationModel(label_prob=0.3, cond_p=random_simplex(rng, r, min_entry=0.0),
                                cond_q=random_simplex(rng, r, min_entry=0.0))
        blocks = []
        for n in (4 * r, 10**5 * r):
            _, n1, n0 = sample_counts(model, n, block_rows(r), rng)
            n1[0] = 0
            n0[1] = 0
            blocks.append((n1, n0))
        # blocks of degenerate rows only, computed and then masked: every row
        # has an empty cell, or every row has an empty label class
        _, n1, n0 = sample_counts(model, 10**5 * r, block_rows(r), rng)
        n1[:, -1] = 0
        blocks.append((n1, n0))
        _, n1, n0 = sample_counts(model, 10**5 * r, block_rows(r), rng)
        n1[::2] = 0
        n0[1::2] = 0
        blocks.append((n1, n0))
        reasons = set()
        for i, (n1, n0) in enumerate(blocks):
            got = replication_columns(n1, n0, 0.25, 1.96, 3)
            want = out_of_place_columns(n1, n0, 0.25, 1.96, 3)
            assert_columns_equal(got, want)
            for f in fields(ReplicationColumns):  # signed zeros too
                assert getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name
            reasons.update(got.reason.tolist())
            assert i < 2 or got.degenerate.all()
        assert reasons == {REASON_NONE, REASON_EMPTY_LABEL, REASON_EMPTY_CELL}

    def test_kernel_peak_is_a_few_block_arrays(self):
        # full blocks at a large n, one table made degenerate: 65 tables at
        # r = 1000, and 32 768 at r = 2, where each row-length array is half a
        # block; the block-sized scratch is freed before the row-length tail
        rng = np.random.default_rng(65)
        for r, n, most in ((1000, 10**9, 7), (2, 2 * 10**6, 11)):
            model = PopulationModel(label_prob=0.4, cond_p=random_simplex(rng, r, min_entry=0.0),
                                    cond_q=random_simplex(rng, r, min_entry=0.0))
            _, n1, n0 = sample_counts(model, n, block_rows(r), rng)
            assert n1.shape == (block_rows(r), r)
            n1[0, 0] = 0
            peak = traced_peak(replication_columns, n1, n0, 0.1, 1.96)
            assert peak <= most * n1.size * 8, (r, peak / (n1.size * 8))

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


class TestBlockSlices:
    """``_block_pass`` feeds the kernel and the bound counts row slices of its block."""

    @pytest.mark.parametrize("r, rows",
                             [(2, 20000), (3, 21845), (8, 5000), (50, 1310), (1000, 65)])
    def test_slices_change_no_bit(self, r, rows):
        slices = montecarlo._row_slices(rows, r)
        assert len(slices) > 1 and rows % len(slices)  # slices of unequal length
        rng = np.random.default_rng(r)
        # every cell expects at least 60 draws, so the degenerate rows are the ones made below
        model = PopulationModel(label_prob=0.3,
                                cond_p=0.5 / r + 0.5 * random_simplex(rng, r, min_entry=0.0),
                                cond_q=0.5 / r + 0.5 * random_simplex(rng, r, min_entry=0.0))
        n = 400 * r
        k1, n1, n0 = sample_counts(model, n, rows, rng)
        # empty label classes and empty cells in the first, a middle and the last slice
        for i in (0, slices[1].start + 1, rows - 1):
            n0[i] += n1[i]
            n1[i] = k1[i] = 0
        for i in (1, slices[-1].start):
            n1[i] += n0[i]
            n0[i] = 0
            k1[i] = n
        for i in (2, slices[1].stop - 1, rows - 2):
            n1[i, 1] += n1[i, 0]
            n1[i, 0] = 0
        block = SimpleNamespace(model=model, n=n, start=7, draw=lambda: (k1, n1, n0))
        g_values = (1e-3, 0.01, 0.1)
        columns, counts = montecarlo._block_pass((block, 0.25, 1.96, g_values))

        want = replication_columns(n1, n0, 0.25, 1.96, 7)
        assert set(want.reason.tolist()) == {REASON_NONE, REASON_EMPTY_LABEL, REASON_EMPTY_CELL}
        for f in fields(ReplicationColumns):  # signed zeros too
            got_column, want_column = getattr(columns, f.name), getattr(want, f.name)
            assert got_column.dtype == want_column.dtype, f.name
            assert got_column.tobytes() == want_column.tobytes(), f.name
        want_counts = _exceed_counts(model, n, g_values, k1, n1, n0)
        assert counts.keys() == want_counts.keys()
        for name, count in want_counts.items():
            assert counts[name].dtype == np.int64, name
            assert np.array_equal(counts[name], count), name
        assert any(np.any((c > 0) & (c < rows)) for c in counts.values())

    def test_block_pass_peak_is_a_few_block_arrays(self):
        # full blocks: 65 tables at r = 1000 through the kernel and 1310 at
        # r = 50 through the bound counts; the drawn counts are 2 block arrays
        rng = np.random.default_rng(16)
        for r, n, z, g_values in ((1000, 2 * 10**5, 1.96, ()), (50, 10**4, None, DEFAULT_G_GRID)):
            model = PopulationModel(label_prob=0.4, cond_p=random_simplex(rng, r, min_entry=0.0),
                                    cond_q=random_simplex(rng, r, min_entry=0.0))
            (block,) = table_blocks(model, [n], block_rows(r), master_seed=r)
            peak = traced_peak(montecarlo._block_pass, (block, 0.1, z, g_values))
            assert peak <= 4 * block.size * r * 8, (r, peak / (block.size * r * 8))


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
        curve = _lln_curve(per_n)
        assert curve == {n: row[9] for n, row in want.items() if row[9] is not None}

    def test_rows_must_be_sorted_by_n(self, test_model):
        records = make_columns([make_record(1000, 0), make_record(100, 0), make_record(1000, 1)])
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


class TestOneStreamFamily:
    def test_run_and_bound_table_draw_only_block_streams(self, test_model, monkeypatch):
        tags = []
        philox = streams._philox

        def recording(master_seed, tag, n_index, index):
            tags.append(tag)
            return philox(master_seed, tag, n_index, index)

        monkeypatch.setattr(streams, "_philox", recording)
        run_experiment(make_config(test_model, checks=("lln", "bounds")), workers=1, records=True)
        assert tags and set(tags) == {streams.TAG_BLOCK}
        tags.clear()
        bound_table(test_model, [100, 1000], [0.1], replications=50, master_seed=3)
        assert tags and set(tags) == {streams.TAG_BLOCK}


class TestOneReduction:
    """evaluate reduces the records to one summary per n, and every check reads it."""

    @pytest.mark.parametrize("check", ["clt", "coverage"])
    def test_checks_without_records_fail_cleanly(self, test_model, check):
        config = make_config(test_model, n_values=(100, 1000), checks=(check,))
        result = run_experiment(config, records=False)
        assert result.summary.per_n == ()
        assert result.summary.checks == (
            CheckResult(name=check, passed=False, detail="no usable replications at n=1000"),
        )

    def test_records_are_sliced_once(self, test_model, monkeypatch):
        config = make_config(test_model, checks=("lln", "clt", "coverage"))
        records = run_experiment(config).records
        calls = []
        n_slices = montecarlo._n_slices

        def counting(n):
            calls.append(len(n))
            return n_slices(n)

        monkeypatch.setattr(montecarlo, "_n_slices", counting)
        summary = evaluate(config, records, ())
        assert calls == [len(records)]
        curve = {s.n: s.median_abs_eta for s in summary.per_n}
        assert _lln_curve(summary.per_n) == curve
        assert summary.checks[0].detail == "median |error| by n: " + ", ".join(
            f"{n}: {v:.6g}" for n, v in curve.items()
        )


def count_law_checks(monkeypatch) -> list[str]:
    """From now on, the names of the vectors ``as_prob_vector`` checks."""
    names = []
    real = symkl_model.as_prob_vector

    def counting(values, *, name="probability vector"):
        names.append(name)
        return real(values, name=name)

    monkeypatch.setattr(symkl_model, "as_prob_vector", counting)
    return names


class TestValidationOnce:
    """A law is checked where it enters: a PopulationModel is built, or
    sym_kl_divergence gets raw arrays.  Nothing below checks it again."""

    def test_nothing_below_the_boundary_checks_a_law(self, monkeypatch):
        model = PopulationModel(label_prob=0.3, cond_p=(0.2, 0.5, 0.3), cond_q=(0.4, 0.4, 0.2))
        config = make_config(model, checks=("lln", "bounds"))
        counts = CountTable(n1=np.array([10**13, 1]), n0=np.array([5, 5]))
        names = count_law_checks(monkeypatch)
        for step in (
            lambda: run_experiment(config, workers=1),
            lambda: exact_sigma2(model),
            model.sym_divergence,
            lambda: influence_value(model, 0, 1),
            lambda: plug_in_estimate(counts),
            lambda: plugin_sigma2(counts),
        ):
            step()
            assert names == []

    def test_the_boundary_checks_and_rejects(self, monkeypatch):
        checks = count_law_checks(monkeypatch)
        PopulationModel(label_prob=0.5, cond_p=(0.5, 0.5), cond_q=(0.25, 0.75))
        assert checks == ["cond_p", "cond_q"]
        sym_kl_divergence([0.5, 0.5], [0.25, 0.75])
        assert checks == ["cond_p", "cond_q", "p", "q"]
        with pytest.raises(ValueError, match="cond_p must be strictly positive"):
            PopulationModel(label_prob=0.5, cond_p=(0.0, 1.0), cond_q=(0.5, 0.5))
        with pytest.raises(ValueError, match="p must be strictly positive"):
            sym_kl_divergence([0.0, 1.0], [0.5, 0.5])
