import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from symkl import (
    CHECK_NAMES,
    BoundTableRow,
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
    parse_config_dict,
    plugin_sigma2,
    run_experiment,
    sym_kl_divergence,
    write_summary_json,
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
    _median,
    _per_n,
    _run_check,
    evaluate,
    replication_columns,
)

from conftest import (
    COLUMNS,
    STORED,
    assert_columns_equal,
    make_columns,
    random_simplex,
    traced_peak,
)


def check_lln(per_n):
    """The ``lln`` check on ``per_n``; its statistic reads no config."""
    return _run_check("lln", None, per_n, ())


def lln_detail(curve):
    """The detail line of the ``lln`` check on a ``{n: median |error|}`` curve."""
    medians = list(curve.values())
    steps = sum(b >= a for a, b in zip(medians, medians[1:]))
    return (f"value={steps} limit=0 margin={steps}: steps where median |error| does not "
            "shrink; by n: " + ", ".join(f"{n}: {v:.6g}" for n, v in curve.items()))


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


def make_record(n, eta=0.1, covered=True, degenerate=False):
    """One row for :func:`make_columns` at ``n`` and its default truth 0 and z
    1.96: the estimate is ``eta``, and a ``sigma2_hat`` of ``n`` (half-width
    1.96) or 0 (half-width 0) makes the interval cover or miss a nonzero ``eta``."""
    if degenerate:
        return (REASON_EMPTY_CELL, math.nan, math.nan)
    assert abs(eta) < 1.96 and (covered or eta != 0.0)
    return (REASON_NONE, eta, float(n) if covered else 0.0)


def records_at(n, rows):
    """Records at ``n`` from :func:`make_record` keyword dicts."""
    return make_columns(n, [make_record(n, **row) for row in rows])


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
        with pytest.raises(ValueError, match=r"^n_values must lie in \[1, 2\*\*63 - 1\], got 0$"):
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
        for bad in (-1, 1 << 64):
            message = rf"^master_seed must lie in \[0, 2\*\*64 - 1\], got {bad}$"
            with pytest.raises(ValueError, match=message):
                make_config(test_model, master_seed=bad)
        make_config(test_model, master_seed=(1 << 64) - 1)

    def test_non_integral_values_rejected(self, test_model):
        # a fractional part is an error, never truncated; integral floats pass
        for field, bad in (("n_values", (100.9, 1000.5)), ("n_values", (100, math.inf)),
                           ("replications", 10.7), ("master_seed", 3.9),
                           ("master_seed", math.nan),
                           # numeric strings are not numbers, although float() reads them
                           ("n_values", ("100", "1e3")), ("n_values", (100, b"1000")),
                           ("replications", "10"), ("master_seed", "3"),
                           # not numbers at all: a TypeError inside becomes the ValueError
                           ("master_seed", None), ("replications", 10 + 0j),
                           ("n_values", ([100], 1000))):
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
        with pytest.raises(ValueError) as info:
            make_config(null_model, checks=("clt",))
        assert str(info.value) == ("clt check is unavailable when cond_p equals cond_q: "
                                   "the scaled error degenerates at the null")
        # other checks remain allowed there
        make_config(null_model, checks=("lln", "coverage", "bounds"))

    def test_lln_needs_two_sizes(self, test_model):
        with pytest.raises(ValueError, match="^lln check needs at least 2 sample sizes$"):
            make_config(test_model, n_values=(500,), checks=("lln",))

    def test_checks_must_be_a_sequence_of_names(self, test_model):
        # a string is not split into letters, and an empty one is not "no checks"
        for bad in ("lln", "", b"lln"):
            with pytest.raises(ValueError, match=r"^checks must be a sequence of check names, "):
                make_config(test_model, checks=bad)
        assert make_config(test_model, checks=["lln"]).checks == ("lln",)

    def test_sequence_fields_reject_scalars(self, test_model):
        # one rule for n_values and checks: a str, bytes or non-iterable names its field
        for field, bad, items in (("n_values", 100, "integers"), ("n_values", "100", "integers"),
                                  ("n_values", b"100", "integers"),
                                  ("n_values", np.array(100), "integers"),
                                  ("checks", None, "check names"), ("checks", 1, "check names")):
            with pytest.raises(ValueError, match=f"^{field} must be a sequence of {items}, got "):
                make_config(test_model, **{field: bad})
        config = make_config(test_model, n_values=np.array([300, 900]), checks=iter(["lln"]))
        assert (config.n_values, config.checks) == ((300, 900), ("lln",))

    def test_model_must_be_a_population_model(self, test_model):
        for bad in ("x", None, {"label_prob": 0.5}):
            with pytest.raises(ValueError, match="^model must be a PopulationModel, got "):
                make_config(test_model, model=bad)

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

    def test_rejects_a_sample_that_is_not_1d(self):
        # a column vector is not read as its flat values, nor broadcast
        for bad, shape in (([[0.1], [0.2], [0.3]], r"\(3, 1\)"), ([[0.0, 1.0], [2.0, 3.0]],
                           r"\(2, 2\)"), (0.5, r"\(\)"), ([[]], r"\(1, 0\)")):
            with pytest.raises(ValueError, match=f"^ks_statistic needs a 1-d sample, got shape "
                                                 f"{shape}$"):
                ks_statistic(bad)
        assert ks_statistic(np.array([0.1, 0.2, 0.3])) == pytest.approx(0.5398, abs=1e-4)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError, match="nonempty"):
            ks_statistic([])
        with pytest.raises(ValueError, match=r"^values must lie in \(-inf, inf\), got inf$"):
            ks_statistic([0.0, float("inf")])

    @pytest.mark.parametrize("m", sorted({montecarlo._KS_CHUNK - 1, montecarlo._KS_CHUNK,
                                          montecarlo._KS_CHUNK + 1, 65535, 65536, 65537}))
    def test_chunks_change_no_bit(self, m):
        # two decimals leave many ties; an all-zero sample has d_plus at its
        # last value and d_minus at its first, in the last and the first chunk
        rng = np.random.default_rng(m)
        for sample in (np.round(rng.standard_normal(m), 2), np.zeros(m)):
            arr = np.sort(sample)
            grid = np.arange(1, m + 1, dtype=np.float64)
            cdf_vals = normal_cdf(arr)
            want = float(max(np.max(grid / m - cdf_vals), np.max(cdf_vals - (grid - 1.0) / m)))
            assert ks_statistic(sample).hex() == want.hex()


class TestCoverageAndCurve:
    def test_coverage_rate(self):
        records = records_at(100, [dict(covered=(i % 4 != 0)) for i in range(8)])
        assert coverage_rate(records) == pytest.approx(0.75)

    def test_coverage_skips_degenerate(self):
        assert coverage_rate(records_at(100, [dict(covered=True), dict(degenerate=True)])) == 1.0

    def test_coverage_needs_valid_records(self):
        with pytest.raises(ValueError, match="non-degenerate"):
            coverage_rate(records_at(100, [dict(degenerate=True)]))

    def test_lln_curve_medians(self):
        records = (records_at(100, [dict(eta=e) for e in (0.1, -0.3, 0.2)]),
                   records_at(1000, [dict(eta=e) for e in (0.05, -0.01, 0.02)]))
        result = check_lln(_per_n(records, 0.0))
        assert result == CheckResult(name="lln", passed=True, value=0, limit=0, margin=0,
                                     detail=lln_detail({100: 0.2, 1000: 0.02}))

    def test_lln_curve_needs_two_sizes(self):
        result = check_lln(_per_n((records_at(100, [{}] * 5),), 0.0))
        assert not result.passed
        assert "2 distinct" in result.detail

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 999, 1000])
    def test_median_equals_numpy(self, size):
        rng = np.random.default_rng(size)
        for _ in range(20):
            sample = rng.standard_normal(size) * 10.0 ** int(rng.integers(-6, 6))
            assert _median(sample) == float(np.median(sample))

    def test_medians_select_with_no_partition(self, test_model, monkeypatch):
        # medians take the middle of np.sort, so a run maps no selection kernel
        config = make_config(test_model)
        records = run_experiment(config).records
        want = [float(np.median(at_n.eta[~at_n.degenerate])) for at_n in records]

        def partition(*args, **kwargs):
            raise AssertionError("np.partition called")

        monkeypatch.setattr(np, "partition", partition)
        per_n = evaluate(config, records, ()).per_n
        assert [s.eta_median for s in per_n] == want

    def test_lln_curve_names_all_degenerate_sizes(self):
        records = tuple(records_at(n, [dict(degenerate=True)] * 4) for n in (100, 2000))
        records += (records_at(20000, [dict(eta=0.01)] * 3 + [dict(degenerate=True)]),)
        result = check_lln(_per_n(records, 0.0))
        assert not result.passed
        message = result.detail
        assert "2 distinct" in message
        assert "every replication was degenerate at n = 100, 2000" in message
        assert "20000" not in message


# The reason code of each kind of message that ``plug_in_estimate`` raises.
REASON_KINDS = {"empty label class": REASON_EMPTY_LABEL, "zero cell": REASON_EMPTY_CELL}


def assert_columns_match_oracle(n1, n0, truth, level=0.95):
    """Every row of the kernel against the scalar functions on its table.

    A row's reason code is the kind of the message that ``plug_in_estimate``
    raises, and ``plugin_sigma2`` raises that message on exactly the
    degenerate rows.  The tables may differ in size, so each row is checked
    as the records of its own size; returns them, one per row.
    """
    columns = replication_columns(n1, n0)
    rows = []
    for i in range(len(n1)):
        counts = CountTable(n1=n1[i], n0=n0[i])
        cols = ReplicationColumns(counts.n, *(column[i:i + 1] for column in columns),
                                  truth, normal_quantile((1.0 + level) / 2.0))
        rows.append(cols)
        try:
            est = plug_in_estimate(counts)
        except DegenerateSampleError as exc:
            reason = str(exc)
            kinds = [code for kind, code in REASON_KINDS.items() if reason.startswith(kind)]
            assert kinds == [cols.reason[0]], (i, reason)
            with pytest.raises(DegenerateSampleError) as info:
                plugin_sigma2(counts)
            assert str(info.value) == reason
            assert np.isnan(cols.estimate[0]) and not cols.covered[0]
            continue
        assert cols.reason[0] == REASON_NONE
        sigma2 = plugin_sigma2(counts)
        lower, upper = confidence_interval(est, sigma2, counts.n, level)
        assert cols.covered[0] == (lower <= truth <= upper)
        for got, want in (
            (cols.estimate[0], est),
            (cols.sigma2_hat[0], sigma2),
            (cols.ci_lower[0], lower),
            (cols.ci_upper[0], upper),
        ):
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert cols.eta[0] == cols.estimate[0] - truth
        assert cols.scaled_eta[0] == math.sqrt(counts.n) * cols.eta[0]
    return rows


def row_values(rows, name):
    """The values of column ``name`` in the one-row records ``rows``."""
    return [getattr(cols, name)[0].item() for cols in rows]


def out_of_place_columns(n1, n0, truth, z):
    """The kernel as plain expressions, one new array per step, with each
    table's size as an int64 column: the reference for the bits of the
    kernel, which reuses block arrays in place, and for the columns that
    :class:`ReplicationColumns` derives at one scalar ``n``, by name."""
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
    estimate = np.einsum("ij,ij->i", p_hat - q_hat, log_ratio)
    b = 1.0 + log_ratio - q_hat / p_hat
    c = 1.0 - log_ratio - p_hat / q_hat
    s_pb = np.einsum("ij,ij->i", p_hat, b)
    s_pbb = np.einsum("ij,ij,ij->i", p_hat, b, b)
    s_qc = np.einsum("ij,ij->i", q_hat, c)
    s_qcc = np.einsum("ij,ij,ij->i", q_hat, c, c)
    p = m1 / n
    q = m0 / n
    label = q * q * s_pb - p * p * s_qc
    sigma2 = np.maximum((s_pbb - s_pb * s_pb) / p + (s_qcc - s_qc * s_qc) / q
                        + label * label / (p * q), 0.0)
    half = z * np.sqrt(sigma2 / n)
    lower = estimate - half
    upper = estimate + half
    eta = estimate - truth

    def column(values, fill=np.nan):
        out = np.full(ok.shape, fill, dtype=values.dtype)
        out[ok] = values
        return out

    return dict(
        reason=reason, estimate=column(estimate), eta=column(eta),
        scaled_eta=column(np.sqrt(n) * eta), sigma2_hat=column(sigma2),
        ci_lower=column(lower), ci_upper=column(upper),
        covered=column((lower <= truth) & (truth <= upper), fill=False),
    )


class TestColumnsEqual:
    def test_tells_signed_zeros_apart(self):
        # records.csv writes -0 and 0, which assert_array_equal takes as equal
        plus = records_at(100, [dict(eta=0.0), dict(degenerate=True)])
        minus = records_at(100, [dict(eta=-0.0), dict(degenerate=True)])
        assert_columns_equal(plus, plus)
        assert_columns_equal(minus, minus)
        assert math.copysign(1.0, minus.eta[0]) == -1.0  # the derived eta keeps the sign
        with pytest.raises(AssertionError, match="estimate sign"):
            assert_columns_equal(plus, minus)


class TestReplicationColumns:
    @pytest.mark.parametrize("r", [2, 50, 1000])
    def test_random_tables_match_scalar_oracles(self, r):
        rng = np.random.default_rng(r)
        # four label probabilities from uniform(0.2, 0.8), then two far from
        # 0.5, where a wrong variance shows most.  A small n leaves empty cells
        # in many rows, a large n in none; far from 0.5 at r = 1000, n = 2000 r
        # still leaves every row degenerate, so those take 10**6 r.  Last the
        # null, p = q, at about 10**6 draws a cell: b and c are small differences
        # of terms near 1 there, whose expanded sums (sum p_hat (1 + L)**2
        # - 2 sum q_hat (1 + L) + sum q_hat**2 / p_hat) would lose digits.
        groups = (([None] * 4, 2000 * r, False), ([0.02, 0.98], 10**6 * r, False),
                  ([None], {2: 10**6, 50: 10**8, 1000: 10**9}[r], True))
        for label_probs, large_n, null in groups:
            tables = []
            for label_prob in label_probs:
                label_prob = float(rng.uniform(0.2, 0.8)) if label_prob is None else label_prob
                cond_p = random_simplex(rng, r, min_entry=1e-7)
                cond_q = cond_p if null else random_simplex(rng, r, min_entry=1e-7)
                model = PopulationModel(label_prob=label_prob, cond_p=cond_p, cond_q=cond_q)
                for n in (4 * r, large_n):
                    tables.append(sample_counts(model, n, 10, rng))
            n1 = np.vstack([t[0] for t in tables])
            n0 = np.vstack([t[1] for t in tables])
            degenerate = row_values(assert_columns_match_oracle(n1, n0, truth=0.5), "degenerate")
            assert any(degenerate) and not all(degenerate)

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
            rows = assert_columns_match_oracle(n1, n0, truth)
            assert row_values(rows, "degenerate") == [True, True, True, True, False, False]
            assert row_values(rows, "reason") == [
                REASON_EMPTY_LABEL, REASON_EMPTY_LABEL, REASON_EMPTY_CELL, REASON_EMPTY_CELL,
                REASON_NONE, REASON_NONE,
            ]
            assert [len(column) for column in replication_columns(n1, n0)] == [6, 6, 6]
            # equal empirical laws: zero variance, point interval at 0
            cols = rows[4]
            assert cols.estimate[0] == 0.0 and cols.sigma2_hat[0] == 0.0
            assert cols.ci_lower[0] == cols.ci_upper[0] == 0.0
            assert cols.covered[0] == (truth == 0.0)
            # p_hat[1] near 1e-13: every cell is positive, so the table has an estimate
            tiny = assert_columns_match_oracle(np.array([[10**13, 1]]), np.array([[5, 5]]), truth)
            assert row_values(tiny, "estimate") == [14.966803104458304]
            # above 2**53 draws, where the counts round to float64, the values are
            # the scalar functions' own; in all but the last table the label-1
            # frequency rounds to 1, yet both labels are drawn
            n1_huge = np.array([[1 << 60] * 2, [4 * 10**18] * 2, [4 * 10**18] * 2,
                                [3146744646535908222, 3146744646535908223],
                                [123456789012345678, 987654321098765432]])
            n0_huge = np.array([[1, 1], [1, 1], [1, 3], [261, 262], [1234567, 7654321]])
            huge = assert_columns_match_oracle(n1_huge, n0_huge, truth)
            assert row_values(huge, "reason") == [REASON_NONE] * 5
            for row, n1_row, n0_row in zip(huge, n1_huge, n0_huge):
                counts = CountTable(n1=n1_row, n0=n0_row)
                assert row.estimate[0] == plug_in_estimate(counts)
                assert row.sigma2_hat[0] == plugin_sigma2(counts)

    @pytest.mark.parametrize("r", [2, 50, 1000])
    def test_label_swap_keeps_every_bit(self, r):
        # swapping n1 and n0 swaps p_hat and q_hat, which the estimate and the
        # variance take symmetrically: the kernel and the scalar oracles keep
        # every bit.  Permuting the symbols only reorders the row sums.
        rng = np.random.default_rng(4200 + r)
        tables = []
        for label_prob in (0.02, 0.3, 0.5, 0.9):
            model = PopulationModel(label_prob, random_simplex(rng, r, min_entry=1e-7),
                                    random_simplex(rng, r, min_entry=1e-7))
            for n in (4 * r, 2000 * r, 10**6 * r):
                tables.append(sample_counts(model, n, 10, rng))
        n1 = np.vstack([t[0] for t in tables])
        n0 = np.vstack([t[1] for t in tables])
        n1[0], n0[1], n1[2, 0] = 0, 0, 0  # an empty label class each way, and an empty cell
        if r == 2:  # extreme tables: one label class of a few draws among up to 8e18
            n1 = np.vstack([n1, [[4 * 10**18] * 2, [3146744646535908222, 3146744646535908223],
                                 [10**6] * 2, [1, 1]]])
            n0 = np.vstack([n0, [[1, 3], [261, 262], [1, 1], [10**6, 3]]])
        columns = replication_columns(n1, n0)
        reason = columns[0]
        assert (reason == REASON_NONE).any() and (reason != REASON_NONE).any()
        for column, swapped in zip(columns, replication_columns(n0, n1)):
            assert column.tobytes() == swapped.tobytes()
        order = rng.permutation(r)
        permuted = replication_columns(n1[:, order], n0[:, order])
        assert np.array_equal(permuted[0], reason)
        for column, other in zip(columns[1:], permuted[1:]):
            np.testing.assert_allclose(other, column, rtol=1e-14, atol=0.0)
        for i in np.flatnonzero(reason == REASON_NONE):
            counts, swapped = CountTable(n1[i], n0[i]), CountTable(n0[i], n1[i])
            assert plug_in_estimate(swapped).hex() == plug_in_estimate(counts).hex()
            assert plugin_sigma2(swapped).hex() == plugin_sigma2(counts).hex()

    @pytest.mark.parametrize("r", [2, 50, 1000])
    def test_in_place_kernel_keeps_every_bit(self, r):
        # the oracle tests allow 1e-13, which a reordered operation would pass
        rng = np.random.default_rng(40 + r)
        model = PopulationModel(label_prob=0.3, cond_p=random_simplex(rng, r, min_entry=0.0),
                                cond_q=random_simplex(rng, r, min_entry=0.0))
        blocks = []
        for n in (4 * r, 10**5 * r):
            n1, n0 = sample_counts(model, n, block_rows(r), rng)
            n1[0] = 0
            n0[1] = 0
            blocks.append((n1, n0))
        # blocks of degenerate rows only, computed and then masked: every row
        # has an empty cell, or every row has an empty label class
        n1, n0 = sample_counts(model, 10**5 * r, block_rows(r), rng)
        n1[:, -1] = 0
        blocks.append((n1, n0))
        n1, n0 = sample_counts(model, 10**5 * r, block_rows(r), rng)
        n1[::2] = 0
        n0[1::2] = 0
        blocks.append((n1, n0))
        reasons = set()
        for i, ((n1, n0), n) in enumerate(zip(blocks, (4 * r,) + (10**5 * r,) * 3)):
            got = ReplicationColumns(n, *replication_columns(n1, n0), truth=0.25, z=1.96)
            want = out_of_place_columns(n1, n0, 0.25, 1.96)
            assert_columns_equal(got, ReplicationColumns(n, *(want[name] for name in STORED),
                                                         truth=0.25, z=1.96))
            for name in COLUMNS:  # signed zeros too, and the derived columns
                column = getattr(got, name)
                assert column.dtype == want[name].dtype, name
                assert column.tobytes() == want[name].tobytes(), name
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
            n1, n0 = sample_counts(model, n, block_rows(r), rng)
            assert n1.shape == (block_rows(r), r)
            n1[0, 0] = 0
            peak = traced_peak(replication_columns, n1, n0)
            assert peak <= most * n1.size * 8, (r, peak / (n1.size * 8))

    def test_summary_counts_each_reason(self, test_model):
        # every table holds n = 6 draws
        n1 = np.array([[0, 0], [4, 2], [1, 1], [2, 3], [1, 2], [0, 4], [3, 1]])
        n0 = np.array([[2, 4], [0, 0], [0, 4], [0, 1], [1, 2], [1, 1], [1, 1]])
        records = (ReplicationColumns(6, *replication_columns(n1, n0), 0.0, 1.96),)
        config = make_config(test_model, n_values=(6,), replications=7)
        (stats,) = evaluate(config, records, ()).per_n
        assert stats.degenerate_empty_label == 2
        assert stats.degenerate_empty_cell == 3
        assert stats.degenerate_count == 5
        assert stats.replications == 7

    def test_kernel_returns_the_stored_columns(self):
        columns = replication_columns(np.array([[3, 1], [0, 2]]), np.array([[1, 3], [2, 2]]))
        assert list(STORED) == ["reason", "estimate", "sigma2_hat"]
        assert type(columns) is tuple and len(columns) == len(STORED)
        for column, dtype in zip(columns, STORED.values()):
            assert type(column) is np.ndarray and column.dtype == dtype and column.shape == (2,)
        assert columns[0].tolist() == [REASON_NONE, REASON_EMPTY_CELL]

    def test_empty_has_the_kernel_column_types(self):
        one_table = ReplicationColumns(8, *replication_columns(np.array([[3, 1]]),
                                                               np.array([[1, 3]])), 0.5, 1.96)
        empty = ReplicationColumns.empty()
        for name in COLUMNS:
            column = getattr(empty, name)
            assert column.dtype == getattr(one_table, name).dtype, name
            assert column.shape == (0,), name

    def test_block_rows(self):
        assert block_rows(2) == 1 << 15
        assert block_rows(1000) == 65
        assert block_rows(1 << 16) == 1
        assert block_rows(1 << 20) == 1


class TestBlockSlices:
    """``_block_pass`` feeds the kernel and the bound counts row slices of its block
    and returns each slice's result; the test joins and adds them as ``_table_pass`` does."""

    @pytest.mark.parametrize("r, rows",
                             [(2, 20000), (3, 21845), (8, 5001), (50, 1309), (1000, 65)])
    def test_slices_change_no_bit(self, r, rows):
        slices = montecarlo._row_slices(rows, r)
        assert len(slices) > 1 and rows % len(slices)  # slices of unequal length
        rng = np.random.default_rng(r)
        # every cell expects at least 60 draws, so the degenerate rows are the ones made below
        model = PopulationModel(label_prob=0.3,
                                cond_p=0.5 / r + 0.5 * random_simplex(rng, r, min_entry=0.0),
                                cond_q=0.5 / r + 0.5 * random_simplex(rng, r, min_entry=0.0))
        n = 400 * r
        n1, n0 = sample_counts(model, n, rows, rng)
        # empty label classes and empty cells in the first, a middle and the last slice
        for i in (0, slices[1].start + 1, rows - 1):
            n0[i] += n1[i]
            n1[i] = 0
        for i in (1, slices[-1].start):
            n1[i] += n0[i]
            n0[i] = 0
        for i in (2, slices[1].stop - 1, rows - 2):
            n1[i, 1] += n1[i, 0]
            n1[i, 0] = 0
        block = SimpleNamespace(model=model, n=n, start=7, draw=lambda: (n1, n0))
        g_values = (1e-3, 0.01, 0.1)
        parts = montecarlo._block_pass((block, True, g_values))
        assert len(parts) == len(slices)
        columns = ReplicationColumns(n, *(
            np.concatenate([c[k] for c, _ in parts]) for k in range(len(STORED))
        ), 0.25, 1.96)
        counts = {}
        for _, sliced in parts:
            for name, count in sliced.items():
                counts[name] = counts.get(name, 0) + count

        # every row keeps its n draws, so the derived columns at n are compared too
        want = ReplicationColumns(n, *replication_columns(n1, n0), 0.25, 1.96)
        assert set(want.reason.tolist()) == {REASON_NONE, REASON_EMPTY_LABEL, REASON_EMPTY_CELL}
        for name in COLUMNS:  # signed zeros too
            got_column, want_column = getattr(columns, name), getattr(want, name)
            assert got_column.dtype == want_column.dtype, name
            assert got_column.tobytes() == want_column.tobytes(), name
        want_counts = _exceed_counts(model, n, g_values, n1, n0)
        assert counts.keys() == want_counts.keys()
        for name, count in want_counts.items():
            assert counts[name].dtype == np.int64, name
            assert np.array_equal(counts[name], count), name
        assert any(np.any((c > 0) & (c < rows)) for c in counts.values())

    def test_block_pass_peak_is_a_few_block_arrays(self):
        # full blocks: 65 tables at r = 1000 and 32 768 at r = 2 through the
        # kernel, 1310 at r = 50 through the bound counts; the drawn counts
        # are 2 block arrays, and at r = 2 the kept slice columns (17 bytes a
        # row) are 1.1 more, the slices' scratch (r + 8 cells a row) 0.4 more
        rng = np.random.default_rng(16)
        for r, n, kernel, g_values, most in ((1000, 2 * 10**5, True, (), 4),
                                             (2, 10**4, True, (), 4),
                                             (50, 10**4, False, DEFAULT_G_GRID, 4)):
            model = PopulationModel(label_prob=0.4, cond_p=random_simplex(rng, r, min_entry=0.0),
                                    cond_q=random_simplex(rng, r, min_entry=0.0))
            (block,) = table_blocks(model, [n], block_rows(r), master_seed=r)
            peak = traced_peak(montecarlo._block_pass, (block, kernel, g_values))
            assert peak <= most * block.size * r * 8, (r, peak / (block.size * r * 8))


class TestDerivedColumns:
    DERIVED = ("eta", "scaled_eta", "ci_lower", "ci_upper", "covered")

    def test_selected_rows_derive_the_same_values(self, test_model):
        # n = 6 leaves many degenerate rows at r = 2
        small, large = run_experiment(make_config(test_model, n_values=(6, 40),
                                                  replications=300)).records
        assert small.degenerate.any() and not small.degenerate.all()
        rng = np.random.default_rng(21)
        for records in (small, large):
            mask = rng.random(len(records)) < 0.5
            for rows in (mask, ~records.degenerate, slice(7, 500, 3),
                         rng.permutation(len(records))):
                selected = records[rows]
                assert (selected.n, selected.truth, selected.z) == (
                    records.n, records.truth, records.z)
                for name in self.DERIVED:
                    got, want = getattr(selected, name), getattr(records, name)[rows]
                    assert got.dtype == want.dtype, name
                    assert got.tobytes() == want.tobytes(), name

    def test_scalar_n_derives_the_int64_expressions(self):
        # sqrt and division at a scalar n round as at an int64 column of n,
        # above 2**53 too, where the int64 -> float64 cast itself rounds
        rng = np.random.default_rng(53)
        rows = 64
        estimate = rng.standard_normal(rows)
        sigma2 = rng.exponential(size=rows)
        reason = np.zeros(rows, dtype=np.int8)
        for n in (1, 7, 100, (1 << 53) - 1, (1 << 53) + 1, (1 << 53) + 3, (1 << 62) + 12345,
                  (1 << 63) - 1):
            cols = ReplicationColumns(n, reason, estimate, sigma2, 0.25, 1.96)
            sizes = np.full(rows, n, dtype=np.int64)
            half = 1.96 * np.sqrt(sigma2 / sizes)
            for name, want in (("scaled_eta", np.sqrt(sizes) * (estimate - 0.25)),
                               ("ci_lower", estimate - half), ("ci_upper", estimate + half)):
                got = getattr(cols, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, name)


class TestParentMemory:
    def test_run_experiment_peak_per_row(self, test_model):
        # README model, two sample sizes, clt and coverage: the parent holds the
        # 3 stored columns (17 bytes a row) and the scratch of one n at a time
        def peak(rows):
            config = make_config(test_model, n_values=(100, 1000), replications=rows // 2,
                                 checks=("clt", "coverage"))
            return traced_peak(run_experiment, config)

        small, large = 100_000, 400_000
        slope = (peak(large) - peak(small)) / (large - small)
        assert slope <= 40, slope

    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate 7.0 PiB"),
                                       ValueError("array is too big")])
    def test_unallocatable_records_are_a_value_error(self, test_model, monkeypatch, error):
        def fail(cls, rows, n, truth, z):
            raise error

        monkeypatch.setattr(ReplicationColumns, "empty", classmethod(fail))
        config = make_config(test_model, n_values=(100, 1000), replications=300)
        with pytest.raises(ValueError, match=r"^cannot allocate 600 records \(300 replications "
                                             r"x 2 sample sizes\): "):
            run_experiment(config)


class TestRunExperiment:
    def test_record_layout(self, test_model):
        # one records object per sample size, in n_values order, R rows each
        config = make_config(test_model)
        records = run_experiment(config).records
        assert type(records) is tuple
        assert all(type(at_n) is ReplicationColumns for at_n in records)
        assert [(at_n.n, len(at_n)) for at_n in records] == [(300, 40), (900, 40)]

    def test_config_must_be_an_experiment_config(self):
        with pytest.raises(ValueError, match="^config must be an ExperimentConfig, got 'x'$"):
            run_experiment("x")

    def test_summary_contents(self, test_model):
        config = make_config(test_model, checks=("lln", "clt", "coverage"))
        result = run_experiment(config)
        summary = result.summary
        assert summary.sigma2_exact == exact_sigma2(test_model)
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
        assert len(seq.records) == len(par.records) == 2
        for a, b in zip(seq.records, par.records):
            assert_columns_equal(a, b)

    def test_degenerate_replications_counted_not_resampled(self, test_model):
        config = make_config(test_model, n_values=(2, 3), replications=25)
        result = run_experiment(config)
        assert sum(len(at_n) for at_n in result.records) == 50
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
        assert clt.margin == clt.value - 0.04 > 0
        assert clt.detail == (f"value={clt.value:.6g} limit=0.04 margin={clt.margin:.6g}: "
                              "KS distance at n=50")

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
        # with records, run_experiment; without, bound_table on the same tables
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
        if records:
            result = run_experiment(config)
            kept, rows = result.records, result.summary.bound_rows
        else:
            kept, rows = (), bound_table(model, config.n_values, DEFAULT_G_GRID,
                                         config.replications, config.master_seed)
        layout = table_blocks(model, config.n_values, config.replications, config.master_seed)
        assert len(layout) == 6
        assert drawn == [block.key for block in layout]
        assert sum(len(at_n) for at_n in kept) == (300 if records else 0)
        assert len(rows) == 6 * 2 * 4

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

    def test_bound_table_reads_the_experiment_grid(self, test_model):
        # one grid decision: bounds-check and simulate's bounds check share it
        config = make_config(test_model, checks=("bounds",))
        rows = bound_table(test_model, config.n_values, replications=config.replications,
                           master_seed=config.master_seed)
        assert tuple(rows) == run_experiment(config).summary.bound_rows
        assert sorted({row.g for row in rows}) == sorted(DEFAULT_G_GRID)


class TestForkedPass:
    def test_pool_size_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 3, 5})
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)
        assert [montecarlo.pool_size(w) for w in (1, 2, 64)] == [1, 2, 3]

    def test_pool_size_is_one_off_linux(self, monkeypatch):
        monkeypatch.setattr(montecarlo.sys, "platform", "darwin")
        assert montecarlo.pool_size(4) == 1
        with pytest.raises(ValueError, match=r"^workers must lie in \[1, inf\), got 0$"):
            montecarlo.pool_size(0)

    def test_pass_workers_counts_the_blocks(self, test_model, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)))
        uniform = np.full(1000, 1 / 1000)
        wide, step = PopulationModel(0.5, uniform, uniform), block_rows(1000)
        for model, n_values, replications in [
            (test_model, (300, 900), 40),
            (wide, (10,), step), (wide, (10,), step + 1), (wide, (10, 20, 30), 5 * step - 1),
        ]:
            blocks = len(table_blocks(model, n_values, replications, 0))
            assert montecarlo.pass_workers(model, n_values, replications, 64) == blocks
            assert montecarlo.pass_workers(model, n_values, replications, 1) == 1
        assert montecarlo.pass_workers(test_model, (10,), 0, 4) == 1  # no blocks: one process

    def test_more_workers_than_blocks(self, test_model, monkeypatch):
        forks, fork = [], os.fork
        monkeypatch.setattr(montecarlo.os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        config = make_config(test_model)
        for a, b in zip(run_experiment(config).records, run_experiment(config, workers=4).records):
            assert_columns_equal(a, b)
        assert len(forks) == 2  # one block a sample size: two workers, not four
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_worker_error_reaches_the_caller(self, test_model, monkeypatch):
        parent, block_pass = os.getpid(), montecarlo._block_pass

        def failing_in_a_worker(task):
            if os.getpid() != parent and task[0].n == 900:
                raise ValueError(f"no tables at n={task[0].n}")
            return block_pass(task)

        monkeypatch.setattr(montecarlo, "_block_pass", failing_in_a_worker)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(ValueError, match=r"^no tables at n=900$"):
            run_experiment(make_config(test_model), workers=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def reference_summaries(records, sigma_exact):
    """Per-n statistics computed row by row, as from per-row records."""
    by_n = {}
    for at_n in records:
        for row in zip(at_n.degenerate.tolist(), at_n.eta.tolist(),
                       at_n.scaled_eta.tolist(), at_n.covered.tolist()):
            by_n.setdefault(at_n.n, []).append((at_n.n, *row))
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
        degenerate = np.concatenate([at_n.degenerate for at_n in records])
        assert degenerate.any() and not degenerate.all()
        sigma = math.sqrt(exact_sigma2(test_model))
        want = reference_summaries(records, sigma)
        per_n = evaluate(config, records, ()).per_n
        assert [s.n for s in per_n] == list(want)
        for s in per_n:
            got = (s.n, s.replications, s.degenerate_count, s.eta_mean, s.eta_median,
                   s.eta_variance, s.scaled_eta_mean, s.scaled_eta_median,
                   s.scaled_eta_variance, s.median_abs_eta, s.ks_normalized, s.coverage)
            assert got == want[s.n]
            assert s.degenerate_empty_label + s.degenerate_empty_cell == s.degenerate_count
        curve = {n: row[9] for n, row in want.items() if row[9] is not None}
        assert check_lln(per_n).detail == lln_detail(curve)

    def test_empty_records_give_no_per_n(self, test_model):
        summary = evaluate(make_config(test_model), (), ())
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
        run_experiment(make_config(test_model, checks=("lln", "bounds")), workers=1)
        assert tags and set(tags) == {streams.TAG_BLOCK}
        tags.clear()
        bound_table(test_model, [100, 1000], [0.1], replications=50, master_seed=3)
        assert tags and set(tags) == {streams.TAG_BLOCK}


def _ten_replications(config):
    return None if config.replications >= 10 else "needs at least 10 replications"


def _degenerate_share(config, per_n, bound_rows):
    return per_n[-1].degenerate_count / per_n[-1].replications, f"share at n={per_n[-1].n}"


class TestCheckTable:
    """Every check is one ``_CHECKS`` entry: a precondition, a statistic and a limit."""

    def test_a_new_check_is_one_entry_and_one_function(self, test_model, monkeypatch, tmp_path):
        monkeypatch.setitem(montecarlo._CHECKS, "toy", (_ten_replications, _degenerate_share, 0.25))
        with pytest.raises(ValueError, match="^toy check needs at least 10 replications$"):
            make_config(test_model, replications=5, checks=("toy",))
        # n=12 at r=2 leaves some tables with an empty cell
        config = parse_config_dict({
            "model": {"label_prob": 0.5, "cond_p": [0.5, 0.5], "cond_q": [0.25, 0.75]},
            "n_values": [12], "replications": 40, "master_seed": 1, "checks": ["toy"]})
        summary = run_experiment(config).summary
        share = summary.per_n[0].degenerate_count / 40
        assert 0.0 < share <= 0.25
        write_summary_json(summary, tmp_path / "summary.json")
        toy = json.loads((tmp_path / "summary.json").read_text())["checks"]
        assert toy == [dict(name="toy", passed=True, value=share, limit=0.25, margin=share - 0.25,
                            detail=f"value={share:.6g} limit=0.25 margin={share - 0.25:.6g}: "
                                   "share at n=12")]

    def test_every_failing_check_states_its_value_limit_and_margin(self, test_model):
        config = make_config(test_model, n_values=(100, 1000), checks=CHECK_NAMES)
        # the median |error| grows, one scaled error is far from normal, no interval covers,
        # and a bound is missed; without records, only the bound rows have data
        records = (records_at(100, [dict(eta=0.01)] * 5),
                   records_at(1000, [dict(eta=0.5, covered=False)] * 5))
        rows = (BoundTableRow("label_freq", 100, 0.1, bound=0.01, empirical=0.5, stderr=0.01),)
        for summary in (evaluate(config, records, rows), evaluate(config, (), rows)):
            assert [check.name for check in summary.checks] == list(CHECK_NAMES)
            for check in summary.checks:
                assert not check.passed
                assert check.margin is None or check.margin == check.value - check.limit > 0
                numbers = ["none" if x is None else f"{x:.6g}"
                           for x in (check.value, check.limit, check.margin)]
                assert check.detail.startswith("value={} limit={} margin={}: ".format(*numbers))


class TestOneReduction:
    """evaluate reduces the records to one summary per n, and every check reads it."""

    @pytest.mark.parametrize("check", ["clt", "coverage"])
    def test_checks_without_records_fail_cleanly(self, test_model, check):
        limit = {"clt": 0.04, "coverage": 0.02}[check]
        config = make_config(test_model, n_values=(100, 1000), checks=(check,))
        summary = evaluate(config, (), ())
        assert summary.per_n == ()
        assert summary.checks == (
            CheckResult(name=check, passed=False, value=None, limit=limit, margin=None,
                        detail=f"value=none limit={limit} margin=none: "
                               "no usable replications at n=1000"),
        )

    def test_per_n_selects_no_rows(self, test_model, monkeypatch):
        config = make_config(test_model, checks=("lln", "clt", "coverage"))
        records = run_experiment(config).records
        calls = []
        select = ReplicationColumns.__getitem__

        def counting(self, rows):
            calls.append(rows)
            return select(self, rows)

        monkeypatch.setattr(ReplicationColumns, "__getitem__", counting)
        summary = evaluate(config, records, ())
        # the records come by sample size, in the layout's order
        assert calls == []
        assert [s.n for s in summary.per_n] == [300, 900]
        curve = {s.n: s.median_abs_eta for s in summary.per_n}
        assert None not in curve.values()
        assert summary.checks[0].detail == lln_detail(curve)


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
