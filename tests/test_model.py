import dataclasses
import math

import numpy as np
import pytest

from symkl import (
    CountTable,
    ExperimentConfig,
    PopulationModel,
    as_prob_vector,
    bound_table,
    confidence_interval,
    exact_sigma2,
    influence_value,
    ks_statistic,
    normal_cdf,
    normal_quantile,
    plug_in_estimate,
    plugin_sigma2,
    sample_batch,
    sym_kl_divergence,
)
from symkl.model import TableBlock, sample_counts
from symkl.streams import block_stream, replication_stream

from conftest import random_simplex


def kl(p, q):
    """KL(p || q), straight from its definition."""
    return math.fsum(pj * (math.log(pj) - math.log(qj)) for pj, qj in zip(p, q))


class TestProbVectorValidation:
    def test_valid_vector_round_trips(self):
        vec = as_prob_vector([0.25, 0.75])
        np.testing.assert_allclose(vec, [0.25, 0.75])

    def test_result_is_read_only_copy(self):
        source = np.array([0.5, 0.5])
        vec = as_prob_vector(source)
        with pytest.raises(ValueError):
            vec[0] = 0.1
        source[0] = 0.9
        assert vec[0] == 0.5

    def test_rejects_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            as_prob_vector([1.0])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            as_prob_vector([[0.5, 0.5]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            as_prob_vector([-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sums to"):
            as_prob_vector([0.5, 0.5 + 1e-9])

    def test_sum_beyond_float_range_is_a_bad_sum(self):
        # finite entries whose sum overflows: no OverflowError from the compensated sum
        with pytest.raises(ValueError, match="cond_p sums to inf"):
            as_prob_vector([1e308, 1e308], name="cond_p")

    def test_accepts_sum_within_tolerance(self):
        as_prob_vector([0.5, 0.5 + 1e-13])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_prob_vector([np.nan, 1.0])

    def test_positive_rejects_zero_entry(self):
        with pytest.raises(ValueError, match="strictly positive"):
            as_prob_vector([0.0, 1.0])

    def test_positive_rejects_entry_at_epsilon(self):
        with pytest.raises(ValueError, match="strictly positive"):
            as_prob_vector([1e-13, 1.0 - 1e-13])

    def test_positive_accepts_small_entries(self):
        as_prob_vector([1e-3, 1.0 - 1e-3])


class TestDivergences:
    def test_kl_golden(self):
        # 0.5 ln 2 + 0.5 ln(2/3), directly from the definition
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl([0.5, 0.5], [0.25, 0.75]) == pytest.approx(expected, abs=1e-15)

    def test_sym_golden_quarter_log_three(self):
        value = sym_kl_divergence([0.5, 0.5], [0.25, 0.75])
        assert abs(value - math.log(3.0) / 4.0) <= 1e-12

    def test_sym_equals_kl_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            r = int(rng.integers(2, 12))
            p = random_simplex(rng, r)
            q = random_simplex(rng, r)
            total = kl(p, q) + kl(q, p)
            assert sym_kl_divergence(p, q) == pytest.approx(total, abs=1e-12)

    def test_divergences_vanish_at_equal_arguments(self):
        rng = np.random.default_rng(13)
        p = random_simplex(rng, 7)
        assert sym_kl_divergence(p, p) == 0.0

    def test_sym_is_bitwise_symmetric(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            r = int(rng.integers(2, 12))
            p = random_simplex(rng, r)
            q = random_simplex(rng, r)
            assert sym_kl_divergence(p, q) == sym_kl_divergence(q, p)

    def test_sym_nonnegative_termwise(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            r = int(rng.integers(2, 12))
            assert sym_kl_divergence(random_simplex(rng, r), random_simplex(rng, r)) >= 0.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="one alphabet"):
            sym_kl_divergence([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_rejects_zero_cells(self):
        with pytest.raises(ValueError, match="strictly positive"):
            sym_kl_divergence([0.0, 1.0], [0.5, 0.5])

    def test_rejects_sum_beyond_float_range(self):
        with pytest.raises(ValueError, match="p sums to inf"):
            sym_kl_divergence([1e308, 1e308], [0.5, 0.5])


class TestPopulationModel:
    def test_fields_validated_and_frozen(self, test_model):
        assert test_model.r == 2
        assert test_model.label_prob == 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            test_model.label_prob = 0.7
        with pytest.raises(ValueError):
            test_model.cond_p[0] = 0.9

    def test_label_prob_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.5, float("nan")):
            with pytest.raises(ValueError, match="label_prob"):
                PopulationModel(label_prob=bad, cond_p=(0.5, 0.5), cond_q=(0.5, 0.5))

    def test_integers_beyond_float_range_name_their_field(self):
        with pytest.raises(ValueError, match="label_prob: integer too large for a float"):
            PopulationModel(label_prob=10**400, cond_p=(0.5, 0.5), cond_q=(0.5, 0.5))
        with pytest.raises(ValueError, match="cond_p: integer too large for a float"):
            PopulationModel(0.5, [10**400, 1], (0.5, 0.5))

    def test_conditionals_must_match(self):
        with pytest.raises(ValueError, match="one alphabet"):
            PopulationModel(
                label_prob=0.5, cond_p=(0.5, 0.5), cond_q=(0.2, 0.3, 0.5)
            )

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError, match="cond_p must be strictly positive"):
            PopulationModel(label_prob=0.5, cond_p=(0.0, 1.0), cond_q=(0.5, 0.5))

    def test_sym_divergence_matches_free_function(self, test_model):
        assert test_model.sym_divergence() == sym_kl_divergence(
            test_model.cond_p, test_model.cond_q
        )

    def test_equality_by_value(self, test_model):
        clone = PopulationModel(label_prob=0.5, cond_p=(0.5, 0.5), cond_q=(0.25, 0.75))
        other = PopulationModel(label_prob=0.5, cond_p=(0.5, 0.5), cond_q=(0.3, 0.7))
        assert test_model == clone
        assert test_model != other
        assert hash(test_model) == hash(clone)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: CountTable([10**400, 1], [1, 1]),
                 r"n1 must lie in \[0, 2\*\*63 - 1\], got 10{400}$",
                 id="CountTable"),
    pytest.param(lambda: bound_table(PopulationModel(0.5, (0.5, 0.5), (0.25, 0.75)), [10],
                                     [10**400]), "g_grid: integer too large", id="bound_table"),
    pytest.param(lambda: confidence_interval(1.0, 1.0, 8, 10**400),
                 "level: integer too large", id="confidence_interval"),
    pytest.param(lambda: normal_quantile(10**400), "prob: integer too large", id="normal_quantile"),
    pytest.param(lambda: normal_cdf(10**400), "x: integer too large", id="normal_cdf"),
    pytest.param(lambda: ks_statistic([10**400]), "values: integer too large", id="ks_statistic"),
    # complex input, even with a zero imaginary part, is not cast to its real part
    pytest.param(lambda: PopulationModel(0.5 + 0j, (0.5, 0.5), (0.25, 0.75)),
                 "label_prob must be real, got ", id="label_prob-complex"),
    pytest.param(lambda: PopulationModel(0.5, np.array([0.5 + 0.1j, 0.5]), (0.25, 0.75)),
                 "cond_p must be real, got ", id="cond_p-complex"),
    pytest.param(lambda: sym_kl_divergence(np.array([0.5 + 0j, 0.5]), (0.25, 0.75)),
                 "p must be real, got ", id="sym_kl_divergence-complex"),
    pytest.param(lambda: ExperimentConfig(PopulationModel(0.5, (0.5, 0.5), (0.25, 0.75)),
                                          (10,), 2, 0, ci_level=0.95 + 0j),
                 "ci_level must be real, got ", id="ExperimentConfig-complex"),
    pytest.param(lambda: bound_table(PopulationModel(0.5, (0.5, 0.5), (0.25, 0.75)), [10],
                                     [0.1 + 0j]), "g_grid must be real, got ",
                 id="bound_table-complex"),
    pytest.param(lambda: confidence_interval(1.0, 1.0, 8, 0.95 + 0j),
                 "level must be real, got ", id="confidence_interval-complex"),
    pytest.param(lambda: normal_quantile(0.5 + 0j), "prob must be real, got ",
                 id="normal_quantile-complex"),
    pytest.param(lambda: normal_cdf(np.array([0.5 + 0j])), "x must be real, got ",
                 id="normal_cdf-complex"),
    pytest.param(lambda: ks_statistic(np.array([1 + 0j, 2])), "values must be real, got ",
                 id="ks_statistic-complex"),
    # strings, bytes and None are not read as numbers, alone or among numbers
    pytest.param(lambda: PopulationModel("0.5", (0.5, 0.5), (0.25, 0.75)),
                 "label_prob must be real, got '0.5'$", id="label_prob-numeric-string"),
    pytest.param(lambda: PopulationModel("abc", (0.5, 0.5), (0.25, 0.75)),
                 "label_prob must be real, got 'abc'$", id="label_prob-string"),
    pytest.param(lambda: PopulationModel(b"0.5", (0.5, 0.5), (0.25, 0.75)),
                 "label_prob must be real, got b'0.5'$", id="label_prob-bytes"),
    pytest.param(lambda: PopulationModel(None, (0.5, 0.5), (0.25, 0.75)),
                 "label_prob must be real, got None$", id="label_prob-None"),
    pytest.param(lambda: PopulationModel(0.5, ["0.5", "0.5"], (0.25, 0.75)),
                 "cond_p must be real, got ", id="cond_p-strings"),
    pytest.param(lambda: PopulationModel(0.5, [0.5, None], (0.25, 0.75)),
                 "cond_p must be real, got None$", id="cond_p-None"),
    pytest.param(lambda: normal_quantile("0.975"), "prob must be real, got '0.975'$",
                 id="normal_quantile-string"),
    pytest.param(lambda: bound_table(PopulationModel(0.5, (0.5, 0.5), (0.25, 0.75)), [10],
                                     ["0.1"]), "g_grid must be real, got '0.1'$",
                 id="bound_table-string"),
    pytest.param(lambda: normal_cdf([None, 0.0]), "x must be real, got None$",
                 id="normal_cdf-None"),
    pytest.param(lambda: normal_cdf(np.array([b"0.5"])), "x must be real, got ",
                 id="normal_cdf-bytes"),
    pytest.param(lambda: ks_statistic(np.array(["1", "2"], dtype=object)),
                 "values must be real, got '1'$", id="ks_statistic-object-strings"),
    # objects that are no numbers at all, alone or among numbers
    pytest.param(lambda: PopulationModel({}, (0.5, 0.5), (0.25, 0.75)),
                 r"label_prob must be real, got \{\}$", id="label_prob-dict"),
    pytest.param(lambda: PopulationModel(0.5, [{}, {}], (0.25, 0.75)),
                 r"cond_p must be real, got \{\}$", id="cond_p-dicts"),
    pytest.param(lambda: bound_table(PopulationModel(0.5, (0.5, 0.5), (0.25, 0.75)), [10],
                                     [{}]), r"g_grid must be real, got \{\}$",
                 id="bound_table-dict"),
    pytest.param(lambda: ks_statistic([{}, 1.0]), r"values must be real, got \{\}$",
                 id="ks_statistic-dict"),
    pytest.param(lambda: normal_cdf({1.0}), r"x must be real, got \{1\.0\}$", id="normal_cdf-set"),
    # a variance that is no finite real >= 0, not a math domain error or a bad interval
    *(pytest.param(lambda sigma2=sigma2: confidence_interval(1.0, sigma2, 8, 0.95),
                   message, id=f"confidence_interval-sigma2-{sigma2!r}")
      for sigma2, message in (
          (-1.0, r"sigma2 must be a finite real >= 0, got -1\.0$"),
          (math.nan, "sigma2 must be a finite real >= 0, got nan$"),
          (math.inf, "sigma2 must be a finite real >= 0, got inf$"),
          ("1.0", "sigma2 must be real, got '1.0'$"),
          (None, "sigma2 must be real, got None$"),
          (1 + 0j, r"sigma2 must be real, got \(1\+0j\)$"),
      )),
])
def test_integer_beyond_float_range_is_a_value_error(call, message):
    # a ValueError naming the argument, not numpy's or float()'s OverflowError,
    # a ComplexWarning or a TypeError
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: exact_sigma2(None), "model must be a PopulationModel, got None",
                 id="exact_sigma2"),
    pytest.param(lambda: influence_value(None, 0, 0), "model must be a PopulationModel, got None",
                 id="influence_value"),
    pytest.param(lambda: plug_in_estimate("x"), "counts must be a CountTable, got 'x'",
                 id="plug_in_estimate"),
    pytest.param(lambda: plugin_sigma2([[1, 2], [3, 4]]),
                 r"counts must be a CountTable, got \[\[1, 2\], \[3, 4\]\]", id="plugin_sigma2"),
    pytest.param(lambda: sample_batch(None, 10, replication_stream(1, 0, 0)),
                 "model must be a PopulationModel, got None", id="sample_batch-model"),
    pytest.param(lambda: sample_batch(PopulationModel(0.5, (0.5, 0.5), (0.25, 0.75)), 10, 7),
                 "stream must be a Generator, got 7", id="sample_batch-int-stream"),
    pytest.param(lambda: sample_batch(PopulationModel(0.5, (0.5, 0.5), (0.25, 0.75)), 10, None),
                 "stream must be a Generator, got None", id="sample_batch-None-stream"),
])
def test_wrong_argument_type_is_a_value_error(call, message):
    # a ValueError naming the argument, not an AttributeError from inside
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestCountTable:
    def test_totals(self):
        table = CountTable(n1=np.array([3, 1]), n0=np.array([1, 3]))
        assert table.n == 8
        assert table.r == 2

    def test_accepts_integer_valued_floats(self):
        table = CountTable(n1=np.array([3.0, 1.0]), n0=np.array([1.0, 3.0]))
        assert table.n1.dtype == np.int64

    def test_rejects_fractional(self):
        with pytest.raises(ValueError, match=r"^n1 must be an integer, got 1\.5$"):
            CountTable(n1=np.array([1.5, 2.0]), n0=np.array([1.0, 1.0]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=r"^n1 must lie in \[0, 2\*\*63 - 1\], got -1$"):
            CountTable(n1=np.array([-1, 2]), n0=np.array([1, 1]))

    @pytest.mark.parametrize("row, message", [
        ([2**63, 1], f"n1 must lie in [0, 2**63 - 1], got {2**63}"),
        ([2**64, 1], f"n1 must lie in [0, 2**63 - 1], got {2**64}"),
        ([1e300, 1], f"n1 must lie in [0, 2**63 - 1], got {int(1e300)}"),
        ([-1e300, 1], f"n1 must lie in [0, 2**63 - 1], got {int(-1e300)}"),
        (np.array([2**63, 1], dtype=np.uint64), f"n1 must lie in [0, 2**63 - 1], got {2**63}"),
        ([math.inf, 1], "n1 must be an integer, got inf"),
        ([math.nan, 1], "n1 must be an integer, got nan"),
        ([1 + 0j, 1], "n1 must be an integer, got (1+0j)"),
        (np.array([1 + 0j, 1]), "n1 must be an integer, got (1+0j)"),
        ([None, 1], "n1 must be an integer, got None"),
        ([math.nan, 2**64], "n1 must be an integer, got nan"),
        ([[1], [1, 2]], "n1 must be an integer, got [1]"),
        ([np.array(1.5), 1], "n1 must be an integer, got array(1.5)"),
    ], ids=["2**63", "2**64", "1e300", "-1e300", "uint64", "inf", "nan", "complex",
            "complex-array", "None", "nan-2**64", "nested", "0d-array"])
    def test_rejects_counts_beyond_int64_before_casting(self, row, message):
        # the suite turns warnings into errors: a cast that warns fails here
        with pytest.raises(ValueError) as info:
            CountTable(n1=row, n0=[1, 1])
        assert str(info.value) == message

    @pytest.mark.parametrize("row, message", [
        ([[1, 2], [3, 4]], "n1 must be 1-dimensional, got shape (2, 2)"),
        (5, "n1 must be 1-dimensional, got shape ()"),
        ([5], "n1 needs at least 2 entries, got 1"),
        ([], "n1 needs at least 2 entries, got 0"),
    ], ids=["2d", "scalar", "one-entry", "empty"])
    def test_rejects_rows_that_are_not_an_alphabet(self, row, message):
        with pytest.raises(ValueError) as info:
            CountTable(n1=row, n0=[1, 1])
        assert str(info.value) == message

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError, match="one alphabet"):
            CountTable(n1=np.array([1, 2]), n0=np.array([1, 1, 1]))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="empty"):
            CountTable(n1=np.array([0, 0]), n0=np.array([0, 0]))

    def test_rejects_total_beyond_int64(self):
        # the int64 sum of these rows wraps to a negative number
        with pytest.raises(ValueError, match="total 9223372036854775812 exceeds"):
            CountTable(n1=np.array([1 << 62, 1 << 62]), n0=np.array([1, 3]))

    def test_equality_by_value(self):
        a = CountTable(n1=np.array([3, 1]), n0=np.array([1, 3]))
        b = CountTable(n1=np.array([3, 1]), n0=np.array([1, 3]))
        c = CountTable(n1=np.array([3, 1]), n0=np.array([2, 2]))
        assert a == b
        assert a != c
        assert hash(a) == hash(b)


class TestSampleBatch:
    def test_counts_sum_to_n(self, test_model):
        rng = replication_stream(5, 0, 0)
        table = sample_batch(test_model, 1234, rng)
        assert table.n == 1234

    def test_rejects_nonpositive_n(self, test_model):
        for bad in (0, 2**63):
            with pytest.raises(ValueError, match=rf"^n must lie in \[1, 2\*\*63 - 1\], got {bad}$"):
                sample_batch(test_model, bad, replication_stream(5, 0, 0))

    def test_rejects_fractional_n(self, test_model):
        for bad in (10.9, math.nan):
            with pytest.raises(ValueError, match="n must be an integer"):
                sample_batch(test_model, bad, replication_stream(5, 0, 0))
        assert sample_batch(test_model, 1e3, replication_stream(5, 0, 0)).n == 1000

    def test_same_stream_same_counts(self, test_model):
        a = sample_batch(test_model, 500, replication_stream(9, 2, 7))
        b = sample_batch(test_model, 500, replication_stream(9, 2, 7))
        assert a == b

    def test_different_reps_different_counts(self, test_model):
        a = sample_batch(test_model, 500, replication_stream(9, 2, 7))
        b = sample_batch(test_model, 500, replication_stream(9, 2, 8))
        assert a != b

    def test_marginals_match_model(self):
        model = PopulationModel(
            label_prob=0.3, cond_p=(0.2, 0.5, 0.3), cond_q=(0.4, 0.4, 0.2)
        )
        n = 200_000
        table = sample_batch(model, n, block_stream(77, 0, 0))
        m1 = table.n1.sum()
        # 5 sigma bands around the exact marginals
        assert abs(m1 / n - 0.3) < 5 * math.sqrt(0.3 * 0.7 / n)
        for j in range(3):
            cell = 0.3 * model.cond_p[j]
            assert abs(table.n1[j] / n - cell) < 5 * math.sqrt(cell * (1 - cell) / n)
            cell = 0.7 * model.cond_q[j]
            assert abs(table.n0[j] / n - cell) < 5 * math.sqrt(cell * (1 - cell) / n)


class TestSampleCounts:
    def test_draw_order_is_fixed(self, test_model):
        # label counts, then label-1 symbols, then label-0 symbols; the
        # records.csv and bounds.csv bytes depend on this order
        rng = replication_stream(3, 1, 4)
        k1 = rng.binomial(700, test_model.label_prob, size=5)
        n1 = rng.multinomial(k1, test_model.cond_p)
        n0 = rng.multinomial(700 - k1, test_model.cond_q)
        got_n1, got_n0 = sample_counts(test_model, 700, 5, replication_stream(3, 1, 4))
        assert got_n1.shape == got_n0.shape == (5, 2)
        assert np.array_equal(got_n1, n1) and np.array_equal(got_n0, n0)
        # the label-1 counts are the row sums of n1, exactly
        assert got_n1.sum(axis=1).dtype == np.int64
        assert np.array_equal(got_n1.sum(axis=1), k1)
        assert np.all(got_n1.sum(axis=1) + got_n0.sum(axis=1) == 700)


    def test_two_arrays_as_count_table_holds_them(self, test_model):
        tables = sample_counts(test_model, 50, 3, replication_stream(1, 0, 0))
        assert len(tables) == 2
        block = TableBlock(test_model, 50, 0, 3, (1, 0, 0))
        drawn = block.draw()
        assert len(drawn) == 2
        want = sample_counts(test_model, 50, 3, block_stream(1, 0, 0))
        for got, expected in zip(drawn, want):
            assert np.array_equal(got, expected)
        for n1, n0 in zip(*drawn):
            assert CountTable(n1=n1, n0=n0).n == 50


class TestRandomSimplexHelper:
    def test_large_alphabet_with_default_floor_raises(self):
        # at r=1000 the mean entry equals the default floor, so no draw passes
        with pytest.raises(RuntimeError, match="min_entry=0.0"):
            random_simplex(np.random.default_rng(0), 1000)
