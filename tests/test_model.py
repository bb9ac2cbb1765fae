import dataclasses
import math

import numpy as np
import pytest

from symkl import (
    CountTable,
    EstimateResult,
    PopulationModel,
    VarianceResult,
    as_positive_prob_vector,
    as_prob_vector,
    bound_table,
    confidence_interval,
    ks_statistic,
    normal_cdf,
    normal_quantile,
    sample_batch,
    sym_kl_divergence,
)
from symkl.model import sample_counts
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
            as_positive_prob_vector([0.0, 1.0])

    def test_positive_rejects_entry_at_epsilon(self):
        with pytest.raises(ValueError, match="strictly positive"):
            as_positive_prob_vector([1e-13, 1.0 - 1e-13])

    def test_positive_accepts_small_entries(self):
        as_positive_prob_vector([1e-3, 1.0 - 1e-3])


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
    pytest.param(lambda: CountTable([10**400, 1], [1, 1]), r"n1: integer beyond 2\*\*63 - 1",
                 id="CountTable"),
    pytest.param(lambda: bound_table(PopulationModel(0.5, (0.5, 0.5), (0.25, 0.75)), [10],
                                     [10**400]), "g_grid: integer too large", id="bound_table"),
    pytest.param(lambda: confidence_interval(EstimateResult(1.0, False, None, 8),
                                             VarianceResult(1.0, 0.0), 10**400),
                 "level: integer too large", id="confidence_interval"),
    pytest.param(lambda: normal_quantile(10**400), "prob: integer too large", id="normal_quantile"),
    pytest.param(lambda: normal_cdf(10**400), "x: integer too large", id="normal_cdf"),
    pytest.param(lambda: ks_statistic([10**400]), "values: integer too large", id="ks_statistic"),
])
def test_integer_beyond_float_range_is_a_value_error(call, message):
    # a ValueError naming the argument, not numpy's or float()'s OverflowError
    with pytest.raises(ValueError, match=f"^{message}"):
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
        with pytest.raises(ValueError, match="integers"):
            CountTable(n1=np.array([1.5, 2.0]), n0=np.array([1.0, 1.0]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            CountTable(n1=np.array([-1, 2]), n0=np.array([1, 1]))

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
            with pytest.raises(ValueError, match=r">= 1 and at most 2\*\*63 - 1"):
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
        got_k1, got_n1, got_n0 = sample_counts(test_model, 700, 5, replication_stream(3, 1, 4))
        assert got_n1.shape == got_n0.shape == (5, 2)
        assert np.array_equal(got_k1, k1)
        assert np.array_equal(got_n1, n1) and np.array_equal(got_n0, n0)
        assert np.array_equal(got_n1.sum(axis=1), k1)
        assert np.all(got_n1.sum(axis=1) + got_n0.sum(axis=1) == 700)


class TestRandomSimplexHelper:
    def test_large_alphabet_with_default_floor_raises(self):
        # at r=1000 the mean entry equals the default floor, so no draw passes
        with pytest.raises(RuntimeError, match="min_entry=0.0"):
            random_simplex(np.random.default_rng(0), 1000)
