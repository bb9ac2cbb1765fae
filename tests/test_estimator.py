import math

import numpy as np
import pytest

from symkl import (
    CountTable,
    EstimateResult,
    PopulationModel,
    plug_in_estimate,
    sample_batch,
    sym_kl_divergence,
)
from symkl.streams import replication_stream


def table(n1, n0) -> CountTable:
    return CountTable(n1=np.array(n1), n0=np.array(n0))


class TestPlugInEstimate:
    def test_golden_log_three(self):
        est = plug_in_estimate(table([3, 1], [1, 3]))
        assert not est.degenerate
        assert abs(est.value - math.log(3.0)) <= 1e-12
        assert est.n == 8

    def test_matches_divergence_of_empirical_laws(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            r = int(rng.integers(2, 9))
            n1 = rng.integers(1, 60, size=r)
            n0 = rng.integers(1, 60, size=r)
            est = plug_in_estimate(table(n1, n0))
            expected = sym_kl_divergence(n1 / n1.sum(), n0 / n0.sum())
            assert abs(est.value - expected) <= 1e-12

    def test_zero_cell_flagged_not_infinite(self):
        est = plug_in_estimate(table([5, 0], [2, 3]))
        assert est.degenerate
        assert est.value is None
        assert "zero cell in p_hat" in est.reason
        assert "index 1" in est.reason

    def test_empty_class_flagged(self):
        est = plug_in_estimate(table([0, 0], [2, 3]))
        assert est.degenerate
        assert "label 1" in est.reason

    def test_zero_cell_in_q_flagged(self):
        est = plug_in_estimate(table([2, 3], [0, 5]))
        assert est.degenerate
        assert "zero cell in q_hat" in est.reason

    def test_result_invariant_enforced(self):
        with pytest.raises(ValueError, match="exactly when"):
            EstimateResult(value=1.0, degenerate=True, reason="x", n=4)
        with pytest.raises(ValueError, match="exactly when"):
            EstimateResult(value=None, degenerate=False, reason=None, n=4)

    def test_degeneracy_rare_at_moderate_n(self, test_model):
        degenerate = 0
        for rep in range(500):
            counts = sample_batch(test_model, 10_000, replication_stream(31, 0, rep))
            if plug_in_estimate(counts).degenerate:
                degenerate += 1
        assert degenerate == 0


def estimation_error(counts: CountTable, model: PopulationModel) -> float:
    return plug_in_estimate(counts).value - model.sym_divergence()


class TestEstimationError:
    def test_golden(self, test_model):
        # estimate ln 3 against truth ln(3)/4 leaves (3/4) ln 3
        err = estimation_error(table([3, 1], [1, 3]), test_model)
        assert abs(err - 0.75 * math.log(3.0)) <= 1e-12

    def test_degenerate_is_flagged(self):
        est = plug_in_estimate(table([5, 0], [2, 3]))
        assert est.degenerate and est.value is None

    def test_shrinks_with_sample_size(self, test_model):
        sizes = (1_000, 100_000)
        medians = []
        for n_index, n in enumerate(sizes):
            errors = []
            for rep in range(100):
                counts = sample_batch(test_model, n, replication_stream(32, n_index, rep))
                errors.append(abs(estimation_error(counts, test_model)))
            medians.append(float(np.median(errors)))
        assert medians[1] < medians[0]


class TestModelsWithoutFixture:
    def test_error_zero_when_empirical_equals_truth(self):
        model = PopulationModel(label_prob=0.5, cond_p=(0.75, 0.25), cond_q=(0.25, 0.75))
        err = estimation_error(table([3, 1], [1, 3]), model)
        assert abs(err) <= 1e-12
