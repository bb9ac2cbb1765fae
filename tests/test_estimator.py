import math

import numpy as np
import pytest

from symkl import (
    CountTable,
    DegenerateSampleError,
    PopulationModel,
    plug_in_estimate,
    plugin_sigma2,
    sample_batch,
    sym_kl_divergence,
)
from symkl.streams import replication_stream


def table(n1, n0) -> CountTable:
    return CountTable(n1=np.array(n1), n0=np.array(n0))


class TestPlugInEstimate:
    def test_golden_log_three(self):
        est = plug_in_estimate(table([3, 1], [1, 3]))
        assert type(est) is float
        assert abs(est - math.log(3.0)) <= 1e-12

    def test_matches_divergence_of_empirical_laws(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            r = int(rng.integers(2, 9))
            n1 = rng.integers(1, 60, size=r)
            n0 = rng.integers(1, 60, size=r)
            est = plug_in_estimate(table(n1, n0))
            expected = sym_kl_divergence(n1 / n1.sum(), n0 / n0.sum())
            assert abs(est - expected) <= 1e-12

    def test_zero_cell_flagged_not_infinite(self):
        with pytest.raises(DegenerateSampleError) as info:
            plug_in_estimate(table([5, 0], [2, 3]))
        assert "zero cell in p_hat" in str(info.value)
        assert "index 1" in str(info.value)

    def test_empty_class_flagged(self):
        with pytest.raises(DegenerateSampleError, match="label 1"):
            plug_in_estimate(table([0, 0], [2, 3]))

    def test_zero_cell_in_q_flagged(self):
        with pytest.raises(DegenerateSampleError, match="zero cell in q_hat"):
            plug_in_estimate(table([2, 3], [0, 5]))

    @pytest.mark.parametrize("n1, n0, message", [
        ([0, 0], [2, 3], "empty label class: no samples with label 1"),
        ([2, 3], [0, 0], "empty label class: no samples with label 0"),
        ([5, 0], [2, 3], "zero cell in p_hat at symbol index 1"),
        ([2, 3], [4, 0], "zero cell in q_hat at symbol index 1"),
    ], ids=["no-label-1", "no-label-0", "zero-cell-p", "zero-cell-q"])
    def test_raises_the_message_of_plugin_sigma2(self, n1, n0, message):
        for oracle in (plug_in_estimate, plugin_sigma2):
            with pytest.raises(DegenerateSampleError) as info:
                oracle(table(n1, n0))
            assert str(info.value) == message, oracle

    def test_degeneracy_rare_at_moderate_n(self, test_model):
        degenerate = 0
        for rep in range(500):
            counts = sample_batch(test_model, 10_000, replication_stream(31, 0, rep))
            try:
                plug_in_estimate(counts)
            except DegenerateSampleError:
                degenerate += 1
        assert degenerate == 0


def estimation_error(counts: CountTable, model: PopulationModel) -> float:
    return plug_in_estimate(counts) - model.sym_divergence()


class TestEstimationError:
    def test_golden(self, test_model):
        # estimate ln 3 against truth ln(3)/4 leaves (3/4) ln 3
        err = estimation_error(table([3, 1], [1, 3]), test_model)
        assert abs(err - 0.75 * math.log(3.0)) <= 1e-12

    def test_degenerate_is_flagged(self, test_model):
        with pytest.raises(DegenerateSampleError, match="^zero cell"):
            estimation_error(table([5, 0], [2, 3]), test_model)

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
