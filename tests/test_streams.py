import math
from decimal import Decimal
from fractions import Fraction

import pytest

from symkl import (
    CountTable,
    ExperimentConfig,
    PopulationModel,
    bound_table,
    confidence_interval,
    influence_value,
    run_experiment,
    sample_batch,
)
from symkl.streams import (
    MAX_COUNT,
    N_INDEX_LIMIT,
    REP_INDEX_LIMIT,
    SEED_LIMIT,
    block_stream,
    out_of_range,
    replication_stream,
)


class TestBlockStream:
    def test_reproducible(self):
        assert block_stream(7, 2, 5).random() == block_stream(7, 2, 5).random()

    @pytest.mark.parametrize("index", [0, 1, 150])
    def test_disjoint_from_other_domains_for_same_numbers(self, index):
        first = block_stream(7, 1, index).random()
        assert first != replication_stream(7, 1, index).random()

    def test_key_fields_select_the_stream(self):
        first = block_stream(7, 1, 0).random()
        assert first != block_stream(8, 1, 0).random()
        assert first != block_stream(7, 2, 0).random()
        assert first != block_stream(7, 1, 1).random()

    def test_index_range(self):
        block_stream(0, (1 << 16) - 1, (1 << 32) - 1)
        with pytest.raises(ValueError, match="n_index"):
            block_stream(0, 1 << 16, 0)
        with pytest.raises(ValueError, match="block_index"):
            block_stream(0, 0, 1 << 32)


class TestStreamKeys:
    @pytest.mark.parametrize("stream", [replication_stream, block_stream])
    @pytest.mark.parametrize("seed", [-1, 1 << 64, 5 * (1 << 64) - 1])
    def test_seed_outside_64_bits_rejected(self, stream, seed):
        # no wrap onto the key: each of these once named seed 2**64 - 1's stream
        with pytest.raises(ValueError, match="master_seed"):
            stream(seed, 0, 0)

    @pytest.mark.parametrize("stream", [replication_stream, block_stream])
    def test_seed_range_ends_accepted(self, stream):
        assert stream(0, 0, 0).random() != stream((1 << 64) - 1, 0, 0).random()

    def test_fractional_fields_rejected(self):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            replication_stream(1.5, 0, 0)
        with pytest.raises(ValueError, match="n_index must be an integer"):
            block_stream(1, 0.5, 0)
        with pytest.raises(ValueError, match="block_index must be an integer"):
            block_stream(1, 0, 0.5)

    def test_integral_floats_keep_their_key(self):
        assert block_stream(7.0, 1.0, 2.0).random() == block_stream(7, 1, 2).random()


MODEL = PopulationModel(0.5, (0.5, 0.5), (0.25, 0.75))

# How a message writes each limit.
LIMIT_TEXT = {MAX_COUNT: "2**63 - 1", SEED_LIMIT - 1: "2**64 - 1", N_INDEX_LIMIT - 1: "2**16 - 1",
              REP_INDEX_LIMIT: "2**32", REP_INDEX_LIMIT - 1: "2**32 - 1", None: "inf"}
STREAMS = (replication_stream, block_stream)

# Every public integer input: a call of one value, the field its message names,
# the inclusive range [lo, hi] (hi None: unbounded), and the ends cheap to run.
INTEGER_INPUTS = [
    pytest.param(lambda v: ExperimentConfig(MODEL, (v,), 2, 0), "n_values", 1, MAX_COUNT,
                 (1, MAX_COUNT), id="ExperimentConfig-n_values"),
    pytest.param(lambda v: ExperimentConfig(MODEL, (10,), v, 0), "replications",
                 1, REP_INDEX_LIMIT, (1, REP_INDEX_LIMIT), id="ExperimentConfig-replications"),
    pytest.param(lambda v: ExperimentConfig(MODEL, (10,), 2, v), "master_seed",
                 0, SEED_LIMIT - 1, (0, SEED_LIMIT - 1), id="ExperimentConfig-master_seed"),
    pytest.param(lambda v: bound_table(MODEL, [v], [0.1]), "n_grid", 1, MAX_COUNT,
                 (1, MAX_COUNT), id="bound_table-n_grid"),
    # 2**32 replications would draw 2**32 tables
    pytest.param(lambda v: bound_table(MODEL, [10], [0.1], replications=v), "replications",
                 0, REP_INDEX_LIMIT, (0,), id="bound_table-replications"),
    pytest.param(lambda v: bound_table(MODEL, [10], [0.1], master_seed=v), "master_seed",
                 0, SEED_LIMIT - 1, (0, SEED_LIMIT - 1), id="bound_table-master_seed"),
    pytest.param(lambda v: run_experiment(ExperimentConfig(MODEL, (10,), 2, 0), workers=v),
                 "workers", 1, None, (1,), id="run_experiment-workers"),
    *(pytest.param(lambda v, s=stream: s(v, 0, 0), "master_seed", 0, SEED_LIMIT - 1,
                   (0, SEED_LIMIT - 1), id=f"{stream.__name__}-master_seed")
      for stream in STREAMS),
    *(pytest.param(lambda v, s=stream: s(0, v, 0), "n_index", 0, N_INDEX_LIMIT - 1,
                   (0, N_INDEX_LIMIT - 1), id=f"{stream.__name__}-n_index")
      for stream in STREAMS),
    *(pytest.param(lambda v, s=stream: s(0, 0, v), "rep_index or block_index", 0,
                   REP_INDEX_LIMIT - 1, (0, REP_INDEX_LIMIT - 1), id=f"{stream.__name__}-index")
      for stream in STREAMS),
    pytest.param(lambda v: sample_batch(MODEL, v, replication_stream(0, 0, 0)), "n",
                 1, MAX_COUNT, (1, MAX_COUNT), id="sample_batch-n"),
    # the other cells are 0, so the total fits int64, but for one count at v = 0
    pytest.param(lambda v: CountTable([v, 0], [0, 0 if v else 1]), "n1", 0, MAX_COUNT,
                 (0, MAX_COUNT), id="CountTable-n1"),
    pytest.param(lambda v: CountTable([0, 0 if v else 1], [0, v]), "n0", 0, MAX_COUNT,
                 (0, MAX_COUNT), id="CountTable-n0"),
    pytest.param(lambda v: influence_value(MODEL, v, 1), "x", 0, MODEL.r - 1,
                 (0, MODEL.r - 1), id="influence_value-x"),
    pytest.param(lambda v: influence_value(MODEL, 0, v), "y", 0, 1, (0, 1),
                 id="influence_value-y"),
    pytest.param(lambda v: confidence_interval(0.5, 1.0, v, 0.95), "n", 1, MAX_COUNT,
                 (1, MAX_COUNT), id="confidence_interval-n"),
]


@pytest.mark.parametrize("call, field, lo, hi, accepted", INTEGER_INPUTS)
def test_integer_input_range(call, field, lo, hi, accepted):
    for value in accepted:
        call(value)
    shown = f"[{LIMIT_TEXT.get(lo, lo)}, {LIMIT_TEXT.get(hi, hi)}{')' if hi is None else ']'}"
    # str() of 10**5000 exceeds the interpreter's 4300-digit limit: it is described instead
    sign = 1 if hi is not None else -1
    huge, described = sign * 10**5000, f"{'an' if sign > 0 else 'a negative'} integer of 16610 bits"
    # integral numbers beyond the float range are judged without float()
    outside = [(lo - 1, lo - 1), (huge, described), (Fraction(sign * 10**400), sign * 10**400),
               (Decimal(f"{sign}e400"), sign * 10**400)]
    outside += [] if hi is None else [(hi + 1, hi + 1)]
    for value, text in outside:
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{field} must lie in {shown}, got {text}"


@pytest.mark.parametrize("lo, hi, got, ends, message", [
    (1, MAX_COUNT, 0, "[]", "n must lie in [1, 2**63 - 1], got 0"),
    (1, math.inf, 0, "[]", "n must lie in [1, inf), got 0"),
    (0, 1, 1.5, "()", "n must lie in (0, 1), got 1.5"),
    (0, math.inf, -1.0, "[)", "n must lie in [0, inf), got -1.0"),
    (0.5, 2.5, 3.0, "(]", "n must lie in (0.5, 2.5], got 3.0"),
    # an infinite end is open, whatever its bracket
    (-math.inf, math.inf, math.nan, "[]", "n must lie in (-inf, inf), got nan"),
])
def test_out_of_range_writes_each_end(lo, hi, got, ends, message):
    assert str(out_of_range("n", lo, hi, got, ends)) == message
