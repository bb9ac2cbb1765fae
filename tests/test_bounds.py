import ctypes
import hashlib
import math

import numpy as np
import pytest

from symkl import (
    BOUND_NAMES,
    BoundTableRow,
    PopulationModel,
    bound_table,
    check_bound_rows,
)
from symkl.bounds import _exceed_counts
from symkl.model import TableBlock, block_rows, sample_counts
from symkl.montecarlo import REASON_EMPTY_LABEL, ExperimentConfig, run_experiment
from symkl.streams import N_INDEX_LIMIT, REP_INDEX_LIMIT, block_stream

from conftest import random_model, random_simplex, run_child

try:
    import resource
except ImportError:  # not on Windows
    resource = None
try:
    libc = ctypes.CDLL(None)
except (OSError, TypeError):
    libc = None


def bounds_at(model, n, g):
    """``{name: bound}`` of the closed forms at one grid point."""
    return {row.name: row.bound for row in bound_table(model, [n], [g])}


def swap_labels(model: PopulationModel) -> PopulationModel:
    return PopulationModel(
        label_prob=1.0 - model.label_prob,
        cond_p=model.cond_q,
        cond_q=model.cond_p,
    )


def label_counts(model, n, rows, stream):
    """The label-1 counts of ``sample_counts`` on a fresh ``stream``: its first draw."""
    return stream.binomial(n, model.label_prob, size=rows)


def reference_tables(model, n, n_index, replications, master_seed):
    """The estimator's count tables at one sample size, as whole arrays.

    Block ``b`` holds ``block_rows(r)`` rows (the last one the remainder)
    drawn by ``sample_counts`` from ``block_stream(master_seed, n_index, b)``;
    ``k1`` is drawn again from the same stream, not summed from ``n1``.
    """
    step = block_rows(model.r)
    blocks = []
    for start in range(0, replications, step):
        rows = min(step, replications - start)
        key = (master_seed, n_index, start // step)
        blocks.append((label_counts(model, n, rows, block_stream(*key)),
                       *sample_counts(model, n, rows, block_stream(*key))))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def reference_deviation_stats(model, n, k1, n1, n0):
    """Every per-replication deviation statistic at once, as R x r arrays.

    The full-array computation the blocked counting in ``bound_table``
    replaces; undefined statistics come back infinite.
    """
    p = model.label_prob
    q = 1.0 - p
    pv = model.cond_p
    qv = model.cond_q
    k0 = n - k1

    label_dev = np.abs(k1 / n - p)
    joint_dev_y1 = n1 / n - p * pv
    joint_dev_y0 = n0 / n - q * qv

    with np.errstate(divide="ignore", invalid="ignore"):
        p_hat = n1 / k1[:, None]
        q_hat = n0 / k0[:, None]
        cond_dev_p = np.abs(p_hat - pv)
        cond_dev_q = np.abs(q_hat - qv)
        log_ratio_dev = np.abs(
            np.log(p_hat) - np.log(pv) - np.log(q_hat) + np.log(qv)
        )
    cond_dev_p[k1 == 0, :] = np.inf
    cond_dev_q[k0 == 0, :] = np.inf
    undefined = (n1 == 0) | (n0 == 0) | (k1 == 0)[:, None] | (k0 == 0)[:, None]
    log_ratio_dev[undefined] = np.inf

    return {
        "label_freq": label_dev,
        "joint_cell_y1": joint_dev_y1,
        "joint_cell_y0": joint_dev_y0,
        "conditional_cell_p": cond_dev_p,
        "conditional_cell_q": cond_dev_q,
        "log_ratio": log_ratio_dev,
    }


def reference_exceed_frequency(stat, g, one_sided):
    exceed = stat > g if one_sided else np.abs(stat) > g
    if exceed.ndim == 1:
        return float(exceed.mean())
    return float(exceed.mean(axis=0).max())


def reference_empirical(model, n_values, g_values, replications, master_seed):
    """``{(name, n, g): frequency}`` from the full-array reference."""
    out = {}
    for n_index, n in enumerate(n_values):
        tables = reference_tables(model, n, n_index, replications, master_seed)
        stats = reference_deviation_stats(model, n, *tables)
        for name, stat in stats.items():
            for g in g_values:
                one_sided = name.startswith("joint_cell")
                out[name, n, g] = reference_exceed_frequency(stat, g, one_sided)
    return out


def oracle_label_freq(model, n, g):
    label_max = max(model.label_prob, 1.0 - model.label_prob)
    return 2.0 * math.exp(-(n * g**2) / (2.0 * label_max**2))


def oracle_joint_cell(model, n, g, label):
    side = model.label_prob if label == 1 else 1.0 - model.label_prob
    vec = model.cond_p if label == 1 else model.cond_q
    d = max(side * float(vec.max()), 1.0 - side * float(vec.min()))
    return 2.0 * math.exp(-(n * g**2) / (2.0 * d**2))


def oracle_conditional_cell(model, n, g, label):
    side = model.label_prob if label == 1 else 1.0 - model.label_prob
    vec = model.cond_p if label == 1 else model.cond_q
    vmin, vmax = float(vec.min()), float(vec.max())
    label_max = max(model.label_prob, 1.0 - model.label_prob)
    d = max(side * vmax, 1.0 - side * vmin)
    return (
        2.0 * math.exp(-(n * g**2 * side**2) / (128.0 * label_max**2 * vmax**2))
        + 2.0 * math.exp(-(n * g**2 * side**2) / (8.0 * d**2))
        + math.exp(-(n * side**2 * vmin**2) / (2.0 * d**2))
        + math.exp(-(n * side**2) / (8.0 * label_max**2))
    )


def oracle_log_ratio_terms(model, n, g, label):
    side = model.label_prob if label == 1 else 1.0 - model.label_prob
    vec = model.cond_p if label == 1 else model.cond_q
    vmin, vmax = float(vec.min()), float(vec.max())
    label_max = max(model.label_prob, 1.0 - model.label_prob)
    d = max(side * vmax, 1.0 - side * vmin)
    # (multiplicity, numerator, denominator) per exponential term
    terms = [
        (4.0, n * g**2 * side**2 * vmin**2, 2048.0 * label_max**2 * vmax**2),
        (4.0, n * g**2 * side**2 * vmin**2, 128.0 * d**2),
        (2.0, n * side**2 * vmin**2, 512.0 * label_max**2 * vmax**2),
        (2.0, n * side**2 * vmin**2, 32.0 * d**2),
        (3.0, n * side**2 * vmin**2, 2.0 * d**2),
        (3.0, n * side**2, 8.0 * label_max**2),
    ]
    return [(mult, math.exp(-num / den)) for mult, num, den in terms]


def oracle_log_ratio(model, n, g):
    total = 0.0
    for label in (1, 0):
        for mult, value in oracle_log_ratio_terms(model, n, g, label):
            total += mult * value
    return total


class TestValidation:
    def test_inputs_require_positive_g(self, test_model):
        for bad in (0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="thresholds must be positive"):
                bound_table(test_model, [100], [bad])

    def test_inputs_require_positive_n(self, test_model):
        with pytest.raises(ValueError, match=r"^n_grid must lie in \[1, 2\*\*63 - 1\], got 0$"):
            bound_table(test_model, [0], [0.1])

    def test_model_must_be_a_population_model(self):
        with pytest.raises(ValueError, match="^model must be a PopulationModel, got 'x'$"):
            bound_table("x", [10], [0.1])

    def test_bound_value_nonnegative(self):
        # inf * 0 makes the conditional-cell bound NaN; it raises, never
        # reaches a row
        model = PopulationModel(label_prob=1e-300, cond_p=(0.5, 0.5), cond_q=(0.25, 0.75))
        with pytest.raises(ValueError, match="not a bound >= 0"):
            bound_table(model, [100], [1e200])

    def test_informative_flag(self):
        def row(bound):
            return BoundTableRow(name="label_freq", n=10, g=0.1, bound=bound,
                                 empirical=None, stderr=None)

        assert row(0.5).informative
        assert not row(1.0).informative
        assert not row(3.2).informative


class TestGoldenValues:
    def test_label_freq(self, test_model):
        # exponent is exactly -2 here
        value = bounds_at(test_model, 100, 0.1)["label_freq"]
        assert value == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    def test_joint_cell(self, test_model):
        # worst label-1 cell constant is 0.75, so the exponent is -8/9
        value = bounds_at(test_model, 100, 0.1)["joint_cell_y1"]
        assert value == pytest.approx(2.0 * math.exp(-8.0 / 9.0), rel=1e-12)
        assert value == pytest.approx(0.8222245810143747, rel=1e-12)

    def test_bit_for_bit(self):
        # a reordered exponent changes the bytes of bounds.csv; these values,
        # from a Linux x86-64 run, pin every bound exactly
        model = PopulationModel(label_prob=0.3, cond_p=(0.1, 0.3, 0.6), cond_q=(0.5, 0.25, 0.25))
        expected = {
            ("conditional_cell_p", 10, 0.05): 5.7892897008424296,
            ("conditional_cell_p", 10, 0.5): 5.711357340024798,
            ("conditional_cell_p", 1000, 0.05): 4.541128217063949,
            ("conditional_cell_p", 1000, 0.5): 1.4588612704608928,
            ("conditional_cell_q", 10, 0.05): 5.078982974242852,
            ("conditional_cell_q", 10, 0.5): 4.531806074431924,
            ("conditional_cell_q", 1000, 0.05): 3.446766727361538,
            ("conditional_cell_q", 1000, 0.5): 0.0008092908473884633,
            ("joint_cell_y0", 10, 0.05): 1.9636042893853198,
            ("joint_cell_y0", 10, 0.5): 0.3187334483723237,
            ("joint_cell_y0", 1000, 0.05): 0.3187334483723237,
            ("joint_cell_y0", 1000, 0.5): 3.473718071987941e-80,
            ("joint_cell_y1", 10, 0.05): 1.973605411250314,
            ("joint_cell_y1", 10, 0.5): 0.529740470433406,
            ("joint_cell_y1", 1000, 0.05): 0.529740470433406,
            ("joint_cell_y1", 1000, 0.5): 4.021107807635429e-58,
            ("label_freq", 10, 0.05): 1.949624863698719,
            ("label_freq", 10, 0.5): 0.15600406293707522,
            ("label_freq", 1000, 0.05): 0.15600406293707522,
            ("label_freq", 1000, 0.5): 3.2480398346030413e-111,
            ("log_ratio", 10, 0.05): 32.586865688255685,
            ("log_ratio", 10, 0.5): 32.58208016467971,
            ("log_ratio", 1000, 0.05): 23.49356146457926,
            ("log_ratio", 1000, 0.5): 23.031689521587097,
        }
        rows = bound_table(model, [10, 1000], [0.05, 0.5])
        assert {(r.name, r.n, r.g): r.bound for r in rows} == expected
        # a regrouped product moves one bound in a few hundred by an ulp, so a
        # dense grid is pinned too, by the digest of every bound's float.hex
        n_grid = [10**k // d for k in range(1, 8) for d in (1, 2, 5)]
        g_grid = [k / 40 for k in range(1, 121)]
        rows = bound_table(model, n_grid, g_grid)
        digest = hashlib.sha256(" ".join(r.bound.hex() for r in rows).encode()).hexdigest()
        assert digest == "6b15d0f84a7c823becf74fb11c5b8a35d88259c6a7d95d55494b976549a280e1"


class TestAgainstIndependentTranscription:
    def grid(self):
        return [(10, 0.3), (100, 0.1), (1000, 0.05), (5000, 0.4)]

    def models(self):
        rng = np.random.default_rng(51)
        return [random_model(rng, int(rng.integers(2, 7))) for _ in range(10)]

    def test_label_freq(self):
        for model in self.models():
            for n, g in self.grid():
                assert bounds_at(model, n, g)["label_freq"] == pytest.approx(
                    oracle_label_freq(model, n, g), rel=1e-10
                )

    def test_joint_cell(self):
        for model in self.models():
            for n, g in self.grid():
                values = bounds_at(model, n, g)
                for label in (0, 1):
                    assert values[f"joint_cell_y{label}"] == pytest.approx(
                        oracle_joint_cell(model, n, g, label), rel=1e-10
                    )

    def test_conditional_cell(self):
        for model in self.models():
            for n, g in self.grid():
                values = bounds_at(model, n, g)
                assert values["conditional_cell_p"] == pytest.approx(
                    oracle_conditional_cell(model, n, g, 1), rel=1e-10
                )
                assert values["conditional_cell_q"] == pytest.approx(
                    oracle_conditional_cell(model, n, g, 0), rel=1e-10
                )

    def test_log_ratio(self):
        for model in self.models():
            for n, g in self.grid():
                assert bounds_at(model, n, g)["log_ratio"] == pytest.approx(
                    oracle_log_ratio(model, n, g), rel=1e-10
                )


class TestStructuralProperties:
    def test_label_swap_symmetry(self):
        # tolerance, not equality: complementing the label probability twice
        # need not round back to the same float
        rng = np.random.default_rng(53)
        mirror = {
            "label_freq": "label_freq",
            "conditional_cell_p": "conditional_cell_q",
            "joint_cell_y1": "joint_cell_y0",
            "log_ratio": "log_ratio",
        }
        for _ in range(5):
            model = random_model(rng, 4)
            swapped = swap_labels(model)
            for n, g in ((50, 0.2), (800, 0.05)):
                a = bounds_at(model, n, g)
                b = bounds_at(swapped, n, g)
                for name, mirrored in mirror.items():
                    assert a[name] == pytest.approx(b[mirrored], rel=1e-12)

    def test_log_ratio_large_g_limit(self, test_model):
        # threshold-dependent terms vanish, leaving the ten fixed ones
        value = bounds_at(test_model, 200, 1e9)["log_ratio"]
        expected = 0.0
        for label in (1, 0):
            terms = oracle_log_ratio_terms(test_model, 200, 1.0, label)
            expected += sum(mult * v for mult, v in terms[2:])
        assert value == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_g_and_n(self):
        rng = np.random.default_rng(54)
        model = random_model(rng, 3)
        n_grid = (10, 100, 1000, 10_000)
        g_grid = (0.02, 0.05, 0.1, 0.3, 0.8)
        bound = {(r.name, r.n, r.g): r.bound for r in bound_table(model, n_grid, g_grid)}
        for name in BOUND_NAMES:
            for n in n_grid:
                values = [bound[name, n, g] for g in g_grid]
                assert all(b <= a for a, b in zip(values, values[1:]))
            for g in g_grid:
                values = [bound[name, n, g] for n in n_grid]
                assert all(b <= a for a, b in zip(values, values[1:]))


class TestBoundTable:
    def test_shape_and_order(self, test_model):
        rows = bound_table(test_model, [100, 10], [0.2, 0.1])
        assert len(rows) == len(BOUND_NAMES) * 2 * 2
        keys = [(r.name, r.n, r.g) for r in rows]
        assert keys == sorted(keys)
        assert {r.name for r in rows} == set(BOUND_NAMES)

    def test_no_replications_no_empirical(self, test_model):
        rows = bound_table(test_model, [50], [0.1])
        for row in rows:
            assert row.empirical is None
            assert row.stderr is None
            assert row.empirically_valid()

    def test_deterministic(self, test_model):
        a = bound_table(test_model, [50, 200], [0.1, 0.3], replications=500, master_seed=9)
        b = bound_table(test_model, [50, 200], [0.1, 0.3], replications=500, master_seed=9)
        assert a == b

    def test_rows_do_not_depend_on_workers(self):
        # r = 50: three blocks at each n, so a pool of two shares them out
        model = random_model(np.random.default_rng(55), 50)
        tables = [bound_table(model, [100, 1000], [0.05, 0.2], replications=3000, master_seed=6,
                              workers=workers) for workers in (1, 2)]
        assert any(row.empirical for row in tables[0])
        assert tables[0] == tables[1]

    def test_empirical_within_bounds(self, test_model):
        rows = bound_table(
            test_model, [100, 1000], [0.05, 0.1, 0.5], replications=20_000, master_seed=3
        )
        assert all(row.empirically_valid() for row in rows)

    def test_undefined_statistics_count_as_exceedances(self):
        model = PopulationModel(
            label_prob=0.5, cond_p=(0.2, 0.3, 0.5), cond_q=(0.4, 0.4, 0.2)
        )
        rows = bound_table(model, [1], [5.0], replications=200, master_seed=4)
        log_rows = [r for r in rows if r.name == "log_ratio"]
        # a single draw always leaves one label class empty, so the log-ratio
        # is undefined in every replication and must count as exceeding
        assert log_rows[0].empirical == 1.0

    def test_validation(self, test_model):
        with pytest.raises(ValueError, match="empty"):
            bound_table(test_model, [], [0.1])
        with pytest.raises(ValueError, match="empty"):
            bound_table(test_model, [10], [])
        for bad in (0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="positive"):
                bound_table(test_model, [10], [bad])
        with pytest.raises(ValueError, match=r"\[1, 2\*\*63 - 1\], got 0$"):
            bound_table(test_model, [0], [0.1])
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            bound_table(test_model, [10, 1 << 63], [0.1])
        with pytest.raises(ValueError, match="replications"):
            bound_table(test_model, [10], [0.1], replications=-1)
        with pytest.raises(ValueError, match=r"^workers must lie in \[1, inf\), got 0$"):
            bound_table(test_model, [10], [0.1], replications=5, workers=0)
        # sizes, counts and seeds with a fractional part are not truncated
        with pytest.raises(ValueError, match="n_grid must be an integer, got 100.9"):
            bound_table(test_model, [100.9], [0.1])
        with pytest.raises(ValueError, match="replications must be an integer, got 5.5"):
            bound_table(test_model, [100], [0.1], replications=5.5)
        with pytest.raises(ValueError, match="master_seed must be an integer, got 1.5"):
            bound_table(test_model, [100], [0.1], replications=5, master_seed=1.5)
        # numeric strings are not numbers, although float() reads them
        for n_grid in (["100"], [b"100"]):
            with pytest.raises(ValueError, match="n_grid must be an integer"):
                bound_table(test_model, n_grid, [0.1])
        with pytest.raises(ValueError, match="replications must be an integer, got '5'"):
            bound_table(test_model, [100], [0.1], replications="5")
        with pytest.raises(ValueError, match="master_seed must be an integer, got '1'"):
            bound_table(test_model, [100], [0.1], replications=5, master_seed="1")
        # a grid is a sequence: a str or a scalar is no grid of one point
        for n_grid, g_grid, message in (
            (100, [0.1], "n_grid must be a sequence of integers, got 100$"),
            ("100", [0.1], "n_grid must be a sequence of integers, got '100'$"),
            ([100], 0.1, "g_grid must be a sequence of reals, got 0.1$"),
            ([100], b"0.1", "g_grid must be a sequence of reals, got b'0.1'$"),
        ):
            with pytest.raises(ValueError, match=f"^{message}"):
                bound_table(test_model, n_grid, g_grid)
        assert bound_table(test_model, [1e2], [0.1]) == bound_table(test_model, [100], [0.1])
        assert bound_table(test_model, (n for n in [100]), range(1, 2)) == bound_table(
            test_model, [100], [1.0])
        assert bound_table(test_model, [100], [0.1], replications=5, master_seed=2**64 - 1)

    def test_stream_key_limits_checked_before_drawing(self, test_model, monkeypatch):
        def no_draw(block):
            raise AssertionError("drew tables before validating the grid")

        monkeypatch.setattr(TableBlock, "draw", no_draw)
        with pytest.raises(ValueError, match=f"at most {N_INDEX_LIMIT} sample sizes"):
            bound_table(test_model, range(1, N_INDEX_LIMIT + 2), [0.1], replications=1)
        # at r=2 a block holds 32768 tables, so the second count would make
        # 2**32 + 1 blocks if the layout were built before the check
        for replications in (REP_INDEX_LIMIT + 1, 2**32 * 32768 + 5):
            message = rf"^replications must lie in \[0, 2\*\*32\], got {replications}$"
            with pytest.raises(ValueError, match=message):
                bound_table(test_model, [10], [0.1], replications=replications)
        # the stream key would wrap these onto seeds 2**64 - 1, 0 and 2**64 - 1
        for master_seed in (-1, 2**64, 5 * 2**64 - 1):
            message = rf"^master_seed must lie in \[0, 2\*\*64 - 1\], got {master_seed}$"
            with pytest.raises(ValueError, match=message):
                bound_table(test_model, [10], [0.1], replications=1, master_seed=master_seed)

    def test_margin_at_the_gate(self):
        # empirical exactly bound + 3 stderr is within the gate; the next double above is not
        bound, stderr = 0.1, 0.01
        edge = bound + 3.0 * stderr
        for empirical, margin, valid in ((edge, 0.0, True),
                                         (math.nextafter(edge, 1.0), math.ulp(edge), False)):
            row = BoundTableRow(name="label_freq", n=10, g=0.5, bound=bound,
                                empirical=empirical, stderr=stderr)
            assert row.margin == margin
            assert row.empirically_valid() is valid
            assert check_bound_rows([row]).passed is valid
        assert BoundTableRow("label_freq", 10, 0.5, 2.0, None, None).margin is None

    def test_invalid_row_detected(self, test_model):
        row = BoundTableRow(
            name="label_freq", n=10, g=0.5, bound=0.01, empirical=0.5, stderr=0.01,
        )
        assert not row.empirically_valid()
        assert row.margin == 0.5 - (0.01 + 3.0 * 0.01)
        check = check_bound_rows([row])
        assert not check.passed
        assert (check.value, check.limit, check.margin) == (row.margin, 0.0, row.margin)
        assert check.detail == (
            "value=0.46 limit=0 margin=0.46: 1 of 1 grid points exceed bound + 3 stderr; "
            "largest margin at label_freq n=10 g=0.5 "
            "(empirical=0.5 bound=0.01 stderr=0.01)"
        )

        def grid_point(name, empirical, bound):
            return BoundTableRow(
                name=name, n=100, g=0.1, bound=bound, empirical=empirical, stderr=0.01,
            )

        # the detail names the largest margin, not the first failing row
        rows = [
            grid_point("label_freq", 0.2, 0.1),  # margin 0.07
            grid_point("log_ratio", 0.6, 0.2),  # margin 0.37
            grid_point("joint_cell_y0", 0.1, 0.5),  # within its bound
        ]
        check = check_bound_rows(rows)
        assert check.detail.startswith(
            "value=0.37 limit=0 margin=0.37: 2 of 3 grid points exceed bound + 3 stderr; "
            "largest margin at log_ratio n=100 g=0.1"
        )
        assert check_bound_rows(rows[2:]).passed

    def test_rows_without_an_exceedance_do_not_set_the_value(self):
        # a zero frequency next to a zero or underflowed bound has margin 0 or just
        # below: the value and the named point come from the rows with an exceedance
        rows = [
            BoundTableRow("joint_cell_y0", 10000, 0.5, bound=0.0, empirical=0.0, stderr=0.0),
            BoundTableRow("label_freq", 10000, 0.2, bound=2.7e-235, empirical=0.0, stderr=0.0),
            BoundTableRow("label_freq", 100, 0.2, bound=0.01, empirical=0.004, stderr=0.001),
        ]
        check = check_bound_rows(rows)
        assert check.passed
        assert check.value == check.margin == pytest.approx(0.004 - 0.013)
        assert check.detail.endswith(
            "0 of 3 grid points exceed bound + 3 stderr; largest margin at label_freq n=100 "
            "g=0.2 (empirical=0.004 bound=0.01 stderr=0.001)")

    def test_a_table_without_an_exceedance_reads_minus_infinity(self):
        rows = [BoundTableRow("label_freq", n, 0.5, bound=bound, empirical=0.0, stderr=0.0)
                for n, bound in ((10, 0.2), (100, 0.0))]
        for table in (rows, [BoundTableRow("label_freq", 10, 0.5, 0.2, None, None)]):
            check = check_bound_rows(table)
            assert check.passed
            assert check.value == check.margin == -math.inf
        assert check_bound_rows(rows).detail == (
            "value=-inf limit=0 margin=-inf: none of 2 grid points has an exceedance")


class TestBlockedCounting:
    """``bound_table`` against the full-array reference, compared with ==."""

    @pytest.mark.parametrize("r", [2, 50, 1000])
    @pytest.mark.parametrize("blocks", ["below_one", "exact_multiple", "remainder"])
    def test_empirical_equals_full_array_reference(self, r, blocks):
        step = block_rows(r)
        replications = {
            "below_one": step // 2,
            "exact_multiple": 2 * step,
            "remainder": 2 * step + step // 3,
        }[blocks]
        rng = np.random.default_rng(r)
        # label_prob near 0: at n=1 rows with k1 == 0 and rows with k0 == 0
        # both occur (asserted below), at n=6 most rows have k1 == 0, and at
        # r=1000 nearly every row has empty cells
        model = PopulationModel(
            label_prob=0.1, cond_p=random_simplex(rng, r, 0.0), cond_q=random_simplex(rng, r, 0.0)
        )
        n_values = [1, 6, 400]
        g_values = [0.05, 0.1, 0.2, 0.5, 2.0]
        k1, _, _ = reference_tables(model, 1, 0, replications, r + 7)
        assert 0 < k1.sum() < replications
        rows = bound_table(model, n_values, g_values, replications, master_seed=r + 7)
        expected = reference_empirical(model, n_values, g_values, replications, r + 7)
        assert len(rows) == len(expected)
        for row in rows:
            assert row.empirical == expected[row.name, row.n, row.g], (row.name, row.n, row.g)

    @pytest.mark.parametrize("r", [2, 50, 1000])
    def test_cell_counts_equal_full_array_reference(self, r):
        rng = np.random.default_rng(r)
        model = PopulationModel(
            label_prob=0.1, cond_p=random_simplex(rng, r, 0.0), cond_q=random_simplex(rng, r, 0.0)
        )
        empty_label = empty_cell = False
        tied = set()
        for n_index, n in enumerate([1, 6, 400]):
            k1 = label_counts(model, n, block_rows(r), block_stream(r, n_index, 0))
            n1, n0 = sample_counts(model, n, block_rows(r), block_stream(r, n_index, 0))
            empty_label |= bool(np.any(k1 == 0) and np.any(k1 == n))
            empty_cell |= bool(np.any((n1 == 0) & (k1 > 0)[:, None]))
            stats = reference_deviation_stats(model, n, k1, n1, n0)
            # one realised deviation per statistic as a threshold: a tie must not count
            ties = {}
            for name, stat in stats.items():
                realised = np.unique(stat[np.isfinite(stat) & (stat > 0.0)])
                if realised.size:
                    ties[name] = float(realised[len(realised) // 2])
            tied |= ties.keys()
            # at g = 1e300 only an undefined statistic exceeds
            g_values = sorted({*ties.values(), 0.05, 0.5, 1e300})
            counts = _exceed_counts(model, n, g_values, n1, n0)
            assert counts.keys() == stats.keys()
            for name, stat in stats.items():
                # joint cells are one-sided; the other statistics are absolute
                expected = np.array([np.count_nonzero(stat > g, axis=0) for g in g_values])
                assert counts[name].dtype == np.int64
                assert counts[name].shape == expected.shape, (name, n)
                assert np.all(counts[name] == expected), (name, n)
        assert empty_label and empty_cell
        assert tied == set(BOUND_NAMES)

    @pytest.mark.skipif(resource is None or not hasattr(libc, "mallopt"),
                        reason="needs resource and glibc mallopt")
    def test_repeated_pass_takes_few_page_faults(self):
        # a fresh interpreter, since the heap's history in this one sets its
        # trim threshold; r=50 puts 1310 tables in a block
        blocks = 20
        child = run_child(
            "import resource, sys\n"
            "import numpy as np\n"
            "from symkl import PopulationModel, bound_table\n"
            "from symkl.model import block_rows\n"
            "weights = np.arange(1.0, 51.0)\n"
            "model = PopulationModel(0.4, np.full(50, 0.02), weights / weights.sum())\n"
            "replications = int(sys.argv[1]) * block_rows(model.r)\n"
            "bound_table(model, [100], [0.05, 0.5], replications, master_seed=5)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "bound_table(model, [100], [0.05, 0.5], replications, master_seed=6)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
            str(blocks),
        )
        assert child.returncode == 0, child.stderr
        faults = int(child.stdout)
        assert faults < 64 * blocks, faults


class TestOneTableSource:
    """The bound Monte Carlo reads the tables the estimator's records come from."""

    def test_empty_label_tables_match_the_estimator_records(self):
        # r=50 puts 1310 tables in a block: blocks of 1310, 1310 and 380 per n
        r = 50
        rng = np.random.default_rng(r)
        model = PopulationModel(
            label_prob=0.1, cond_p=random_simplex(rng, r, 0.0), cond_q=random_simplex(rng, r, 0.0)
        )
        n_values = [3, 8, 20]
        replications = 3000
        assert 2 * block_rows(model.r) < replications < 3 * block_rows(model.r)
        # no defined conditional deviation exceeds g = 10, so a row counts
        # exactly the tables whose label class is empty
        rows = bound_table(model, n_values, [10.0], replications, master_seed=91)
        empty = {(row.name, row.n): round(row.empirical * replications) for row in rows}
        records = run_experiment(ExperimentConfig(
            model=model, n_values=n_values, replications=replications, master_seed=91
        )).records
        for n_index, (n, at_n) in enumerate(zip(n_values, records, strict=True)):
            assert at_n.n == n
            k1, _, _ = reference_tables(model, n, n_index, replications, 91)
            assert empty["conditional_cell_p", n] == np.count_nonzero(k1 == 0) > 0
            assert empty["conditional_cell_q", n] == np.count_nonzero(k1 == n)
            label_empty = np.count_nonzero(at_n.reason == REASON_EMPTY_LABEL)
            assert empty["conditional_cell_p", n] + empty["conditional_cell_q", n] == label_empty
