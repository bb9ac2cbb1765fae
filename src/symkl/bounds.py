"""Finite-sample exponential tail bounds for the empirical measures.

Closed-form Hoeffding-style bounds on the deviation probabilities of the
empirical label frequency, the joint (symbol, label) cell frequencies, the
conditional cell frequencies within each label class, and the plug-in
log-ratio.  Every bound is uniform over the alphabet (the per-cell bounds
dominate the worst cell), monotone nonincreasing in both ``n`` and ``g``,
and valid for all ``n >= 1`` and ``g > 0``; values of 1 or more are
trivially true and flagged uninformative.

``bound_table`` evaluates a grid of bounds and, given a replication
budget, estimates the corresponding deviation frequencies by Monte Carlo
so each bound can be checked against data.  Samples for which a statistic
is undefined (empty label class, empty cell inside a log) are counted as
exceedances, which only pushes the empirical frequency up.  The Monte
Carlo counts the estimator's tables (:func:`~symkl.model.table_blocks`)
one block at a time and keeps integer exceedance counts per (bound, g,
cell), so it holds one block of tables and temporaries at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MAX_COUNT, PopulationModel, table_blocks

DEFAULT_G_GRID = (0.05, 0.1, 0.2, 0.5)

BOUND_NAMES = (
    "conditional_cell_p",
    "conditional_cell_q",
    "joint_cell_y0",
    "joint_cell_y1",
    "label_freq",
    "log_ratio",
)


@dataclass(frozen=True, eq=False)
class BoundInputs:
    """A model together with the sample size and deviation threshold."""

    model: PopulationModel
    n: int
    g: float

    def __post_init__(self) -> None:
        n = int(self.n)
        g = float(self.g)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not math.isfinite(g) or g <= 0.0:
            raise ValueError(f"g must be a positive real, got {g!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "g", g)


@dataclass(frozen=True)
class BoundValue:
    """A tail-probability bound; informative only when below 1."""

    value: float

    def __post_init__(self) -> None:
        if not self.value >= 0.0:
            raise ValueError(f"bound must be nonnegative, got {self.value!r}")

    @property
    def informative(self) -> bool:
        return self.value < 1.0


@dataclass(frozen=True)
class _Extrema:
    """Derived model constants shared by all bounds."""

    p: float
    q: float
    label_max: float  # max(p, q)
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    dp: float  # max(p * p_max, 1 - p * p_min)
    dq: float  # max(q * q_max, 1 - q * q_min)


def _extrema(model: PopulationModel) -> _Extrema:
    p = model.label_prob
    q = 1.0 - p
    p_min = float(model.cond_p.min())
    p_max = float(model.cond_p.max())
    q_min = float(model.cond_q.min())
    q_max = float(model.cond_q.max())
    return _Extrema(
        p=p,
        q=q,
        label_max=max(p, q),
        p_min=p_min,
        p_max=p_max,
        q_min=q_min,
        q_max=q_max,
        dp=max(p * p_max, 1.0 - p * p_min),
        dq=max(q * q_max, 1.0 - q * q_min),
    )


def bound_label_freq(inputs: BoundInputs) -> BoundValue:
    """Tail bound for the empirical label frequency of either label.

    ``P(|hat_p_n - p| > g) <= 2 exp(-n g^2 / (2 max(p, q)^2))``; the
    label-0 frequency deviates by exactly the same amount, so one bound
    covers both.
    """
    e = _extrema(inputs.model)
    n, g = inputs.n, inputs.g
    return BoundValue(2.0 * math.exp(-n * g * g / (2.0 * e.label_max**2)))


def bound_joint_cell(inputs: BoundInputs, j: int, label: int) -> BoundValue:
    """Upper-tail bound for one joint (symbol, label) cell frequency.

    For label 1 the bound is
    ``2 exp(-n g^2 / (2 max(p p_max, 1 - p p_min)^2))`` and for label 0
    the mirror with ``q``.  The bound dominates the worst cell, so it does
    not depend on which symbol ``j`` is asked about; ``j`` is validated
    against the alphabet.
    """
    j = int(j)
    if not 0 <= j < inputs.model.r:
        raise ValueError(f"symbol index must lie in [0, {inputs.model.r}), got {j}")
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    e = _extrema(inputs.model)
    denom = e.dp if label == 1 else e.dq
    n, g = inputs.n, inputs.g
    return BoundValue(2.0 * math.exp(-n * g * g / (2.0 * denom**2)))


def _conditional_cell_terms(n: int, g: float, side_p: float, v_min: float, v_max: float,
                            label_max: float, d_side: float) -> float:
    return (
        2.0 * math.exp(-n * g * g * side_p**2 / (2.0**7 * label_max**2 * v_max**2))
        + 2.0 * math.exp(-n * g * g * side_p**2 / (8.0 * d_side**2))
        + math.exp(-n * side_p**2 * v_min**2 / (2.0 * d_side**2))
        + math.exp(-n * side_p**2 / (8.0 * label_max**2))
    )


def bound_conditional_cell_p(inputs: BoundInputs) -> BoundValue:
    """Tail bound for the worst conditional cell frequency given label 1."""
    e = _extrema(inputs.model)
    return BoundValue(
        _conditional_cell_terms(inputs.n, inputs.g, e.p, e.p_min, e.p_max, e.label_max, e.dp)
    )


def bound_conditional_cell_q(inputs: BoundInputs) -> BoundValue:
    """Tail bound for the worst conditional cell frequency given label 0."""
    e = _extrema(inputs.model)
    return BoundValue(
        _conditional_cell_terms(inputs.n, inputs.g, e.q, e.q_min, e.q_max, e.label_max, e.dq)
    )


def _log_ratio_side(n: int, g: float, side_p: float, v_min: float, v_max: float,
                    label_max: float, d_side: float) -> float:
    lm2 = label_max**2
    sp2 = side_p**2
    vmin2 = v_min**2
    return (
        4.0 * math.exp(-n * g * g * sp2 * vmin2 / (2.0**11 * lm2 * v_max**2))
        + 4.0 * math.exp(-n * g * g * sp2 * vmin2 / (2.0**7 * d_side**2))
        + 2.0 * math.exp(-n * sp2 * vmin2 / (2.0**9 * lm2 * v_max**2))
        + 2.0 * math.exp(-n * sp2 * vmin2 / (2.0**5 * d_side**2))
        + 3.0 * math.exp(-n * sp2 * vmin2 / (2.0 * d_side**2))
        + 3.0 * math.exp(-n * sp2 / (8.0 * lm2))
    )


def bound_log_ratio(inputs: BoundInputs) -> BoundValue:
    """Tail bound for the worst per-symbol plug-in log-ratio deviation.

    Bounds ``P(|ln(hat_p_j q_j / (p_j hat_q_j))| > g)`` uniformly in the
    symbol by twelve exponential terms, six per label class.
    """
    e = _extrema(inputs.model)
    n, g = inputs.n, inputs.g
    value = _log_ratio_side(n, g, e.p, e.p_min, e.p_max, e.label_max, e.dp)
    value += _log_ratio_side(n, g, e.q, e.q_min, e.q_max, e.label_max, e.dq)
    return BoundValue(value)


_BOUND_FUNCS = {
    "conditional_cell_p": bound_conditional_cell_p,
    "conditional_cell_q": bound_conditional_cell_q,
    "joint_cell_y0": lambda inputs: bound_joint_cell(inputs, 0, 0),
    "joint_cell_y1": lambda inputs: bound_joint_cell(inputs, 0, 1),
    "label_freq": bound_label_freq,
    "log_ratio": bound_log_ratio,
}


@dataclass(frozen=True)
class BoundTableRow:
    """One grid point: a bound and, optionally, its empirical frequency."""

    name: str
    n: int
    g: float
    bound: float
    informative: bool
    empirical: float | None
    stderr: float | None

    def empirically_valid(self) -> bool:
        """True when the observed frequency does not contradict the bound.

        The empirical frequency may exceed the bound by Monte Carlo noise
        alone, so the check allows three binomial standard errors.
        """
        if self.empirical is None:
            return True
        return self.empirical <= self.bound + 3.0 * self.stderr


def _exceed_counts(counts: dict[str, np.ndarray], model: PopulationModel, n: int,
                   g_values: list[float], k1, n1, n0) -> None:
    """Add to ``counts`` the tables of one block whose deviation statistic exceeds each g.

    ``k1, n1, n0`` are tables of size n as :func:`~symkl.model.sample_counts`
    returns them.  Per bound name, the counts are int64 of shape
    ``(len(g_values),)`` for the label frequency and ``(len(g_values), r)``,
    one per cell, for the others.  Undefined statistics (empty label class,
    empty cell inside a log) are set infinite, so they exceed every g.
    """
    p = model.label_prob
    q = 1.0 - p
    pv = model.cond_p
    qv = model.cond_q
    k0 = n - k1
    g_arr = np.asarray(g_values)

    def add(name: str, dev: np.ndarray) -> None:
        # joint cells are one-sided; every other statistic is already absolute
        exceed = dev > g_arr.reshape((-1,) + (1,) * dev.ndim)
        counts[name] = counts.get(name, 0) + np.count_nonzero(exceed, axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        add("label_freq", np.abs(k1 / n - p))
        add("joint_cell_y1", n1 / n - p * pv)
        add("joint_cell_y0", n0 / n - q * qv)
        p_hat = n1 / k1[:, None]
        q_hat = n0 / k0[:, None]
        for name, hat, k, cond in (("conditional_cell_p", p_hat, k1, pv),
                                   ("conditional_cell_q", q_hat, k0, qv)):
            dev = np.abs(hat - cond)
            dev[k == 0, :] = np.inf
            add(name, dev)
        log_ratio_dev = np.abs(np.log(p_hat) - np.log(pv) - np.log(q_hat) + np.log(qv))
    # an empty label class leaves every cell of its side empty
    log_ratio_dev[(n1 == 0) | (n0 == 0)] = np.inf
    add("log_ratio", log_ratio_dev)


def bound_table(
    model: PopulationModel,
    n_grid,
    g_grid,
    replications: int = 0,
    master_seed: int = 0,
) -> list[BoundTableRow]:
    """Evaluate every bound over a grid of (n, g) pairs.

    Parameters
    ----------
    model : PopulationModel
        Population the bounds refer to.
    n_grid, g_grid : sequence
        Sample sizes (ints >= 1) and thresholds (positive reals); each is
        deduplicated and sorted ascending.
    replications : int
        Monte Carlo budget per sample size for the empirical frequencies;
        0 evaluates the bounds only.
    master_seed : int
        Seed of the Monte Carlo count tables.

    Returns
    -------
    list of BoundTableRow
        Sorted by (name, n, g).

    Notes
    -----
    The count tables are the blocks :func:`~symkl.model.table_blocks` gives
    the sorted grid, which :func:`~symkl.montecarlo.replicate` draws for
    the same sample sizes, replications and seed.  They are counted block
    by block, and a row's ``empirical`` is the largest count over the cells
    divided by ``replications``, the same float as the mean of the
    exceedance indicators.  Peak memory is one block of tables and temporaries.
    """
    n_values = sorted({int(n) for n in n_grid})
    g_values = sorted({float(g) for g in g_grid})
    if not n_values:
        raise ValueError("n_grid is empty")
    if not g_values:
        raise ValueError("g_grid is empty")
    if n_values[0] < 1 or n_values[-1] > MAX_COUNT:
        raise ValueError("sample sizes must be >= 1 and at most 2**63 - 1")
    if any(not math.isfinite(g) or g <= 0.0 for g in g_values):
        raise ValueError("thresholds must be positive reals")
    replications = int(replications)
    if replications < 0:
        raise ValueError(f"replications must be >= 0, got {replications}")

    counts_by_n: dict[int, dict[str, np.ndarray]] = {n: {} for n in n_values}
    for block in table_blocks(model, n_values, replications, master_seed):
        # held until the next draw, the tables halve the heap's page faults
        k1, n1, n0 = block.draw()
        _exceed_counts(counts_by_n[block.n], model, block.n, g_values, k1, n1, n0)

    rows: list[BoundTableRow] = []
    for name in BOUND_NAMES:
        for n in n_values:
            for g_index, g in enumerate(g_values):
                value = _BOUND_FUNCS[name](BoundInputs(model=model, n=n, g=g)).value
                empirical = stderr = None
                if replications > 0:
                    # worst cell: the bounds dominate every cell
                    empirical = int(counts_by_n[n][name][g_index].max()) / replications
                    stderr = math.sqrt(empirical * (1.0 - empirical) / replications)
                rows.append(BoundTableRow(name=name, n=n, g=g, bound=value,
                                          informative=value < 1.0, empirical=empirical,
                                          stderr=stderr))
    return rows
