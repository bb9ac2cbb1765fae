"""Finite-sample exponential tail bounds for the empirical measures.

Closed-form Hoeffding-style bounds on the deviation probabilities of the
empirical label frequency, the joint (symbol, label) cell frequencies, the
conditional cell frequencies within each label class, and the plug-in
log-ratio.  Every bound is uniform over the alphabet (the per-cell bounds
dominate the worst cell), monotone nonincreasing in both ``n`` and ``g``,
and valid for all ``n >= 1`` and ``g > 0``; values of 1 or more are
trivially true and flagged uninformative.

:func:`~symkl.montecarlo.bound_table`, the one public way to the bounds,
validates the (n, g) grid; with its default of 0 replications it returns
the closed forms alone.  This module draws nothing: ``bound_table`` feeds
the estimator's count tables, in row slices of each block, to
:func:`_exceed_counts`, which counts in place, and the sums to
:func:`bound_table_rows`.  A table exceeds g unless its statistic is at
most g, so an undefined one (empty label class, empty cell inside a log)
exceeds every g, which only pushes the empirical frequency up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PopulationModel

DEFAULT_G_GRID = (0.05, 0.1, 0.2, 0.5)

BOUND_NAMES = (
    "conditional_cell_p",
    "conditional_cell_q",
    "joint_cell_y0",
    "joint_cell_y1",
    "label_freq",
    "log_ratio",
)


def _conditional_cell_terms(n: int, g: float, side_p: float, v_min: float, v_max: float,
                            label_max: float, d_side: float) -> float:
    return (
        2.0 * math.exp(-n * g * g * side_p**2 / (2.0**7 * label_max**2 * v_max**2))
        + 2.0 * math.exp(-n * g * g * side_p**2 / (8.0 * d_side**2))
        + math.exp(-n * side_p**2 * v_min**2 / (2.0 * d_side**2))
        + math.exp(-n * side_p**2 / (8.0 * label_max**2))
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


def _bound_values(model: PopulationModel, n: int, g: float) -> dict[str, float]:
    """The six bounds at a validated sample size ``n`` and threshold ``g``, by name.

    With ``m = max(p, q)`` and, per label side ``s`` (``p`` with ``cond_p``,
    ``q`` with ``cond_q``) of extreme entries ``v_min``, ``v_max``,
    ``d = max(s v_max, 1 - s v_min)``:

    - ``label_freq``: ``P(|hat_p_n - p| > g) <= 2 exp(-n g^2 / (2 m^2))``;
      the label-0 frequency deviates by exactly the same amount.
    - ``joint_cell_y1``, ``joint_cell_y0``: ``2 exp(-n g^2 / (2 d^2))``,
      the upper tail of every joint (symbol, label) cell frequency.
    - ``conditional_cell_p``, ``conditional_cell_q``: four terms for the
      worst conditional cell frequency of the side.
    - ``log_ratio``: ``P(|ln(hat_p_j q_j / (p_j hat_q_j))| > g)``,
      uniformly in the symbol, by twelve terms, six per side.
    """
    p = model.label_prob
    q = 1.0 - p
    label_max = max(p, q)
    values = {"label_freq": 2.0 * math.exp(-n * g * g / (2.0 * label_max**2)), "log_ratio": 0.0}
    for side, vec, cond_name, joint_name in (
        (p, model.cond_p, "conditional_cell_p", "joint_cell_y1"),
        (q, model.cond_q, "conditional_cell_q", "joint_cell_y0"),
    ):
        v_min = float(vec.min())
        v_max = float(vec.max())
        d = max(side * v_max, 1.0 - side * v_min)
        values[joint_name] = 2.0 * math.exp(-n * g * g / (2.0 * d**2))
        values[cond_name] = _conditional_cell_terms(n, g, side, v_min, v_max, label_max, d)
        values["log_ratio"] += _log_ratio_side(n, g, side, v_min, v_max, label_max, d)
    return values


@dataclass(frozen=True)
class BoundTableRow:
    """One grid point: a bound and, optionally, its empirical frequency."""

    name: str
    n: int
    g: float
    bound: float
    empirical: float | None
    stderr: float | None

    @property
    def informative(self) -> bool:
        """A bound of 1 or more is trivially true."""
        return self.bound < 1.0

    @property
    def margin(self) -> float | None:
        """``empirical - (bound + 3 stderr)``, None without an empirical frequency:
        Monte Carlo noise alone may lift the frequency above the bound, so the
        gate allows three binomial standard errors, and a positive margin misses."""
        if self.empirical is None:
            return None
        return self.empirical - (self.bound + 3.0 * self.stderr)

    def empirically_valid(self) -> bool:
        """No observed frequency, or one whose :attr:`margin` is at most 0."""
        return self.empirical is None or self.margin <= 0.0


def _exceed_counts(model: PopulationModel, n: int, g_values, n1, n0) -> dict[str, np.ndarray]:
    """Count the tables whose deviation statistic exceeds each g.

    ``n1, n0`` are tables of size n, a block or a row slice of one, as
    :func:`~symkl.model.sample_counts` returns them.  Per bound name, the
    counts are int64 of shape ``(len(g_values),)`` for the label frequency
    and ``(len(g_values), r)``, one per cell, for the others; each
    ``(rows, r)`` statistic is computed in place in one scratch array.  A
    table exceeds g unless its statistic is at most g, so the NaN or
    infinity of an undefined statistic exceeds every g.
    """
    p = model.label_prob
    q = 1.0 - p
    pv = model.cond_p
    qv = model.cond_q
    k1 = n1.sum(axis=1, dtype=np.int64)  # exact: a row holds its label-1 draws
    k0 = n - k1
    k1, p_hat, q_hat = (a.astype(np.float64) for a in (k1, n1, n0))
    dev = np.empty_like(p_hat)
    ones = np.ones(len(k1), np.float32)
    counts: dict[str, np.ndarray] = {}

    def add(name: str, stat: np.ndarray) -> None:
        # joint cells one-sided, the rest absolute; NaN (0/0, -inf + inf) is never
        # <= g, so it exceeds; float32 sums of <= 2**16 0/1s are exact
        hits = np.empty(stat.shape, np.float32)
        within = [ones @ np.less_equal(stat, g, out=hits) for g in g_values]
        counts[name] = len(ones) - np.array(within, np.int64)

    with np.errstate(divide="ignore", invalid="ignore"):
        add("label_freq", np.abs(k1 / n - p))
        add("joint_cell_y1", np.subtract(np.divide(p_hat, n, out=dev), p * pv, out=dev))
        add("joint_cell_y0", np.subtract(np.divide(q_hat, n, out=dev), q * qv, out=dev))
        p_hat /= k1[:, None]
        q_hat /= k0[:, None]
        for name, hat, cond in (("conditional_cell_p", p_hat, pv),
                                ("conditional_cell_q", q_hat, qv)):
            add(name, np.abs(np.subtract(hat, cond, out=dev), out=dev))
        np.subtract(np.log(p_hat, out=p_hat), np.log(pv), out=dev)
        np.subtract(dev, np.log(q_hat, out=q_hat), out=dev)
        add("log_ratio", np.abs(np.add(dev, np.log(qv), out=dev), out=dev))
    return counts


def bound_table_rows(model: PopulationModel, n_values, g_values, replications: int,
                     counts) -> list[BoundTableRow]:
    """The rows of :func:`~symkl.montecarlo.bound_table`, sorted by (name, n, g).

    ``counts[name, n]`` sums the :func:`_exceed_counts` of the ``replications``
    tables of size n.  ``empirical`` is the worst cell's count over
    ``replications`` (the mean of its exceedance indicators), none when 0.
    A bound that is not a number >= 0 raises ``ValueError``.
    """
    values = {(n, g): _bound_values(model, n, g) for n in n_values for g in g_values}
    rows: list[BoundTableRow] = []
    for name in BOUND_NAMES:
        for n in n_values:
            for g_index, g in enumerate(g_values):
                value = values[n, g][name]
                if not value >= 0.0:
                    raise ValueError(f"{name} at n={n} g={g} is {value!r}, not a bound >= 0")
                empirical = stderr = None
                if replications > 0:
                    # worst cell: the bounds dominate every cell
                    empirical = int(counts[name, n][g_index].max()) / replications
                    stderr = math.sqrt(empirical * (1.0 - empirical) / replications)
                rows.append(BoundTableRow(name=name, n=n, g=g, bound=value,
                                          empirical=empirical, stderr=stderr))
    return rows
