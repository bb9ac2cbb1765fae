"""Plug-in estimation of the symmetric divergence from joint counts.

The estimator replaces the conditional laws by their empirical versions
and evaluates the symmetric divergence.  Empty label classes and empty
cells make the plug-in value undefined; such samples are flagged
degenerate by the one rule of :func:`_empirical` and carry no value
(never an infinity, never smoothed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CountTable, _jeffreys


class DegenerateSampleError(ValueError):
    """A computation that needs a non-degenerate sample received one without."""


# Degeneracy reason codes, as the kernel's ``reason`` column stores them.
REASON_NONE = 0
REASON_EMPTY_LABEL = 1  # a label class has no draws, or too few to register in double precision
REASON_EMPTY_CELL = 2  # both classes have draws, but some cell is empty


def _empirical(counts: CountTable):
    """``p_hat, q_hat, p_n_hat, n, reason`` of a count table: the one degeneracy rule.

    In the kernel's order: an empty label class (no draws, or a label-1
    frequency ``p_n_hat`` that rounds to 1), else an empty cell.  ``reason``
    starts "empty label class" or "zero cell", and is None, with ``p_hat``
    and ``q_hat`` set, exactly when the plug-in value is defined.  Above
    2**53 draws the kernel's frequency may differ from ``p_n_hat`` in the last bit.
    """
    m1 = int(counts.n1.sum())
    n = m1 + int(counts.n0.sum())
    p_n_hat = m1 / n
    if m1 == 0:
        reason = "empty label class: no samples with label 1"
    elif m1 == n:
        reason = "empty label class: no samples with label 0"
    elif 1.0 - p_n_hat == 0.0:
        reason = "empty label class: label-1 frequency rounds to 1"
    else:
        for side, cells in (("p_hat", counts.n1), ("q_hat", counts.n0)):
            zero = np.flatnonzero(cells == 0)
            if zero.size:
                return None, None, p_n_hat, n, f"zero cell in {side} at symbol index {zero[0]}"
        return counts.n1 / m1, counts.n0 / (n - m1), p_n_hat, n, None
    return None, None, p_n_hat, n, reason


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of one plug-in estimation.

    ``value`` is present exactly when ``degenerate`` is False; a degenerate
    result carries a human-readable ``reason`` instead.
    """

    value: float | None
    degenerate: bool
    reason: str | None
    n: int

    def __post_init__(self) -> None:
        if self.degenerate != (self.value is None):
            raise ValueError("value must be present exactly when not degenerate")
        if self.degenerate and not self.reason:
            raise ValueError("degenerate results need a reason")


def plug_in_estimate(counts: CountTable) -> EstimateResult:
    """Symmetric divergence of the empirical conditional laws.

    Equals ``sym_kl_divergence(p_hat, q_hat)`` whenever both label classes
    are populated, the label-1 frequency is below 1 in double precision and
    every cell count is positive, however small a frequency; otherwise a
    degenerate flagged result with no value and the reason of :func:`_empirical`.
    """
    p_hat, q_hat, _, n, reason = _empirical(counts)
    if reason is not None:
        return EstimateResult(value=None, degenerate=True, reason=reason, n=n)
    return EstimateResult(value=_jeffreys(p_hat, q_hat), degenerate=False, reason=None, n=n)

