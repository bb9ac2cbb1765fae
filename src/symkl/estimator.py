"""Plug-in estimation of the symmetric divergence from joint counts.

The estimator replaces the conditional laws by their empirical versions
and evaluates the symmetric divergence.  Empty label classes and empty
cells make the plug-in value undefined; such samples are flagged
degenerate and carry no value (never an infinity, never smoothed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CountTable, _jeffreys


class DegenerateSampleError(ValueError):
    """A computation that needs a non-degenerate sample received one without."""


@dataclass(frozen=True, eq=False)
class EmpiricalMeasures:
    """Empirical conditional laws and label frequencies from a count table.

    Attributes
    ----------
    p_hat, q_hat : numpy.ndarray or None
        Per-symbol frequencies within each label class; ``None`` when that
        class has no samples.
    p_n_hat, q_n_hat : float
        Empirical label frequencies; they sum to 1 exactly.
    n : int
        Total sample size.
    """

    p_hat: np.ndarray | None
    q_hat: np.ndarray | None
    p_n_hat: float
    q_n_hat: float
    n: int


def empirical_measures(counts: CountTable) -> EmpiricalMeasures:
    """Compute empirical measures; never raises on degenerate tables."""
    m1 = int(counts.n1.sum())
    m0 = int(counts.n0.sum())
    n = m1 + m0
    p_hat = counts.n1 / m1 if m1 > 0 else None
    q_hat = counts.n0 / m0 if m0 > 0 else None
    p_n_hat = m1 / n
    # Complement rather than m0/n so the two frequencies sum to 1 exactly.
    q_n_hat = 1.0 - p_n_hat
    return EmpiricalMeasures(p_hat=p_hat, q_hat=q_hat, p_n_hat=p_n_hat, q_n_hat=q_n_hat, n=n)


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


def _degeneracy_reason(emp: EmpiricalMeasures) -> str | None:
    if emp.p_hat is None:
        return "empty label class: no samples with label 1"
    if emp.q_hat is None:
        return "empty label class: no samples with label 0"
    zero_p = np.flatnonzero(emp.p_hat == 0.0)
    if zero_p.size:
        return f"zero cell in p_hat at symbol index {int(zero_p[0])}"
    zero_q = np.flatnonzero(emp.q_hat == 0.0)
    if zero_q.size:
        return f"zero cell in q_hat at symbol index {int(zero_q[0])}"
    return None


def plug_in_estimate(counts: CountTable) -> EstimateResult:
    """Symmetric divergence of the empirical conditional laws.

    Equals ``sym_kl_divergence(p_hat, q_hat)`` whenever both label classes
    are populated and every cell count is positive, however small a
    frequency; otherwise a degenerate flagged result with no value.
    """
    emp = empirical_measures(counts)
    reason = _degeneracy_reason(emp)
    if reason is not None:
        return EstimateResult(value=None, degenerate=True, reason=reason, n=emp.n)
    value = _jeffreys(emp.p_hat, emp.q_hat)
    return EstimateResult(value=value, degenerate=False, reason=None, n=emp.n)

