"""Plug-in estimation of the symmetric divergence from joint counts.

The estimator replaces the conditional laws by their empirical versions
and evaluates the symmetric divergence.  Empty label classes and empty
cells make the plug-in value undefined: by the one rule of
:func:`_empirical`, such a table raises :class:`DegenerateSampleError`
with its reason (never an infinity, never smoothed).
"""

from __future__ import annotations

import numpy as np

from .model import CountTable, _jeffreys, check_type


class DegenerateSampleError(ValueError):
    """A computation that needs a non-degenerate sample received one without."""


# Degeneracy reason codes, as the kernel's ``reason`` column stores them.
REASON_NONE = 0
REASON_EMPTY_LABEL = 1  # a label class has no draws, or too few to register in double precision
REASON_EMPTY_CELL = 2  # both classes have draws, but some cell is empty


def _empirical(counts: CountTable):
    """The label frequencies and laws ``p_n_hat, q_n_hat, p_hat, q_hat``: the one degeneracy rule.

    In the kernel's order: an empty label class (no draws, or a label-1
    frequency ``p_n_hat`` that rounds to 1), else an empty cell raises
    :class:`DegenerateSampleError`, its message starting "empty label
    class" or "zero cell".  Otherwise the plug-in value is defined.
    """
    check_type(counts, CountTable, "counts")
    m1, m0 = int(counts.n1.sum()), int(counts.n0.sum())
    n = m1 + m0
    p_n_hat = float(m1) / float(n)  # the kernel's rounding: both counts in float64 first
    if m1 == 0:
        raise DegenerateSampleError("empty label class: no samples with label 1")
    if m0 == 0:
        raise DegenerateSampleError("empty label class: no samples with label 0")
    if 1.0 - p_n_hat == 0.0:
        raise DegenerateSampleError("empty label class: label-1 frequency rounds to 1")
    for side, cells in (("p_hat", counts.n1), ("q_hat", counts.n0)):
        zero = np.flatnonzero(cells == 0)
        if zero.size:
            raise DegenerateSampleError(f"zero cell in {side} at symbol index {zero[0]}")
    return p_n_hat, float(m0) / float(n), counts.n1 / m1, counts.n0 / m0


def plug_in_estimate(counts: CountTable) -> float:
    """Symmetric divergence of the empirical conditional laws.

    Equals ``sym_kl_divergence(p_hat, q_hat)`` whenever both label classes
    are populated, the label-1 frequency is below 1 in double precision and
    every cell count is positive, however small a frequency.

    Raises
    ------
    DegenerateSampleError
        Otherwise, with the reason of :func:`_empirical`.
    """
    _, _, p_hat, q_hat = _empirical(counts)
    return _jeffreys(p_hat, q_hat)
