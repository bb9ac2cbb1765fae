"""Large-sample distribution of the plug-in estimator.

Scaled by ``sqrt(n)``, the estimation error is asymptotically normal with a
variance that has a closed form: each draw ``(x, y)`` contributes a linear
influence value ``W(x, y)`` with mean zero, and the limit variance is
``Var W``.  This module computes the influence value, the exact limit
variance and its plug-in counterpart at the empirical measures, both by one
function of four moments of the influence coefficients, and the ends
``(lower, upper)`` of the resulting asymptotic confidence interval.  Each
returns floats; a degenerate table raises
:class:`~symkl.estimator.DegenerateSampleError`, as
:func:`~symkl.estimator.plug_in_estimate` does.  It checks no law: a model
was checked when it was built, and positive counts give positive empirical
laws.
"""

from __future__ import annotations

import math

import numpy as np

from .estimator import _empirical
from .model import CountTable, PopulationModel, as_real, check_type
from .streams import MAX_COUNT, as_integral

_SQRT_HALF = 0.7071067811865476  # 1/sqrt(2) rounded to double
_SQRT_HALF_LO = -4.833646656726457e-17  # 1/sqrt(2) - _SQRT_HALF
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _split(a):
    """Veltkamp split of ``a`` into two halves whose products are exact."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def normal_cdf(x):
    """Standard normal CDF: a float for a scalar, a float64 array otherwise.

    ``0.5 * erfc(-t)`` with ``t = x / sqrt 2``.  The lower tail magnifies
    the rounding error of ``t`` about ``x**2``-fold (6e-15 relative at
    x = -8), so that error, exact by Dekker's two-product, is added back
    through ``erfc'(t) = -2 exp(-t**2) / sqrt(pi)``.
    """
    # the CDF is 0 or 1 beyond +-40; clipping keeps the split below finite
    x = np.clip(as_real(x, "x", array=True), -40.0, 40.0)
    t = x * _SQRT_HALF
    x_hi, x_lo = _split(x)
    h_hi, h_lo = _split(_SQRT_HALF)
    t_lo = ((x_hi * h_hi - t) + x_hi * h_lo + x_lo * h_hi) + x_lo * h_lo + x * _SQRT_HALF_LO
    value = np.asarray(_erfc(-t), dtype=np.float64)
    value = 0.5 * (value + 2.0 / math.sqrt(math.pi) * np.exp(-t * t) * t_lo)
    return float(value) if value.ndim == 0 else value


def normal_quantile(prob: float) -> float:
    """Standard normal quantile; ``prob`` must lie in (0, 1)."""
    prob = as_real(prob, "prob", 0, 1)
    try:  # NormalDist.inv_cdf's own C routine, without statistics' decimal and fractions
        from _statistics import _normal_dist_inv_cdf
    except ImportError:  # a Python built without it
        from statistics import NormalDist
        return NormalDist().inv_cdf(prob)
    return _normal_dist_inv_cdf(prob, 0.0, 1.0)


def interval_z(level, name: str) -> float:
    """Quantile ``z`` at ``(1 + level) / 2`` of a two-sided interval; a ValueError
    names ``name`` unless ``level`` is a real in (0, 1) and ``(1 + level) / 2 < 1``."""
    level = as_real(level, name, 0, 1)
    if (1.0 + level) / 2.0 == 1.0:
        raise ValueError(f"{name} {level!r} is too close to 1: (1 + {name}) / 2 rounds to 1")
    return normal_quantile((1.0 + level) / 2.0)


def _coefficients(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sensitivities of the symmetric divergence to the label-1 and label-0
    cells of each symbol: ``b = 1 + ln(p / q) - q / p``, ``c = 1 + ln(q / p) - p / q``."""
    log_ratio = np.log(p) - np.log(q)
    return 1.0 + log_ratio - q / p, 1.0 - log_ratio - p / q


def influence_value(model: PopulationModel, x: int, y: int) -> float:
    """Influence ``W(x, y)`` of one draw on the scaled estimation error.

    Centered indicator brackets for both label classes, weighted by the
    influence coefficients and accumulated with compensated summation.
    The outcome distribution of one draw gives ``E W = 0``.
    """
    check_type(model, PopulationModel, "model")
    x = as_integral(x, "x", 0, model.r - 1)
    y = as_integral(y, "y", 0, 1)
    b, c = _coefficients(model.cond_p, model.cond_q)
    p = model.label_prob
    q = 1.0 - p
    pv = model.cond_p
    qv = model.cond_q
    ind_y1 = 1.0 if y == 1 else 0.0
    ind_y0 = 1.0 - ind_y1
    ind_x1 = np.zeros(model.r)
    ind_x0 = np.zeros(model.r)
    if y == 1:
        ind_x1[x] = 1.0
    else:
        ind_x0[x] = 1.0
    bracket_p = (ind_x1 - p * pv) / p - pv * (ind_y1 - p)
    bracket_q = (ind_x0 - q * qv) / q - qv * (ind_y0 - q)
    terms = bracket_p * b + bracket_q * c
    return math.fsum(terms.tolist())


def _variance_from_sums(p, q, s_pb, s_pbb, s_qc, s_qcc):
    """``Var W >= 0`` from the label frequencies ``p``, ``q`` and the moments
    ``s_pb = sum p_j b_j``, ``s_pbb = sum p_j b_j**2``, ``s_qc`` and ``s_qcc`` of the
    influence coefficients, on floats or arrays: the within-class variances
    ``Var_p(b) / p + Var_q(c) / q``, the delta method's value, plus the label term
    ``(q**2 s_pb - p**2 s_qc)**2 / (p q)``, the variance of the class means of ``W``:
    the known defect, as the delta method has no such term."""
    label = q * q * s_pb - p * p * s_qc
    return np.maximum((s_pbb - s_pb * s_pb) / p + (s_qcc - s_qc * s_qc) / q
                      + label * label / (p * q), 0.0)


def _limit_variance(p: float, q: float, pv: np.ndarray, qv: np.ndarray) -> float:
    """``Var W`` at label frequencies ``p``, ``q`` and positive conditional laws
    ``pv``, ``qv``, from compensated sums of the four moments."""
    b, c = _coefficients(pv, qv)
    return float(_variance_from_sums(
        p, q, *(math.fsum(terms.tolist()) for terms in (pv * b, pv * b * b, qv * c, qv * c * c))))


def exact_sigma2(model: PopulationModel) -> float:
    """Exact limit variance ``Var W`` of the population, in closed form."""
    check_type(model, PopulationModel, "model")
    return _limit_variance(model.label_prob, 1.0 - model.label_prob, model.cond_p, model.cond_q)


def plugin_sigma2(counts: CountTable) -> float:
    """Limit variance at the empirical measures of a table whose cells are
    all positive, however small a frequency; no model is built.

    Raises
    ------
    DegenerateSampleError
        Where :func:`~symkl.estimator.plug_in_estimate` raises, with its
        message: an empty label class, else an empty cell.
    """
    return _limit_variance(*_empirical(counts))


def confidence_interval(estimate: float, sigma2: float, n: int,
                        level: float) -> tuple[float, float]:
    """``(lower, upper)`` of the interval ``estimate +- z * sqrt(sigma2 / n)``,
    a point when ``sigma2`` is zero; ``z`` is :func:`interval_z` of ``level``.

    Raises
    ------
    ValueError
        If :func:`interval_z` rejects ``level``, ``estimate`` is not a
        real in (-inf, inf), ``sigma2`` is not a real in [0, inf), or ``n``
        is not an integer in [1, 2**63 - 1].
    """
    z = interval_z(level, "level")
    estimate = as_real(estimate, "estimate", -math.inf, math.inf)
    sigma2 = as_real(sigma2, "sigma2", 0, math.inf, "[)")
    half = z * math.sqrt(sigma2 / as_integral(n, "n", 1, MAX_COUNT))
    return estimate - half, estimate + half
