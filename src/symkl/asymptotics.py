"""Large-sample distribution of the plug-in estimator.

Scaled by ``sqrt(n)``, the estimation error is asymptotically normal with a
variance that has a closed form: each draw ``(x, y)`` contributes a linear
influence value ``W(x, y)`` with mean zero, and the limit variance is
``Var W``.  This module computes the influence value, the exact limit
variance by enumerating the ``2 r`` possible outcomes of one draw, its
plug-in counterpart evaluated at the empirical measures, and the resulting
asymptotic confidence interval.  It checks no law: a model was checked when
it was built, and positive counts give positive empirical laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .estimator import DegenerateSampleError, EstimateResult, _empirical
from .model import CountTable, PopulationModel, as_real

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
    """Standard normal quantile; ``prob`` must lie strictly in (0, 1)."""
    prob = as_real(prob, "prob")
    if not 0.0 < prob < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {prob!r}")
    return NormalDist().inv_cdf(prob)


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
    x = int(x)
    y = int(y)
    if not 0 <= x < model.r:
        raise ValueError(f"symbol index must lie in [0, {model.r}), got {x}")
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y}")
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


@dataclass(frozen=True)
class VarianceResult:
    """Limit variance together with the enumerated mean as a self-check.

    ``sigma2 >= 0`` always; ``mean_check`` is the enumerated ``E W`` and
    stays below 1e-12 in magnitude for any valid model.
    """

    sigma2: float
    mean_check: float


def _influence_table(label_prob: float, pv: np.ndarray, qv: np.ndarray) -> VarianceResult:
    """``Var W`` over the table of the 2r draw outcomes of a positive law.

    The constant-in-j parts of the bracket collapse into two inner products,
    leaving a closed per-outcome form (label-1 outcomes first).
    """
    b, c = _coefficients(pv, qv)
    p = label_prob
    q = 1.0 - p
    s_pb = math.fsum((pv * b).tolist())
    s_qc = math.fsum((qv * c).tolist())
    w1 = b / p - (2.0 - p) * s_pb - p * s_qc
    w0 = c / q - q * s_pb - (2.0 - q) * s_qc
    probs = np.concatenate([p * pv, q * qv])
    values = np.concatenate([w1, w0])
    mean = math.fsum((probs * values).tolist())
    second = math.fsum((probs * values * values).tolist())
    sigma2 = second - mean * mean
    if sigma2 < 0.0:
        sigma2 = 0.0
    return VarianceResult(sigma2=sigma2, mean_check=mean)


def exact_sigma2(model: PopulationModel) -> VarianceResult:
    """Exact limit variance ``Var W`` by enumeration of all 2r outcomes."""
    return _influence_table(model.label_prob, model.cond_p, model.cond_q)


def plugin_sigma2(counts: CountTable) -> VarianceResult:
    """Limit variance at the empirical measures of a table whose cells are
    all positive, however small a frequency; no model is built.

    Raises
    ------
    DegenerateSampleError
        If :func:`~symkl.estimator.plug_in_estimate` flags the table: an empty
        label class (no draws, or a label-1 frequency that rounds to 1), else
        an empty cell; the message is the estimate's reason.
    """
    p_hat, q_hat, p_n_hat, _, reason = _empirical(counts)
    if reason is not None:
        raise DegenerateSampleError(reason)
    return _influence_table(p_n_hat, p_hat, q_hat)


@dataclass(frozen=True)
class ConfidenceInterval:
    """Two-sided asymptotic interval for the symmetric divergence.

    ``degenerate_variance`` marks the collapsed (point) interval produced
    when the plug-in variance is zero.
    """

    lower: float
    upper: float
    level: float
    n: int
    degenerate_variance: bool

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise ValueError("interval bounds are out of order")

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def confidence_interval(
    estimate: EstimateResult, variance: VarianceResult, level: float
) -> ConfidenceInterval:
    """Interval ``estimate +- z * sqrt(sigma2 / n)`` at the given level.

    ``z`` is the standard normal quantile at ``(1 + level) / 2``.  A zero
    variance yields the flagged point interval.

    Raises
    ------
    DegenerateSampleError
        If the estimate itself is degenerate.
    ValueError
        If ``level`` is outside (0, 1).
    """
    if estimate.degenerate:
        raise DegenerateSampleError(
            f"no interval for a degenerate estimate ({estimate.reason})"
        )
    level = as_real(level, "level")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie strictly in (0, 1), got {level!r}")
    value = estimate.value
    if variance.sigma2 == 0.0:
        return ConfidenceInterval(
            lower=value, upper=value, level=level, n=estimate.n, degenerate_variance=True
        )
    z = normal_quantile((1.0 + level) / 2.0)
    half = z * math.sqrt(variance.sigma2 / estimate.n)
    return ConfidenceInterval(
        lower=value - half,
        upper=value + half,
        level=level,
        n=estimate.n,
        degenerate_variance=False,
    )
