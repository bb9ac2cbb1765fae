"""The exact finite-n law of the harness at alphabet size r = 2.

At r = 2 every count table of ``n`` draws can be listed with its
multinomial probability, so the coverage and the degenerate share that
``run_experiment`` estimates by Monte Carlo have exact values, with no
noise.  A table is ``(k1, a, b)``: ``k1 ~ Bin(n, label_prob)`` label-1
draws, of which ``a ~ Bin(k1, p_0)`` show symbol 0, and ``b ~ Bin(n - k1,
q_0)`` of the label-0 draws show symbol 0.  Each binomial support is cut
at 12 standard deviations from its mean, and the mass kept is checked.
"""

import math

import numpy as np

from symkl import ReplicationColumns, normal_quantile
from symkl.montecarlo import replication_columns

SUPPORT_SDS = 12.0
MASS_ATOL = 1e-9


def _log_factorials(n: int) -> np.ndarray:
    """``log(k!)`` for k = 0 .. n."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))


def _binomial(log_fact: np.ndarray, n: int, prob: float) -> tuple[np.ndarray, np.ndarray]:
    """The support of Bin(n, prob) within ``SUPPORT_SDS`` sd of its mean, and its log-pmf."""
    spread = SUPPORT_SDS * math.sqrt(n * prob * (1.0 - prob))
    k = np.arange(max(0, math.floor(n * prob - spread)),
                  min(n, math.ceil(n * prob + spread)) + 1)
    log_pmf = (log_fact[n] - log_fact[k] - log_fact[n - k]
               + k * math.log(prob) + (n - k) * math.log1p(-prob))
    return k, log_pmf


def exact_law(model, n: int, level: float = 0.95) -> tuple[float, float]:
    """Exact ``(coverage, degenerate share)`` of ``n``-draw tables of an r = 2 ``model``.

    The coverage is conditional on a non-degenerate table, as the harness
    reports it.  The tables of each label-1 count ``k1`` are one block
    for :func:`~symkl.montecarlo.replication_columns`, whose columns are the
    records at ``n``.
    """
    assert model.r == 2
    log_fact = _log_factorials(n)
    truth = model.sym_divergence()
    z = normal_quantile((1.0 + level) / 2.0)
    p0, q0 = float(model.cond_p[0]), float(model.cond_q[0])
    mass = covered = degenerate = 0.0
    for k1, log_k1 in zip(*_binomial(log_fact, n, model.label_prob)):
        k1, k0 = int(k1), n - int(k1)
        a, log_a = _binomial(log_fact, k1, p0)
        b, log_b = _binomial(log_fact, k0, q0)
        a, b = (grid.ravel() for grid in np.meshgrid(a, b, indexing="ij"))
        weight = np.exp(log_k1 + np.add.outer(log_a, log_b)).ravel()
        n1 = np.stack((a, k1 - a), axis=1)
        n0 = np.stack((b, k0 - b), axis=1)
        columns = ReplicationColumns(n, *replication_columns(n1, n0), truth, z)
        mass += weight.sum()
        covered += weight[columns.covered].sum()
        degenerate += weight[columns.degenerate].sum()
    assert abs(mass - 1.0) <= MASS_ATOL, mass
    return float(covered / (mass - degenerate)), float(degenerate / mass)
