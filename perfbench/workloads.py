"""Seeded workload definitions: one experiment config per workload.

Each workload is a CLI subcommand, a config object as ``symkl`` reads it
from JSON, and the worker count for the timed runs.  The seed fixes every
input: the same seed gives byte-identical configs.  See README.md for why
each workload exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The worked example of the project README (r = 2).
README_MODEL = {"label_prob": 0.5, "cond_p": [0.5, 0.5], "cond_q": [0.25, 0.75]}

# Expected share of degenerate replications (some empty cell) that the
# r = 1000 model is tuned to at its smallest sample size, and the most
# it may keep at its largest.
R1000_DEGENERATE_TARGET = 0.35
R1000_DEGENERATE_MAX_LARGEST_N = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    workers: int  # --workers of the timed runs
    config: dict

    @property
    def replications_per_run(self) -> int:
        """Replications one run completes: estimator replications for
        ``simulate``, deviation draws (bound replications x |n|) for
        ``bounds-check``."""
        return self.config["replications"] * len(self.config["n_values"])


def _master_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _normalized(weights: np.ndarray) -> np.ndarray:
    vec = weights / math.fsum(weights.tolist())
    # make the sum exactly 1 within the CLI's 1e-12 simplex tolerance
    vec[np.argmax(vec)] += 1.0 - math.fsum(vec.tolist())
    return vec


def expected_degenerate_share(label_prob: float, p: np.ndarray, q: np.ndarray, n: int) -> float:
    """Poisson approximation of P(some cell of an n-draw table is empty)."""
    lam = np.concatenate([n * label_prob * p, n * (1.0 - label_prob) * q])
    return float(-np.expm1(np.sum(np.log1p(-np.exp(-lam)))))


def r1000_model(rng: np.random.Generator, n_small: int, n_large: int) -> dict:
    """Strictly positive r = 1000 model away from the null whose one small
    entry per law is solved for so that the smallest n keeps an expected
    degenerate share of ``R1000_DEGENERATE_TARGET``."""
    r = 1000
    label_prob = float(rng.uniform(0.45, 0.55))
    base_p = 1.0 + 0.5 * rng.random(r)
    base_q = 1.0 + 0.5 * rng.random(r)
    j_p, j_q = rng.choice(r, size=2, replace=False)

    def laws(eps: float) -> tuple[np.ndarray, np.ndarray]:
        p, q = base_p.copy(), base_q.copy()
        p[j_p] = eps * p.sum()
        q[j_q] = eps * q.sum()
        return _normalized(p), _normalized(q)

    # the share falls as eps grows; bisect on log(eps)
    lo, hi = math.log(1e-7), math.log(1e-3)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        p, q = laws(math.exp(mid))
        if expected_degenerate_share(label_prob, p, q, n_small) > R1000_DEGENERATE_TARGET:
            lo = mid
        else:
            hi = mid
    p, q = laws(math.exp(hi))
    share_small = expected_degenerate_share(label_prob, p, q, n_small)
    share_large = expected_degenerate_share(label_prob, p, q, n_large)
    if not 0.1 <= share_small <= 0.6 or share_large > R1000_DEGENERATE_MAX_LARGEST_N:
        raise RuntimeError(
            f"r=1000 model misses its degeneracy targets: {share_small:.3g} at "
            f"n={n_small}, {share_large:.3g} at n={n_large}"
        )
    return {"label_prob": label_prob, "cond_p": p.tolist(), "cond_q": q.tolist()}


def r50_model(rng: np.random.Generator) -> dict:
    """Strictly positive r = 50 model, smallest entry about a third of the mean."""
    label_prob = float(rng.uniform(0.3, 0.7))
    p = _normalized(1.0 + 2.0 * rng.random(50))
    q = _normalized(1.0 + 2.0 * rng.random(50))
    return {"label_prob": label_prob, "cond_p": p.tolist(), "cond_q": q.tolist()}


def make_workloads(seed: int) -> dict[str, Workload]:
    """All workloads for one seed, keyed by name."""
    rng = np.random.default_rng([seed, 0x5EED])
    mc_r2 = Workload(
        name="mc-r2",
        command="simulate",
        workers=1,
        config={
            "model": README_MODEL,
            "n_values": [100, 1000, 10000],
            "replications": 4000,
            "master_seed": _master_seed(rng),
            "ci_level": 0.95,
            "checks": ["lln", "clt", "coverage"],
        },
    )
    n_values = [20000, 200000]
    mc_r1000 = Workload(
        name="mc-r1000-w2",
        command="simulate",
        workers=2,
        config={
            "model": r1000_model(rng, *n_values),
            "n_values": n_values,
            "replications": 3000,
            "master_seed": _master_seed(rng),
            "ci_level": 0.95,
            "checks": ["lln"],
        },
    )
    bounds_r50 = Workload(
        name="bounds-r50",
        command="bounds-check",
        workers=1,
        config={
            "model": r50_model(rng),
            "n_values": [100, 1000, 10000],
            "replications": 100000,
            "master_seed": _master_seed(rng),
            "ci_level": 0.95,
            "checks": ["bounds"],
        },
    )
    return {w.name: w for w in (mc_r2, mc_r1000, bounds_r50)}
