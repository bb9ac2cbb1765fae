"""Monte Carlo verification harness.

Runs replicated sampling experiments against a known population and checks
the asymptotic story end to end: the estimation error vanishes (strictly
shrinking median absolute error along the sample-size grid), the scaled
error standardized by the exact limit sigma is close to standard normal in
Kolmogorov-Smirnov distance, the plug-in confidence intervals cover the
truth at close to their nominal level, and the exponential tail bounds
dominate the observed deviation frequencies.

Standardization for the normality check uses the exact limit variance of
the population; interval coverage uses the per-replication plug-in
variance.  Replications whose plug-in estimate is undefined are recorded
as degenerate and excluded from the statistics, never resampled.

Every replication draws from its own stream keyed by
``(master_seed, n_index, rep_index)``, so results are reproducible and
identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .asymptotics import confidence_interval, exact_sigma2, normal_cdf, plugin_sigma2
from .bounds import DEFAULT_G_GRID, BoundTableRow, bound_table
from .estimator import plug_in_estimate
from .model import PopulationModel, sample_batch
from .streams import N_INDEX_LIMIT, REP_INDEX_LIMIT, replication_stream

CHECK_NAMES = ("lln", "clt", "coverage", "bounds")

# Fixed descriptive thresholds for the pass/fail checks.
KS_THRESHOLD = 0.04
COVERAGE_TOLERANCE = 0.02

# Two conditional laws closer than this are treated as equal (the null);
# the scaled error degenerates there and normality must not be checked.
NULL_ATOL = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one replicated experiment.

    Attributes
    ----------
    model : PopulationModel
        Population to sample from.
    n_values : tuple of int
        At most ``2**16`` strictly increasing sample sizes, each >= 1.
    replications : int
        Replications per sample size, in ``[1, 2**32]``.
    master_seed : int
        Seed for the replication streams, in ``[0, 2**64)``.
    ci_level : float
        Confidence level in (0, 1).
    checks : tuple of str
        Subset of ``CHECK_NAMES`` to evaluate after the run.
    """

    model: PopulationModel
    n_values: tuple[int, ...]
    replications: int
    master_seed: int
    ci_level: float = 0.95
    checks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n_values = tuple(int(n) for n in self.n_values)
        if not n_values:
            raise ValueError("n_values is empty")
        if len(n_values) > N_INDEX_LIMIT:
            raise ValueError(f"at most {N_INDEX_LIMIT} sample sizes fit the stream key")
        if any(n < 1 for n in n_values):
            raise ValueError("sample sizes must be >= 1")
        if any(b <= a for a, b in zip(n_values, n_values[1:])):
            raise ValueError("n_values must be strictly increasing")
        replications = int(self.replications)
        if not 1 <= replications <= REP_INDEX_LIMIT:
            raise ValueError(
                f"replications must be in [1, {REP_INDEX_LIMIT}], got {replications}"
            )
        master_seed = int(self.master_seed)
        if not 0 <= master_seed < 1 << 64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        level = float(self.ci_level)
        if not 0.0 < level < 1.0:
            raise ValueError(f"ci_level must lie strictly in (0, 1), got {level!r}")
        checks = tuple(self.checks)
        unknown = [c for c in checks if c not in CHECK_NAMES]
        if unknown:
            raise ValueError(f"unknown checks {unknown}; valid names are {CHECK_NAMES}")
        if len(set(checks)) != len(checks):
            raise ValueError("checks contains duplicates")
        at_null = bool(
            np.all(np.abs(self.model.cond_p - self.model.cond_q) < NULL_ATOL)
        )
        if at_null and "clt" in checks:
            raise ValueError(
                "clt check is unavailable when cond_p equals cond_q: "
                "the scaled error degenerates at the null"
            )
        if "lln" in checks and len(n_values) < 2:
            raise ValueError("lln check needs at least 2 sample sizes")
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "replications", replications)
        object.__setattr__(self, "master_seed", master_seed)
        object.__setattr__(self, "ci_level", level)
        object.__setattr__(self, "checks", checks)


@dataclass(frozen=True)
class ReplicationRecord:
    """Outcome of one replication; value fields are None when degenerate."""

    rep_index: int
    n: int
    estimate: float | None
    eta: float | None
    scaled_eta: float | None
    sigma2_hat: float | None
    ci_lower: float | None
    ci_upper: float | None
    covered: bool | None
    degenerate: bool


@dataclass(frozen=True)
class SampleSizeSummary:
    """Statistics of the non-degenerate replications at one sample size."""

    n: int
    replications: int
    degenerate_count: int
    eta_mean: float | None
    eta_median: float | None
    eta_variance: float | None
    scaled_eta_mean: float | None
    scaled_eta_median: float | None
    scaled_eta_variance: float | None
    median_abs_eta: float | None
    ks_normalized: float | None
    coverage: float | None


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check with a human-readable detail line."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ExperimentSummary:
    """Experiment-level statistics and check outcomes."""

    true_divergence: float
    sigma2_exact: float
    ci_level: float
    per_n: tuple[SampleSizeSummary, ...]
    checks: tuple[CheckResult, ...]
    bound_rows: tuple[BoundTableRow, ...]

    @property
    def all_checks_passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class ExperimentResult:
    """Records sorted by (n, rep_index) plus their summary."""

    records: tuple[ReplicationRecord, ...]
    summary: ExperimentSummary


def run_replication(
    model: PopulationModel,
    n: int,
    ci_level: float,
    true_divergence: float,
    master_seed: int,
    n_index: int,
    rep_index: int,
) -> ReplicationRecord:
    """Sample one batch and compute estimate, error, variance, interval."""
    rng = replication_stream(master_seed, n_index, rep_index)
    counts = sample_batch(model, n, rng)
    est = plug_in_estimate(counts)
    if est.degenerate:
        return ReplicationRecord(
            rep_index=rep_index,
            n=n,
            estimate=None,
            eta=None,
            scaled_eta=None,
            sigma2_hat=None,
            ci_lower=None,
            ci_upper=None,
            covered=None,
            degenerate=True,
        )
    eta = est.value - true_divergence
    variance = plugin_sigma2(counts)
    ci = confidence_interval(est, variance, ci_level)
    return ReplicationRecord(
        rep_index=rep_index,
        n=n,
        estimate=est.value,
        eta=eta,
        scaled_eta=math.sqrt(n) * eta,
        sigma2_hat=variance.sigma2,
        ci_lower=ci.lower,
        ci_upper=ci.upper,
        covered=ci.contains(true_divergence),
        degenerate=False,
    )


def _chunk_records(args) -> list[ReplicationRecord]:
    config, n_index, start, stop = args
    n = config.n_values[n_index]
    truth = config.model.sym_divergence()
    return [
        run_replication(
            config.model, n, config.ci_level, truth,
            config.master_seed, n_index, rep,
        )
        for rep in range(start, stop)
    ]


def ks_statistic(values, cdf=normal_cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a continuous CDF.

    ``max_i max(i/m - F(x_(i)), F(x_(i)) - (i-1)/m)`` over the sorted
    sample of size m.
    """
    arr = np.sort(np.asarray(values, dtype=np.float64))
    m = arr.size
    if m == 0:
        raise ValueError("ks_statistic needs a nonempty sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("ks_statistic needs finite values")
    grid = np.arange(1, m + 1, dtype=np.float64)
    cdf_vals = np.asarray(cdf(arr), dtype=np.float64)
    d_plus = np.max(grid / m - cdf_vals)
    d_minus = np.max(cdf_vals - (grid - 1.0) / m)
    return float(max(d_plus, d_minus))


def coverage_rate(records) -> float:
    """Fraction of non-degenerate records whose interval covers the truth.

    Raises
    ------
    ValueError
        If every record is degenerate.
    """
    covered = [r.covered for r in records if not r.degenerate]
    if not covered:
        raise ValueError("coverage_rate needs at least one non-degenerate record")
    return sum(covered) / len(covered)


def lln_curve(records) -> dict[int, float]:
    """Median absolute error per sample size, keyed by n in ascending order.

    Needs records at two or more distinct sample sizes.
    """
    by_n: dict[int, list[float]] = {}
    for rec in records:
        if not rec.degenerate:
            by_n.setdefault(rec.n, []).append(abs(rec.eta))
    if len(by_n) < 2:
        raise ValueError("lln_curve needs records at >= 2 distinct sample sizes")
    return {n: float(np.median(by_n[n])) for n in sorted(by_n)}


def _variance(arr: np.ndarray) -> float | None:
    if arr.size < 2:
        return None
    return float(np.var(arr, ddof=1))


def _summarize_n(
    n: int, records: list[ReplicationRecord], sigma_exact: float
) -> SampleSizeSummary:
    replications = len(records)
    valid = [r for r in records if not r.degenerate]
    degenerate_count = len(records) - len(valid)
    if not valid:
        return SampleSizeSummary(
            n=n, replications=replications, degenerate_count=degenerate_count,
            eta_mean=None, eta_median=None, eta_variance=None,
            scaled_eta_mean=None, scaled_eta_median=None, scaled_eta_variance=None,
            median_abs_eta=None, ks_normalized=None, coverage=None,
        )
    eta = np.array([r.eta for r in valid])
    scaled = np.array([r.scaled_eta for r in valid])
    ks = None
    if sigma_exact > 0.0:
        ks = ks_statistic(scaled / sigma_exact)
    return SampleSizeSummary(
        n=n,
        replications=replications,
        degenerate_count=degenerate_count,
        eta_mean=float(eta.mean()),
        eta_median=float(np.median(eta)),
        eta_variance=_variance(eta),
        scaled_eta_mean=float(scaled.mean()),
        scaled_eta_median=float(np.median(scaled)),
        scaled_eta_variance=_variance(scaled),
        median_abs_eta=float(np.median(np.abs(eta))),
        ks_normalized=ks,
        coverage=coverage_rate(valid),
    )


def _check_lln(records) -> CheckResult:
    try:
        curve = lln_curve(records)
    except ValueError as exc:
        return CheckResult(name="lln", passed=False, detail=str(exc))
    medians = list(curve.values())
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    detail = "median |error| by n: " + ", ".join(
        f"{n}: {v:.6g}" for n, v in curve.items()
    )
    return CheckResult(name="lln", passed=decreasing, detail=detail)


def _check_clt(summary_by_n: dict[int, SampleSizeSummary], largest_n: int) -> CheckResult:
    ks = summary_by_n[largest_n].ks_normalized
    if ks is None:
        return CheckResult(
            name="clt", passed=False,
            detail=f"no usable replications at n={largest_n}",
        )
    return CheckResult(
        name="clt",
        passed=ks <= KS_THRESHOLD,
        detail=f"ks={ks:.6g} at n={largest_n} (threshold {KS_THRESHOLD})",
    )


def _check_coverage(
    summary_by_n: dict[int, SampleSizeSummary], largest_n: int, level: float
) -> CheckResult:
    cov = summary_by_n[largest_n].coverage
    if cov is None:
        return CheckResult(
            name="coverage", passed=False,
            detail=f"no usable replications at n={largest_n}",
        )
    return CheckResult(
        name="coverage",
        passed=abs(cov - level) <= COVERAGE_TOLERANCE,
        detail=(
            f"coverage={cov:.4f} at n={largest_n} "
            f"(nominal {level}, tolerance {COVERAGE_TOLERANCE})"
        ),
    )


def check_bound_rows(rows) -> CheckResult:
    """Fold a bound table into one pass/fail result."""
    bad = [r for r in rows if not r.empirically_valid()]
    if bad:
        worst = bad[0]
        return CheckResult(
            name="bounds",
            passed=False,
            detail=(
                f"{len(bad)} grid points exceed their bound; first: "
                f"{worst.name} n={worst.n} g={worst.g} "
                f"empirical={worst.empirical:.6g} bound={worst.bound:.6g}"
            ),
        )
    return CheckResult(
        name="bounds",
        passed=True,
        detail=f"all {len(rows)} grid points within bound + 3 stderr",
    )


def replicate(config: ExperimentConfig, workers: int = 1) -> tuple[ReplicationRecord, ...]:
    """Run every replication of ``config``; records sorted by (n, rep_index).

    Parameters
    ----------
    config : ExperimentConfig
        What to run.
    workers : int
        Process count for replication batches, capped at the CPU count.
        Results are byte-for-byte independent of this value: every
        replication uses its own stream and records are ordered by
        (n, rep_index).
    """
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # a fork pool starts all of its processes at once
    workers = min(workers, os.cpu_count() or 1)

    tasks = []
    chunk = max(1, math.ceil(config.replications / (workers * 4)))
    for n_index in range(len(config.n_values)):
        for start in range(0, config.replications, chunk):
            stop = min(start + chunk, config.replications)
            tasks.append((config, n_index, start, stop))

    if workers == 1:
        chunks = map(_chunk_records, tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_chunk_records, tasks))
    records: list[ReplicationRecord] = []
    for part in chunks:
        records.extend(part)
    records.sort(key=lambda r: (r.n, r.rep_index))
    return tuple(records)


def evaluate(config: ExperimentConfig, records) -> ExperimentSummary:
    """Summarize ``records`` per sample size and evaluate the requested checks.

    ``records`` come from :func:`replicate`; ``per_n`` covers the sample
    sizes that have records, so it is empty when there are none.  The
    bounds check draws its own deviation samples and needs no records;
    the other checks do.
    """
    sigma2 = exact_sigma2(config.model).sigma2
    by_n: dict[int, list[ReplicationRecord]] = {}
    for rec in records:
        by_n.setdefault(rec.n, []).append(rec)
    summary_by_n = {n: _summarize_n(n, recs, math.sqrt(sigma2)) for n, recs in by_n.items()}

    bound_rows: tuple[BoundTableRow, ...] = ()
    checks: list[CheckResult] = []
    largest_n = config.n_values[-1]
    for name in config.checks:
        if name == "lln":
            checks.append(_check_lln(records))
        elif name == "clt":
            checks.append(_check_clt(summary_by_n, largest_n))
        elif name == "coverage":
            checks.append(_check_coverage(summary_by_n, largest_n, config.ci_level))
        elif name == "bounds":
            bound_rows = tuple(
                bound_table(
                    config.model,
                    config.n_values,
                    DEFAULT_G_GRID,
                    replications=config.replications,
                    master_seed=config.master_seed,
                )
            )
            checks.append(check_bound_rows(bound_rows))

    return ExperimentSummary(
        true_divergence=config.model.sym_divergence(),
        sigma2_exact=sigma2,
        ci_level=config.ci_level,
        per_n=tuple(summary_by_n.values()),
        checks=tuple(checks),
        bound_rows=bound_rows,
    )


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run the replicated experiment and evaluate the requested checks.

    :func:`replicate` followed by :func:`evaluate`; ``workers`` is passed
    to the former.
    """
    records = replicate(config, workers)
    return ExperimentResult(records=records, summary=evaluate(config, records))
