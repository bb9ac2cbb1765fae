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

One pass, :func:`_table_pass`, draws each block of ``max(1, 2**16 // r)``
tables once, from its own Philox stream, for the vectorized kernel and the
bounds check's exceedance counts; :func:`bound_table` runs it without the
kernel.  The layout depends only on ``r`` and the replication count, so
results are reproducible and identical for any worker count.
The scalar functions :func:`~symkl.estimator.plug_in_estimate`,
:func:`~symkl.asymptotics.plugin_sigma2` and
:func:`~symkl.asymptotics.confidence_interval` are the kernel's test oracles.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .asymptotics import (
    confidence_interval,  # noqa: F401  (perfbench's tracer wraps it here)
    exact_sigma2,
    normal_cdf,
    normal_quantile,
    plugin_sigma2,  # noqa: F401  (perfbench's tracer wraps it here)
)
from .bounds import DEFAULT_G_GRID, BoundTableRow, _exceed_counts, bound_table_rows
from .estimator import plug_in_estimate  # noqa: F401  (perfbench's tracer wraps it here)
from .model import (
    MAX_COUNT,
    PopulationModel,
    as_integral,
    sample_batch,  # noqa: F401  (perfbench's tracer wraps it here)
    sample_counts,
    table_blocks,
)
from .streams import N_INDEX_LIMIT, REP_INDEX_LIMIT, replication_stream

CHECK_NAMES = ("lln", "clt", "coverage", "bounds")

# Fixed descriptive thresholds for the pass/fail checks.
KS_THRESHOLD = 0.04
COVERAGE_TOLERANCE = 0.02

# Degeneracy reason codes of the ``reason`` column.  Rows read back from
# ``records.csv``, which does not carry the reason, hold REASON_UNKNOWN.
REASON_NONE = 0
REASON_EMPTY_LABEL = 1  # a label class has no draws
REASON_EMPTY_CELL = 2  # both classes have draws, but some cell is empty
REASON_UNKNOWN = -1

# Two conditional laws closer than this are treated as equal (the null);
# the scaled error degenerates there and normality must not be checked.
NULL_ATOL = 1e-12


def _check_run_size(n_values, replications: int, fewest: int) -> None:
    """Reject sample sizes and replication counts beyond int64 or the stream key."""
    if len(n_values) > N_INDEX_LIMIT:
        raise ValueError(f"at most {N_INDEX_LIMIT} sample sizes fit the stream key")
    if any(not 1 <= n <= MAX_COUNT for n in n_values):
        raise ValueError("sample sizes must be >= 1 and at most 2**63 - 1")
    if not fewest <= replications <= REP_INDEX_LIMIT:
        raise ValueError(
            f"replications must be in [{fewest}, {REP_INDEX_LIMIT}], got {replications}"
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one replicated experiment.

    Attributes
    ----------
    model : PopulationModel
        Population to sample from.
    n_values : tuple of int
        At most ``2**16`` strictly increasing sample sizes in ``[1, 2**63 - 1]``;
        like the other integers here, integral floats such as ``1e4`` pass.
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
        n_values = tuple(as_integral(n, "n_values") for n in self.n_values)
        if not n_values:
            raise ValueError("n_values is empty")
        replications = as_integral(self.replications, "replications")
        _check_run_size(n_values, replications, fewest=1)
        if any(b <= a for a, b in zip(n_values, n_values[1:])):
            raise ValueError("n_values must be strictly increasing")
        master_seed = as_integral(self.master_seed, "master_seed")
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
class SampleSizeSummary:
    """Statistics of the non-degenerate replications at one sample size."""

    n: int
    replications: int
    degenerate_count: int
    degenerate_empty_label: int
    degenerate_empty_cell: int
    eta_mean: float | None = None
    eta_median: float | None = None
    eta_variance: float | None = None
    scaled_eta_mean: float | None = None
    scaled_eta_median: float | None = None
    scaled_eta_variance: float | None = None
    median_abs_eta: float | None = None
    ks_normalized: float | None = None
    coverage: float | None = None


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

    records: ReplicationColumns
    summary: ExperimentSummary


def run_replication(
    model: PopulationModel,
    n: int,
    ci_level: float,
    true_divergence: float,
    master_seed: int,
    n_index: int,
    rep_index: int,
) -> ReplicationColumns:
    """Run one replication through the kernel on its own stream; one row.

    The count table is drawn from ``replication_stream(master_seed,
    n_index, rep_index)``; :func:`run_experiment` draws from block streams
    instead, so this does not reproduce a row of its records.
    """
    _, n1, n0 = sample_counts(model, n, 1, replication_stream(master_seed, n_index, rep_index))
    z = normal_quantile((1.0 + ci_level) / 2.0)
    return replication_columns(n1, n0, true_divergence, z, first_rep=rep_index)


@dataclass(frozen=True, eq=False)
class ReplicationColumns:
    """Outcomes of replications, one numpy column per field.

    Row ``i`` holds the outcome for the ``i``-th count table: its sample
    size ``n`` and ``rep_index`` (int64), the ``degenerate`` flag and its
    ``reason`` code (int8, one of the ``REASON_*`` constants), and the
    outcome columns.  On degenerate rows the float columns hold NaN and
    ``covered`` holds False.  The records of a run are sorted by
    ``(n, rep_index)``.  Indexing with a slice, mask or index array
    selects rows.
    """

    n: np.ndarray
    rep_index: np.ndarray
    degenerate: np.ndarray
    reason: np.ndarray
    estimate: np.ndarray
    eta: np.ndarray
    scaled_eta: np.ndarray
    sigma2_hat: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    covered: np.ndarray

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, rows) -> ReplicationColumns:
        return ReplicationColumns(*(getattr(self, f.name)[rows] for f in fields(self)))

    @classmethod
    def empty(cls) -> ReplicationColumns:
        """No rows, with the kernel's column types."""
        types = dict(n=np.int64, rep_index=np.int64, degenerate=bool, reason=np.int8, covered=bool)
        return cls(*(np.empty(0, dtype=types.get(f.name, np.float64)) for f in fields(cls)))


def replication_columns(n1, n0, truth: float, z: float, first_rep: int = 0) -> ReplicationColumns:
    """Estimate, error, plug-in variance and interval for each count table.

    Row ``i`` of the ``(rows, r)`` count arrays ``n1`` (label 1) and ``n0``
    (label 0) is one table, with ``rep_index`` ``first_rep + i``.  The
    arithmetic is that of :func:`~symkl.estimator.plug_in_estimate`,
    :func:`~symkl.asymptotics.plugin_sigma2` (the closed form of
    ``asymptotics._influence_table`` at the empirical measures) and
    :func:`~symkl.asymptotics.confidence_interval` with quantile ``z``,
    row by row, with pairwise instead of compensated sums.  A table is
    degenerate when it has an empty cell: ``reason`` is
    ``REASON_EMPTY_LABEL`` when a whole label class is empty and
    ``REASON_EMPTY_CELL`` otherwise.
    """
    n1 = np.asarray(n1, dtype=np.int64)
    n0 = np.asarray(n0, dtype=np.int64)
    m1 = n1.sum(axis=1)
    m0 = n0.sum(axis=1)
    sizes = m1 + m0
    degenerate = np.any(n1 == 0, axis=1) | np.any(n0 == 0, axis=1)
    reason = np.where(degenerate, REASON_EMPTY_CELL, REASON_NONE).astype(np.int8)
    reason[(m1 == 0) | (m0 == 0)] = REASON_EMPTY_LABEL
    ok = ~degenerate
    n1 = n1[ok]
    n0 = n0[ok]
    m1 = m1[ok]
    m0 = m0[ok]
    n = sizes[ok]
    p_hat = n1 / m1[:, None]
    q_hat = n0 / m0[:, None]
    log_ratio = np.log(p_hat) - np.log(q_hat)
    estimate = np.sum((p_hat - q_hat) * log_ratio, axis=1)

    # influence coefficients b, c and the 2r outcome values w1, w0
    b = 1.0 + log_ratio - q_hat / p_hat
    c = 1.0 - log_ratio - p_hat / q_hat
    s_pb = np.sum(p_hat * b, axis=1)[:, None]
    s_qc = np.sum(q_hat * c, axis=1)[:, None]
    p = (m1 / n)[:, None]
    q = 1.0 - p
    w1 = b / p - (2.0 - p) * s_pb - p * s_qc
    w0 = c / q - q * s_pb - (2.0 - q) * s_qc
    t1 = p * p_hat * w1
    t0 = q * q_hat * w0
    mean = np.sum(t1, axis=1) + np.sum(t0, axis=1)
    second = np.sum(t1 * w1, axis=1) + np.sum(t0 * w0, axis=1)
    sigma2 = np.maximum(second - mean * mean, 0.0)

    half = z * np.sqrt(sigma2 / n)
    lower = estimate - half
    upper = estimate + half
    eta = estimate - truth

    def column(values, fill=np.nan):
        out = np.full(ok.shape, fill, dtype=values.dtype)
        out[ok] = values
        return out

    return ReplicationColumns(
        n=sizes,
        rep_index=np.arange(first_rep, first_rep + ok.size, dtype=np.int64),
        degenerate=degenerate,
        reason=reason,
        estimate=column(estimate),
        eta=column(eta),
        scaled_eta=column(np.sqrt(n) * eta),
        sigma2_hat=column(sigma2),
        ci_lower=column(lower),
        ci_upper=column(upper),
        covered=column((lower <= truth) & (truth <= upper), fill=False),
    )


def _block_passes(tasks):
    """Draw each task's block; yield its kernel columns (None without ``z``) and counts."""
    for block, truth, z, g_values in tasks:
        # without the kernel, a block's tables held until the next draw halve the
        # heap's page faults; beside the kernel's columns they only raise the peak
        k1, n1, n0 = block.draw()
        columns = None if z is None else replication_columns(n1, n0, truth, z, block.start)
        counts = _exceed_counts(block.model, block.n, g_values, k1, n1, n0) if g_values else {}
        if z is not None:
            del k1, n1, n0
        yield columns, counts


def _block_pass(task):
    return next(_block_passes([task]))


def _table_pass(model: PopulationModel, n_values, replications: int, master_seed: int,
                workers: int = 1, z: float | None = None, g_values=()):
    """Draw each block of :func:`~symkl.model.table_blocks` once and feed its consumers.

    Returns the blocks' :func:`replication_columns` at interval quantile
    ``z`` (no rows without) and the bound rows at ``g_values``, whose
    exceedance counts are added as each block arrives.  ``workers`` (capped
    at the CPU count) changes no byte: every block has its own stream.
    """
    workers = as_integral(workers, "workers")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # a fork pool starts all of its processes at once
    workers = min(workers, os.cpu_count() or 1)

    truth = model.sym_divergence()
    layout = table_blocks(model, n_values, replications, master_seed)
    tasks = [(block, truth, z, g_values) for block in layout]
    columns = [ReplicationColumns.empty()]
    counts: dict[tuple[str, int], np.ndarray] = {}
    with contextlib.ExitStack() as stack:
        results = _block_passes(tasks)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # kept off the start-up path
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_block_pass, tasks)
        for block, (block_columns, block_counts) in zip(layout, results):
            if block_columns is not None:
                columns.append(block_columns)
            for name, count in block_counts.items():
                counts[name, block.n] = counts.get((name, block.n), 0) + count
    return ReplicationColumns(*(
        np.concatenate([getattr(c, f.name) for c in columns]) for f in fields(ReplicationColumns)
    )), bound_table_rows(model, n_values, g_values, replications, counts)


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
        Sample sizes (integers >= 1; integral floats such as ``1e4`` pass) and
        thresholds (positive reals); each is deduplicated and sorted ascending.
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
    The count tables are those :func:`run_experiment` draws for the same
    sorted sample sizes, replications and seed.  One :func:`_table_pass`
    in this process counts them block by block, so peak memory is one
    block of tables and temporaries.
    """
    n_values = sorted({as_integral(n, "n_grid") for n in n_grid})
    g_values = sorted({float(g) for g in g_grid})
    if not n_values:
        raise ValueError("n_grid is empty")
    if not g_values:
        raise ValueError("g_grid is empty")
    if any(not math.isfinite(g) or g <= 0.0 for g in g_values):
        raise ValueError("thresholds must be positive reals")
    replications = as_integral(replications, "replications")
    _check_run_size(n_values, replications, fewest=0)
    return _table_pass(model, n_values, replications, as_integral(master_seed, "master_seed"),
                       g_values=g_values)[1]


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


def coverage_rate(records: ReplicationColumns) -> float:
    """Fraction of non-degenerate records whose interval covers the truth.

    Raises
    ------
    ValueError
        If every record is degenerate.
    """
    valid = ~records.degenerate
    count = int(np.count_nonzero(valid))
    if not count:
        raise ValueError("coverage_rate needs at least one non-degenerate record")
    return int(np.count_nonzero(records.covered[valid])) / count


def _median(values) -> float:
    """``np.median`` of a nonempty sample, bit for bit, without its NaN check,
    which imports ``numpy.ma`` (about 15 ms) on first use."""
    arr = np.asarray(values, dtype=np.float64)
    k, odd = divmod(arr.size, 2)
    part = np.partition(arr, k if odd else (k - 1, k))
    return float(part[k]) if odd else float((part[k - 1] + part[k]) / 2.0)


def _n_slices(n: np.ndarray) -> list[tuple[int, slice]]:
    """``(sample size, rows)`` for each run of equal ``n``, in row order."""
    steps = np.diff(n)
    if np.any(steps < 0):
        raise ValueError("records must be sorted by n")
    edges = [0, *(np.flatnonzero(steps) + 1).tolist(), len(n)]
    return [(int(n[a]), slice(a, b)) for a, b in zip(edges, edges[1:]) if a < b]


def lln_curve(records: ReplicationColumns) -> dict[int, float]:
    """Median absolute error per sample size, keyed by n in ascending order.

    Needs non-degenerate records at two or more distinct sample sizes.
    """
    curve: dict[int, float] = {}
    empty = []
    for n, rows in _n_slices(records.n):
        valid = ~records.degenerate[rows]
        if valid.any():
            curve[n] = _median(np.abs(records.eta[rows][valid]))
        else:
            empty.append(str(n))
    if len(curve) < 2:
        raise ValueError(
            "lln_curve needs non-degenerate records at >= 2 distinct sample sizes"
            + (f"; every replication was degenerate at n = {', '.join(empty)}" if empty else "")
        )
    return curve


def _variance(arr: np.ndarray) -> float | None:
    if arr.size < 2:
        return None
    return float(np.var(arr, ddof=1))


def _summarize_n(n: int, records: ReplicationColumns, sigma_exact: float) -> SampleSizeSummary:
    valid = ~records.degenerate
    counts = dict(
        n=n,
        replications=len(records),
        degenerate_count=int(np.count_nonzero(records.degenerate)),
        degenerate_empty_label=int(np.count_nonzero(records.reason == REASON_EMPTY_LABEL)),
        degenerate_empty_cell=int(np.count_nonzero(records.reason == REASON_EMPTY_CELL)),
    )
    if not valid.any():
        return SampleSizeSummary(**counts)
    eta = records.eta[valid]
    scaled = records.scaled_eta[valid]
    ks = None
    if sigma_exact > 0.0:
        ks = ks_statistic(scaled / sigma_exact)
    return SampleSizeSummary(
        **counts,
        eta_mean=float(eta.mean()),
        eta_median=_median(eta),
        eta_variance=_variance(eta),
        scaled_eta_mean=float(scaled.mean()),
        scaled_eta_median=_median(scaled),
        scaled_eta_variance=_variance(scaled),
        median_abs_eta=_median(np.abs(eta)),
        ks_normalized=ks,
        coverage=coverage_rate(records),
    )


def _check_lln(records: ReplicationColumns) -> CheckResult:
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
    """Fold a bound table into one pass/fail result.

    A failure names the grid point with the largest margin
    ``empirical - (bound + 3 stderr)``, the amount by which it misses.
    """
    bad = [r for r in rows if not r.empirically_valid()]
    if bad:
        margins = [r.empirical - (r.bound + 3.0 * r.stderr) for r in bad]
        margin = max(margins)
        worst = bad[margins.index(margin)]
        return CheckResult(
            name="bounds",
            passed=False,
            detail=(
                f"{len(bad)} grid points exceed their bound; largest margin "
                f"empirical - (bound + 3 stderr) = {margin:.6g} at "
                f"{worst.name} n={worst.n} g={worst.g} "
                f"(empirical={worst.empirical:.6g} bound={worst.bound:.6g} "
                f"stderr={worst.stderr:.6g})"
            ),
        )
    return CheckResult(
        name="bounds",
        passed=True,
        detail=f"all {len(rows)} grid points within bound + 3 stderr",
    )


def evaluate(config: ExperimentConfig, records: ReplicationColumns,
             bound_rows: tuple[BoundTableRow, ...]) -> ExperimentSummary:
    """Summarize ``records`` per sample size and evaluate the requested checks.

    ``records`` are sorted by n; ``per_n`` covers the sample sizes that
    have records, so it is empty when there are none.  The bounds check
    reads ``bound_rows`` and needs no records.  The other checks do.
    """
    sigma2 = exact_sigma2(config.model).sigma2
    summary_by_n = {
        n: _summarize_n(n, records[rows], math.sqrt(sigma2))
        for n, rows in _n_slices(records.n)
    }

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
            checks.append(check_bound_rows(bound_rows))

    return ExperimentSummary(
        true_divergence=config.model.sym_divergence(),
        sigma2_exact=sigma2,
        ci_level=config.ci_level,
        per_n=tuple(summary_by_n.values()),
        checks=tuple(checks),
        bound_rows=bound_rows,
    )


def run_experiment(config: ExperimentConfig, workers: int = 1,
                   records: bool = True) -> ExperimentResult:
    """Run the replicated experiment and evaluate the requested checks.

    One :func:`_table_pass` on ``workers`` processes, then :func:`evaluate`.
    ``records=False`` skips the kernel: no records, so only the bounds
    check has data.
    """
    g_values = DEFAULT_G_GRID if "bounds" in config.checks else ()
    z = normal_quantile((1.0 + config.ci_level) / 2.0) if records else None
    columns, bound_rows = _table_pass(config.model, config.n_values, config.replications,
                                      config.master_seed, workers, z, g_values)
    return ExperimentResult(records=columns, summary=evaluate(config, columns, tuple(bound_rows)))
