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
tables once, from its own :func:`~symkl.streams.block_stream`, and
:func:`_block_pass` feeds it to the vectorized kernel and the bound
exceedance counts in row slices of about ``SLICE_CELLS`` cells, in
processes whose heap is pinned by :func:`_pin_heap`; :func:`bound_table`
runs it without the kernel.  No other stream feeds a run.  The layout
depends only on ``r`` and the replication count, and the slices change no
byte, so results are the same for any worker count.
The scalar functions :func:`~symkl.estimator.plug_in_estimate`,
:func:`~symkl.asymptotics.plugin_sigma2` and
:func:`~symkl.asymptotics.confidence_interval` are the kernel's test oracles.
"""

from __future__ import annotations

import contextlib
import functools
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
from .estimator import REASON_EMPTY_CELL, REASON_EMPTY_LABEL, REASON_NONE
from .estimator import plug_in_estimate  # noqa: F401  (perfbench's tracer wraps it here)
from .model import (
    BLOCK_CELLS,
    MAX_COUNT,
    PopulationModel,
    as_real,
    sample_batch,  # noqa: F401  (perfbench's tracer wraps it here)
    table_blocks,
)
from .streams import (
    N_INDEX_LIMIT,
    REP_INDEX_LIMIT,
    as_integral,
    replication_stream,  # noqa: F401  (perfbench's tracer wraps it here)
)

CHECK_NAMES = ("lln", "clt", "coverage", "bounds")

# Cells of one kernel or bound-count call: a block is fed to them in row
# slices of about this size, so their scratch is a quarter block.
SLICE_CELLS = BLOCK_CELLS // 4

# Fixed descriptive thresholds for the pass/fail checks.
KS_THRESHOLD = 0.04
COVERAGE_TOLERANCE = 0.02

# Two conditional laws closer than this are treated as equal (the null);
# the scaled error degenerates there and normality must not be checked.
NULL_ATOL = 1e-12


def _check_run_size(n_values, replications: int, master_seed: int, fewest: int) -> None:
    """Reject sample sizes, replication counts and seeds beyond int64 or the stream key."""
    if len(n_values) > N_INDEX_LIMIT:
        raise ValueError(f"at most {N_INDEX_LIMIT} sample sizes fit the stream key")
    if any(not 1 <= n <= MAX_COUNT for n in n_values):
        raise ValueError("sample sizes must be >= 1 and at most 2**63 - 1")
    if not fewest <= replications <= REP_INDEX_LIMIT:
        raise ValueError(
            f"replications must be in [{fewest}, {REP_INDEX_LIMIT}], got {replications}"
        )
    if not 0 <= master_seed < 1 << 64:
        raise ValueError("master_seed must fit in an unsigned 64-bit integer")


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
        master_seed = as_integral(self.master_seed, "master_seed")
        _check_run_size(n_values, replications, master_seed, fewest=1)
        if any(b <= a for a, b in zip(n_values, n_values[1:])):
            raise ValueError("n_values must be strictly increasing")
        level = as_real(self.ci_level, "ci_level")
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


@dataclass(frozen=True, eq=False)
class ReplicationColumns:
    """Outcomes of replications, one numpy column per field.

    Row ``i`` holds the outcome for the ``i``-th count table: its sample
    size ``n`` and ``rep_index`` (int64), its degeneracy ``reason`` code
    (int8, one of the ``REASON_*`` constants of :mod:`symkl.estimator`),
    and the outcome columns.  A row is :attr:`degenerate` when its reason
    is not ``REASON_NONE``; then the float columns hold NaN and ``covered``
    holds False.  The records of a run are sorted by
    ``(n, rep_index)``.  Indexing with a slice, mask or index array
    selects rows.
    """

    n: np.ndarray
    rep_index: np.ndarray
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

    @property
    def degenerate(self) -> np.ndarray:
        """Rows without a plug-in value: ``reason != REASON_NONE``."""
        return self.reason != REASON_NONE

    def __getitem__(self, rows) -> ReplicationColumns:
        return ReplicationColumns(*(getattr(self, f.name)[rows] for f in fields(self)))

    @classmethod
    def empty(cls) -> ReplicationColumns:
        """No rows, with the kernel's column types."""
        types = dict(n=np.int64, rep_index=np.int64, reason=np.int8, covered=bool)
        return cls(*(np.empty(0, dtype=types.get(f.name, np.float64)) for f in fields(cls)))


def replication_columns(n1, n0, truth: float, z: float, first_rep: int = 0) -> ReplicationColumns:
    """Estimate, error, plug-in variance and interval for each count table.

    Row ``i`` of the ``(rows, r)`` count arrays ``n1`` (label 1) and ``n0``
    (label 0) is one table, with ``rep_index`` ``first_rep + i``.  The
    arithmetic is that of :func:`~symkl.estimator.plug_in_estimate`,
    :func:`~symkl.asymptotics.plugin_sigma2` (the closed form of
    ``asymptotics._influence_table`` at the empirical measures) and
    :func:`~symkl.asymptotics.confidence_interval` with quantile ``z``,
    row by row, with pairwise instead of compensated sums, in place: five
    block-sized arrays, each step in the order of its plain expression, on
    the whole block.  Degeneracy follows the scalar functions' one rule
    (``estimator._empirical``): ``reason`` is ``REASON_EMPTY_LABEL`` when a
    label class has no draws or the label-1 frequency rounds to 1, else
    ``REASON_EMPTY_CELL`` when a cell is empty; a degenerate row's estimate,
    variance and half-width are masked to NaN.
    """
    n1 = np.asarray(n1, dtype=np.int64)
    n0 = np.asarray(n0, dtype=np.int64)
    m1 = n1.sum(axis=1)
    m0 = n0.sum(axis=1)
    n = m1 + m0
    with np.errstate(divide="ignore", invalid="ignore"):
        label1 = m1 / n
        empty_label = (m1 == 0) | (1.0 - label1 == 0.0)
        degenerate = empty_label | np.any(n1 == 0, axis=1) | np.any(n0 == 0, axis=1)
        reason = np.where(degenerate, REASON_EMPTY_CELL, REASON_NONE).astype(np.int8)
        reason[empty_label] = REASON_EMPTY_LABEL
        p_hat = n1 / m1[:, None]
        q_hat = n0 / m0[:, None]
        log_ratio = np.log(p_hat)
        x = np.log(q_hat)
        log_ratio -= x
        estimate = np.sum(np.multiply(np.subtract(p_hat, q_hat, out=x), log_ratio, out=x), axis=1)

        # influence coefficients b, c and the 2r outcome values w1, w0, in x and y
        y = np.divide(q_hat, p_hat)
        b = np.subtract(np.add(1.0, log_ratio, out=x), y, out=x)
        c = np.subtract(1.0, log_ratio, out=y)
        c -= np.divide(p_hat, q_hat, out=log_ratio)
        s_pb = np.sum(np.multiply(p_hat, b, out=log_ratio), axis=1)[:, None]
        s_qc = np.sum(np.multiply(q_hat, c, out=log_ratio), axis=1)[:, None]
        p = label1[:, None]
        q = 1.0 - p
        w1 = np.divide(b, p, out=b)
        w1 -= (2.0 - p) * s_pb
        w1 -= p * s_qc
        w0 = np.divide(c, q, out=c)
        w0 -= q * s_pb
        w0 -= (2.0 - q) * s_qc
        t1 = np.multiply(np.multiply(p, p_hat, out=p_hat), w1, out=p_hat)
        t0 = np.multiply(np.multiply(q, q_hat, out=q_hat), w0, out=q_hat)
        mean = np.sum(t1, axis=1) + np.sum(t0, axis=1)
        second = (np.sum(np.multiply(t1, w1, out=t1), axis=1)
                  + np.sum(np.multiply(t0, w0, out=t0), axis=1))
        # the tail below is row-length: free the block-sized scratch first
        del p_hat, q_hat, log_ratio, x, y, b, c, w1, w0, t1, t0, p, q, s_pb, s_qc
        sigma2 = np.maximum(second - mean * mean, 0.0)
        half = z * np.sqrt(sigma2 / n)
        estimate[degenerate] = sigma2[degenerate] = half[degenerate] = np.nan
        lower = estimate - half
        upper = estimate + half
        eta = estimate - truth
        return ReplicationColumns(
            n=n,
            rep_index=np.arange(first_rep, first_rep + n.size, dtype=np.int64),
            reason=reason,
            estimate=estimate,
            eta=eta,
            scaled_eta=np.sqrt(n) * eta,
            sigma2_hat=sigma2,
            ci_lower=lower,
            ci_upper=upper,
            covered=(lower <= truth) & (truth <= upper),
        )


@functools.cache
def _pin_heap() -> None:
    """Stop glibc trimming this process's heap after each block of tables, so the
    next block need not fault the pages back in; both thresholds sit well above a
    block's float64 array.  A no-op without glibc's ``mallopt``."""
    import ctypes  # kept off the start-up path
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)  # restype: the default, c_int
    mallopt(-1, 32 * 8 * BLOCK_CELLS)  # M_TRIM_THRESHOLD: 16 MiB
    mallopt(-3, 8 * 8 * BLOCK_CELLS)  # M_MMAP_THRESHOLD: 4 MiB


def _row_slices(rows: int, r: int) -> list[slice]:
    """``ceil(rows * r / SLICE_CELLS)`` near-equal slices of ``rows`` rows, at most one per row."""
    count = min(rows, -(-rows * r // SLICE_CELLS))
    edges = [i * rows // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _concatenate(parts) -> ReplicationColumns:
    """The rows of ``parts``, in order, as one column set; a single part as it is."""
    if len(parts) == 1:
        return parts[0]
    return ReplicationColumns(*(
        np.concatenate([getattr(c, f.name) for c in parts]) for f in fields(ReplicationColumns)
    ))


def _block_pass(task):
    """Draw one task's block; return its kernel columns (None without ``z``) and counts.

    The block is drawn whole, from its own stream, and then fed to
    :func:`replication_columns` and :func:`~symkl.bounds._exceed_counts` in
    the row slices of :func:`_row_slices`, so their scratch is a quarter
    block next to the block's counts.  Every kernel step works row by row
    and every count is an exact sum of 0/1 values, so the slices change no
    byte: the slices' columns are concatenated and their counts summed.
    """
    block, truth, z, g_values = task
    _pin_heap()
    k1, n1, n0 = block.draw()
    parts = []
    counts: dict[str, np.ndarray] = {}
    for rows in _row_slices(*n1.shape):
        if z is not None:
            start = block.start + rows.start
            parts.append(replication_columns(n1[rows], n0[rows], truth, z, start))
        if g_values:
            sliced = _exceed_counts(block.model, block.n, g_values, k1[rows], n1[rows], n0[rows])
            for name, count in sliced.items():
                counts[name] = counts.get(name, 0) + count
    return (_concatenate(parts) if parts else None), counts


def _table_pass(model: PopulationModel, n_values, replications: int, master_seed: int,
                workers: int = 1, z: float | None = None, g_values=()):
    """Draw each block of :func:`~symkl.model.table_blocks` once and feed its consumers.

    Returns the blocks' :func:`replication_columns` at interval quantile
    ``z`` (no rows without) and the bound rows at ``g_values``, whose
    exceedance counts are added as each block arrives.  ``workers`` (capped
    at the CPU count) changes no byte: every block has its own stream.
    Each process holds one block of counts and the scratch of one row
    slice of it (see :func:`_block_pass`), whatever the replication count.
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
        results = map(_block_pass, tasks)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # kept off the start-up path
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_block_pass, tasks)
        for block, (block_columns, block_counts) in zip(layout, results):
            if block_columns is not None:
                columns.append(block_columns)
            for name, count in block_counts.items():
                counts[name, block.n] = counts.get((name, block.n), 0) + count
    return _concatenate(columns), bound_table_rows(model, n_values, g_values, replications, counts)


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
        Seed of the Monte Carlo count tables, in ``[0, 2**64)``.

    Returns
    -------
    list of BoundTableRow
        Sorted by (name, n, g).

    Notes
    -----
    The count tables are those :func:`run_experiment` draws for the same
    sorted sample sizes, replications and seed.  One :func:`_table_pass`
    in this process counts them block by block, a quarter block at a time,
    so peak memory is one block of tables and a quarter block of
    temporaries.
    """
    n_values = sorted({as_integral(n, "n_grid") for n in n_grid})
    g_values = sorted({as_real(g, "g_grid") for g in g_grid})
    if not n_values:
        raise ValueError("n_grid is empty")
    if not g_values:
        raise ValueError("g_grid is empty")
    if any(not math.isfinite(g) or g <= 0.0 for g in g_values):
        raise ValueError("thresholds must be positive reals")
    replications = as_integral(replications, "replications")
    master_seed = as_integral(master_seed, "master_seed")
    _check_run_size(n_values, replications, master_seed, fewest=0)
    return _table_pass(model, n_values, replications, master_seed, g_values=g_values)[1]


def ks_statistic(values) -> float:
    """One-sample Kolmogorov-Smirnov distance against the standard normal CDF ``F``.

    ``max_i max(i/m - F(x_(i)), F(x_(i)) - (i-1)/m)`` over the sorted
    sample of size m.
    """
    arr = np.sort(as_real(values, "values", array=True))
    m = arr.size
    if m == 0:
        raise ValueError("ks_statistic needs a nonempty sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("ks_statistic needs finite values")
    grid = np.arange(1, m + 1, dtype=np.float64)
    cdf_vals = normal_cdf(arr)
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


def _variance(arr: np.ndarray) -> float | None:
    if arr.size < 2:
        return None
    return float(np.var(arr, ddof=1))


def _per_n(records: ReplicationColumns, sigma_exact: float) -> list[SampleSizeSummary]:
    """One summary per sample size of the n-sorted ``records``, ascending in n;
    the statistics cover the non-degenerate rows and are None without any."""
    summaries = []
    for n, rows in _n_slices(records.n):
        at_n = records[rows]
        valid = ~at_n.degenerate
        counts = dict(
            n=n,
            replications=len(at_n),
            degenerate_count=int(np.count_nonzero(at_n.degenerate)),
            degenerate_empty_label=int(np.count_nonzero(at_n.reason == REASON_EMPTY_LABEL)),
            degenerate_empty_cell=int(np.count_nonzero(at_n.reason == REASON_EMPTY_CELL)),
        )
        if not valid.any():
            summaries.append(SampleSizeSummary(**counts))
            continue
        eta = at_n.eta[valid]
        scaled = at_n.scaled_eta[valid]
        summaries.append(SampleSizeSummary(
            **counts,
            eta_mean=float(eta.mean()),
            eta_median=_median(eta),
            eta_variance=_variance(eta),
            scaled_eta_mean=float(scaled.mean()),
            scaled_eta_median=_median(scaled),
            scaled_eta_variance=_variance(scaled),
            median_abs_eta=_median(np.abs(eta)),
            ks_normalized=ks_statistic(scaled / sigma_exact) if sigma_exact > 0.0 else None,
            coverage=coverage_rate(at_n),
        ))
    return summaries


def _lln_curve(per_n) -> dict[int, float]:
    """``median_abs_eta`` by n, over the summaries that have one."""
    curve = {s.n: s.median_abs_eta for s in per_n if s.median_abs_eta is not None}
    if len(curve) < 2:
        empty = ", ".join(str(s.n) for s in per_n if s.median_abs_eta is None)
        raise ValueError(
            "lln needs non-degenerate records at >= 2 distinct sample sizes"
            + (f"; every replication was degenerate at n = {empty}" if empty else "")
        )
    return curve


def _check_lln(per_n) -> CheckResult:
    try:
        curve = _lln_curve(per_n)
    except ValueError as exc:
        return CheckResult(name="lln", passed=False, detail=str(exc))
    medians = list(curve.values())
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    detail = "median |error| by n: " + ", ".join(
        f"{n}: {v:.6g}" for n, v in curve.items()
    )
    return CheckResult(name="lln", passed=decreasing, detail=detail)


def _check_largest(name: str, largest: SampleSizeSummary, level: float) -> CheckResult:
    """The ``clt`` or ``coverage`` check on the summary at the largest n."""
    n = largest.n
    value = largest.ks_normalized if name == "clt" else largest.coverage
    if value is None:
        return CheckResult(name=name, passed=False, detail=f"no usable replications at n={n}")
    if name == "clt":
        return CheckResult(
            name=name,
            passed=value <= KS_THRESHOLD,
            detail=f"ks={value:.6g} at n={n} (threshold {KS_THRESHOLD})",
        )
    return CheckResult(
        name=name,
        passed=abs(value - level) <= COVERAGE_TOLERANCE,
        detail=f"coverage={value:.4f} at n={n} (nominal {level}, tolerance {COVERAGE_TOLERANCE})",
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
    """Reduce ``records`` to one summary per sample size and evaluate the checks.

    ``records`` are sorted by n; ``per_n`` covers the sample sizes that
    have records, so it is empty when there are none.  ``lln`` reads
    ``per_n``; ``clt`` and ``coverage`` read its entry at the largest
    configured n, a summary of no replications when that n has no records,
    so they fail with "no usable replications".  ``bounds`` reads
    ``bound_rows``.
    """
    sigma2 = exact_sigma2(config.model).sigma2
    per_n = _per_n(records, math.sqrt(sigma2))
    largest_n = config.n_values[-1]
    largest = next(
        (s for s in per_n if s.n == largest_n),
        SampleSizeSummary(largest_n, replications=0, degenerate_count=0,
                          degenerate_empty_label=0, degenerate_empty_cell=0),
    )
    checks: list[CheckResult] = []
    for name in config.checks:
        if name == "lln":
            checks.append(_check_lln(per_n))
        elif name == "bounds":
            checks.append(check_bound_rows(bound_rows))
        else:
            checks.append(_check_largest(name, largest, config.ci_level))

    return ExperimentSummary(
        true_divergence=config.model.sym_divergence(),
        sigma2_exact=sigma2,
        ci_level=config.ci_level,
        per_n=tuple(per_n),
        checks=tuple(checks),
        bound_rows=bound_rows,
    )


def run_experiment(config: ExperimentConfig, workers: int = 1,
                   records: bool = True) -> ExperimentResult:
    """Run the replicated experiment and evaluate the requested checks.

    One :func:`_table_pass` on ``workers`` processes, then :func:`evaluate`.
    ``records=False`` skips the kernel: no records, so only the bounds
    check has data, and ``lln``, ``clt`` and ``coverage`` fail.
    """
    g_values = DEFAULT_G_GRID if "bounds" in config.checks else ()
    z = normal_quantile((1.0 + config.ci_level) / 2.0) if records else None
    columns, bound_rows = _table_pass(config.model, config.n_values, config.replications,
                                      config.master_seed, workers, z, g_values)
    return ExperimentResult(records=columns, summary=evaluate(config, columns, tuple(bound_rows)))
