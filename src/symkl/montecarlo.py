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
tables once, from its own :func:`~symkl.streams.block_stream`, in this
process or in the workers of :func:`_forked`; :func:`_block_pass` feeds it
to the row-sum kernel :func:`replication_columns` and the bound exceedance
counts in row slices of about ``SLICE_CELLS`` cells, each row counted as
``r + 8`` for the kernel's row-length scratch, in processes whose heap is
pinned by :func:`_pin_heap`.
:func:`_table_pass` alone copies the slices' columns into the run's records
and adds the counts; :func:`bound_table` runs it without the kernel.  No
other stream feeds a run.  The layout depends only on ``r`` and the
replication count, and the slices change no byte, so results are the same
for any worker count.
The scalar functions :func:`~symkl.estimator.plug_in_estimate`,
:func:`~symkl.asymptotics.plugin_sigma2` and
:func:`~symkl.asymptotics.confidence_interval` are the kernel's test oracles.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import pickle
import sys
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    _variance_from_sums,
    confidence_interval,  # noqa: F401  (perfbench's tracer wraps it here)
    exact_sigma2,
    interval_z,
    normal_cdf,
    plugin_sigma2,  # noqa: F401  (perfbench's tracer wraps it here)
)
from .bounds import DEFAULT_G_GRID, BoundTableRow, _exceed_counts, bound_table_rows
from .estimator import REASON_EMPTY_CELL, REASON_EMPTY_LABEL, REASON_NONE
from .estimator import plug_in_estimate  # noqa: F401  (perfbench's tracer wraps it here)
from .model import (
    BLOCK_CELLS,
    PopulationModel,
    as_real,
    block_rows,
    check_type,
    sample_batch,  # noqa: F401  (perfbench's tracer wraps it here)
    table_blocks,
)
from .streams import (
    MAX_COUNT,
    N_INDEX_LIMIT,
    REP_INDEX_LIMIT,
    SEED_LIMIT,
    as_integral,
    replication_stream,  # noqa: F401  (perfbench's tracer wraps it here)
)

# Cells of one kernel or bound-count call, a row of r counts costing r + 8
# (the kernel's row-length columns): a block is fed to them in row slices of
# about this size, so each array of their scratch is a quarter block at any r.
SLICE_CELLS = BLOCK_CELLS // 4

# Sorted values per normal_cdf call in ks_statistic: its scratch, about 90
# bytes a value with its object array of Python floats, stays under 2 MB
# whatever the sample size.
_KS_CHUNK = 1 << 14

# Fixed descriptive thresholds for the pass/fail checks.
KS_THRESHOLD = 0.04
COVERAGE_TOLERANCE = 0.02

# Two conditional laws closer than this are treated as equal (the null);
# the scaled error degenerates there and normality must not be checked.
NULL_ATOL = 1e-12


def _as_tuple(values, name: str, items: str) -> tuple:
    """``tuple(values)``; a str, bytes or non-iterable raises ValueError naming ``name``."""
    if not isinstance(values, (str, bytes)):
        with contextlib.suppress(TypeError):
            return tuple(values)
    raise ValueError(f"{name} must be a sequence of {items}, got {values!r}")


def _sample_sizes(values, name: str) -> tuple[int, ...]:
    """``values`` as 1 to ``2**16`` (the stream key's n_index) sample sizes in [1, 2**63 - 1]."""
    sizes = tuple(as_integral(n, name, 1, MAX_COUNT) for n in _as_tuple(values, name, "integers"))
    if not sizes:
        raise ValueError(f"{name} is empty")
    if len(set(sizes)) > N_INDEX_LIMIT:
        raise ValueError(f"at most {N_INDEX_LIMIT} sample sizes fit the stream key")
    return sizes


def pool_size(workers, name: str = "workers") -> int:
    """The pool size: ``workers`` >= 1, capped at the CPUs this process may run on; 1 off Linux."""
    cpus = len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1
    return min(as_integral(workers, name, 1), cpus)


def pass_workers(model: PopulationModel, n_values, replications: int, workers) -> int:
    """Processes of a table pass: :func:`pool_size`, at most one a block of :func:`table_blocks`."""
    blocks = len(n_values) * -(-replications // block_rows(model.r))
    return min(pool_size(workers), max(blocks, 1))


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
        Confidence level in (0, 1), as :func:`~symkl.asymptotics.interval_z` takes it.
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
        check_type(self.model, PopulationModel, "model")
        n_values = _sample_sizes(self.n_values, "n_values")
        replications = as_integral(self.replications, "replications", 1, REP_INDEX_LIMIT)
        master_seed = as_integral(self.master_seed, "master_seed", 0, SEED_LIMIT - 1)
        if any(b <= a for a, b in zip(n_values, n_values[1:])):
            raise ValueError("n_values must be strictly increasing")
        level = as_real(self.ci_level, "ci_level")
        interval_z(level, "ci_level")
        checks = _as_tuple(self.checks, "checks", "check names")
        unknown = [c for c in checks if c not in _CHECKS]
        if unknown:
            raise ValueError(f"unknown checks {unknown}; valid names are {tuple(_CHECKS)}")
        if len(set(checks)) != len(checks):
            raise ValueError("checks contains duplicates")
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "replications", replications)
        object.__setattr__(self, "master_seed", master_seed)
        object.__setattr__(self, "ci_level", level)
        object.__setattr__(self, "checks", checks)
        for name in checks:
            problem = _CHECKS[name][0](self)
            if problem:
                raise ValueError(f"{name} check {problem}")


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
    """Outcome of one check: it passes when ``margin = value - limit`` is at most 0,
    and fails without usable data, where ``value`` and ``margin`` are None."""

    name: str
    passed: bool
    value: float | None
    limit: float
    margin: float | None
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
    """One records object per sample size, in ``n_values`` order, plus their summary."""

    records: tuple[ReplicationColumns, ...]
    summary: ExperimentSummary


@dataclass(frozen=True, eq=False)
class ReplicationColumns:
    """Outcomes of the replications at one sample size ``n``, one numpy column per field.

    Row ``i`` holds the outcome for the table of ``rep_index`` ``i``: its
    degeneracy ``reason`` code (int8, one of the ``REASON_*`` constants of
    :mod:`symkl.estimator`), its plug-in ``estimate`` and ``sigma2_hat``
    (float64).  The sample size ``n``, the run's ``truth`` and interval
    quantile ``z`` are scalars.  ``eta``, ``scaled_eta``, ``ci_lower``,
    ``ci_upper`` and ``covered`` are derived from them on each access, by
    elementwise expressions, so a row's value is the same whichever rows are
    selected.  A row is :attr:`degenerate` when its reason is not
    ``REASON_NONE``; then the float columns hold NaN and ``covered`` holds
    False.  Indexing with a slice, mask or index array selects rows.
    """

    n: int
    reason: np.ndarray
    estimate: np.ndarray
    sigma2_hat: np.ndarray
    truth: float
    z: float

    def __len__(self) -> int:
        return len(self.reason)

    @property
    def degenerate(self) -> np.ndarray:
        """Rows without a plug-in value: ``reason != REASON_NONE``."""
        return self.reason != REASON_NONE

    @property
    def eta(self) -> np.ndarray:
        """Estimation error ``estimate - truth``."""
        return self.estimate - self.truth

    @property
    def scaled_eta(self) -> np.ndarray:
        """Scaled error ``sqrt(n) * eta``."""
        return math.sqrt(self.n) * self.eta

    def _half(self) -> np.ndarray:
        """Interval half-width ``z * sqrt(sigma2_hat / n)``."""
        return self.z * np.sqrt(self.sigma2_hat / self.n)

    @property
    def ci_lower(self) -> np.ndarray:
        """Interval lower end ``estimate - half``."""
        return self.estimate - self._half()

    @property
    def ci_upper(self) -> np.ndarray:
        """Interval upper end ``estimate + half``."""
        return self.estimate + self._half()

    @property
    def covered(self) -> np.ndarray:
        """Whether the interval holds ``truth``; False on degenerate rows."""
        half = self._half()
        return (self.estimate - half <= self.truth) & (self.truth <= self.estimate + half)

    def __getitem__(self, rows) -> ReplicationColumns:
        return ReplicationColumns(self.n, *(getattr(self, name)[rows] for name in _STORED),
                                  self.truth, self.z)

    @classmethod
    def empty(cls, rows: int = 0, n: int = 1, truth: float = math.nan, z: float = math.nan
              ) -> ReplicationColumns:
        """``rows`` rows at ``n``, with the kernel's column types, for the caller to fill."""
        return cls(n, *(np.empty(rows, dtype) for dtype in _STORED.values()), truth, z)


# The columns that ReplicationColumns stores, in field order, with the kernel's types.
_STORED = dict(reason=np.int8, estimate=np.float64, sigma2_hat=np.float64)


def replication_columns(n1, n0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``reason``, ``estimate`` and ``sigma2_hat`` columns of the count tables.

    Row ``i`` of the ``(rows, r)`` count arrays ``n1`` (label 1) and ``n0``
    (label 0) is one table, of any size; :class:`ReplicationColumns` derives
    the error and the interval from the columns of one size.  The values are
    those of :func:`~symkl.estimator.plug_in_estimate` and
    :func:`~symkl.asymptotics.plugin_sigma2` but for the rounding of their
    compensated sums: the row sum ``sum (p_hat - q_hat) L``, ``L = ln p_hat -
    ln q_hat``, and :func:`~symkl.asymptotics._variance_from_sums` of the
    label frequencies and four row sums, ``sum p_hat b``, ``sum p_hat b**2``,
    ``sum q_hat c`` and ``sum q_hat c**2``, taken over the influence
    coefficients ``b`` and ``c`` themselves so that no digit cancels near
    the null.  Degeneracy follows the scalar functions' one rule
    (``estimator._empirical``): ``reason`` is ``REASON_EMPTY_LABEL`` when a
    label class has no draws, else ``REASON_EMPTY_CELL`` when a cell is
    empty; a degenerate row's estimate and variance are masked to NaN.
    """
    n1 = np.asarray(n1, dtype=np.int64)
    n0 = np.asarray(n0, dtype=np.int64)
    m1 = n1.sum(axis=1)
    m0 = n0.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        empty_label = (m1 == 0) | (m0 == 0)
        degenerate = empty_label | np.any(n1 == 0, axis=1) | np.any(n0 == 0, axis=1)
        reason = np.where(degenerate, REASON_EMPTY_CELL, REASON_NONE).astype(np.int8)
        reason[empty_label] = REASON_EMPTY_LABEL
        p_hat = n1 / m1[:, None]
        q_hat = n0 / m0[:, None]
        log_ratio = np.log(p_hat) - np.log(q_hat)
        estimate = np.einsum("ij,ij->i", p_hat - q_hat, log_ratio)
        b = 1.0 + log_ratio
        b -= q_hat / p_hat
        c = np.subtract(1.0, log_ratio, out=log_ratio)
        c -= p_hat / q_hat
        s_pb = np.einsum("ij,ij->i", p_hat, b)
        s_pbb = np.einsum("ij,ij,ij->i", p_hat, b, b)
        s_qc = np.einsum("ij,ij->i", q_hat, c)
        s_qcc = np.einsum("ij,ij,ij->i", q_hat, c, c)
        # the tail below is row-length: free the block-sized scratch first
        del p_hat, q_hat, log_ratio, b, c
        sigma2 = _variance_from_sums(m1 / (m1 + m0), m0 / (m1 + m0), s_pb, s_pbb, s_qc, s_qcc)
        estimate[degenerate] = sigma2[degenerate] = np.nan
        return reason, estimate, sigma2


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
    """``ceil(rows * (r + 8) / SLICE_CELLS)`` near-equal slices of ``rows`` rows, at most
    one per row: the kernel's scratch peaks at five arrays of ``r`` cells a row and about
    seven row-length float64 columns (tracemalloc: 16.6 cells a row at r = 2, 5.0 r at
    r = 1000), and the 8 keeps a full r = 2 block pass at 3.4 block arrays (4.0 at r + 2)."""
    count = min(rows, -(-rows * (r + 8) // SLICE_CELLS))
    edges = [i * rows // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _block_pass(task):
    """Draw one task's block; return one ``(columns, counts)`` pair per row slice.

    The block is drawn whole, from its own stream, and each row slice of
    :func:`_row_slices` is fed to :func:`replication_columns` (columns None
    without ``kernel``) and :func:`~symkl.bounds._exceed_counts` (counts None
    without ``g_values``), so their scratch is a quarter block next to the
    block's counts.  Every kernel step works row by row and every count is
    an exact sum of 0/1 values, so the slices change no byte.
    """
    block, kernel, g_values = task
    _pin_heap()
    n1, n0 = block.draw()
    parts = []
    for rows in _row_slices(*n1.shape):
        columns = counts = None
        if kernel:
            columns = replication_columns(n1[rows], n0[rows])
        if g_values:
            counts = _exceed_counts(block.model, block.n, g_values, n1[rows], n0[rows])
        parts.append((columns, counts))
    return parts


def _forked(tasks, workers: int):
    """Yield :func:`_block_pass` of each task in order; worker ``w``, forked, pickles each result
    or exception of ``tasks[w::workers]`` into a pipe.  A dead worker raises ChildProcessError."""
    readers, pids = [], {}
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            readers.append(open(read_fd, "rb"))
            with open(write_fd, "wb") as writer:  # the parent's copy closes after the fork
                pids[w] = os.fork()
                if pids[w] == 0:  # the worker: it leaves only by os._exit
                    try:
                        for reader in readers:
                            reader.close()
                        for task in tasks[w::workers]:
                            pickle.dump((True, _block_pass(task)), writer, pickle.HIGHEST_PROTOCOL)
                            writer.flush()  # EPIPE stops a worker whose parent is gone
                        os._exit(0)
                    except Exception as exc:  # the parent raises it
                        pickle.dump((False, exc), writer, pickle.HIGHEST_PROTOCOL)
                        writer.flush()
                    finally:
                        os._exit(1)
        for i in range(len(tasks)):
            try:
                ok, value = pickle.load(readers[i % workers])
            except (EOFError, pickle.UnpicklingError):
                status = os.waitstatus_to_exitcode(os.waitpid(pids.pop(i % workers), 0)[1])
                raise ChildProcessError(f"table pass worker died (exit status {status})") from None
            if not ok:
                raise value
            yield value
    finally:
        import signal  # kept off the start-up path
        for reader in readers:
            reader.close()
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _table_pass(model: PopulationModel, n_values, replications: int, master_seed: int,
                workers: int = 1, z: float | None = None, g_values=()):
    """Draw each block of :func:`~symkl.model.table_blocks` once and feed its consumers.

    The one place that collects the slices of :func:`_block_pass`: returns
    one :class:`ReplicationColumns` per sample size at interval quantile
    ``z`` (none without), allocated once, into which each slice's columns
    are copied at its block's rows as it arrives, and the bound rows at
    ``g_values``, whose exceedance counts are added by ``(name, n)`` as each
    block arrives.  ``workers``, capped by :func:`pass_workers`, changes no
    byte: every block has its own stream.  Each process holds one block of
    counts and the scratch of one row slice of it, whatever the replication
    count; this one also holds the three stored columns, 17 bytes a row.

    Raises ValueError when the columns of that many rows cannot be allocated.
    """
    truth = model.sym_divergence()
    layout = table_blocks(model, n_values, replications, master_seed)
    workers = pass_workers(model, n_values, replications, workers)
    tasks = [(block, z is not None, g_values) for block in layout]
    try:
        records = {n: ReplicationColumns.empty(replications, n, truth, z)
                   for n in (n_values if z is not None else ())}
    except (MemoryError, ValueError) as exc:  # ValueError: "array is too big"
        raise ValueError(f"cannot allocate {replications * len(n_values)} records ({replications} "
                         f"replications x {len(n_values)} sample sizes): {exc}") from None
    counts: dict[tuple[str, int], np.ndarray] = {}
    results = _forked(tasks, workers) if workers > 1 else (_block_pass(task) for task in tasks)
    with contextlib.closing(results):
        for block, slices in zip(layout, results):
            start = block.start
            for slice_columns, slice_counts in slices:
                if slice_columns is not None:
                    stop = start + len(slice_columns[0])
                    for name, column in zip(_STORED, slice_columns):
                        getattr(records[block.n], name)[start:stop] = column
                    start = stop
                for name, count in (slice_counts or {}).items():
                    counts[name, block.n] = counts.get((name, block.n), 0) + count
    return (tuple(records.values()),
            bound_table_rows(model, n_values, g_values, replications, counts))


def bound_table(
    model: PopulationModel,
    n_grid,
    g_grid=DEFAULT_G_GRID,
    replications: int = 0,
    master_seed: int = 0,
    workers: int = 1,
) -> list[BoundTableRow]:
    """Evaluate every bound over a grid of (n, g) pairs.

    Parameters
    ----------
    model : PopulationModel
        Population the bounds refer to.
    n_grid, g_grid : sequence
        Sample sizes (integers >= 1; integral floats such as ``1e4`` pass) and
        thresholds (reals in (0, inf)); each is deduplicated and sorted ascending.
        The thresholds default to ``DEFAULT_G_GRID``, as :func:`run_experiment`'s.
    replications : int
        Monte Carlo budget per sample size for the empirical frequencies;
        0 evaluates the bounds only.
    master_seed : int
        Seed of the Monte Carlo count tables, in ``[0, 2**64)``.
    workers : int
        Processes of the pass, capped by :func:`pass_workers`; no byte depends on it.

    Returns
    -------
    list of BoundTableRow
        Sorted by (name, n, g).

    Notes
    -----
    The count tables are those :func:`run_experiment` draws for the same
    sorted sample sizes, replications and seed.  One :func:`_table_pass`
    counts them block by block, a quarter block at a time, so each process
    holds one block of tables and a quarter block of temporaries.
    """
    check_type(model, PopulationModel, "model")
    n_values = sorted(set(_sample_sizes(n_grid, "n_grid")))
    g_values = sorted({as_real(g, "g_grid", 0, math.inf)
                       for g in _as_tuple(g_grid, "g_grid", "reals")})
    if not g_values:
        raise ValueError("g_grid is empty")
    replications = as_integral(replications, "replications", 0, REP_INDEX_LIMIT)
    master_seed = as_integral(master_seed, "master_seed", 0, SEED_LIMIT - 1)
    return _table_pass(model, n_values, replications, master_seed, workers, g_values=g_values)[1]


def ks_statistic(values) -> float:
    """Kolmogorov-Smirnov distance of a 1-d sample from the standard normal CDF ``F``.

    ``max_i max(i/m - F(x_(i)), F(x_(i)) - (i-1)/m)`` over the sorted
    sample of size m, taken over chunks of ``_KS_CHUNK`` values, so that
    ``F``'s scratch is that of one chunk; every term is elementwise and the
    maximum is exact, so the chunks change no bit.
    """
    arr = as_real(values, "values", -math.inf, math.inf, array=True)
    if arr.ndim != 1:
        raise ValueError(f"ks_statistic needs a 1-d sample, got shape {arr.shape}")
    arr = np.sort(arr)
    m = arr.size
    if m == 0:
        raise ValueError("ks_statistic needs a nonempty sample")
    d_plus = d_minus = -math.inf
    for start in range(0, m, _KS_CHUNK):
        cdf_vals = normal_cdf(arr[start:start + _KS_CHUNK])
        grid = np.arange(start + 1, start + 1 + cdf_vals.size, dtype=np.float64)
        d_plus = max(d_plus, np.max(grid / m - cdf_vals))
        d_minus = max(d_minus, np.max(cdf_vals - (grid - 1.0) / m))
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
    which imports ``numpy.ma`` (about 15 ms) on first use.  It takes the middle of
    ``np.sort``, whose kernel :func:`ks_statistic` sorts with, so a run maps no
    ``np.partition`` selection kernel; the middle values are the same."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    k, odd = divmod(arr.size, 2)
    return float(arr[k]) if odd else float((arr[k - 1] + arr[k]) / 2.0)


def _variance(arr: np.ndarray) -> float | None:
    if arr.size < 2:
        return None
    return float(np.var(arr, ddof=1))


def _per_n(records: tuple[ReplicationColumns, ...],
           sigma_exact: float) -> list[SampleSizeSummary]:
    """One summary per :class:`ReplicationColumns` of ``records``, in their order.
    The statistics cover the non-degenerate rows and are None without any.  The
    derived columns are made for one n at a time, one at a time, so the scratch
    is a few floats per row of one n."""
    summaries = []
    for at_n in records:
        valid = ~at_n.degenerate
        counts = dict(
            n=at_n.n,
            replications=len(at_n),
            degenerate_count=len(at_n) - int(np.count_nonzero(valid)),
            degenerate_empty_label=int(np.count_nonzero(at_n.reason == REASON_EMPTY_LABEL)),
            degenerate_empty_cell=int(np.count_nonzero(at_n.reason == REASON_EMPTY_CELL)),
        )
        if not valid.any():
            summaries.append(SampleSizeSummary(**counts))
            continue
        coverage = coverage_rate(at_n)
        eta = at_n.eta[valid]
        eta_stats = dict(
            eta_mean=float(eta.mean()),
            eta_median=_median(eta),
            eta_variance=_variance(eta),
            median_abs_eta=_median(np.abs(eta)),
        )
        del eta
        scaled = at_n.scaled_eta[valid]
        summaries.append(SampleSizeSummary(
            **counts,
            **eta_stats,
            scaled_eta_mean=float(scaled.mean()),
            scaled_eta_median=_median(scaled),
            scaled_eta_variance=_variance(scaled),
            ks_normalized=ks_statistic(scaled / sigma_exact) if sigma_exact > 0.0 else None,
            coverage=coverage,
        ))
    return summaries


def _two_sizes(config) -> str | None:
    return "needs at least 2 sample sizes" if len(config.n_values) < 2 else None


def _off_null(config) -> str | None:
    if np.all(np.abs(config.model.cond_p - config.model.cond_q) < NULL_ATOL):
        return "is unavailable when cond_p equals cond_q: the scaled error degenerates at the null"
    return None


def _lln_steps(config, per_n, bound_rows):
    """Steps between sizes with a ``median_abs_eta`` where it does not strictly shrink."""
    curve = {s.n: s.median_abs_eta for s in per_n if s.median_abs_eta is not None}
    if len(curve) < 2:
        empty = ", ".join(str(s.n) for s in per_n if s.median_abs_eta is None)
        return None, ("lln needs non-degenerate records at >= 2 distinct sample sizes"
                      + (f"; every replication was degenerate at n = {empty}" if empty else ""))
    medians = list(curve.values())
    return sum(not b < a for a, b in zip(medians, medians[1:])), (
        "steps where median |error| does not shrink; by n: "
        + ", ".join(f"{n}: {v:.6g}" for n, v in curve.items()))


def _ks_at_largest(config, per_n, bound_rows):
    """``ks_normalized`` at the largest n."""
    n = config.n_values[-1]
    ks = per_n[-1].ks_normalized if per_n else None
    return ks, f"KS distance at n={n}" if ks is not None else f"no usable replications at n={n}"


def _coverage_gap(config, per_n, bound_rows):
    """``|coverage - ci_level|`` at the largest n."""
    n, level = config.n_values[-1], config.ci_level
    coverage = per_n[-1].coverage if per_n else None
    if coverage is None:
        return None, f"no usable replications at n={n}"
    return abs(coverage - level), f"|coverage - {level}| at n={n}, coverage={coverage:.4f}"


def _largest_bound_margin(config, per_n, bound_rows):
    """The largest :attr:`~symkl.bounds.BoundTableRow.margin` over the rows with an
    exceedance (a positive empirical frequency); a table without one reads ``-inf``."""
    observed = [row for row in bound_rows if row.empirical]
    if not observed:
        return -math.inf, f"none of {len(bound_rows)} grid points has an exceedance"
    worst = max(observed, key=lambda row: row.margin)
    return worst.margin, (
        f"{sum(row.margin > 0.0 for row in observed)} of {len(bound_rows)} grid points exceed "
        f"bound + 3 stderr; largest margin at {worst.name} n={worst.n} g={worst.g} "
        f"(empirical={worst.empirical:.6g} bound={worst.bound:.6g} stderr={worst.stderr:.6g})")


# Each check: its precondition (says why it cannot run on a config, or None), its
# statistic (of the config, the per-n summaries and the bound rows: the value, None
# without usable data, and a line of context) and the limit of that value.
_CHECKS = {
    "lln": (_two_sizes, _lln_steps, 0),
    "clt": (_off_null, _ks_at_largest, KS_THRESHOLD),
    "coverage": (lambda config: None, _coverage_gap, COVERAGE_TOLERANCE),
    "bounds": (lambda config: None, _largest_bound_margin, 0.0),
}
CHECK_NAMES = tuple(_CHECKS)


def _run_check(name: str, config, per_n, bound_rows) -> CheckResult:
    """The check ``name`` of ``_CHECKS``, with its detail line."""
    _, statistic, limit = _CHECKS[name]
    value, context = statistic(config, per_n, bound_rows)
    margin = None if value is None else value - limit
    numbers = ("none" if x is None else f"{x:.6g}" for x in (value, limit, margin))
    return CheckResult(name, margin is not None and margin <= 0, value, limit, margin,
                       "value={} limit={} margin={}: ".format(*numbers) + context)


def check_bound_rows(rows) -> CheckResult:
    """The ``bounds`` check of a bound table, whose detail names its largest margin's point."""
    return _run_check("bounds", None, (), tuple(rows))


def evaluate(config: ExperimentConfig, records: tuple[ReplicationColumns, ...],
             bound_rows: tuple[BoundTableRow, ...]) -> ExperimentSummary:
    """Reduce ``records`` to one summary per sample size and run each check of
    ``_CHECKS`` on them and ``bound_rows``.  ``records`` are those of
    :func:`_table_pass`, or none; ``per_n`` has one entry per configured n,
    or none without records, and then only the bounds check has data.
    """
    sigma2 = exact_sigma2(config.model)
    per_n = tuple(_per_n(records, math.sqrt(sigma2)))
    return ExperimentSummary(
        true_divergence=config.model.sym_divergence(),
        sigma2_exact=sigma2,
        ci_level=config.ci_level,
        per_n=per_n,
        checks=tuple(_run_check(name, config, per_n, bound_rows) for name in config.checks),
        bound_rows=bound_rows,
    )


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run the replicated experiment and evaluate the requested checks.

    One :func:`_table_pass` on ``workers`` processes, then :func:`evaluate`.
    """
    check_type(config, ExperimentConfig, "config")
    g_values = DEFAULT_G_GRID if "bounds" in config.checks else ()
    z = interval_z(config.ci_level, "ci_level")
    columns, bound_rows = _table_pass(config.model, config.n_values, config.replications,
                                      config.master_seed, workers, z, g_values)
    return ExperimentResult(columns, evaluate(config, columns, tuple(bound_rows)))
