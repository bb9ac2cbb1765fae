"""Population model for labeled categorical data.

A population is a pair of strictly positive conditional laws over a finite
alphabet of ``r >= 2`` symbols together with a label probability: a draw is
``(X, Y)`` with ``Y ~ Bernoulli(label_prob)``, ``X | Y=1 ~ cond_p`` and
``X | Y=0 ~ cond_q``.  Symbols are identified with their indices
``0 .. r-1``.  This module owns simplex validation, done once when a
:class:`PopulationModel` is built, the symmetric divergence between the two
conditionals, and sampling into blocks of joint count tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import MAX_COUNT, as_integral, block_stream, out_of_range

# Entries at or below this are treated as numerically zero; strict
# positivity means every entry exceeds it.
EPS_POSITIVE = 1e-12

# |sum - 1| tolerance for a probability vector.
SIMPLEX_ATOL = 1e-12

# Count cells (rows x r) per sampling block, for the Monte Carlo kernel and
# the bound pass alike.  Part of the stream layout: changing it changes
# every records.csv and bounds.csv.
BLOCK_CELLS = 1 << 16


def _real(value, name: str) -> float:
    """``float(value)`` of one real number: no string, bytes, None or complex."""
    if value is None or np.asarray(value).dtype.kind not in "biufO":
        raise ValueError(f"{name} must be real, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name}: integer too large for a float") from None
    except TypeError:  # an object that is no number, such as a dict or a set
        raise ValueError(f"{name} must be real, got {value!r}") from None


def as_real(value, name: str, lo: float | None = None, hi: float = math.inf, ends: str = "()",
            array: bool = False):
    """``float(value)``, or with ``array`` ``value`` as a float64 array.  A
    string, bytes, None, any other object that is no number, a complex
    value, even with a zero imaginary part, or an integer too large for a
    float raises ValueError naming ``name``.  Given ``lo``, so does a value
    outside the interval from ``lo`` to ``hi`` that ``ends`` brackets, as
    :func:`~symkl.streams.out_of_range` words it with the first such value;
    NaN lies outside every interval."""
    if not array:
        x = _real(value, name)
    else:
        arr = np.asarray(value)
        if arr.dtype.kind == "O":  # Python integers beyond int64, or None or a string among numbers
            x = np.array([_real(v, name) for v in arr.ravel().tolist()]).reshape(arr.shape)
        elif arr.dtype.kind in "biuf":
            x = arr.astype(np.float64, copy=False)
        else:
            raise ValueError(f"{name} must be real, got {value!r}")
    if lo is not None:
        inside = (lo <= x if ends[0] == "[" else lo < x) & (x <= hi if ends[1] == "]" else x < hi)
        if not np.all(inside):
            raise out_of_range(name, lo, hi, float(np.ravel(x)[np.argmin(inside)]), ends)
    return x


def check_type(value, cls: type, name: str) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {cls.__name__}, got {value!r}")


def as_prob_vector(values, *, name: str = "probability vector") -> np.ndarray:
    """Validate ``values`` as a probability vector.

    Returns a read-only float64 copy.  Requires a 1-d array of length >= 2
    with entries in [0, inf) summing to 1 within ``SIMPLEX_ATOL``,
    each of them above ``EPS_POSITIVE``.
    """
    vec = as_real(values, name, 0, math.inf, "[)", array=True)
    if vec.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {vec.shape}")
    if vec.size < 2:
        raise ValueError(f"{name} needs at least 2 entries, got {vec.size}")
    try:
        total = math.fsum(vec.tolist())
    except OverflowError:  # finite entries whose sum is beyond the float range
        total = math.inf
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise ValueError(
            f"{name} sums to {total!r}; expected 1 within {SIMPLEX_ATOL}"
        )
    if np.any(vec <= EPS_POSITIVE):
        raise ValueError(f"{name} must be strictly positive; min entry {float(vec.min())!r}")
    out = vec.copy()
    out.flags.writeable = False
    return out


def _check_same_length(p: np.ndarray, q: np.ndarray) -> None:
    if p.shape != q.shape:
        raise ValueError(
            f"vectors must share one alphabet, got lengths {p.size} and {q.size}"
        )


def _jeffreys(p: np.ndarray, q: np.ndarray) -> float:
    """``sum_j (p_j - q_j)(ln p_j - ln q_j)`` of two positive arrays, unchecked."""
    return math.fsum(((p - q) * (np.log(p) - np.log(q))).tolist())


def sym_kl_divergence(p, q) -> float:
    """Symmetric (Jeffreys) divergence ``sum_j (p_j - q_j)(ln p_j - ln q_j)``.

    Equals ``KL(p || q) + KL(q || p)`` for strictly positive probability
    vectors of one length, which are checked here.  Every term is
    nonnegative (the factors share a sign), so the compensated sum is
    nonnegative with no clamping, and swapping the arguments permutes
    nothing: the result is bitwise symmetric in ``p`` and ``q``.
    """
    p = as_prob_vector(p, name="p")
    q = as_prob_vector(q, name="q")
    _check_same_length(p, q)
    return _jeffreys(p, q)


@dataclass(frozen=True, eq=False)
class PopulationModel:
    """Joint law of one labeled draw.

    Attributes
    ----------
    label_prob : float
        ``P(Y = 1)``, strictly inside (0, 1).
    cond_p : numpy.ndarray
        Law of ``X`` given ``Y = 1``; strictly positive, length ``r >= 2``.
    cond_q : numpy.ndarray
        Law of ``X`` given ``Y = 0``; same length as ``cond_p``.
    """

    label_prob: float
    cond_p: np.ndarray
    cond_q: np.ndarray

    def __post_init__(self) -> None:
        prob = as_real(self.label_prob, "label_prob", 0, 1)
        p = as_prob_vector(self.cond_p, name="cond_p")
        q = as_prob_vector(self.cond_q, name="cond_q")
        _check_same_length(p, q)
        object.__setattr__(self, "label_prob", prob)
        object.__setattr__(self, "cond_p", p)
        object.__setattr__(self, "cond_q", q)

    @property
    def r(self) -> int:
        """Alphabet size."""
        return int(self.cond_p.size)

    def sym_divergence(self) -> float:
        """Symmetric divergence between the two conditionals."""
        return _jeffreys(self.cond_p, self.cond_q)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PopulationModel):
            return NotImplemented
        return (
            self.label_prob == other.label_prob
            and np.array_equal(self.cond_p, other.cond_p)
            and np.array_equal(self.cond_q, other.cond_q)
        )

    def __hash__(self) -> int:
        return hash((self.label_prob, self.cond_p.tobytes(), self.cond_q.tobytes()))


@dataclass(frozen=True, eq=False)
class CountTable:
    """Joint counts over (symbol, label) cells from ``n`` labeled draws.

    Attributes
    ----------
    n1 : numpy.ndarray
        Per-symbol counts among label-1 draws, length ``r``.
    n0 : numpy.ndarray
        Per-symbol counts among label-0 draws, same length.
    """

    n1: np.ndarray
    n0: np.ndarray

    def __post_init__(self) -> None:
        n1 = _as_count_row(self.n1, name="n1")
        n0 = _as_count_row(self.n0, name="n0")
        if n1.shape != n0.shape:
            raise ValueError(
                f"count rows must share one alphabet, got lengths {n1.size} and {n0.size}"
            )
        # int64 sums wrap silently; Python ints do not
        total = sum(n1.tolist()) + sum(n0.tolist())
        if total <= 0:
            raise ValueError("count table is empty")
        if total > MAX_COUNT:
            raise ValueError(f"count table total {total} exceeds 2**63 - 1")
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n0", n0)

    @property
    def r(self) -> int:
        """Alphabet size."""
        return int(self.n1.size)

    @property
    def n(self) -> int:
        """Total sample size ``sum(n1) + sum(n0)``."""
        return int(self.n1.sum() + self.n0.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return np.array_equal(self.n1, other.n1) and np.array_equal(self.n0, other.n0)

    def __hash__(self) -> int:
        return hash((self.n1.tobytes(), self.n0.tobytes()))


def _as_count_row(values, *, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=object)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError(f"{name} needs at least 2 entries, got {arr.size}")
    out = np.array([as_integral(v, name, 0, MAX_COUNT) for v in arr.tolist()], dtype=np.int64)
    out.flags.writeable = False
    return out


def sample_counts(
    model: PopulationModel, n: int, rows: int, stream: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``rows`` independent count tables of ``n`` labeled samples each.

    Per row, the label-1 count is Binomial(n, label_prob) and the symbol
    counts within each label class are multinomial, which is
    distributionally identical to ``n`` sequential (label, symbol) draws.
    The stream is consumed in a fixed order: all label counts, then all
    label-1 symbol counts, then all label-0 symbol counts.  ``model`` was
    validated when it was built, so nothing is validated again here.

    Returns
    -------
    n1, n0 : numpy.ndarray
        ``(rows, r)`` int64 symbol counts among label-1 and label-0 draws, as
        :class:`CountTable` holds them; a row of ``n1`` sums to its label-1 count.
    """
    k1 = stream.binomial(n, model.label_prob, size=rows)
    return stream.multinomial(k1, model.cond_p), stream.multinomial(n - k1, model.cond_q)


def block_rows(r: int) -> int:
    """Rows per sampling block at alphabet size ``r``."""
    return max(1, BLOCK_CELLS // r)


@dataclass(frozen=True)
class TableBlock:
    """Count tables ``start .. start + size`` at sample size ``n``, from ``block_stream(*key)``."""

    model: PopulationModel
    n: int
    start: int
    size: int
    key: tuple[int, int, int]  # (master_seed, n_index, block_index)

    def draw(self) -> tuple[np.ndarray, np.ndarray]:
        """``n1, n0`` of the block's tables, as :func:`sample_counts` returns them."""
        return sample_counts(self.model, self.n, self.size, block_stream(*self.key))


def table_blocks(model: PopulationModel, n_values, replications: int,
                 master_seed: int) -> list[TableBlock]:
    """The blocks of ``replications`` count tables at each sample size.

    At sample-size index ``i`` the tables are split into blocks of
    ``block_rows(r)`` rows, the last holding the remainder; block ``b`` has
    the key ``(master_seed, i, b)``.  The estimator's replications and the
    bound Monte Carlo both read their tables here.
    """
    step = block_rows(model.r)
    return [
        TableBlock(model, n, start, min(step, replications - start),
                   (master_seed, n_index, start // step))
        for n_index, n in enumerate(n_values)
        for start in range(0, replications, step)
    ]


def sample_batch(model: PopulationModel, n: int, stream: np.random.Generator) -> CountTable:
    """Draw ``n`` labeled samples from ``model`` and aggregate into counts.

    One row of :func:`sample_counts`, which draws the same values as
    sampling this table alone from ``stream``.

    Parameters
    ----------
    model : PopulationModel
        Population to sample.
    n : int
        Number of draws, in ``[1, 2**63 - 1]``.
    stream : numpy.random.Generator
        Private random stream (see :mod:`symkl.streams`).
    """
    check_type(model, PopulationModel, "model")
    check_type(stream, np.random.Generator, "stream")
    n1, n0 = sample_counts(model, as_integral(n, "n", 1, MAX_COUNT), 1, stream)
    return CountTable(n1=n1[0], n0=n0[0])
