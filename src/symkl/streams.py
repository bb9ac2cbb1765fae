"""Deterministic derivation of independent random streams.

Every stochastic routine in this package receives its randomness through
:func:`block_stream` or :func:`replication_stream`.  Each derives a
counter-based Philox generator from an explicit 128-bit key, so stream
construction is pure: the same ``(master_seed, tag, n_index, index)``
always yields the same stream, independent of call order, scheduling, or
worker count, and no global RNG state is read or written.

Key layout
----------
The Philox key is two 64-bit words::

    word 0 = master_seed  (in [0, 2**64))
    word 1 = tag << 48 | n_index << 32 | index

The Monte Carlo count tables, of the estimator and the bound checks alike,
come in blocks, each from one stream with ``tag = 3`` and ``index =
block_index`` (:func:`~symkl.model.table_blocks`).  Single tables for
:func:`~symkl.model.sample_batch` come from :func:`replication_stream`
with ``tag = 0`` and ``index = rep_index``.  Tags 1 and 2 are reserved and
unused.  Distinct tags keep the domains' streams from ever colliding.
Key fields are integers under :func:`as_integral`, and one outside its
range raises ``ValueError`` rather than wrap onto the key.
"""

from __future__ import annotations

import numpy as np

TAG_REPLICATION = 0
TAG_BLOCK = 3

# Integer limits: the largest count, count table total and sample size that
# int64 holds, and the exclusive upper ends of the stream key's fields.
MAX_COUNT = (1 << 63) - 1
SEED_LIMIT = 1 << 64
N_INDEX_LIMIT = 1 << 16
REP_INDEX_LIMIT = 1 << 32


def _limit_text(bound: int) -> str:
    """``bound`` for a message: ``2**k`` and ``2**k - 1`` from ``k = 16`` on by their exponent."""
    for power, suffix in ((bound, ""), (bound + 1, " - 1")):
        if power >= 1 << 16 and power & (power - 1) == 0:
            return f"2**{power.bit_length() - 1}{suffix}"
    return str(bound)


def out_of_range(name: str, lo: int, hi: int | None, got) -> ValueError:
    """The range error ``"{name} must lie in [lo, hi], got {got}"`` (``[lo, inf)``
    without ``hi``)."""
    high = "inf)" if hi is None else f"{_limit_text(hi)}]"
    return ValueError(f"{name} must lie in [{_limit_text(lo)}, {high}, got {got}")


def as_integral(value, name: str, lo: int, hi: int | None = None) -> int:
    """``value`` as an int in ``[lo, hi]`` (no upper end when ``hi`` is None): an
    int, a bool, a numpy integer or another number equal to its ``int()``, such as
    ``1e4`` or ``Decimal("1e400")``.  Anything else (a fractional part, inf, nan, a
    str, None, a complex number, a list) raises ValueError naming ``name``, and so
    does an integer outside the range, as :func:`out_of_range` words it."""
    try:
        number = value.__index__() if hasattr(value, "__index__") else int(value)
        if number != value:  # a str, or a fractional part: no float() to overflow or round
            raise TypeError
    except (TypeError, ValueError, OverflowError):  # int() of nan and of inf
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if number < lo or (hi is not None and number > hi):
        # a value too long for str() under the interpreter's digit limit is described
        raise out_of_range(name, lo, hi, number if number.bit_length() <= 2000 else (
            f"{'a negative' if number < 0 else 'an'} integer of {number.bit_length()} bits"))
    return number


def _philox(master_seed: int, tag: int, n_index: int, index: int) -> np.random.Generator:
    master_seed = as_integral(master_seed, "master_seed", 0, SEED_LIMIT - 1)
    n_index = as_integral(n_index, "n_index", 0, N_INDEX_LIMIT - 1)
    index = as_integral(index, "rep_index or block_index", 0, REP_INDEX_LIMIT - 1)
    word = (tag << 48) | (n_index << 32) | index
    key = np.array([master_seed, word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def replication_stream(master_seed: int, n_index: int, rep_index: int) -> np.random.Generator:
    """Stream for one Monte Carlo replication at one sample size.

    Parameters
    ----------
    master_seed : int
        Experiment-level seed, in ``[0, 2**64)``.
    n_index : int
        Position of the sample size in the experiment's ``n_values`` grid.
    rep_index : int
        Replication number, ``0 <= rep_index < replications``.
    """
    return _philox(master_seed, TAG_REPLICATION, n_index, rep_index)


def block_stream(master_seed: int, n_index: int, block_index: int) -> np.random.Generator:
    """Stream for one block of Monte Carlo replications at one sample size.

    Parameters
    ----------
    master_seed : int
        Experiment-level seed, in ``[0, 2**64)``.
    n_index : int
        Position of the sample size in the experiment's ``n_values`` grid.
    block_index : int
        Block number at that sample size, ``0 <= block_index < 2**32``.
    """
    return _philox(master_seed, TAG_BLOCK, n_index, block_index)
