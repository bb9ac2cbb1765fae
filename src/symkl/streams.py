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

# Exclusive upper ends of the n_index and rep_index (or block_index) key fields.
N_INDEX_LIMIT = 1 << 16
REP_INDEX_LIMIT = 1 << 32


def as_integral(value, name: str) -> int:
    """``value`` as an int: an int, a bool, a numpy integer or an integral float
    such as ``1e4``.  Anything else (a fractional part, inf, nan, a str, None,
    a complex number, a list) raises ValueError naming ``name``."""
    try:
        if hasattr(value, "__index__"):  # int, bool and the numpy integer types
            return value.__index__()
        if not isinstance(value, (str, bytes)) and float(value).is_integer():
            return int(float(value))
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _philox(master_seed: int, tag: int, n_index: int, index: int) -> np.random.Generator:
    master_seed = as_integral(master_seed, "master_seed")
    n_index = as_integral(n_index, "n_index")
    index = as_integral(index, "rep_index or block_index")
    if not 0 <= master_seed < 1 << 64:
        raise ValueError("master_seed must fit in an unsigned 64-bit integer")
    if not 0 <= n_index < N_INDEX_LIMIT:
        raise ValueError(f"n_index must be in [0, 2^16), got {n_index}")
    if not 0 <= index < REP_INDEX_LIMIT:
        raise ValueError(f"rep_index or block_index must be in [0, 2^32), got {index}")
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
