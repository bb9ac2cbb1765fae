"""Deterministic derivation of independent random streams.

Every stochastic routine in this package receives its randomness through
:func:`block_stream`, :func:`replication_stream` or :func:`auxiliary_stream`.
Each derives a counter-based Philox generator from an explicit 128-bit key,
so stream construction is pure: the same ``(master_seed, tag, n_index,
index)`` always yields the same stream, independent of call order,
scheduling, or worker count, and no global RNG state is read or written.

Key layout
----------
The Philox key is two 64-bit words::

    word 0 = master_seed  (mod 2**64)
    word 1 = tag << 48 | n_index << 32 | index

The Monte Carlo count tables, of the estimator and the bound checks alike,
come in blocks, each from one stream with ``tag = 3`` and ``index =
block_index`` (:func:`~symkl.model.table_blocks`).  Single-replication
streams (:func:`~symkl.montecarlo.run_replication`) use ``tag = 0`` and
``index = rep_index``.  Auxiliary domains (standalone sampling helpers)
use tag 1 or 2, their own index in the ``n_index`` field and ``index = 0``;
no package routine draws from tag 1.  Distinct tags keep the domains'
streams from ever colliding.
"""

from __future__ import annotations

import numpy as np

TAG_REPLICATION = 0
TAG_SCRATCH = 2
TAG_BLOCK = 3

_MASK64 = (1 << 64) - 1

# Exclusive upper ends of the n_index and rep_index (or block_index) key fields.
N_INDEX_LIMIT = 1 << 16
REP_INDEX_LIMIT = 1 << 32


def _philox(master_seed: int, tag: int, n_index: int, index: int) -> np.random.Generator:
    if not 0 <= tag < 1 << 16:
        raise ValueError(f"tag must be in [0, 2^16), got {tag}")
    if not 0 <= n_index < N_INDEX_LIMIT:
        raise ValueError(f"n_index must be in [0, 2^16), got {n_index}")
    if not 0 <= index < REP_INDEX_LIMIT:
        raise ValueError(f"rep_index or block_index must be in [0, 2^32), got {index}")
    word = (tag << 48) | (n_index << 32) | index
    key = np.array([int(master_seed) & _MASK64, word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def replication_stream(master_seed: int, n_index: int, rep_index: int) -> np.random.Generator:
    """Stream for one Monte Carlo replication at one sample size.

    Parameters
    ----------
    master_seed : int
        Experiment-level seed (reduced mod 2**64).
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
        Experiment-level seed (reduced mod 2**64).
    n_index : int
        Position of the sample size in the experiment's ``n_values`` grid.
    block_index : int
        Block number at that sample size, ``0 <= block_index < 2**32``.
    """
    return _philox(master_seed, TAG_BLOCK, n_index, block_index)


def auxiliary_stream(master_seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """Stream for a non-replication domain.

    ``tag`` is neither ``TAG_REPLICATION`` nor ``TAG_BLOCK``, which keeps
    the stream disjoint from every replication stream.
    """
    if tag < 1 or tag == TAG_BLOCK:
        raise ValueError(f"auxiliary tags start at 1 and exclude {TAG_BLOCK}, got {tag}")
    return _philox(master_seed, tag, index, 0)
