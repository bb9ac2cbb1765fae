"""Deterministic derivation of independent random streams.

Every stochastic routine in this package receives its randomness through
:func:`replication_stream` or :func:`auxiliary_stream`.  Both derive a
counter-based Philox generator from an explicit 128-bit key, so stream
construction is pure: the same ``(master_seed, tag, n_index, rep_index)``
always yields the same stream, independent of call order, scheduling, or
worker count, and no global RNG state is read or written.

Key layout
----------
The Philox key is two 64-bit words::

    word 0 = master_seed  (mod 2**64)
    word 1 = tag << 48 | n_index << 32 | rep_index

Replication streams use ``tag = 0``; auxiliary domains (tail-bound grids,
standalone sampling helpers) use small positive tags, so their streams can
never collide with a replication stream.
"""

from __future__ import annotations

import numpy as np

TAG_REPLICATION = 0
TAG_BOUNDS = 1
TAG_SCRATCH = 2

_MASK64 = (1 << 64) - 1

# Exclusive upper ends of the n_index and rep_index key fields.
N_INDEX_LIMIT = 1 << 16
REP_INDEX_LIMIT = 1 << 32


def _philox(master_seed: int, tag: int, n_index: int, rep_index: int) -> np.random.Generator:
    if not 0 <= tag < 1 << 16:
        raise ValueError(f"tag must be in [0, 2^16), got {tag}")
    if not 0 <= n_index < N_INDEX_LIMIT:
        raise ValueError(f"n_index must be in [0, 2^16), got {n_index}")
    if not 0 <= rep_index < REP_INDEX_LIMIT:
        raise ValueError(f"rep_index must be in [0, 2^32), got {rep_index}")
    word = (tag << 48) | (n_index << 32) | rep_index
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


def auxiliary_stream(master_seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """Stream for a non-replication domain (tag >= 1 keeps it disjoint)."""
    if tag < 1:
        raise ValueError(f"auxiliary tags start at 1, got {tag}")
    return _philox(master_seed, tag, index, 0)
