import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import symkl
from symkl import PopulationModel, ReplicationColumns
from symkl.montecarlo import _STORED as STORED

SIMPLEX_ATTEMPTS = 10_000


def run_python(*args, env=None):
    """Run ``python *args`` in a fresh interpreter that imports this symkl.

    ``env`` sets variables of the child's environment; a ``None`` value
    removes one.
    """
    src = str(Path(symkl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **(env or {}), "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], env={k: v for k, v in env.items() if v is not None},
        capture_output=True, text=True, timeout=120,
    )


def run_child(code, *args, env=None):
    """Run ``python -c code`` in a fresh interpreter that imports this symkl."""
    return run_python("-c", code, *args, env=env)


def random_simplex(rng: np.random.Generator, r: int, min_entry: float = 1e-3) -> np.ndarray:
    """Random strictly positive simplex point.

    Normalized exponential draws, rejecting vectors whose smallest entry
    falls below ``min_entry`` so downstream logs and ratios stay tame.
    Gives up after ``SIMPLEX_ATTEMPTS`` draws: with the default floor the
    acceptance rate collapses as r grows (about 1 in 40 000 at r=100, never
    once 1/r is at or below the floor).
    """
    for _ in range(SIMPLEX_ATTEMPTS):
        raw = rng.exponential(size=r)
        vec = raw / raw.sum()
        if vec.min() >= min_entry:
            return vec
    raise RuntimeError(
        f"random_simplex found no vector with min entry >= {min_entry} at r={r} "
        f"in {SIMPLEX_ATTEMPTS} draws; pass min_entry=0.0 for large alphabets"
    )


def random_model(rng: np.random.Generator, r: int) -> PopulationModel:
    """Random population with conditionals kept away from the null."""
    while True:
        p = random_simplex(rng, r)
        q = random_simplex(rng, r)
        if np.max(np.abs(p - q)) > 1e-6:
            return PopulationModel(
                label_prob=float(rng.uniform(0.2, 0.8)), cond_p=p, cond_q=q
            )


# Every column of ReplicationColumns, stored and derived, in records.csv order.
COLUMNS = ("reason", "estimate", "eta", "scaled_eta", "sigma2_hat", "ci_lower", "ci_upper",
           "covered")


def make_columns(n, rows, truth: float = 0.0, z: float = 1.96) -> ReplicationColumns:
    """Records at sample size ``n`` from ``(reason, estimate, sigma2_hat)`` row
    tuples, with the kernel's column types."""
    columns = list(zip(*rows)) or [()] * len(STORED)
    return ReplicationColumns(n, *(
        np.array(values, dtype=dtype) for dtype, values in zip(STORED.values(), columns)
    ), truth, z)


def assert_column_equal(x: np.ndarray, y: np.ndarray, name: str) -> None:
    """Same values and type; NaN equals NaN, but ``-0.0`` and ``0.0`` differ,
    as ``records.csv`` writes them."""
    assert x.dtype == y.dtype, name
    assert x.shape == y.shape, name
    np.testing.assert_array_equal(x, y, err_msg=name)
    if x.dtype.kind == "f":
        np.testing.assert_array_equal(np.signbit(x) & ~np.isnan(x),
                                      np.signbit(y) & ~np.isnan(y), err_msg=f"{name} sign")


def assert_columns_equal(a: ReplicationColumns, b: ReplicationColumns) -> None:
    """Same rows, stored and derived, with the same column types and scalars."""
    assert a.n == b.n, (a.n, b.n)
    for name in COLUMNS:
        assert_column_equal(getattr(a, name), getattr(b, name), name)
    np.testing.assert_array_equal([a.truth, a.z], [b.truth, b.z], err_msg="truth, z")


def traced_peak(fn, *args) -> int:
    """Peak bytes that ``fn(*args)`` holds at once, as tracemalloc sees them
    (numpy's buffers included); a first untraced call pays one-time set-up."""
    fn(*args)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture
def test_model() -> PopulationModel:
    """The worked example used throughout: a 2-symbol population."""
    return PopulationModel(label_prob=0.5, cond_p=(0.5, 0.5), cond_q=(0.25, 0.75))
