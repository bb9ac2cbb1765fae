"""SHA-256 digests of the deterministic output files of small runs.

Each config is a small run shaped like one benchmark workload or like the
degenerate-rows step of CI, and runs through the CLI at ``--workers`` 1 and
2.  Its ``records.csv``, ``bounds.csv`` and ``summary.json`` must keep the
digests below, and its exit code too: a change that alters any of those
bytes changes its contract, lists the change, and updates the digest here.

The bytes rest on numpy's float functions and random streams as well as on
symkl: numpy's float64 ``log`` and ``exp``, for one, round differently with
and without AVX-512.  ``PLATFORM`` is the digest of those primitives on the
platform that took the digests; on another platform the test is skipped.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from symkl.asymptotics import normal_cdf
from symkl.cli import main


def _law(weights):
    total = math.fsum(weights)
    return [w / total for w in weights]


def _weights(r):
    return [1.0 + (j % 7) / 10 for j in range(r)]


README_MODEL = {"label_prob": 0.5, "cond_p": [0.5, 0.5], "cond_q": [0.25, 0.75]}

# name: (subcommand, config)
CONFIGS = {
    "r2-lln-clt-coverage": ("simulate", {
        "model": README_MODEL, "n_values": [100, 1000], "replications": 300,
        "master_seed": 3101, "checks": ["lln", "clt", "coverage"]}),
    "r50-bounds": ("bounds-check", {
        "model": {"label_prob": 0.4, "cond_p": _law(_weights(50)),
                  "cond_q": _law(_weights(50)[::-1])},
        "n_values": [100, 1000], "replications": 2000, "master_seed": 3102,
        "checks": ["bounds"]}),
    "r1000-lln": ("simulate", {
        "model": {"label_prob": 0.5, "cond_p": _law(_weights(1000)),
                  "cond_q": _law(_weights(1000)[::-1])},
        "n_values": [20000, 200000], "replications": 130, "master_seed": 3103,
        "checks": ["lln"]}),
    "degenerate-rows": ("simulate", {
        "model": README_MODEL, "n_values": [4, 40], "replications": 3000, "master_seed": 42}),
}

# name: (exit code, {file: SHA-256 of its bytes})
DIGESTS = {
    "degenerate-rows": (0, {
        "records.csv": "16056801efad7c51dc262ef26b4afd0340504e09e9e625103a028455bdf3aa92",
        "summary.json": "2e1193835c9bf002d38f738669397bad1e08e94be6c6aa3b4827358a62fc015d",
    }),
    "r1000-lln": (0, {
        "records.csv": "a526b6054dc2cd3a45be062e268206503ed0ab615a717805885eddd0a7c4c1e2",
        "summary.json": "54b3deb2fc6b14ac4760d0beae12f9b3ac83e220eb12d100e7d7e2fc1f17b93c",
    }),
    "r2-lln-clt-coverage": (3, {
        "records.csv": "77b569ecbeca59cd4d21dc704845d73ba900ba2cb48be8b916a5ca1af0527dce",
        "summary.json": "00e7d514f5bd5cec85d898d02fe9f4dcef3e572e9eb692368410b59dce2a361e",
    }),
    "r50-bounds": (0, {
        "bounds.csv": "ff8b6254b6e5b491459edd9a26b163598da8c9c30ae5c36c6561a3743fd58787",
        "summary.json": "39d35e920b2204cab616af1eae86223f2b018df9c766b788d635241560d852db",
    }),
}

PLATFORM = "63978cefd37f82dcce0c63d60ccdaa4efd3109e76f15437d0d5c07d08909e8c9"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def platform_digest() -> str:
    """The digest of the numpy primitives the outputs rest on: float64 ``log``,
    ``exp``, sums along rows (``sum`` and the kernel's ``einsum`` products),
    ``normal_cdf`` and Philox binomial and multinomial draws."""
    x = np.random.default_rng(0).random(1 << 12)
    stream = np.random.Generator(np.random.Philox(key=[1, 2]))
    k1 = stream.binomial(1000, 0.4, size=64)
    rows = [x.reshape(-1, r) for r in (2, 64, 1024)]
    parts = [np.log(x), np.exp(-x), normal_cdf(x - 0.5),
             stream.multinomial(k1, _law(_weights(50))),
             *(y.sum(axis=1) for y in rows),
             *(np.einsum("ij,ij->i", y, y) for y in rows),
             *(np.einsum("ij,ij,ij->i", y, y, y) for y in rows)]
    return _sha256(b"".join(part.tobytes() for part in parts))


def run_digests(tmp_path, name: str, workers: int):
    """The exit code and the output digests of config ``name`` at ``workers``."""
    command, config = CONFIGS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--workers", str(workers), "--out-dir", str(out)])
    return code, {file.name: _sha256(file.read_bytes())
                  for file in sorted(out.iterdir()) if file.name != "manifest.json"}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_digests(tmp_path, name, workers):
    if platform_digest() != PLATFORM:
        pytest.skip("numpy's float or random primitives differ here from the platform "
                    "that took the digests")
    assert run_digests(tmp_path, name, workers) == DIGESTS[name]
