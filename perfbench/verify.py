"""Output verification of one CLI run, from contract-level facts only.

The facts used are the ones the project README states about the result
files: their names, the ``records.csv`` header and row count, what each
column means, how ``summary.json`` aggregates the records, the bound grid
and the bounds' monotonicity.  Nothing depends on how ``records.csv`` is
produced, so the checks hold across a change of its bytes.  Each check
returns a list of problems; an empty list means the run verified.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from statistics import NormalDist

import numpy as np

RECORDS_HEADER = (
    "rep_index,n,estimate,eta,scaled_eta,sigma2_hat,ci_lo,ci_hi,covered,degenerate"
)
BOUNDS_HEADER = "name,n,g,bound,informative,empirical,stderr,valid"
BOUND_COUNT = 6
G_GRID = (0.05, 0.1, 0.2, 0.5)

# Tolerances for values the program computes in another order than here.
RTOL_EXACT = 1e-12  # same arithmetic, other summation order
RTOL_INTERVAL = 1e-9  # z from another normal quantile implementation
RTOL_MODEL = 1e-9  # O(r^2) enumeration against the program's closed form


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def model_reference(model: dict) -> tuple[float, float]:
    """Symmetric divergence and limit variance of a config's model.

    The variance is ``Var W`` of the influence value the package documents
    (``symkl.asymptotics``), enumerated here outcome by outcome from its
    definition over the full 2r x r indicator table, not from the
    package's collapsed inner products.
    """
    pi = model["label_prob"]
    p = np.asarray(model["cond_p"], dtype=np.float64)
    q = np.asarray(model["cond_q"], dtype=np.float64)
    r = p.size
    log_ratio = np.log(p) - np.log(q)
    divergence = float(np.sum((p - q) * log_ratio))

    b = 1.0 + log_ratio - q / p
    c = 1.0 - log_ratio - p / q
    # rows: outcomes (x, y=1) for x < r, then (x, y=0)
    ind_x1 = np.vstack([np.eye(r), np.zeros((r, r))])
    ind_x0 = np.vstack([np.zeros((r, r)), np.eye(r)])
    ind_y1 = np.concatenate([np.ones(r), np.zeros(r)])[:, None]
    bracket_p = (ind_x1 - pi * p) / pi - p * (ind_y1 - pi)
    bracket_q = (ind_x0 - (1.0 - pi) * q) / (1.0 - pi) - q * ((1.0 - ind_y1) - (1.0 - pi))
    w = bracket_p @ b + bracket_q @ c
    probs = np.concatenate([pi * p, (1.0 - pi) * q])
    mean = float(probs @ w)
    sigma2 = max(float(probs @ (w * w)) - mean * mean, 0.0)
    return divergence, sigma2


def _read_csv(path, header: str) -> tuple[list[list[str]], list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        return [], [f"{os.path.basename(path)}: bad header"]
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    bad = [i for i, row in enumerate(rows, start=2) if len(row) != width]
    if bad:
        return [], [f"{os.path.basename(path)}: line {bad[0]} does not have {width} fields"]
    return rows, []


def _column(rows, index: int) -> np.ndarray:
    return np.array([float(row[index]) if row[index] else math.nan for row in rows])


def _check_model_values(summary: dict, config: dict) -> list[str]:
    divergence, sigma2 = model_reference(config["model"])
    problems = []
    if not math.isclose(summary.get("true_divergence", math.nan), divergence, rel_tol=RTOL_MODEL):
        problems.append(f"true_divergence {summary.get('true_divergence')} != {divergence}")
    if not math.isclose(summary.get("sigma2_exact", math.nan), sigma2, rel_tol=RTOL_MODEL):
        problems.append(f"sigma2_exact {summary.get('sigma2_exact')} != {sigma2}")
    return problems


def _check_records(rows, summary: dict, config: dict) -> list[str]:
    n_values = config["n_values"]
    reps = config["replications"]
    if len(rows) != reps * len(n_values):
        return [f"records.csv has {len(rows)} rows, expected {reps * len(n_values)}"]
    problems = []
    n_col = np.array([int(row[1]) for row in rows])
    rep_col = np.array([int(row[0]) for row in rows])
    for n in n_values:
        if sorted(rep_col[n_col == n].tolist()) != list(range(reps)):
            problems.append(f"records.csv: rep_index at n={n} is not 0..{reps - 1}")
    degenerate = np.array([row[9] == "1" for row in rows])
    if any(row[9] not in ("0", "1") for row in rows):
        problems.append("records.csv: degenerate flag is not 0/1")
    value_fields = np.array([[bool(f) for f in row[2:9]] for row in rows])
    if np.any(value_fields[degenerate]) or not np.all(value_fields[~degenerate]):
        problems.append("records.csv: value fields must be empty exactly on degenerate rows")
        return problems

    ok = ~degenerate
    truth = summary["true_divergence"]
    n = n_col[ok].astype(np.float64)
    est, eta, scaled, s2, lo, hi = (_column(rows, i)[ok] for i in range(2, 8))
    covered = np.array([row[8] == "1" for row in rows])[ok]
    z = NormalDist().inv_cdf((1.0 + config["ci_level"]) / 2.0)
    half = z * np.sqrt(s2 / n)
    checks = {
        "eta = estimate - truth": np.isclose(eta, est - truth, rtol=RTOL_EXACT, atol=1e-15),
        "scaled_eta = sqrt(n) * eta": np.isclose(scaled, np.sqrt(n) * eta, rtol=RTOL_EXACT,
                                                 atol=1e-15),
        "sigma2_hat >= 0": s2 >= 0.0,
        "ci_lo = estimate - z sqrt(sigma2_hat / n)": np.isclose(lo, est - half,
                                                                rtol=RTOL_INTERVAL, atol=1e-15),
        "ci_hi = estimate + z sqrt(sigma2_hat / n)": np.isclose(hi, est + half,
                                                                rtol=RTOL_INTERVAL, atol=1e-15),
        "covered = (ci_lo <= truth <= ci_hi)": covered == ((lo <= truth) & (truth <= hi)),
    }
    for what, good in checks.items():
        if not np.all(good):
            problems.append(f"records.csv: {what} fails on {int(np.sum(~good))} rows")

    per_n = summary.get("per_n", [])
    if [s.get("n") for s in per_n] != list(n_values):
        return problems + ["summary.json: per_n does not follow n_values"]
    for s in per_n:
        at_n = n_col == s["n"]
        valid = at_n & ok
        if s["degenerate_count"] != int(np.sum(at_n & degenerate)):
            problems.append(f"summary.json: degenerate_count at n={s['n']} disagrees with "
                            "records.csv")
        if not np.any(valid):
            if s["coverage"] is not None or s["median_abs_eta"] is not None:
                problems.append(f"summary.json: n={s['n']} has no valid rows but reports values")
            continue
        coverage = float(np.mean(covered[valid[ok]]))
        median_abs = float(np.median(np.abs(eta[valid[ok]])))
        if s["coverage"] is None or not math.isclose(s["coverage"], coverage, rel_tol=RTOL_EXACT):
            problems.append(f"summary.json: coverage at n={s['n']} is {s['coverage']}, "
                            f"records give {coverage}")
        if s["median_abs_eta"] is None or not math.isclose(
            s["median_abs_eta"], median_abs, rel_tol=RTOL_EXACT
        ):
            problems.append(
                f"summary.json: median_abs_eta at n={s['n']} is {s['median_abs_eta']}, "
                f"records give {median_abs}"
            )
    return problems


def check_bounds_csv(path, n_values) -> tuple[list[str], bool]:
    """Problems in a bounds.csv, and whether every grid point is valid."""
    rows, problems = _read_csv(path, BOUNDS_HEADER)
    if problems:
        return problems, False
    expected = BOUND_COUNT * len(n_values) * len(G_GRID)
    if len(rows) != expected:
        return [f"bounds.csv has {len(rows)} rows, expected {expected}"], False
    names = sorted({row[0] for row in rows})
    grid = {(row[0], int(row[1]), float(row[2])): row for row in rows}
    full_grid = {(name, n, g) for name in names for n in n_values for g in G_GRID}
    if len(names) != BOUND_COUNT or set(grid) != full_grid:
        return ["bounds.csv: rows do not cover bounds x n_values x g grid once each"], False
    bound = {k: float(row[3]) for k, row in grid.items()}
    empirical = {k: float(row[5]) for k, row in grid.items()}
    stderr = {k: float(row[6]) for k, row in grid.items()}
    valid = {k: row[7] == "1" for k, row in grid.items()}
    if not all(0.0 <= v <= 1.0 for v in empirical.values()):
        problems.append("bounds.csv: empirical frequency outside [0, 1]")
    if any(valid[k] != (empirical[k] <= bound[k] + 3.0 * stderr[k]) for k in grid):
        problems.append("bounds.csv: valid flag disagrees with empirical <= bound + 3 stderr")
    for name in names:
        for g in G_GRID:
            seq = [bound[(name, n, g)] for n in sorted(n_values)]
            if any(b > a for a, b in zip(seq, seq[1:])):
                problems.append(f"bounds.csv: {name} increases in n at g={g}")
        for n in n_values:
            seq = [bound[(name, n, g)] for g in G_GRID]
            if any(b > a for a, b in zip(seq, seq[1:])):
                problems.append(f"bounds.csv: {name} increases in g at n={n}")
    return problems, all(valid.values())


def _load_json(path) -> tuple[dict, list[str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh), []
    except (OSError, json.JSONDecodeError) as exc:
        return {}, [f"{os.path.basename(path)}: {exc}"]


def _check_checks(summary: dict, config: dict) -> list[str]:
    names = [c.get("name") for c in summary.get("checks", [])]
    problems = []
    if names != list(config["checks"]):
        problems.append(f"summary.json: checks {names}, config asks for {config['checks']}")
    if summary.get("all_checks_passed") != all(c.get("passed") for c in summary.get("checks", [])):
        problems.append("summary.json: all_checks_passed disagrees with the checks")
    return problems


def verify_run(out_dir, command: str, config: dict, exit_code: int) -> tuple[list[str], str]:
    """Problems with one run's outputs, and the digest of its main result file.

    The digest covers ``records.csv`` for ``simulate`` and ``bounds.csv``
    for ``bounds-check``, the file whose bytes the determinism contract
    fixes.
    """
    if exit_code not in (0, 3):
        return [f"exit code {exit_code}"], ""
    try:
        return _verify_outputs(out_dir, command, config, exit_code)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {exc!r}"], ""


def _verify_outputs(out_dir, command: str, config: dict, exit_code: int) -> tuple[list[str], str]:
    expected = ["summary.json", "manifest.json"]
    if command == "bounds-check":
        expected.insert(0, "bounds.csv")
    else:
        expected.insert(0, "records.csv")
        if "bounds" in config["checks"]:
            expected.insert(1, "bounds.csv")
    missing = [f for f in expected if not os.path.isfile(os.path.join(out_dir, f))]
    if missing:
        return [f"missing output files {missing}"], ""

    summary, problems = _load_json(os.path.join(out_dir, "summary.json"))
    manifest, more = _load_json(os.path.join(out_dir, "manifest.json"))
    problems += more
    if problems:
        return problems, ""
    if sorted(manifest.get("outputs", [])) != sorted(expected):
        problems.append(f"manifest.json: outputs {manifest.get('outputs')}, expected {expected}")
    problems += _check_checks(summary, config)
    if (exit_code == 0) != bool(summary.get("all_checks_passed")):
        problems.append(f"exit code {exit_code} disagrees with all_checks_passed")

    if "bounds.csv" in expected:
        bounds_problems, all_valid = check_bounds_csv(
            os.path.join(out_dir, "bounds.csv"), config["n_values"]
        )
        problems += bounds_problems
        bounds_check = [c for c in summary["checks"] if c.get("name") == "bounds"]
        if not bounds_problems and bounds_check and bounds_check[0]["passed"] != all_valid:
            problems.append("summary.json: bounds check disagrees with bounds.csv")
    if command == "bounds-check":
        if summary.get("grid_points") != BOUND_COUNT * len(config["n_values"]) * len(G_GRID):
            problems.append("summary.json: grid_points disagrees with the grid")
        return problems, file_digest(os.path.join(out_dir, "bounds.csv"))

    problems += _check_model_values(summary, config)
    records_path = os.path.join(out_dir, "records.csv")
    rows, more = _read_csv(records_path, RECORDS_HEADER)
    problems += more
    if not more:
        problems += _check_records(rows, summary, config)
    return problems, file_digest(records_path)
