"""End-to-end acceptance checks.

Each test enforces one numbered criterion and emits a single
``[criterion NN] PASS/FAIL`` line (shown with ``pytest -s``, or in the
captured output of a failing run); under ``pytest -v`` the test name
itself doubles as the per-criterion pass/fail line.  Tolerances and
seeds are pinned here and must not be loosened to make a run pass.
"""

import json
import math
import time

import numpy as np
import pytest

from symkl import (
    CountTable,
    ExperimentConfig,
    PopulationModel,
    bound_table,
    cli,
    exact_sigma2,
    influence_value,
    normal_cdf,
    normal_quantile,
    plug_in_estimate,
    run_experiment,
    sym_kl_divergence,
)
from conftest import random_model

TEST_MODEL = PopulationModel(
    label_prob=0.5, cond_p=(0.5, 0.5), cond_q=(0.25, 0.75)
)

VARIANCE_MODELS = (
    TEST_MODEL,
    PopulationModel(label_prob=0.3, cond_p=(0.2, 0.5, 0.3), cond_q=(0.4, 0.4, 0.2)),
    PopulationModel(
        label_prob=0.6,
        cond_p=(0.1, 0.2, 0.3, 0.25, 0.15),
        cond_q=(0.3, 0.1, 0.2, 0.15, 0.25),
    ),
)

MASTER_SEED = 20260815
G_GRID = (0.05, 0.1, 0.2, 0.5)
N_GRID = (100, 1_000, 10_000)


def report(num: int, passed: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def clt_coverage_run():
    """One shared 2000-replication experiment for criteria 5 and 6."""
    config = ExperimentConfig(
        model=TEST_MODEL,
        n_values=(10_000,),
        replications=2_000,
        master_seed=MASTER_SEED,
        ci_level=0.95,
        checks=("clt", "coverage"),
    )
    start = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    return result.summary.per_n[0], elapsed


@pytest.fixture(scope="module")
def bound_grid():
    """One shared 100k-replication bound grid for criteria 8 and 9."""
    start = time.perf_counter()
    rows = bound_table(
        TEST_MODEL, N_GRID, G_GRID, replications=100_000, master_seed=MASTER_SEED
    )
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_01_estimator_matches_empirical_divergence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        r = int(rng.choice([2, 5, 20]))
        n1 = rng.integers(1, 50, size=r)
        n0 = rng.integers(1, 50, size=r)
        table = CountTable(n1=n1, n0=n0)
        est = plug_in_estimate(table)
        direct = sym_kl_divergence(n1 / n1.sum(), n0 / n0.sum())
        worst = max(worst, abs(est - direct))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"plug-in equals empirical divergence on 100 random tables "
        f"(max abs diff {worst:.3g} <= 1e-12, {elapsed:.2f}s < 1s)",
    )


def test_criterion_02_golden_divergence_values():
    model_value = sym_kl_divergence((0.5, 0.5), (0.25, 0.75))
    model_err = abs(model_value - math.log(3.0) / 4.0)
    counts = CountTable(n1=(3, 1), n0=(1, 3))
    counts_value = plug_in_estimate(counts)
    counts_err = abs(counts_value - math.log(3.0))
    report(
        2,
        model_err <= 1e-12 and counts_err <= 1e-12,
        f"golden values ln(3)/4 and ln(3) reproduced "
        f"(abs errors {model_err:.3g}, {counts_err:.3g} <= 1e-12)",
    )


def test_criterion_03_influence_mean_is_zero():
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(100):
        model = random_model(rng, r=int(rng.choice([2, 3, 6])))
        terms = []
        for x in range(model.r):
            terms.append(
                model.label_prob * model.cond_p[x] * influence_value(model, x, 1)
            )
            terms.append(
                (1.0 - model.label_prob)
                * model.cond_q[x]
                * influence_value(model, x, 0)
            )
        mean = math.fsum(terms)
        worst = max(worst, abs(mean))
    report(
        3,
        worst <= 1e-12,
        f"enumerated influence mean is zero on 100 random models "
        f"(max |mean| {worst:.3g} <= 1e-12)",
    )


def test_criterion_04_variance_two_route_agreement():
    start = time.perf_counter()
    details = []
    worst_rel = 0.0
    for model in VARIANCE_MODELS:
        exact = exact_sigma2(model)
        config = ExperimentConfig(
            model=model,
            n_values=(100_000,),
            replications=5_000,
            master_seed=MASTER_SEED,
        )
        stats = run_experiment(config).summary.per_n[0]
        assert stats.degenerate_count == 0
        rel = abs(stats.scaled_eta_variance - exact) / exact
        worst_rel = max(worst_rel, rel)
        details.append(f"{exact:.4g}/{stats.scaled_eta_variance:.4g}")
    elapsed = time.perf_counter() - start
    report(
        4,
        worst_rel <= 0.05 and elapsed < 60.0,
        f"closed-form vs Monte Carlo variance of the scaled error on 3 models "
        f"(exact/empirical {', '.join(details)}; worst rel err {worst_rel:.3f} "
        f"<= 0.05, {elapsed:.1f}s < 60s)",
    )


def test_criterion_05_scaled_error_normality(clt_coverage_run):
    stats, elapsed = clt_coverage_run
    report(
        5,
        stats.ks_normalized <= 0.04 and elapsed < 30.0,
        f"KS distance of the exactly standardized error from the normal CDF "
        f"at n=10000, 2000 replications ({stats.ks_normalized:.4f} <= 0.04, "
        f"{elapsed:.1f}s < 30s)",
    )


def test_criterion_06_interval_coverage(clt_coverage_run):
    stats, _ = clt_coverage_run
    report(
        6,
        0.93 <= stats.coverage <= 0.97,
        f"95% interval coverage at n=10000 over 2000 replications "
        f"({stats.coverage:.4f} in [0.93, 0.97])",
    )


def test_criterion_07_error_shrinks_with_sample_size():
    config = ExperimentConfig(
        model=TEST_MODEL,
        n_values=(1_000, 10_000, 100_000),
        replications=200,
        master_seed=MASTER_SEED,
        checks=("lln",),
    )
    summary = run_experiment(config).summary
    medians = [s.median_abs_eta for s in summary.per_n]
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    formatted = ", ".join(f"{m:.5f}" for m in medians)
    report(
        7,
        decreasing and medians[-1] < 0.01,
        f"median |error| strictly decreases over n=1e3,1e4,1e5 "
        f"({formatted}) and ends below 0.01",
    )


def test_criterion_08_tail_bounds_hold_empirically(bound_grid):
    rows, elapsed = bound_grid
    failures = [
        (row.name, row.n, row.g) for row in rows if not row.empirically_valid()
    ]
    report(
        8,
        not failures and elapsed < 180.0,
        f"all {len(rows)} grid points keep empirical tail frequency within "
        f"bound + 3*stderr at 100000 replications "
        f"(failures: {failures or 'none'}; {elapsed:.1f}s < 180s)",
    )


def test_criterion_09_bounds_monotone_in_g_and_n(bound_grid):
    rows, _ = bound_grid
    by_key = {(row.name, row.n, row.g): row.bound for row in rows}
    names = sorted({row.name for row in rows})
    monotone_g = all(
        by_key[(name, n, g_lo)] >= by_key[(name, n, g_hi)]
        for name in names
        for n in N_GRID
        for g_lo, g_hi in zip(G_GRID, G_GRID[1:])
    )
    monotone_n = all(
        by_key[(name, n_lo, g)] >= by_key[(name, n_hi, g)]
        for name in names
        for g in G_GRID
        for n_lo, n_hi in zip(N_GRID, N_GRID[1:])
    )
    report(
        9,
        monotone_g and monotone_n,
        f"every bound is nonincreasing across the g grid (ok={monotone_g}) "
        f"and the n grid (ok={monotone_n})",
    )


def test_criterion_10_simulation_records_are_deterministic(tmp_path):
    config = {
        "model": {"label_prob": 0.5, "cond_p": [0.5, 0.5], "cond_q": [0.25, 0.75]},
        "n_values": [100, 1000],
        "replications": 25,
        "master_seed": MASTER_SEED,
        "ci_level": 0.95,
        "checks": [],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    digests = []
    for name, workers in (("run1", "1"), ("run2", "1"), ("run3", "2")):
        out_dir = tmp_path / name
        code = cli.main([
            "simulate", "--config", str(config_path),
            "--out-dir", str(out_dir), "--workers", workers,
        ])
        assert code == 0
        digests.append((out_dir / "records.csv").read_bytes())
    report(
        10,
        digests[0] == digests[1] == digests[2],
        "repeated simulate runs (including a 2-worker run) produce "
        "byte-identical records.csv",
    )


def test_criterion_11_normal_cdf_and_quantile_accuracy():
    cdf_err = abs(normal_cdf(1.959964) - 0.975)
    quantile_err = abs(normal_quantile(0.975) - 1.959964)
    report(
        11,
        cdf_err <= 1e-7 and quantile_err <= 1e-6,
        f"normal CDF and quantile match tabulated references "
        f"(|cdf err| {cdf_err:.3g} <= 1e-7, |quantile err| {quantile_err:.3g} "
        f"<= 1e-6)",
    )
