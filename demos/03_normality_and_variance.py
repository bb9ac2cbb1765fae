"""Asymptotic normality of the scaled estimation error.

The error of the plug-in estimator, scaled by sqrt(n), settles into a
normal distribution whose variance has a closed form in the population
quantities.  This script compares that closed form against the Monte
Carlo variance of the scaled error, standardizes the errors, and
measures their distance from the normal distribution with a
Kolmogorov-Smirnov statistic (the built-in "clt" check).
"""

from symkl import (
    ExperimentConfig,
    PopulationModel,
    exact_sigma2,
    ks_statistic,
    run_experiment,
)


def main() -> None:
    model = PopulationModel(
        label_prob=0.5, cond_p=(0.5, 0.5), cond_q=(0.25, 0.75)
    )
    sigma2 = exact_sigma2(model)
    print(f"closed-form variance of the scaled error: {sigma2:.6f}")

    config = ExperimentConfig(
        model=model,
        n_values=(10_000,),
        replications=2_000,
        master_seed=42,
        checks=("clt",),
    )
    result = run_experiment(config)
    stats = result.summary.per_n[0]

    print(f"\nMonte Carlo, n={stats.n}, {stats.replications} replications:")
    print(f"  variance of sqrt(n) * error: {stats.scaled_eta_variance:.6f}")
    ratio = stats.scaled_eta_variance / sigma2
    print(f"  ratio to closed form:        {ratio:.4f}")

    sigma = sigma2 ** 0.5
    (records,) = result.records  # the one sample size
    standardized = records.scaled_eta[~records.degenerate] / sigma
    ks = ks_statistic(standardized)
    print(f"\nKS distance of standardized errors from the normal CDF: {ks:.4f}")

    for check in result.summary.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"\ncheck {check.name}: {status}")
        print(f"  {check.detail}")


if __name__ == "__main__":
    main()
