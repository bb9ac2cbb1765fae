"""Confidence intervals cover the truth at their nominal rate.

Each replication builds a 95% interval from its own sample (plug-in
variance, normal quantile).  Counting how often those intervals contain
the true divergence recovers the nominal level; the built-in "coverage"
check asserts the rate lands within 0.02 of it.
"""

from symkl import ExperimentConfig, PopulationModel, coverage_rate, run_experiment


def main() -> None:
    model = PopulationModel(
        label_prob=0.5, cond_p=(0.5, 0.5), cond_q=(0.25, 0.75)
    )
    config = ExperimentConfig(
        model=model,
        n_values=(2_500, 10_000),
        replications=2_000,
        master_seed=42,
        ci_level=0.95,
        checks=("coverage",),
    )
    result = run_experiment(config)

    print(f"true divergence: {result.summary.true_divergence:.6f}")
    print(f"nominal level:   {result.summary.ci_level}")
    print(f"\n{'n':>8}  {'coverage':>9}  {'replications':>12}")
    for stats in result.summary.per_n:
        print(f"{stats.n:>8}  {stats.coverage:>9.4f}  {stats.replications:>12}")

    # one records object per sample size: numpy columns, one row per replication
    print("\nmean interval width shrinks like 1/sqrt(n):")
    for records in result.records:
        valid = records[~records.degenerate]
        print(f"  n={records.n:>6}: {(valid.ci_upper - valid.ci_lower).mean():.6f}")

    largest = result.records[-1]
    print(f"\ncoverage at n={largest.n} recomputed from the records: "
          f"{coverage_rate(largest):.4f}")

    for check in result.summary.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"\ncheck {check.name}: {status}")
        print(f"  {check.detail}")


if __name__ == "__main__":
    main()
