"""Divergence values, plug-in estimation, and confidence intervals.

A population is described by a label probability and two conditional
distributions over a finite alphabet.  This script computes the exact
symmetric Kullback-Leibler divergence between the conditionals, draws
one labeled sample, estimates the divergence from the resulting count
table, and wraps the estimate in an asymptotic confidence interval.
"""

from symkl import (
    PopulationModel,
    confidence_interval,
    plug_in_estimate,
    plugin_sigma2,
    replication_stream,
    sample_batch,
    sym_kl_divergence,
)


def main() -> None:
    model = PopulationModel(
        label_prob=0.5,
        cond_p=(0.5, 0.5),
        cond_q=(0.25, 0.75),
    )
    print("population model")
    print(f"  P(Y=1)      = {model.label_prob}")
    print(f"  P(X=.|Y=1)  = {tuple(model.cond_p)}")
    print(f"  P(X=.|Y=0)  = {tuple(model.cond_q)}")

    true_value = model.sym_divergence()
    print(f"\nexact symmetric KL divergence: {true_value:.6f}  (= ln(3)/4)")
    print("the divergence is symmetric by construction:")
    swapped = sym_kl_divergence(model.cond_q, model.cond_p)
    print(f"  swapped arguments give {swapped:.6f}")

    n = 10_000
    counts = sample_batch(model, n, replication_stream(master_seed=7, n_index=0, rep_index=0))
    print(f"\none sample of n={n} labeled draws")
    print(f"  label-1 counts per symbol: {counts.n1.tolist()}")
    print(f"  label-0 counts per symbol: {counts.n0.tolist()}")

    estimate = plug_in_estimate(counts)
    sigma2 = plugin_sigma2(counts)
    lower, upper = confidence_interval(estimate, sigma2, counts.n, level=0.95)
    print(f"\nplug-in estimate:   {estimate:.6f}")
    print(f"estimation error:   {estimate - true_value:+.6f}")
    print(f"plug-in variance:   {sigma2:.6f}")
    print(f"95% interval:       [{lower:.6f}, {upper:.6f}]")
    print(f"covers true value:  {lower <= true_value <= upper}")

if __name__ == "__main__":
    main()
