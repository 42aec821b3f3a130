#!/usr/bin/env python3
"""Sample under the conditional law of a frozen past and test the limits.

Freezes a handful of pasts, replicates the centered partial-sum path
under each conditional law, and compares the laws of the endpoint and of
four path functionals with their closed-form Brownian limits.  The
centering matters: the uncentered endpoint law would drag a
past-dependent drift along and the comparison would fail for most pasts.
"""

import os

from qlab import (PathFunctional, RandomStream, quenched_wip_experiment,
                  sample_fixture)
from qlab.cli import load_model

HERE = os.path.dirname(os.path.abspath(__file__))
MODEL = os.path.join(HERE, "..", "models", "linear_rho05.json")


def main():
    model = load_model(MODEL)
    base = RandomStream(20240, [])
    n, reps = 1024, 2000

    print(f"model: geometric linear, n = {n}, replications = {reps}")
    print("\nconditionally centered CLT under five frozen pasts:")
    # one run over the five pasts, each with its own stream, as `qlab run` makes
    fixtures = [sample_fixture(model, base.child(0, i)) for i in range(5)]
    reports = quenched_wip_experiment(model, fixtures, PathFunctional("endpoint"),
                                      n, reps, [base.child(1, i) for i in range(5)])
    for i, rep in enumerate(reports):
        print(f"  past {i}: KS D = {rep.test_statistic:.4f}, "
              f"p = {rep.p_value:.3f} -> {rep.verdict}")

    # the distance threshold of the extrema is set for the acceptance scale
    n, reps = 4096, 5000
    print(f"\npath functionals under one frozen past, n = {n}, "
          f"replications = {reps}:")
    for kind in ("supremum", "infimum", "sup-abs", "time-integral"):
        [rep] = quenched_wip_experiment(model, fixtures[:1], PathFunctional(kind),
                                        n, reps, [base.child(2)])
        print(f"  {kind:13s}: D = {rep.test_statistic:.4f}, "
              f"p = {rep.p_value:.3f}, rule {rep.check.rule} by margin "
              f"{rep.check.margin:+.4f} -> {rep.verdict}, "
              f"reference = {rep.details['reference']}")

    print("\nEvery functional has a closed-form limit CDF.  The three extrema")
    print("carry a ~0.58 sigma/sqrt(n) polygonal-grid bias and are judged by")
    print("a distance threshold set for n = 4096 and 5000 replications; the")
    print("time integral is compared with its exact law on the sample's own")
    print("grid and is judged by the p-value.")


if __name__ == "__main__":
    main()
