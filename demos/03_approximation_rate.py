#!/usr/bin/env python3
"""Watch the martingale approximation error vanish at scale o(N).

The pathwise gap between the centered sums and the approximating
martingale is bounded, so the normalized maximal squared gap R_N decays
like 1/N once the increment is the limit one.  Truncating the increment
at a finite order r leaves a random-walk component and R_N stalls at a
level controlled by the truncation gap |m - m^(r)|.
"""

import math
import os

from qlab import (RandomStream, approximation_gap, sample_fixture,
                  strest_experiment)
from qlab.cli import load_model

HERE = os.path.dirname(os.path.abspath(__file__))
MODELS = os.path.join(HERE, "..", "models")


def main():
    base = RandomStream(30303, [])
    Ns = [256, 1024, 4096]
    reps = 600

    for branch, fname in enumerate(["linear_rho05.json", "markov_2state.json"]):
        model = load_model(os.path.join(MODELS, fname))
        fixture = sample_fixture(model, base.child(branch, 0))
        print(f"=== {fname} ===")
        rep = strest_experiment(model, fixture, math.inf, Ns, reps,
                                base.child(branch, 1))
        row = ", ".join(f"R_{N} = {v:.5f}" for N, v in zip(Ns, rep.estimates))
        print(f"  limit increment:      {row}   -> {'pass' if rep.check.ok else 'fail'}")
        for order in (0, 2, 8):
            rep_r = strest_experiment(model, fixture, order, [256, 1024], reps,
                                      base.child(branch, 2))
            gap = approximation_gap(model, order)
            print(f"  truncation r = {order}: R_1024 = {rep_r.estimates[-1]:.5f}"
                  f"   (increment gap |m - m^(r)| = {gap:.5f})")
        print()
    print("R_N roughly quarters with each fourfold N at the limit increment,")
    print("and the stalled levels shrink with the truncation gap.")


if __name__ == "__main__":
    main()
