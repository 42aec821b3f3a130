#!/usr/bin/env python3
"""Exact operator facts on a finite chain.

The one-step conditional-expectation operator of a finite ergodic chain
is its transition matrix, so the structural facts the limit theorems
lean on can be checked in exact arithmetic: the two-norm contraction, the
maximal-function level inequality, the weak-L2 tail, and the property
that makes the shifted system a Markov chain in the first place.
"""

import os

import numpy as np

from qlab import (RandomStream, dual_operator, duality_check, hopf_check,
                  maximal_function, verify_dunford_schwartz, verify_markov_property,
                  weak_l2_tail)
from qlab.cli import load_model

HERE = os.path.dirname(os.path.abspath(__file__))
MODEL = os.path.join(HERE, "..", "models", "markov_3state.json")


def _decided(verdict) -> str:
    return (f"{verdict.rule}, margin {verdict.margin:.3e} -> "
            f"{'ok' if verdict.ok else 'VIOLATED'}")


def main():
    model = load_model(MODEL)
    P, pi = model.transition, model.stationary
    rng = RandomStream(40404, [])

    print("state space:", model.n_states, "states; pi =",
          np.round(model.stationary, 6))

    funcs = [rng.child(0, i).normal(model.n_states) for i in range(100)]
    print("L1/Linf contraction over 100 random functions:",
          _decided(verify_dunford_schwartz(model, funcs)))

    T = dual_operator(model)
    h, k = rng.child(1).normal(3), rng.child(2).normal(3)
    lhs = float(pi @ ((P @ h) * k))
    rhs = float(pi @ (h * (T @ k)))
    print(f"duality pairing <Qh,k> = {lhs:.12f} vs <h,Tk> = {rhs:.12f}: "
          f"{_decided(duality_check(model, [(h, k)]))}")

    mf = maximal_function(model, np.abs(model.observable), 1000)
    print("maximal function (N = 1000):", _decided(hopf_check(model, mf)))

    print(f"weak-L2 tail of g: {weak_l2_tail(model.observable, model.stationary):.6f}")

    mp = verify_markov_property(model, 3)
    print("markov-property discrepancy by block length:",
          {n: float(f"{v:.2e}") for n, v in mp.per_n.items()})


if __name__ == "__main__":
    main()
