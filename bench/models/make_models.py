"""Regenerate the model files owned by the benchmark.

    python3 bench/models/make_models.py

Every draw comes from one numpy Generator seeded with MODEL_SEED, so the
files are the same on every run.  Each file is checked with
``qlab.cli.load_model`` after it is written.  Why each model exists:

* ``markov_dense64.json``: a dense 64-state chain (Dirichlet(1) rows, the
  largest chain qlab accepts).  Against the bundled 2-state chain it shows
  whether the cost of a Markov step kernel depends on the state count.
* ``markov_lazy_cycle64.json``: the lazy walk on a 64-cycle with
  g = cos(2 pi x / 64), an eigenfunction with eigenvalue about 0.9976.  It
  mixes slowly, so the exact power loops (Doob right-hand side, drift,
  maximal functions) run long, and ``sigma2`` refuses it today.
* ``markov_flip005.json``: a 2-state chain with flip probability 0.05, the
  smallest model on which ``sigma2`` refuses a valid chain today.
* ``linear_ma300_rademacher.json``: a finite moving average with J = 300
  noisy geometric coefficients, rademacher innovations and no tail.  It
  runs the 300-tap FIR filter and the integer draws instead of the
  inverse-CDF normals.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MODEL_SEED = 20120222


def _markov(P, raw_g) -> dict:
    from qlab import MarkovFunctionalModel
    model = MarkovFunctionalModel.from_raw_observable(np.asarray(P, dtype=float),
                                                      np.asarray(raw_g, dtype=float))
    return model.describe()


def build_models() -> dict:
    rng = np.random.default_rng(MODEL_SEED)
    S = 64
    dense = rng.dirichlet(np.ones(S), size=S)
    dense /= dense.sum(axis=1, keepdims=True)
    cycle = np.zeros((S, S))
    for x in range(S):
        cycle[x, x] = 0.5
        cycle[x, (x + 1) % S] += 0.25
        cycle[x, (x - 1) % S] += 0.25
    j = np.arange(301)
    coeffs = 0.98**j * (1.0 + 0.25 * rng.uniform(-1.0, 1.0, size=j.size))
    return {
        "markov_dense64.json": _markov(dense, rng.normal(size=S)),
        "markov_lazy_cycle64.json": _markov(
            cycle, [math.cos(2.0 * math.pi * x / S) for x in range(S)]),
        "markov_flip005.json": _markov([[0.95, 0.05], [0.05, 0.95]], [1.0, -1.0]),
        "linear_ma300_rademacher.json": {
            "type": "linear", "coeffs": [float(c) for c in coeffs],
            "tail_bound": 0.0,
            "innovation": {"kind": "rademacher", "variance": 1.0}},
    }


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from qlab.cli import load_model
    for name, payload in build_models().items():
        path = os.path.join(HERE, name)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        load_model(path)
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
