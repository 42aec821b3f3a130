"""The qlab runs that make up each benchmark workload.

Each entry becomes one ``qlab.cli.RunConfig``; ``model`` is relative to the
checkout root and every other key is a RunConfig field.  An operation is one
fixture verdict of a sampling run and one run of an exact check.
"""

from __future__ import annotations

M2 = "models/markov_2state.json"
M3 = "models/markov_3state.json"
RHO05 = "models/linear_rho05.json"
DENSE64 = "bench/models/markov_dense64.json"
CYCLE64 = "bench/models/markov_lazy_cycle64.json"
FLIP005 = "bench/models/markov_flip005.json"
MA300 = "bench/models/linear_ma300_rademacher.json"

SAMPLING = ("quenched-clt", "quenched-wip")


def _exact_ops() -> list:
    ops = []
    for tag, model in (("2state", M2), ("3state", M3), ("dense64", DENSE64),
                       ("cycle64", CYCLE64), ("flip005", FLIP005)):
        ops += [
            {"name": f"sigma2-{tag}", "experiment": "sigma2", "model": model},
            {"name": f"hannan-{tag}", "experiment": "hannan", "model": model,
             "K": 1000},
            {"name": f"mw-{tag}", "experiment": "mw", "model": model, "K": 1000},
            {"name": f"drift-{tag}", "experiment": "drift", "model": model,
             "Ns": [256, 65536], "fixtures": 4},
            {"name": f"hopf-{tag}", "experiment": "hopf", "model": model},
            {"name": f"identity-{tag}", "experiment": "identity", "model": model,
             "n": 64, "fixtures": 4},
            {"name": f"weak-l2-{tag}", "experiment": "weak-l2", "model": model},
            {"name": f"doob-{tag}", "experiment": "doob", "model": model,
             "n": 64, "reps": 256, "fixtures": 1},
        ]
    # path enumeration in markov-check grows as S^8, so only the small chains
    ops += [{"name": f"markov-check-{tag}", "experiment": "markov-check",
             "model": model} for tag, model in (("2state", M2), ("3state", M3))]
    return ops


WORKLOADS = {
    # the Markov step loop at acceptance scale, at S = 2 and at S = 64
    "chain-clt": [
        {"name": "clt-2state", "experiment": "quenched-clt", "model": M2,
         "n": 4096, "reps": 5000, "fixtures": 2},
        {"name": "clt-dense64", "experiment": "quenched-clt", "model": DENSE64,
         "n": 4096, "reps": 5000, "fixtures": 1},
    ],
    # normals, FIR filters, path functionals and both KS tests; no Markov kernel
    "linear-wip": [
        {"name": "clt-rho05", "experiment": "quenched-clt", "model": RHO05,
         "n": 4096, "reps": 5000, "fixtures": 1},
        {"name": "clt-ma300", "experiment": "quenched-clt", "model": MA300,
         "n": 4096, "reps": 5000, "fixtures": 1},
        {"name": "wip-sup-rho05", "experiment": "quenched-wip", "model": RHO05,
         "functional": "supremum", "n": 4096, "reps": 5000, "fixtures": 1},
        {"name": "wip-integral-rho05", "experiment": "quenched-wip",
         "model": RHO05, "functional": "time-integral", "n": 1024,
         "reps": 5000, "fixtures": 1},
    ],
    # exact operator arithmetic; the samplers only feed identity and doob
    "exact-ops": _exact_ops(),
    # the only workload with a process pool: one pool start per fixture today
    "chain-clt-par": [
        {"name": "clt-2state-par", "experiment": "quenched-clt", "model": M2,
         "n": 1024, "reps": 1024, "fixtures": 48, "workers": 2},
    ],
}


def model_paths(workload: str) -> list:
    """The distinct model files of a workload, in first-use order."""
    return list(dict.fromkeys(op["model"] for op in WORKLOADS[workload]))


def operations(op: dict) -> int:
    """How many operations one run counts for."""
    return op["fixtures"] if op["experiment"] in SAMPLING else 1
