"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  Scales and tolerances are pinned here, not tuned.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.signal import lfilter

from qlab import (PathFunctional, RandomStream, e0_increment_series,
                  evaluate_martingale, hopf_check, martingale_increment,
                  maximal_function, mc_projection_norm_sq, projection_norms,
                  quenched_wip_experiment, sample_fixture,
                  sample_quenched_paths, sigma_squared, strest_experiment,
                  uncentered_drift_check, verify_dunford_schwartz,
                  verify_markov_property)
from qlab.cli import main as qlab_main

from conftest import SUITES_DIR


@contextmanager
def criterion(num: int, name: str, limit: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion-{num:02d} {name}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit else "FAIL"
    print(f"{status} criterion-{num:02d} {name} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_exact_martingale_identity(identity_model):
    with criterion(1, "exact-martingale-identity", 1.0):
        base = RandomStream(9001, [])
        approx = martingale_increment(identity_model)
        worst = 0.0
        for i in range(10):
            fx = sample_fixture(identity_model, base.child(0, i))
            real = sample_quenched_paths(identity_model, fx, base.child(1, i),
                                         10_000, 100)
            sbar = np.cumsum(real.values, axis=1) - np.cumsum(
                e0_increment_series(identity_model, fx, 10_000))[None, :]
            mart = evaluate_martingale(approx, real)
            worst = max(worst, float(np.max(np.abs(sbar - mart))))
        assert worst <= 1e-9


def test_criterion_02_projection_norm_monte_carlo(rho_model, two_state_chain):
    with criterion(2, "projection-norms-vs-monte-carlo", 30.0):
        for branch, model in ((0, rho_model), (1, two_state_chain)):
            series = projection_norms(model, 10)
            base = RandomStream(9002, [branch])
            for k in range(11):
                est, se = mc_projection_norm_sq(model, k, 100_000, base.child(k))
                assert abs(est - series.norms[k] ** 2) <= 3 * se, (
                    f"model {branch}, k={k}: {est} vs {series.norms[k]**2} "
                    f"(se {se})")


def _stationary_second_moment_linear(model, n, reps, stream):
    total = 0.0
    done = 0
    J = model.horizon
    while done < reps:
        count = min(500, reps - done)
        eps = stream.child(done).normal(count * (n + J)).reshape(count, n + J)
        eps *= model.sigma_eps
        values = lfilter(model.coeffs, [1.0], eps, axis=1)[:, J:]
        total += float(np.sum(values.sum(axis=1) ** 2))
        done += count
    return total / reps / n


def _stationary_second_moment_chain(model, n, reps, stream):
    cum_pi = np.cumsum(model.stationary)
    u = stream.uniform_open(reps)
    states = np.minimum(np.searchsorted(cum_pi, u, side="right"),
                        model.n_states - 1)
    cum = np.cumsum(model.transition, axis=1)
    sums = np.zeros(reps)
    for _ in range(n):
        v = stream.uniform_open(reps)
        states = np.minimum((cum[states] <= v[:, None]).sum(axis=1),
                            model.n_states - 1)
        sums += model.observable[states]
    return float(np.mean(sums**2)) / n


def test_criterion_03_sigma_squared_linear(rho_model):
    with criterion(3, "sigma2-vs-stationary-simulation-linear", 60.0):
        est = _stationary_second_moment_linear(rho_model, 10_000, 10_000,
                                               RandomStream(9003, [0]))
        assert abs(est - sigma_squared(rho_model)) < 0.05 * 4.0


def test_criterion_03_sigma_squared_markov(two_state_chain):
    with criterion(3, "sigma2-vs-stationary-simulation-markov", 60.0):
        est = _stationary_second_moment_chain(two_state_chain, 10_000, 10_000,
                                              RandomStream(9003, [1]))
        assert abs(est - sigma_squared(two_state_chain)) < 0.05 * (7.0 / 3.0)


@pytest.mark.parametrize("which", ["linear", "markov"])
def test_criterion_04_quenched_clt(which, rho_model, two_state_chain):
    model = rho_model if which == "linear" else two_state_chain
    with criterion(4, f"quenched-clt-{which}", 120.0):
        base = RandomStream(9004, [0 if which == "linear" else 1])
        fixtures = [sample_fixture(model, base.child(0, i)) for i in range(10)]
        reports = quenched_wip_experiment(model, fixtures, PathFunctional("endpoint"),
                                          4096, 5000, [base.child(1, i) for i in range(10)],
                                          alpha=0.01)
        passes = sum(rep.verdict == "pass" for rep in reports)
        assert passes >= 9, f"{passes}/10 fixtures passed"


def test_criterion_05_quenched_wip_supremum(rho_model):
    with criterion(5, "quenched-wip-supremum", 120.0):
        base = RandomStream(9005, [])
        fx = sample_fixture(rho_model, base.child(0))
        [rep] = quenched_wip_experiment(rho_model, [fx], PathFunctional("supremum"),
                                        4096, 5000, [base.child(1)])
        assert rep.test_statistic < 0.03
        assert rep.verdict == "pass"


def test_criterion_06_strest_decay(rho_model, two_state_chain):
    with criterion(6, "strest-o(N)-decay", 180.0):
        for branch, model in ((0, rho_model), (1, two_state_chain)):
            base = RandomStream(9006, [branch])
            fx = sample_fixture(model, base.child(0))
            rep = strest_experiment(model, fx, math.inf, [256, 1024, 4096],
                                    2000, base.child(1))
            r = rep.estimates
            assert r[0] > r[1] > r[2], f"not strictly decreasing: {r}"
            assert r[2] < r[0] / 2, f"no halving: {r}"


def test_criterion_07_uncentered_drift(identity_model, rho_model, two_state_chain):
    with criterion(7, "uncentered-drift-vanishes", 1.0):
        base = RandomStream(9007, [])
        for branch, model in ((0, identity_model), (1, rho_model),
                              (2, two_state_chain)):
            fixtures = [sample_fixture(model, base.child(branch, i))
                        for i in range(5)]
            rep = uncentered_drift_check(model, fixtures, [256, 4096])
            assert rep.verdict == "pass", f"model {branch}: {rep.verdicts}"


def test_criterion_08_markov_property(two_state_chain, three_state_chain):
    with criterion(8, "markov-property-identity", 1.0):
        for chain in (two_state_chain, three_state_chain):
            rep = verify_markov_property(chain, 3)
            assert rep.max_discrepancy <= 1e-12


def test_criterion_09_hopf_inequality(two_state_chain, three_state_chain):
    with criterion(9, "hopf-maximal-inequality", 5.0):
        base = RandomStream(9009, [])
        for branch, chain in ((0, two_state_chain), (1, three_state_chain)):
            functions = [np.abs(chain.observable)]
            functions += [base.child(branch, i).normal(chain.n_states)
                          for i in range(20)]
            for h in functions:
                assert hopf_check(chain, maximal_function(chain, h, 1000)).ok


def test_criterion_10_dunford_schwartz_contraction(two_state_chain,
                                                   three_state_chain):
    with criterion(10, "dunford-schwartz-contraction", 1.0):
        base = RandomStream(9010, [])
        for branch, chain in ((0, two_state_chain), (1, three_state_chain)):
            funcs = [base.child(branch, i).normal(chain.n_states) * 3
                     for i in range(100)]
            assert verify_dunford_schwartz(chain, funcs).ok


def test_criterion_11_decomposition_identity(rho_model, two_state_chain):
    with criterion(11, "decomposition-identity", 1.0):
        from qlab import decomposition_identity_check
        base = RandomStream(9011, [])
        for branch, model in ((0, rho_model), (1, two_state_chain)):
            fx = sample_fixture(model, base.child(branch, 0))
            rep = decomposition_identity_check(model, fx, 64, base.child(branch, 1))
            assert rep.residual <= rep.allowance


def _tree_bytes(root: str) -> dict:
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


def test_criterion_12_byte_determinism(tmp_path):
    with criterion(12, "byte-identical-reruns", 120.0):
        suite = os.path.join(SUITES_DIR, "smoke.json")
        dirs = [str(tmp_path / f"run{i}") for i in range(3)]
        assert qlab_main(["run-all", "--suite", suite, "--out", dirs[0]]) == 0
        assert qlab_main(["run-all", "--suite", suite, "--out", dirs[1]]) == 0
        assert qlab_main(["run-all", "--suite", suite, "--out", dirs[2],
                          "--workers", "2"]) == 0
        first = _tree_bytes(dirs[0])
        for other in dirs[1:]:
            tree = _tree_bytes(other)
            assert tree.keys() == first.keys()
            for rel in first:
                assert tree[rel] == first[rel], f"{rel} differs"
