"""Every consumer of the power sequence P^k g against np.linalg.matrix_power.

The chains are the bundled 3-state chain and a seeded random primitive
6-state chain; neither observable is an eigenfunction, so each power
carries a mixture of modes and an off-by-one in any loop shows.
"""

import numpy as np
import pytest

from qlab import (MarkovFunctionalModel, PastFixture, RandomStream,
                  cesaro_average, e0_increment_series, martingale_increment,
                  maximal_function, mw_criterion, projection_norms,
                  sample_quenched_paths)
from qlab.experiments import _evolve_states

K = 200
TOL = 1e-12


def _random_six_state() -> MarkovFunctionalModel:
    raw = RandomStream(7001, [0]).uniform_open(36).reshape(6, 6) + 0.05
    P = raw / raw.sum(axis=1, keepdims=True)
    return MarkovFunctionalModel.from_raw_observable(P, RandomStream(7001, [1]).normal(6))


@pytest.fixture(params=["three", "six"])
def chain(request, three_state_chain):
    return three_state_chain if request.param == "three" else _random_six_state()


def _power(chain, k: int, v=None) -> np.ndarray:
    v = chain.observable if v is None else v
    return np.linalg.matrix_power(chain.transition, k) @ v


def test_observables_are_not_eigenfunctions(chain):
    g, pg = chain.observable, _power(chain, 1)
    assert np.linalg.matrix_rank(np.column_stack([g, pg]), tol=1e-8) == 2


def test_e0_increment_series(chain):
    for x in range(chain.n_states):
        got = e0_increment_series(chain, PastFixture(state=x), K)
        oracle = [_power(chain, k)[x] for k in range(1, K + 1)]
        assert np.allclose(got, oracle, rtol=0, atol=TOL)


def test_projection_norms(chain):
    P, pi = chain.transition, chain.stationary
    oracle = []
    for k in range(K + 1):
        diff = _power(chain, k)[None, :] - _power(chain, k + 1)[:, None]
        oracle.append(np.sqrt(np.sum(pi[:, None] * P * diff**2)))
    assert np.allclose(projection_norms(chain, K).norms, oracle, rtol=0, atol=TOL)


def test_mw_terms(chain):
    pi = chain.stationary
    oracle = [np.sqrt(pi @ _power(chain, n) ** 2) / np.sqrt(n) for n in range(1, K + 1)]
    assert np.allclose(mw_criterion(chain, K).terms, oracle, rtol=0, atol=TOL)


@pytest.mark.parametrize("r", [0, 1, 7, K])
def test_finite_order_g_hat(chain, r):
    oracle = sum(_power(chain, k) for k in range(r + 1))
    approx = martingale_increment(chain, r)
    assert np.allclose(approx.g_hat, oracle, rtol=0, atol=TOL)
    assert np.allclose(approx.p_g_hat, chain.transition @ oracle, rtol=0, atol=TOL)


@pytest.mark.parametrize("n", [1, 2, 50, K])
def test_cesaro_average(chain, n):
    h = RandomStream(7002, [n]).normal(chain.n_states)
    oracle = sum(_power(chain, i, h) for i in range(n)) / n
    assert np.allclose(cesaro_average(chain, h, n), oracle, rtol=0, atol=TOL)


def test_maximal_function(chain):
    h = RandomStream(7003, []).normal(chain.n_states)
    averages = [sum(_power(chain, i, np.abs(h)) for i in range(n)) / n
                for n in range(1, K + 1)]
    got = maximal_function(chain, h, K).values
    assert np.allclose(got, np.max(averages, axis=0), rtol=0, atol=TOL)


def test_one_markov_step_kernel(chain):
    # the path sampler and the Monte Carlo norm estimator step the chain with
    # the same kernel: from one frozen state and one stream they end alike
    n, reps = 40, 300
    for x in range(chain.n_states):
        real = sample_quenched_paths(chain, PastFixture(state=x),
                                     RandomStream(7004, [x]), n, reps)
        ends = _evolve_states(chain, np.full(reps, x, dtype=np.intp), n,
                              RandomStream(7004, [x]))
        assert np.array_equal(real.states[:, -1], ends)
