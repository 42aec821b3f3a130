"""Every consumer of the power sequence P^k g against np.linalg.matrix_power,
and every consumer of the Markov step against a stepwise draw oracle.

The chains are the bundled 3-state chain and a seeded random primitive
6-state chain; neither observable is an eigenfunction, so each power
carries a mixture of modes and an off-by-one in any loop shows.
"""

import numpy as np
import pytest

from qlab import (MarkovFunctionalModel, PastFixture, RandomStream,
                  cesaro_average, e0_increment_series, martingale_increment,
                  maximal_function, mc_projection_norm_sq, mw_criterion,
                  projection_norms, sample_quenched_paths)

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


def _stepwise_paths(P: np.ndarray, start: np.ndarray, steps: int,
                    stream: RandomStream) -> np.ndarray:
    """Draw-contract oracle sharing no code with qlab.models: one
    ``uniform_open(count)`` call per step, then per chain the inverse CDF
    of its row by ``searchsorted``, clipped to the last state."""
    cum = np.cumsum(P, axis=1)
    last = P.shape[0] - 1
    paths = [np.asarray(start)]
    for _ in range(steps):
        u = stream.uniform_open(len(start))
        paths.append(np.array([min(np.searchsorted(cum[s], x, side="right"), last)
                               for s, x in zip(paths[-1], u)], dtype=np.intp))
    return np.column_stack(paths)


def _sparse_six_state() -> MarkovFunctionalModel:
    """A seeded primitive 6-state chain with zero entries; row 2 ends in zeros."""
    raw = RandomStream(7005, [0]).uniform_open(36).reshape(6, 6)
    raw[raw < 0.4] = 0.0
    raw[2, 3:] = 0.0
    # self-loops and the cycle i -> i - 1 keep it irreducible and aperiodic
    raw += 0.1 * (np.eye(6) + np.roll(np.eye(6), -1, axis=1))
    P = raw / raw.sum(axis=1, keepdims=True)
    return MarkovFunctionalModel.from_raw_observable(P, RandomStream(7005, [1]).normal(6))


@pytest.mark.parametrize("which", ["two", "three", "sparse-six"])
def test_sampler_draw_contract(which, two_state_chain, three_state_chain):
    chain = {"two": two_state_chain, "three": three_state_chain,
             "sparse-six": _sparse_six_state()}[which]
    n, reps = 40, 300
    for x in range(chain.n_states):
        real = sample_quenched_paths(chain, PastFixture(state=x),
                                     RandomStream(7004, [x]), n, reps)
        oracle = _stepwise_paths(chain.transition, np.full(reps, x), n,
                                 RandomStream(7004, [x]))
        assert np.array_equal(real.states, oracle)


def test_one_markov_step_kernel(chain):
    # the Monte Carlo norm estimator steps its legs under the sampler's draw
    # contract: replaying its stream through the oracle gives its estimate
    P, g, reps = chain.transition, chain.observable, 500
    cum_pi = np.cumsum(chain.stationary)
    for k in (0, 1, 5):
        stream = RandomStream(7004, [k])
        u = stream.uniform_open(reps)
        w_prev = np.minimum(np.searchsorted(cum_pi, u, side="right"), chain.n_states - 1)
        w_curr = _stepwise_paths(P, w_prev, 1, stream)[:, -1]
        gaps = []
        for _ in range(2):
            a_end = _stepwise_paths(P, w_curr, k, stream)[:, -1]
            b_end = _stepwise_paths(P, w_prev, k + 1, stream)[:, -1]
            gaps.append(g[a_end] - g[b_end])
        products = gaps[0] * gaps[1]
        oracle = (products.mean(), products.std(ddof=1) / np.sqrt(reps))
        got = mc_projection_norm_sq(chain, k, reps, RandomStream(7004, [k]))
        assert got == oracle
