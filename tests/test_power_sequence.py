"""Every consumer of the power sequence P^k g against np.linalg.matrix_power,
and every consumer of the Markov step against a stepwise draw oracle.

The chains are the bundled 3-state chain and a seeded random primitive
6-state chain; neither observable is an eigenfunction, so each power
carries a mixture of modes and an off-by-one in any loop shows.  The step
kernel is also checked on chains whose thresholds sit on the edges of its
guide buckets, crowd into one bucket, or tie with the uniforms.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlab import (MarkovFunctionalModel, PastFixture, PathFunctional,
                  RandomStream, cesaro_average, doob_bound_check,
                  e0_increment_series, martingale_increment, maximal_function,
                  mc_projection_norm_sq, mw_criterion, projection_norms,
                  sample_path_functional, sample_quenched_paths,
                  strest_experiment, worker_pool)

from qlab import experiments, models
from qlab.paths import FUNCTIONAL_KINDS

from conftest import centered_chain

K = 200
TOL = 1e-12


def _random_six_state() -> MarkovFunctionalModel:
    raw = RandomStream(7001, [0]).uniform_open(36).reshape(6, 6) + 0.05
    P = raw / raw.sum(axis=1, keepdims=True)
    return centered_chain(P, RandomStream(7001, [1]).normal(6))


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
    return centered_chain(P, RandomStream(7005, [1]).normal(6))


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


def _dyadic_four_state() -> MarkovFunctionalModel:
    """Every threshold is a multiple of 1/4, so it sits on a guide-bucket edge."""
    P = np.array([[0.25, 0.25, 0.25, 0.25],
                  [0.5, 0.25, 0.25, 0.0],
                  [0.0, 0.5, 0.0, 0.5],
                  [0.75, 0.0, 0.0, 0.25]])
    return centered_chain(P, np.array([1.0, -2.0, 0.5, 3.0]))


def _crowded_five_state() -> MarkovFunctionalModel:
    """Repeated thresholds (zero entries) and entries below 2^-12, so several
    thresholds share one guide bucket."""
    P = np.array([[1e-5, 0.0, 3e-5, 2e-4, 1 - 2.4e-4],
                  [0.3, 1e-6, 1e-6, 0.0, 0.699998],
                  [0.2, 0.2, 0.2, 0.2, 0.2],
                  [0.0, 0.0, 0.5, 1e-4, 0.4999],
                  [0.6, 1e-5, 1e-5, 1e-5, 0.39997]])
    return centered_chain(P, np.arange(5.0))


def _dense_64_state() -> MarkovFunctionalModel:
    raw = RandomStream(7006, [0]).uniform_open(64 * 64).reshape(64, 64)
    P = raw / raw.sum(axis=1, keepdims=True)
    return centered_chain(P, RandomStream(7006, [1]).normal(64))


class _ReplayStream:
    """Serves a fixed sequence of int64 draws k, in order, to any call
    pattern: as k itself, or as the uniform k / 2^53."""

    def __init__(self, k: np.ndarray):
        self.k, self.used = k, 0

    def uniform_integers(self, count: int) -> np.ndarray:
        out = self.k[self.used : self.used + count]
        self.used += count
        return out

    def uniform_open(self, count: int) -> np.ndarray:
        return self.uniform_integers(count) / 2**53


def _tie_draws(chain) -> np.ndarray:
    """For each threshold t of ``chain`` in (0, 1), the draws k next to its
    cut c = ceil(t 2^53), c - 1, c and c + 1, and the last and first k,
    j 2^41 - 1 and j 2^41, of the guide buckets either side of the bucket
    edge j 2^-12 nearest t; only k in [1, 2^53) are kept."""
    cum = np.cumsum(chain.transition, axis=1)[:, :-1].ravel()
    cum = cum[(cum > 0) & (cum < 1)]
    cuts = np.ceil(np.ldexp(cum, 53)).astype(np.int64)
    edges = np.round(cum * 4096).astype(np.int64) << 41
    k = np.concatenate([cuts - 1, cuts, cuts + 1, edges - 1, edges])
    return k[(k >= 1) & (k < 2**53)]


KERNEL_CHAINS = {"dyadic-four": _dyadic_four_state, "crowded-five": _crowded_five_state,
                 "dense-64": _dense_64_state}


def check_draw_contract(chain, n, reps):
    """Byte oracle of the sampler: one block of ``reps`` chains from each of
    the first six states against the stepwise draws of the same stream."""
    for x in range(min(chain.n_states, 6)):
        real = sample_quenched_paths(chain, PastFixture(state=x),
                                     RandomStream(7004, [x]), n, reps)
        oracle = _stepwise_paths(chain.transition, np.full(reps, x), n,
                                 RandomStream(7004, [x]))
        assert real.states.dtype == np.uint8
        assert np.array_equal(real.states, oracle)


@pytest.mark.parametrize("which", ["two", "three", "sparse-six", *KERNEL_CHAINS])
def test_sampler_draw_contract(which, two_state_chain, three_state_chain):
    # 300 steps cross the kernel's chunks of uniforms; the last three chains
    # put thresholds on guide-bucket edges, crowd them into one bucket, and
    # fill 64 states
    named = {"two": two_state_chain, "three": three_state_chain}
    chain = named[which] if which in named else {"sparse-six": _sparse_six_state,
                                                 **KERNEL_CHAINS}[which]()
    check_draw_contract(chain, 300, 257)


def check_ties_move_up(chain):
    """Byte oracle of the kernel next to every threshold: the same tie
    draws replayed, shuffled, to the sampler and to the stepwise oracle."""
    k = _tie_draws(chain)
    n, reps = 40, 211
    order = np.argsort(RandomStream(7008, []).uniform_open(k.size))
    pool = np.resize(k[order], n * reps)
    for x in range(min(chain.n_states, 4)):
        real = sample_quenched_paths(chain, PastFixture(state=x), _ReplayStream(pool),
                                     n, reps)
        oracle = _stepwise_paths(chain.transition, np.full(reps, x), n,
                                 _ReplayStream(pool))
        assert np.array_equal(real.states, oracle)


@pytest.mark.parametrize("which", sorted(KERNEL_CHAINS))
def test_step_kernel_ties_move_up(which):
    # draws on every threshold's cut, one grid step either side of it, and
    # on every guide-bucket edge near it: a tie t == u counts (t <= u)
    check_ties_move_up(KERNEL_CHAINS[which]())


@st.composite
def _crowded_chains(draw):
    """A primitive chain with S <= 8 built from entries that include zeros
    and values below 2^-41, so several cuts share a few thousand k; row 1
    holds two entries that sum to 1 + delta, delta below the 1e-12 row
    tolerance, so its cuts past them lie above every k."""
    S = draw(st.integers(2, 8))
    entry = st.one_of(st.just(0.0), st.floats(2.0**-60, 2.0**-41), st.floats(1e-3, 1.0))
    raw = np.array(draw(st.lists(entry, min_size=S * S, max_size=S * S))).reshape(S, S)
    # self-loops and the cycle i -> i - 1 keep it irreducible and aperiodic
    raw += 0.1 * (np.eye(S) + np.roll(np.eye(S), -1, axis=1))
    raw[1, 2:] = 0.0
    P = raw / raw.sum(axis=1, keepdims=True)
    P[1] *= 1.0 + draw(st.floats(1e-14, 9e-13))
    return centered_chain(P, np.arange(S, dtype=float))


@settings(max_examples=40)
@given(chain=_crowded_chains(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_step_kernel_matches_the_stepwise_oracle(chain, seed, data):
    # random draws and every tie draw of the chain, shuffled into one stream
    x = data.draw(st.integers(0, chain.n_states - 1))
    ties = _tie_draws(chain)
    stream = RandomStream(seed, [0])
    k = np.concatenate([ties, stream.uniform_integers(ties.size + 64)])
    pool = np.resize(k[np.argsort(stream.uniform_open(k.size))], 30 * 40)
    real = sample_quenched_paths(chain, PastFixture(state=x), _ReplayStream(pool), 30, 40)
    oracle = _stepwise_paths(chain.transition, np.full(40, x), 30, _ReplayStream(pool))
    assert np.array_equal(real.states, oracle)


def _oracle_blocks(chain, x, n, reps, stream):
    """Per-block oracle paths: block b of 256 chains from its own stream."""
    sizes = [256] * (reps // 256) + [reps % 256] * (reps % 256 > 0)
    return [_stepwise_paths(chain.transition, np.full(count, x), n,
                            RandomStream(stream.master_seed, stream.path + (0, b)))
            for b, count in enumerate(sizes)]


def _oracle_centered(chain, x, states):
    # the exact drift is the library's own (checked against matrix_power above)
    e0 = e0_increment_series(chain, PastFixture(state=x), states.shape[1] - 1)
    return np.cumsum(chain.observable[states[:, 1:]], axis=1) - np.cumsum(e0)


def check_blocks_jointly(chain, x, reps, stream, n, Ns, kinds=FUNCTIONAL_KINDS,
                         workers=(1, 2, 3)):
    """Byte oracle of one fixture's experiments: every functional in
    ``kinds``, strest and doob against the per-block oracle's arrays."""
    fixture = PastFixture(state=x)
    blocks = _oracle_blocks(chain, x, n, reps, stream)
    centered = np.concatenate([_oracle_centered(chain, x, st) for st in blocks])

    grid = np.concatenate([np.zeros((reps, 1)), centered], axis=1) / math.sqrt(n)
    approx = martingale_increment(chain, math.inf)
    mart = np.concatenate([np.cumsum(approx.g_hat[st[:, 1:]] - approx.p_g_hat[st[:, :-1]],
                                     axis=1) for st in blocks])
    running = np.maximum.accumulate((centered - mart) ** 2, axis=1)
    scaled = running[:, [N - 1 for N in Ns]] / np.asarray(Ns, dtype=float)[None, :]
    lhs = math.sqrt(float(np.max(centered**2, axis=1).mean()))

    for count in workers:
        with worker_pool(count):
            for kind in kinds:
                functional = PathFunctional(kind)
                [got] = sample_path_functional(chain, [fixture], functional, n, reps,
                                               [stream])
                assert got.tobytes() == functional.of_grid([grid]).tobytes()
            rep = strest_experiment(chain, fixture, math.inf, Ns, reps, stream)
            assert rep.estimates == [float(v) for v in scaled.mean(axis=0)]
            rep = doob_bound_check(chain, fixture, n, reps, stream)
            assert rep.lhs == lhs


def test_markov_experiments_step_blocks_jointly(three_state_chain):
    # five blocks, the last one partial: every worker count groups them
    # differently, and every grouping must give the per-block oracle's arrays;
    # n = 300 runs the running sums across the kernel's chunks
    for n, Ns in ((60, [15, 60]), (300, [15, 300])):
        check_blocks_jointly(three_state_chain, 2, 4 * 256 + 37, RandomStream(7009, [3]),
                             n, Ns)


def check_fixtures_jointly(chain, n, reps, kinds=FUNCTIONAL_KINDS, workers=(1, 2, 3),
                           states=(2, 0, 1)):
    """Byte oracle of a run of fixtures in ``states``, three different ones
    unless given: every functional in ``kinds`` against each fixture's
    per-block oracle grid."""
    fixtures = [PastFixture(state=x) for x in states]
    streams = [RandomStream(7010, [1, i]) for i in range(len(states))]
    grids = []
    for x, stream in zip(states, streams):
        centered = np.concatenate([_oracle_centered(chain, x, st)
                                   for st in _oracle_blocks(chain, x, n, reps, stream)])
        grids.append(np.concatenate([np.zeros((reps, 1)), centered], axis=1) / math.sqrt(n))
    for count in workers:
        with worker_pool(count):
            for kind in kinds:
                functional = PathFunctional(kind)
                got = sample_path_functional(chain, fixtures, functional, n, reps, streams)
                assert [v.tobytes() for v in got] == [functional.of_grid([grid]).tobytes()
                                                      for grid in grids]


@pytest.mark.parametrize("loop_lanes", [None, 500])
def test_markov_run_steps_fixtures_jointly(three_state_chain, loop_lanes, monkeypatch):
    # three fixtures in different states, each of two full blocks and a
    # partial one: two workers split the run inside fixture 1, so one loop
    # steps lanes of two fixtures, for the endpoint and every path
    # functional alike; n = 300 crosses the kernel's chunks, and 500 lanes
    # a loop splits each group into loops inside fixtures too.  A second run
    # repeats a state in fixtures 0 and 1, so a loop that steps lanes of
    # both, at either loop size, maps them onto one drift column
    if loop_lanes is not None:
        monkeypatch.setattr(experiments, "_LOOP_LANES", loop_lanes)
    for states in ((2, 0, 1), (2, 2, 0)):
        check_fixtures_jointly(three_state_chain, 300, 2 * 256 + 37, states=states)


@pytest.mark.parametrize("which", ["three", "dense-64"])
def test_drift_columns_are_the_stepped_sums(which, three_state_chain):
    # one power pass serves every start state, in any order: each column has
    # the bytes of that state's own stepped sum
    chain = three_state_chain if which == "three" else _dense_64_state()
    states = np.arange(chain.n_states, dtype=np.uint8)[::-1]
    drifts = experiments._drifts(chain, states, 300)
    assert drifts.shape == (300, chain.n_states)
    for x, column in zip(states, drifts.T):
        stepped = np.cumsum(e0_increment_series(chain, PastFixture(state=int(x)), 300))
        assert column.tobytes() == stepped.tobytes()


def test_chunk_width_leaves_the_numbers_alone(three_state_chain, monkeypatch):
    # 600 lanes, in one block, in a run of two fixtures stepped together or
    # in one fixture's strest and doob: the draw budget gives chunks of 1, 7
    # and 128 steps, the fold budget folds 1, 7 or all n = 150 steps a
    # chunk, and 7 does not divide n
    chain, n, lanes = three_state_chain, 150, 600
    fixtures = [PastFixture(state=2), PastFixture(state=0)]
    results = set()
    for draw, fold in itertools.product((1, 7, 128), (1, 7, n)):
        monkeypatch.setattr(models, "_STEP_DRAWS", draw * lanes)
        monkeypatch.setattr(experiments, "_FOLD_VALUES", fold * lanes)
        streams = [RandomStream(7011, [i]) for i in range(2)]
        real = sample_quenched_paths(chain, fixtures[0], streams[0], n, lanes)
        values = [v.tobytes() for kind in FUNCTIONAL_KINDS
                  for v in sample_path_functional(chain, fixtures, PathFunctional(kind), n,
                                                  lanes // 2, streams)]
        strest = strest_experiment(chain, fixtures[1], math.inf, [16, n], lanes, streams[1])
        doob = doob_bound_check(chain, fixtures[1], n, lanes, streams[1])
        results.add((real.states.tobytes(), *values, *strest.estimates, doob.lhs))
    assert len(results) == 1
