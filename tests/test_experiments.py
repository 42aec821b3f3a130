import math
import os
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import ks_2samp

from qlab import (MarkovFunctionalModel, PastFixture, PathFunctional,
                  RandomStream, brownian_inf_cdf, brownian_sup_abs_cdf,
                  brownian_sup_cdf, decomposition_identity_check, doob_bound_check,
                  e0_increment_series, ks_one_sample, normal_cdf,
                  normal_reference, quenched_wip_experiment, sample_fixture,
                  sample_path_functional, sample_quenched_paths, sigma_squared,
                  strest_experiment, uncentered_drift_check, worker_pool)
from qlab import experiments
from qlab.cli import RunConfig, run
from qlab.experiments import ExperimentReport

from conftest import MODELS_DIR, centered_chain

ENDPOINT = PathFunctional("endpoint")


@pytest.fixture(scope="module")
def zero_chain():
    return MarkovFunctionalModel(np.array([[0.7, 0.3], [0.3, 0.7]]),
                                 np.array([0.0, 0.0]))


# --- report invariants -------------------------------------------------------

def test_report_field_invariants():
    with pytest.raises(ValueError):
        ExperimentReport("e", "s", "m", None, 1, 1, [0], 0.0, -1.0, None, None, "pass")
    with pytest.raises(ValueError):
        ExperimentReport("e", "s", "m", None, 1, 1, [0], 0.0, 0.0, 0.1, 1.5, "pass")


# --- CLT and WIP --------------------------------------------------------------

def test_clt_exact_normal_identity_model(identity_model):
    # with gaussian innovations the centered endpoint is exactly normal at
    # every n, so the KS distance sits below the 1% critical value
    fx = PastFixture(innovations=np.array([0.0]))
    rep = quenched_wip_experiment(identity_model, fx, ENDPOINT, 64, 5000,
                                  RandomStream(61, [0]))
    assert rep.test_statistic < 1.63 / math.sqrt(5000)
    assert rep.verdict == "pass"


def test_endpoint_wip_reproduces_clt(rho_model):
    # the endpoint WIP experiment is the CLT: a one-sample KS test of the
    # centered endpoint sample against N(0, sigma^2)
    fx = sample_fixture(rho_model, RandomStream(61, [1]))
    values = sample_path_functional(rho_model, fx, ENDPOINT, 128, 500,
                                    RandomStream(61, [2]))
    d, p = ks_one_sample(values, normal_reference(sigma_squared(rho_model)))
    wip = quenched_wip_experiment(rho_model, fx, ENDPOINT, 128, 500,
                                  RandomStream(61, [2]))
    assert wip.test_statistic == d
    assert wip.p_value == p
    assert wip.estimate == float(values.mean())


def test_empty_sample_rejected(rho_model):
    fx = sample_fixture(rho_model, RandomStream(61, [3]))
    with pytest.raises(ValueError):
        quenched_wip_experiment(rho_model, fx, ENDPOINT, 64, 0, RandomStream(61, [4]))


def test_degenerate_observable_reports_not_raises(zero_chain):
    fx = PastFixture(state=0)
    rep = quenched_wip_experiment(zero_chain, fx, ENDPOINT, 64, 200,
                                  RandomStream(61, [5]))
    assert rep.verdict == "degenerate"
    assert rep.p_value is None
    assert rep.details["max_abs_value"] == 0.0


def test_time_integral_against_brownian_mc(rho_model):
    # one-sample test against the grid-exact normal law, with 1e5 simulated
    # polygonal Brownian paths on the same 512 grid as the oracle for both
    # the sample and the closed form
    fx = sample_fixture(rho_model, RandomStream(61, [6]))
    sink = {}
    rep = quenched_wip_experiment(rho_model, fx, PathFunctional("time-integral"),
                                  512, 5000, RandomStream(61, [7]), sample_sink=sink)
    assert rep.details["reference"] == "trapezoid-normal"
    assert rep.details["verdict_rule"] == "p>0.01"
    assert rep.p_value > 0.01
    sim = _polygonal_brownian(_trapezoid, math.sqrt(sigma_squared(rho_model)), 512,
                              100_000, RandomStream(61, [7, 1]))
    assert ks_2samp(sink["values"], sim).pvalue > 0.01
    assert ks_one_sample(sim, sink["ref_cdf"])[1] > 0.01


def test_workers_do_not_change_values(rho_model):
    fx = sample_fixture(rho_model, RandomStream(61, [8]))
    f = PathFunctional("supremum")
    v1 = sample_path_functional(rho_model, fx, f, 300, 700, RandomStream(61, [9]))
    with worker_pool(3):
        v2 = sample_path_functional(rho_model, fx, f, 300, 700, RandomStream(61, [9]))
    assert np.array_equal(v1, v2)


# --- closed-form Brownian laws ---------------------------------------------------

def _polygonal_brownian(reduce, sigma, grid_n, reps, stream):
    """``reduce`` of each simulated polygonal sigma-Brownian grid path on
    [0, 1], a simulation oracle sharing no code with the closed forms;
    drawn 1000 paths at a time to bound memory."""
    out = []
    for b, lo in enumerate(range(0, reps, 1000)):
        count = min(1000, reps - lo)
        steps = stream.child(b).normal(count * grid_n).reshape(count, grid_n)
        grid = np.zeros((count, grid_n + 1))
        np.cumsum(steps * (sigma / math.sqrt(grid_n)), axis=1, out=grid[:, 1:])
        out.append(reduce(grid))
    return np.concatenate(out)


def _trapezoid(grid):
    return (grid[:, :-1] + grid[:, 1:]).sum(axis=1) / (2.0 * (grid.shape[1] - 1))


def test_brownian_endpoint_variance():
    # the simulation oracle's endpoint has variance sigma^2, and its law is
    # the endpoint reference N(0, sigma^2)
    vals = _polygonal_brownian(lambda g: g[:, -1], 1.5, 256, 10_000,
                               RandomStream(62, [0]))
    assert abs(vals.var() - 1.5**2) < 0.05 * 1.5**2
    assert ks_one_sample(vals, normal_reference(1.5**2))[1] > 0.01


def test_brownian_grid_floor_enforced(identity_model):
    # the only grid floor left is n >= 1: n = 0 is refused for every
    # functional, and n = 128, which the simulated reference once refused,
    # is judged against the closed-form law
    fx = PastFixture(innovations=np.array([0.0]))
    for kind in ("endpoint", "time-integral", "supremum", "infimum", "sup-abs"):
        with pytest.raises(ValueError):
            quenched_wip_experiment(identity_model, fx, PathFunctional(kind),
                                    0, 100, RandomStream(62, [3]))
        rep = quenched_wip_experiment(identity_model, fx, PathFunctional(kind),
                                      128, 100, RandomStream(62, [3]))
        assert rep.n == 128 and rep.test_statistic is not None


def test_time_integral_law_at_own_grid(identity_model):
    # the reference is the law of the trapezoid rule on the sample's own
    # n steps, with no grid floor: its variance is sum_j w_j^2 / n with
    # weight w_j = (n - j + 1/2) / n on step j (1/4 at n = 1)
    fx = PastFixture(innovations=np.array([0.0]))
    z = np.linspace(-2.0, 2.0, 9)
    for n in (1, 2, 7, 64, 300):
        sink = {}
        quenched_wip_experiment(identity_model, fx, PathFunctional("time-integral"),
                                n, 100, RandomStream(62, [0, n]), sample_sink=sink)
        w = (n - np.arange(1, n + 1) + 0.5) / n
        sd = math.sqrt(np.sum(w**2) / n)
        assert np.allclose(sink["ref_cdf"](z), normal_cdf(z / sd), rtol=0, atol=1e-15)


def test_brownian_supabs_dominates_endpoint():
    # sup|W| >= |W_1| and >= sup W, and sup|W| > a needs sup W > a or
    # inf W < -a, which pins the sup-abs CDF between three reflection laws
    a = np.linspace(0.3, 6.0, 115)
    for sigma in (0.5, 1.0, 2.0):
        f = brownian_sup_abs_cdf(a, sigma)
        assert np.all(f <= 2 * normal_cdf(a / sigma) - 1 + 1e-15)
        assert np.all(f <= brownian_sup_cdf(a, sigma) + 1e-15)
        assert np.all(f >= 2 * brownian_sup_cdf(a, sigma) - 1 - 1e-15)
        assert np.all(np.diff(f) >= 0) and np.all(f > 0)


def test_brownian_zero_sigma_gives_zero_paths(zero_chain):
    # sigma = 0: the limit CDFs refuse it and every functional of the
    # identically zero centered path is reported degenerate
    for cdf in (brownian_sup_cdf, brownian_inf_cdf, brownian_sup_abs_cdf):
        with pytest.raises(ValueError):
            cdf(1.0, 0.0)
    for kind in ("infimum", "sup-abs", "time-integral"):
        rep = quenched_wip_experiment(zero_chain, PastFixture(state=0),
                                      PathFunctional(kind), 64, 100,
                                      RandomStream(62, [2]))
        assert rep.verdict == "degenerate"
        assert rep.details["max_abs_value"] == 0.0


def test_extrema_judged_by_distance_threshold(identity_model):
    # at the acceptance scale of the supremum criterion (n = 4096, M = 5000)
    fx = PastFixture(innovations=np.array([0.0]))
    for kind, reference in (("supremum", "brownian-sup"), ("infimum", "brownian-inf"),
                            ("sup-abs", "brownian-sup-abs")):
        rep = quenched_wip_experiment(identity_model, fx, PathFunctional(kind),
                                      4096, 5000, RandomStream(62, [3]))
        assert rep.details["reference"] == reference
        assert rep.details["verdict_rule"] == "D<=0.03"
        assert rep.verdict == "pass"


def test_sup_abs_cdf_against_dual_series_and_simulation():
    # the dual normal-CDF series sum_{k in Z} (-1)^k [Phi((2k+1)x) - Phi((2k-1)x)],
    # summed here to |k| <= 60, against the library CDF
    k = np.arange(-60, 61)[:, None]
    for sigma in (1.0, 1.7):
        a = np.array([0.2, 0.5, 1.0, 2.0, 4.0, 0.999 * sigma, 1.001 * sigma])
        x = a[None, :] / sigma
        dual = np.sum((-1.0) ** k * (ndtr((2 * k + 1) * x) - ndtr((2 * k - 1) * x)), axis=0)
        assert np.allclose(brownian_sup_abs_cdf(a, sigma), dual, rtol=0, atol=1e-14)
    # polygonal simulation on a 4096 grid, judged like the supremum by the
    # KS distance, which carries the 0.58 sigma / sqrt(n) grid bias
    sim = _polygonal_brownian(lambda g: np.abs(g).max(axis=1), 1.0, 4096, 10_000,
                              RandomStream(2024, [2]))
    d, _ = ks_one_sample(sim, partial(brownian_sup_abs_cdf, sigma=1.0))
    assert d <= 0.03


def test_time_integral_exact_normal_identity_model(identity_model):
    # with gaussian innovations the time integral of the centered polygonal
    # path is exactly N(0, (4n^2 - 1) / (12 n^2)) at every n, also below 256
    fx = PastFixture(innovations=np.array([0.0]))
    rep = quenched_wip_experiment(identity_model, fx, PathFunctional("time-integral"),
                                  64, 5000, RandomStream(61, [0]))
    assert rep.details["reference"] == "trapezoid-normal"
    assert rep.test_statistic < 1.63 / math.sqrt(5000)
    assert rep.verdict == "pass"


def test_reflection_cdf_against_simulation():
    # As stated with M = 1e5 on a 4096 grid the comparison resolves the
    # O(sigma/sqrt(grid)) downward bias of the polygonal supremum (about
    # 0.58/64 = 0.009 here), so the KS distance is bias-dominated and small
    # but the p-value is not a fair agreement gauge at that resolution; at
    # M = 1e4 the bias sits below KS noise and the p > 0.01 check applies.
    sim = _polygonal_brownian(lambda g: g.max(axis=1), 1.0, 4096, 100_000,
                              RandomStream(2024, [0]))
    u = RandomStream(2024, [1]).uniform_open(100_000)
    exact = ndtri((u + 1.0) / 2.0)              # inverse-CDF reflection draws
    d = ks_2samp(sim, exact).statistic
    assert d < 0.015
    # the polygonal supremum is biased low by about 0.58 sigma / sqrt(grid)
    bias = float(np.mean(exact) - np.mean(sim))
    assert 0.0 < bias < 2.5 * 0.5826 / math.sqrt(4096)
    d_small, p_small = ks_one_sample(sim[:10_000], partial(brownian_sup_cdf, sigma=1.0))
    assert p_small > 0.01


# --- strest ----------------------------------------------------------------------

def test_strest_identity_model_exactly_zero(identity_model):
    fx = PastFixture(innovations=np.array([1.0]))
    rep = strest_experiment(identity_model, fx, math.inf, [64, 256, 1024], 100,
                            RandomStream(63, [0]))
    assert rep.estimates == [0.0, 0.0, 0.0]
    assert rep.verdict == "pass"


def test_strest_decay_geometric_model(rho_model):
    fx = sample_fixture(rho_model, RandomStream(63, [1]))
    rep = strest_experiment(rho_model, fx, math.inf, [256, 1024, 4096], 400,
                            RandomStream(63, [2]))
    assert rep.estimates[0] > rep.estimates[1] > rep.estimates[2]
    assert rep.estimates[2] < rep.estimates[0] / 2
    assert rep.verdict == "pass"


def test_strest_nonincreasing_in_truncation_order(rho_model):
    fx = sample_fixture(rho_model, RandomStream(63, [3]))
    results = [strest_experiment(rho_model, fx, r, [512], 500,
                                 RandomStream(63, [4]))
               for r in (0, 2, 8)]
    for lo, hi in zip(results[1:], results[:-1]):
        slack = 2.0 * (lo.std_errors[0] + hi.std_errors[0])
        assert lo.estimates[0] <= hi.estimates[0] + slack


def test_strest_workers_deterministic(two_state_chain):
    fx = PastFixture(state=0)
    a = strest_experiment(two_state_chain, fx, math.inf, [64, 256], 600,
                          RandomStream(63, [5]))
    with worker_pool(2):
        b = strest_experiment(two_state_chain, fx, math.inf, [64, 256], 600,
                              RandomStream(63, [5]))
    assert a.estimates == b.estimates


# --- drift -------------------------------------------------------------------------

def test_drift_identity_model_identically_zero(identity_model):
    fxs = [PastFixture(innovations=np.array([v])) for v in (0.0, 2.0, -3.0)]
    rep = uncentered_drift_check(identity_model, fxs, [256, 4096])
    assert np.all(rep.table == 0.0)
    assert rep.verdict == "pass"


def test_drift_chain_matches_geometric_oracle(two_state_chain):
    fxs = [PastFixture(state=0), PastFixture(state=1)]
    rep = uncentered_drift_check(two_state_chain, fxs, [256, 1024, 4096])
    for row, fx in zip(rep.table, fxs):
        gx = two_state_chain.observable[fx.state]
        for N, got in zip(rep.Ns, row):
            oracle = abs(gx) * (2.0 / 3.0) / math.sqrt(N)
            assert got == pytest.approx(oracle, rel=1e-9)
    assert rep.verdicts == ["vanishing", "vanishing"]


def test_drift_geometric_model_bounded_and_vanishing(rho_model):
    base = RandomStream(64, [])
    fxs = [sample_fixture(rho_model, base.child(i)) for i in range(4)]
    rep = uncentered_drift_check(rho_model, fxs, [256, 4096])
    for fx, row in zip(fxs, rep.table):
        # series bound oracle: |E0(S_N)| <= 2 max |frozen innovation|
        bound = 2.0 * np.max(np.abs(fx.innovations))
        assert np.all(row * np.sqrt(rep.Ns) <= bound + 1e-12)
    assert rep.verdict == "pass"


# --- conditional Doob bound -----------------------------------------------------------

def test_doob_zero_observable(zero_chain):
    rep = doob_bound_check(zero_chain, PastFixture(state=0), 64, 200,
                           RandomStream(65, [0]))
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert rep.holds


def test_doob_single_step(two_state_chain):
    rep = doob_bound_check(two_state_chain, PastFixture(state=0), 1, 2000,
                           RandomStream(65, [1]))
    # exact single-step enumeration: sd of g(W_1) from state 0 is sqrt(0.84)
    assert rep.lhs == pytest.approx(math.sqrt(0.84), abs=0.05)
    assert rep.holds and rep.strict_holds


def test_doob_two_state_chain_full(two_state_chain):
    rep = doob_bound_check(two_state_chain, PastFixture(state=0), 1024, 10_000,
                           RandomStream(65, [2]))
    assert rep.holds
    # the bound as displayed (pointwise in the past) is tighter than the
    # simulated left side here; the report records that disagreement
    assert not rep.strict_holds
    assert rep.rhs > rep.rhs_strict


def test_doob_rejects_linear_models(rho_model):
    fx = sample_fixture(rho_model, RandomStream(65, [3]))
    with pytest.raises(ValueError):
        doob_bound_check(rho_model, fx, 16, 100, RandomStream(65, [4]))


def _doob_rhs_oracle(chain, x: int, N: int) -> tuple[float, float, int]:
    """(rhs, rhs_strict, terms) of the Doob right side, one term at a time.

    Each term builds its whole (prev, cur) square, averages it over the
    step out of each prev and pushes that average through P^m with
    ``matrix_power``.  The iterates P^i g are stepped v <- P v, so the stop
    test sees the same floats as any other v <- P v loop.
    """
    P, g = chain.transition, chain.observable
    rows = np.array([np.linalg.matrix_power(P, m)[x] for m in range(N)])   # e_x P^m
    total = np.zeros(g.size)
    terms = 0
    v = g
    for _ in range(20_000):
        v_next = P @ v
        pair_sq = (v[None, :] - v_next[:, None]) ** 2                    # [prev, cur]
        if pair_sq.max() < 1e-26:
            break
        u = (P * pair_sq).sum(axis=1)
        prefix = np.concatenate([[0.0], np.cumsum(rows[:-1] @ u)])
        cesaro = (pair_sq[:, x][:, None] + prefix[None, :]) / np.arange(1, N + 1)
        total += np.sqrt(cesaro.max(axis=1))
        terms += 1
        v = v_next
    admissible = P[:, x] > 0
    return (math.sqrt(N) * total[admissible].max(),
            math.sqrt(N) * total[admissible].min(), terms)


def _lazy_cycle(S: int) -> MarkovFunctionalModel:
    P = 0.5 * np.eye(S) + 0.25 * (np.roll(np.eye(S), 1, axis=1) + np.roll(np.eye(S), -1, axis=1))
    return MarkovFunctionalModel(P, np.cos(2 * np.pi * np.arange(S) / S))


def _sparse_six_state() -> MarkovFunctionalModel:
    rng = np.random.default_rng(7008)
    P = rng.random((6, 6))
    P[P < 0.5] = 0.0
    P += 0.2 * np.roll(np.eye(6), 1, axis=1) + 0.1 * np.eye(6)   # irreducible, aperiodic
    assert (P == 0).any()
    return centered_chain(P / P.sum(axis=1, keepdims=True), rng.normal(size=6))


def _flip(p: float) -> MarkovFunctionalModel:
    return MarkovFunctionalModel(np.array([[1 - p, p], [p, 1 - p]]), np.array([1.0, -1.0]))


def _assert_doob_rhs(chain, x: int, N: int) -> int:
    rhs, rhs_strict, terms = _doob_rhs_oracle(chain, x, N)
    rep = doob_bound_check(chain, PastFixture(state=x), N, 2, RandomStream(68, [x]))
    assert rep.terms == terms
    assert rep.rhs == pytest.approx(rhs, rel=1e-12, abs=0)
    assert rep.rhs_strict == pytest.approx(rhs_strict, rel=1e-12, abs=0)
    return terms


@pytest.mark.parametrize("N", [1, 2, 64])
@pytest.mark.parametrize("name", ["two", "three", "six-sparse", "cycle16", "flip005"])
def test_doob_rhs_against_per_term_oracle(name, N, two_state_chain, three_state_chain):
    chain = {"two": two_state_chain, "three": three_state_chain,
             "six-sparse": _sparse_six_state(), "cycle16": _lazy_cycle(16),
             "flip005": _flip(0.05)}[name]
    terms = [_assert_doob_rhs(chain, x, N) for x in range(chain.n_states)]
    if name == "cycle16" and N == 64:    # 64 terms per chunk: the sum spans several
        assert min(terms) > 4 * 64


def test_doob_rhs_stop_on_a_chunk_edge(two_state_chain):
    # at S = 2, N = 1900 a chunk holds 2^16 // 3800 = 17 terms, and this
    # chain stops after exactly two chunks
    assert _assert_doob_rhs(two_state_chain, 0, 1900) == 34


def test_doob_rhs_stop_at_the_threshold():
    # the only pair gap squares to exactly 1e-26, which is not below the
    # threshold, so the term counts; the next term is zero and stops the sum
    chain = MarkovFunctionalModel(np.full((2, 2), 0.5), np.array([1e-13, -1e-13]))
    assert _assert_doob_rhs(chain, 0, 2) == 1


def test_doob_rhs_zero_observable(zero_chain):
    rep = doob_bound_check(zero_chain, PastFixture(state=1), 2, 2, RandomStream(68, [0]))
    assert (rep.terms, rep.rhs, rep.rhs_strict) == (0, 0.0, 0.0)


def test_doob_rhs_term_cap():
    # flip 1e-4 contracts by 0.9998 a step, so neither side stops before the cap
    assert _assert_doob_rhs(_flip(1e-4), 0, 2) == 20_000


# --- decomposition identity ------------------------------------------------------------

def test_identity_model_decomposition_exact(identity_model):
    fx = PastFixture(innovations=np.array([0.7]))
    rep = decomposition_identity_check(identity_model, fx, 32,
                                       RandomStream(66, [0]))
    assert rep.residual == 0.0


def test_geometric_decomposition_within_declared_bias(rho_model):
    fx = sample_fixture(rho_model, RandomStream(66, [1]))
    rep = decomposition_identity_check(rho_model, fx, 64, RandomStream(66, [2]))
    assert rep.allowance == pytest.approx(1e-9 + 64 * 0.5**40, rel=1e-12)
    assert rep.residual <= rep.allowance
    assert rep.verdict == "pass"


def test_chain_decomposition_exact(two_state_chain):
    rep = decomposition_identity_check(two_state_chain, PastFixture(state=1),
                                       16, RandomStream(66, [3]))
    assert rep.residual <= 1e-9
    assert rep.verdict == "pass"


def test_internal_consistency_of_centered_statistics(two_state_chain):
    # the endpoint functional equals the centered sum over sqrt(n) built
    # path by path from the raw values and the exact drift
    fx = PastFixture(state=0)
    n, reps = 48, 32
    stream = RandomStream(66, [4])
    values = sample_path_functional(two_state_chain, fx, ENDPOINT, n, reps, stream)
    real = sample_quenched_paths(two_state_chain, fx,
                                 RandomStream(66, [4, 0, 0]), n, reps)
    drift = e0_increment_series(two_state_chain, fx, n)
    for i in range(reps):
        centered_sum = float(np.sum(real.values[i] - drift))
        assert values[i] == pytest.approx(centered_sum / math.sqrt(n), abs=1e-12)


def test_markov_endpoint_stores_no_paths(two_state_chain):
    # the endpoint is one running sum per chain: the peak stays below the
    # (n + 1) x reps uint8 state array that a path grid would hold
    fx, n, reps = PastFixture(state=0), 4096, 1024
    sample_path_functional(two_state_chain, fx, ENDPOINT, 64, 256, RandomStream(68, [0]))
    tracemalloc.start()
    try:
        sample_path_functional(two_state_chain, fx, ENDPOINT, n, reps, RandomStream(68, [1]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (n + 1) * reps

# --- the worker-pool contract -------------------------------------------------

@pytest.fixture
def pools(monkeypatch):
    """Every pool started, each an in-process stand-in recording its size
    and the group count of each map."""
    started = []

    class CountingPool:
        def __init__(self, max_workers):
            self.maps, self.max_workers, self.groups = 0, max_workers, []
            started.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, groups):
            self.maps += 1
            self.groups.append(len(groups))
            return map(fn, groups)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    return started


def _three_experiments(chain):
    """Three block-replicated experiments of three blocks each."""
    fx, stream = PastFixture(state=0), RandomStream(67, [1])
    return (sample_path_functional(chain, fx, ENDPOINT, 32, 600, stream).tolist(),
            strest_experiment(chain, fx, math.inf, [16, 32], 600, stream).estimates,
            doob_bound_check(chain, fx, 32, 600, stream).lhs)


def test_no_pool_outside_a_worker_pool_block(two_state_chain, pools):
    _three_experiments(two_state_chain)
    assert pools == []


def test_one_pool_serves_every_experiment_of_a_block(two_state_chain, pools):
    serial = _three_experiments(two_state_chain)
    with worker_pool(2):
        with worker_pool(1):        # runs in-process, then restores the pool
            inner = _three_experiments(two_state_chain)
        pooled = _three_experiments(two_state_chain)
    assert len(pools) == 1 and pools[0].maps == 3
    assert inner == serial and pooled == serial


def test_pool_is_capped_at_the_cpu_count(two_state_chain, pools):
    serial = _three_experiments(two_state_chain)
    with worker_pool(10**6):
        pooled = _three_experiments(two_state_chain)
    assert pooled == serial
    assert all(pool.max_workers <= os.cpu_count() for pool in pools)
    assert all(max(pool.groups) <= os.cpu_count() for pool in pools)
    assert len(pools) == (1 if os.cpu_count() > 1 else 0)


def test_cli_run_starts_one_pool_for_all_fixtures(tmp_path, pools):
    run(RunConfig(experiment="quenched-clt", seed=5, n=32, reps=600, fixtures=3,
                  model_path=os.path.join(MODELS_DIR, "markov_2state.json"),
                  workers=2, out=str(tmp_path)))
    assert len(pools) == 1 and pools[0].maps == 3
