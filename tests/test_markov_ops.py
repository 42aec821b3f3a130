import numpy as np
import pytest
from scipy.stats import chi2

from qlab import (MarkovFunctionalModel, PastFixture, RandomStream,
                  cesaro_average, dual_operator, duality_check, e0_increment_series,
                  hopf_check, maximal_function, poisson_solve,
                  sample_quenched_paths, sigma_squared, verify_dunford_schwartz,
                  verify_markov_property, weak_l2_tail)

from qlab import cli, markov_ops
from qlab.markov_ops import MaximalFunction

from conftest import centered_chain
from test_experiments import _lazy_cycle
from test_power_sequence import _dense_64_state


def _random_chain(n_states: int, seed: int) -> MarkovFunctionalModel:
    raw = RandomStream(seed, [0]).uniform_open(n_states * n_states)
    P = raw.reshape(n_states, n_states) + 0.05
    P /= P.sum(axis=1, keepdims=True)
    g = RandomStream(seed, [1]).normal(n_states)
    return centered_chain(P, g)


# --- operator construction ---------------------------------------------------

def test_q_equals_transition_matrix(two_state_chain):
    # Q applied to the indicator of state j is column j of the matrix:
    # the two-term Cesaro average is (1_j + Q 1_j) / 2
    P = np.array([[0.7, 0.3], [0.3, 0.7]])
    for j in range(2):
        e_j = np.eye(2)[j]
        q_e_j = 2.0 * cesaro_average(two_state_chain, e_j, 2) - e_j
        assert np.allclose(q_e_j, P[:, j], atol=1e-15)


def test_q_on_eigenfunction(two_state_chain):
    g = two_state_chain.observable
    assert np.allclose(cesaro_average(two_state_chain, g, 2), 0.7 * g, atol=1e-14)


def test_q_preserves_constants(two_state_chain):
    ones = np.ones(2)
    assert np.allclose(cesaro_average(two_state_chain, ones, 7), ones, atol=1e-14)


def test_cesaro_refuses_empty_average(two_state_chain):
    for average in (cesaro_average, maximal_function):
        with pytest.raises(ValueError, match="N must be >= 1"):
            average(two_state_chain, np.ones(2), 0)


# --- contraction --------------------------------------------------------------

def test_contraction_equality_for_constants(two_state_chain):
    report = verify_dunford_schwartz(two_state_chain, [np.full(2, 3.5)])
    assert report.ok


def test_contraction_on_eigenfunction(two_state_chain):
    pi, g = two_state_chain.stationary, two_state_chain.observable
    assert pi @ np.abs(two_state_chain.transition @ g) == pytest.approx(0.4)
    assert pi @ np.abs(g) == pytest.approx(1.0)
    assert verify_dunford_schwartz(two_state_chain, [g]).ok


def test_contraction_100_random_functions(three_state_chain):
    base = RandomStream(51, [])
    funcs = [base.child(i).normal(3) * 5 for i in range(100)]
    report = verify_dunford_schwartz(three_state_chain, funcs)
    assert report.ok


def test_contraction_requires_input(two_state_chain):
    with pytest.raises(ValueError):
        verify_dunford_schwartz(two_state_chain, [])


# --- maximal function and Hopf -------------------------------------------------

def test_maximal_of_constant_one(two_state_chain):
    mf = maximal_function(two_state_chain, np.ones(2), 50)
    assert np.allclose(mf.values, 1.0, atol=1e-14)
    assert hopf_check(two_state_chain, mf).ok


def test_maximal_dominates_every_cesaro_average(three_state_chain):
    h = RandomStream(52, [0]).normal(3) * 2
    mf = maximal_function(three_state_chain, h, 10)
    for n in range(1, 11):      # brute-force oracle, power by power
        avg = np.zeros(3)
        power = np.abs(h)
        for i in range(n):
            avg += power
            power = three_state_chain.transition @ power
        assert np.all(mf.values >= avg / n - 1e-12)


def test_maximal_nondecreasing_in_truncation(three_state_chain):
    h = RandomStream(52, [1]).normal(3)
    prev = maximal_function(three_state_chain, h, 1).values
    for N in (2, 5, 20, 100):
        cur = maximal_function(three_state_chain, h, N).values
        assert np.all(cur >= prev - 1e-15)
        prev = cur


def test_hopf_inequality_exact(two_state_chain):
    mf = maximal_function(two_state_chain, np.abs(two_state_chain.observable), 1000)
    report = hopf_check(two_state_chain, mf)
    assert report.ok


def test_hopf_at_truncation_one_is_markov_inequality(three_state_chain):
    h = RandomStream(52, [2]).normal(3)
    mf = maximal_function(three_state_chain, h, 1)
    assert np.array_equal(mf.values, np.abs(h))
    assert hopf_check(three_state_chain, mf).ok


def test_hopf_many_random_functions(three_state_chain):
    base = RandomStream(53, [])
    for i in range(20):
        mf = maximal_function(three_state_chain, base.child(i).normal(3) * 3, 200)
        assert hopf_check(three_state_chain, mf).ok


# --- the streamed Cesaro pass and hopf's statistic ------------------------------

def _stack(chain) -> np.ndarray:
    """|g| and 20 seeded normal functions, the columns of one (S, 21) stack."""
    rng = RandomStream(7010, [])
    return np.column_stack([np.abs(chain.observable),
                            *(rng.child(j).normal(chain.n_states) for j in range(20))])


def check_streamed_pass(chain, N: int, rel: float):
    """Each column of the pass on the stack against a per-function loop that
    shares no code with it: Q^i h by repeated P @ h, with its own running
    sum and running maximum of the means; ``rel`` is relative to the
    column's largest entry."""
    H = _stack(chain)
    mean, best = markov_ops._cesaro_pass(chain, H, N)
    for j in range(H.shape[1]):
        power, total, top = H[:, j], np.zeros(chain.n_states), np.full(chain.n_states, -np.inf)
        for n in range(1, N + 1):
            total = total + power
            top = np.maximum(top, total / n)
            power = chain.transition @ power
        assert np.max(np.abs(mean[:, j] - total / N)) <= rel * np.max(np.abs(total / N))
        assert np.max(np.abs(best[:, j] - top)) <= rel * np.max(np.abs(top))


@pytest.mark.parametrize("which, rel", [
    # measured at N = 1000: 1.2e-14, 4.8e-16 and 2.7e-15 relative, each on
    # the last mean; each bound is about 8 times its chain's gap
    ("two", 1e-13), ("three", 4e-15), ("dense-64", 2e-14)])
def test_streamed_pass_against_per_function_loops(which, rel, two_state_chain,
                                                  three_state_chain):
    chain = {"two": lambda: two_state_chain, "three": lambda: three_state_chain,
             "dense-64": _dense_64_state}[which]()
    check_streamed_pass(chain, 1000, rel)


def check_hopf_statistic(chain, maximal, rel: float):
    """hopf_check's statistic against an explicit loop over the levels l of
    h*: max_l l pi(h* >= l), the supremum of x pi(h* > x)."""
    pi, values = chain.stationary.tolist(), maximal.values.tolist()
    oracle = max(level * sum(p for p, v in zip(pi, values) if v >= level)
                 for level in set(values))
    assert abs(hopf_check(chain, maximal).statistic - oracle) <= rel * oracle


def test_hopf_statistic_against_a_per_level_loop(three_state_chain):
    # measured 5.8e-16 relative at most over the 21 functions of each
    # chain; the bound is 7 times that
    for chain in (three_state_chain, _dense_64_state(), _lazy_cycle(64)):
        H = _stack(chain)
        maxima = markov_ops._cesaro_pass(chain, np.abs(H), 1000)[1]
        for j in range(H.shape[1]):
            check_hopf_statistic(chain, MaximalFunction(maxima[:, j], H[:, j]), 4e-15)


def check_hopf_tie_stability(chain, maximal, rel: float):
    """Breaking the ties of h* by one ulp, alternately up and down, moves
    hopf_check's statistic by at most ``rel`` relative."""
    values = maximal.values
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    tied = np.flatnonzero(counts[group] > 1)
    assert tied.size >= 2
    nudged = values.copy()
    nudged[tied[::2]] = np.nextafter(values[tied[::2]], np.inf)
    nudged[tied[1::2]] = np.nextafter(values[tied[1::2]], -np.inf)
    before = hopf_check(chain, maximal).statistic
    after = hopf_check(chain, MaximalFunction(nudged, maximal.base)).statistic
    assert abs(after - before) <= rel * before


def test_hopf_statistic_is_continuous_at_ties():
    # |g| on the lazy 64-cycle is symmetric, so h* ties in 16 groups; the
    # statistic moved 1.9e-16 relative, and a count of h* > x, which drops
    # each tied group at its own level, moved it from 0.5704 to 0.5796
    chain = _lazy_cycle(64)
    maximal = maximal_function(chain, np.abs(chain.observable), 1000)
    check_hopf_tie_stability(chain, maximal, 1e-13)
    check_hopf_statistic(chain, maximal, 4e-15)


def test_hopf_statistic_of_a_constant_is_its_l1_norm(two_state_chain):
    # the supremum is approached from below the one level, where the whole
    # mass counts: 2.5 pi(h* >= 2.5) = 2.5, not 2.5 pi(h* > 2.5) = 0; it
    # measured 1.8e-16 relative off, from the rounding of pi, and the bound
    # is 6 times that
    mf = maximal_function(two_state_chain, np.full(2, 2.5), 50)
    assert hopf_check(two_state_chain, mf).statistic == pytest.approx(2.5, rel=1e-15)


def test_hopf_run_checks_each_function_of_its_one_pass():
    # the run's 21 functions are drawn from stream (run, 0) and share one
    # pass; each check matches the one-function form's on the same function
    chain, base = _dense_64_state(), RandomStream(7011, [])
    payload, checks, _ = cli._run_hopf(None, chain, base)
    rng = base.child(0)
    functions = [np.abs(chain.observable), *(rng.normal(64) for _ in range(20))]
    assert len(checks) == len(payload["reports"]) == 21
    for check, h in zip(checks, functions):
        alone = hopf_check(chain, maximal_function(chain, h, 1000))
        # the two sum in different orders: over seeds 7000-7039 the largest
        # relative gap was 5.1e-14 (median 5.6e-15); the bound is 2 times that
        assert check.statistic == pytest.approx(alone.statistic, rel=1e-13, abs=0)
        assert check.threshold == alone.threshold


# --- weak L2 tail ----------------------------------------------------------------

def test_weak_l2_zero_function(two_state_chain):
    assert weak_l2_tail(np.zeros(2), two_state_chain.stationary) == 0.0


def test_weak_l2_two_level_enumeration(two_state_chain):
    value = weak_l2_tail(two_state_chain.observable, two_state_chain.stationary)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_weak_l2_normal_sample_stability():
    values = [weak_l2_tail(RandomStream(54, [i]).normal(100_000),
                           np.full(100_000, 1 / 100_000))
              for i in range(5)]
    center = np.mean(values)
    assert all(abs(v - center) < 0.2 * center for v in values)


def test_weak_l2_rejects_empty():
    with pytest.raises(ValueError):
        weak_l2_tail(np.array([]), np.array([]))


# --- Markov property ---------------------------------------------------------------

def test_markov_property_two_state(two_state_chain):
    report = verify_markov_property(two_state_chain, 3)
    assert report.max_discrepancy <= 1e-12


def test_markov_property_three_state(three_state_chain):
    report = verify_markov_property(three_state_chain, 3)
    assert report.max_discrepancy <= 1e-12


def test_markov_property_random_five_state():
    chain = _random_chain(5, 55)
    report = verify_markov_property(chain, 3)
    assert report.max_discrepancy <= 1e-12


def test_markov_property_total_mass():
    # with every indicator replaced by 1 both sides reduce to total mass 1
    from qlab.markov_ops import _path_weights
    chain = _random_chain(4, 56)
    for length in (2, 3, 4):
        _, weights = _path_weights(chain, length)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_markov_property_caps_path_length(two_state_chain):
    with pytest.raises(ValueError):
        verify_markov_property(two_state_chain, 5)


@pytest.mark.parametrize("chain", ["two", "three"])
def test_sampled_transition_counts_match_P(chain, two_state_chain, three_state_chain):
    # an oracle that shares no products of P with the sampler: count the
    # transitions of sampled conditional paths, from every frozen state,
    # and compare each row of counts with P by one pooled chi-square test
    model = {"two": two_state_chain, "three": three_state_chain}[chain]
    S = model.n_states
    counts = np.zeros((S, S))
    for start in range(S):
        states = sample_quenched_paths(model, PastFixture(state=start),
                                       RandomStream(81, [start]), 200, 300).states
        np.add.at(counts, (states[:, :-1].ravel(), states[:, 1:].ravel()), 1)
    expected = counts.sum(axis=1, keepdims=True) * model.transition
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2.sf(statistic, S * (S - 1)) > 0.01


# --- Poisson equation -----------------------------------------------------------------

def test_poisson_zero_rhs(two_state_chain):
    g_hat = poisson_solve(MarkovFunctionalModel(two_state_chain.transition, np.zeros(2)))
    assert np.allclose(g_hat, 0.0, atol=1e-12)


def test_poisson_two_state_eigen_oracle(two_state_chain):
    g = two_state_chain.observable
    g_hat = poisson_solve(two_state_chain)
    assert np.allclose(g_hat, g / 0.6, atol=1e-12)


def test_poisson_residual_on_random_chain():
    chain = _random_chain(8, 57)
    g_hat = poisson_solve(chain)
    residual = (np.eye(8) - chain.transition) @ g_hat - chain.observable
    assert np.max(np.abs(residual)) <= 1e-10
    assert abs(chain.stationary @ g_hat) <= 1e-10


def near_decomposable_chains(count: int):
    """6-state chains of two random 3-state blocks coupled by eps =
    10^U(-9, -4), each observed through a random centered g."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        eps = 10.0 ** rng.uniform(-9, -4)
        P = np.full((6, 6), eps / 3)
        for block in (slice(0, 3), slice(3, 6)):
            P[block, block] = (1 - eps) * rng.dirichlet(np.ones(3), size=3)
        yield centered_chain(P, rng.normal(size=6))


def test_poisson_accepts_near_decomposable_chains():
    # construction accepts all 600; an absolute residual bound of 1e-10
    # refused 327 of them (residuals up to 2.7e-6).  Relative to
    # |g|_inf + |g_hat|_inf the residual measured at most 2.1e-14, and the
    # bound here is about five times that
    for chain in near_decomposable_chains(600):
        g, g_hat = chain.observable, poisson_solve(chain)
        residual = np.max(np.abs((np.eye(6) - chain.transition) @ g_hat - g))
        assert residual <= 1e-13 * (np.max(np.abs(g)) + np.max(np.abs(g_hat)))
        assert sigma_squared(chain) > 0


# --- duality and convergence ------------------------------------------------------------

def test_duality_pairing(three_state_chain):
    P, pi = three_state_chain.transition, three_state_chain.stationary
    T = dual_operator(three_state_chain)
    base = RandomStream(58, [])
    for i in range(50):
        h = base.child(i, 0).normal(3)
        k = base.child(i, 1).normal(3)
        lhs = float(pi @ ((P @ h) * k))
        rhs = float(pi @ (h * (T @ k)))
        assert abs(lhs - rhs) <= 1e-12


def check_duality(chain, pairs):
    """``duality_check`` passes on the (h, k) pairs and reports their
    largest pairing error, taken here from the dual operator directly."""
    P, pi, T = chain.transition, chain.stationary, dual_operator(chain)
    worst = max(abs(float(pi @ ((P @ h) * k)) - float(pi @ (h * (T @ k)))) for h, k in pairs)
    assert duality_check(chain, pairs).ok
    assert duality_check(chain, pairs).statistic == worst


def test_duality_check(three_state_chain):
    base = RandomStream(58, [1])
    check_duality(three_state_chain, [(base.child(i, 0).normal(3), base.child(i, 1).normal(3))
                                      for i in range(50)])


def test_power_convergence_to_stationary_mean(two_state_chain, three_state_chain):
    # iterates Q^n h approach pi(h) geometrically; far below 1e-8 by n = 1000
    # for chains with spectral gap >= 0.3
    for chain in (two_state_chain, three_state_chain):
        mean = float(chain.stationary @ chain.observable)
        for x in range(chain.n_states):
            power = e0_increment_series(chain, PastFixture(state=x), 1000)[-1]
            assert abs(power - mean) < 1e-8


def test_cesaro_average_converges_at_one_over_n(two_state_chain):
    # Cesaro averages converge at rate Theta(1/n); check the constant
    g = two_state_chain.observable
    for n in (100, 1000):
        err = np.max(np.abs(cesaro_average(two_state_chain, g, n)
                            - float(two_state_chain.stationary @ g)))
        assert err < 10.0 / n
        assert err > 0.1 / n
