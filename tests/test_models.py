import numpy as np
import pytest

from qlab import (InnovationDistribution, LinearModel, MarkovFunctionalModel,
                  PastFixture, RandomStream, conditional_expectation_E0,
                  e0_increment_series, sample_fixture, sample_quenched_paths)
from qlab.models import _linear_observables


def _stationary_path(model, stream: RandomStream, n: int) -> np.ndarray:
    """A stationary path: a past drawn from pi, then the future given it."""
    fixture = sample_fixture(model, stream)
    return sample_quenched_paths(model, fixture, stream, n).values[0]


# --- construction and validation ------------------------------------------

def test_fixture_length_matches_horizon(identity_model):
    fx = sample_fixture(identity_model, RandomStream(1, [0]))
    assert fx.innovations.size == 1


def test_reducible_chain_rejected():
    P = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        MarkovFunctionalModel(P, np.array([1.0, -1.0]))


def test_periodic_chain_rejected():
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        MarkovFunctionalModel(P, np.array([1.0, -1.0]))


def test_negative_transition_entry_rejected():
    P = np.array([[1.2, -0.2], [0.3, 0.7]])
    with pytest.raises(ValueError, match="nonnegative"):
        MarkovFunctionalModel(P, np.array([1.0, -1.0]))


def test_transition_rows_must_sum_to_one():
    P = np.array([[0.5, 0.6], [0.3, 0.7]])
    with pytest.raises(ValueError, match="sum to 1"):
        MarkovFunctionalModel(P, np.array([1.0, -1.0]))


def test_uncentered_observable_rejected(three_state_chain):
    with pytest.raises(ValueError):
        MarkovFunctionalModel(three_state_chain.transition,
                              three_state_chain.observable + 0.5)


def test_ergodic_chain_has_strictly_positive_pi(two_state_chain, three_state_chain):
    assert np.all(two_state_chain.stationary > 0)
    assert np.all(three_state_chain.stationary > 0)


def test_fixture_frequency_matches_pi(two_state_chain):
    # binomial band: 4 sqrt(0.25 / 1e4) = 0.02 around 0.5
    base = RandomStream(8, [])
    states = [sample_fixture(two_state_chain, base.child(i)).state
              for i in range(10_000)]
    freq0 = np.mean(np.asarray(states) == 0)
    assert 0.48 < freq0 < 0.52


# --- conditional expectations ----------------------------------------------

def test_e0_identity_model_is_zero(identity_model):
    fx = PastFixture(innovations=np.array([3.7]))
    assert conditional_expectation_E0(identity_model, fx, 1) == 0.0


def test_e0_geometric_all_ones(rho_model):
    fx = PastFixture(innovations=np.ones(41))
    # oracle: truncated geometric series sum_{j=1..40} 0.5^j
    oracle = sum(0.5**j for j in range(1, 41))
    got = conditional_expectation_E0(rho_model, fx, 1)
    assert got == pytest.approx(oracle, abs=1e-15)
    assert got == pytest.approx(1.0, abs=0.5**40 * 2)


def test_e0_chain_two_steps(two_state_chain):
    # oracle: explicit matrix power
    P2 = np.linalg.matrix_power(two_state_chain.transition, 2)
    oracle = float((P2 @ two_state_chain.observable)[0])
    got = conditional_expectation_E0(two_state_chain, PastFixture(state=0), 2)
    assert got == pytest.approx(oracle, abs=1e-14)
    assert got == pytest.approx(0.16, abs=1e-12)


def test_e0_requires_positive_k(rho_model):
    fx = PastFixture(innovations=np.zeros(41))
    with pytest.raises(ValueError):
        conditional_expectation_E0(rho_model, fx, 0)


def test_conditional_mean_identity_all_zero(identity_model):
    fx = PastFixture(innovations=np.array([1.25]))
    assert np.all(np.cumsum(e0_increment_series(identity_model, fx, 20)) == 0.0)


def test_conditional_mean_chain_limit(two_state_chain):
    # oracle: geometric sum of eigenvalue powers, limit 0.4 / 0.6 = 2/3
    drift = np.cumsum(e0_increment_series(two_state_chain, PastFixture(state=0), 200))
    assert drift[-1] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_conditional_mean_geometric_prefix(rho_model):
    fx = PastFixture(innovations=np.ones(41))
    drift = np.cumsum(e0_increment_series(rho_model, fx, 3))
    # oracle: direct series summation of sum_{j>=k} 0.5^j for k = 1, 2, 3
    terms = [sum(0.5**j for j in range(k, 41)) for k in (1, 2, 3)]
    oracle = np.cumsum(terms)
    assert np.allclose(drift, oracle, atol=1e-15)
    assert np.allclose(drift, [1.0, 1.5, 1.75], atol=0.5**38)


# --- samplers ---------------------------------------------------------------

def test_identity_quenched_path_equals_fresh_draws(identity_model):
    fx = PastFixture(innovations=np.array([0.0]))
    real = sample_quenched_paths(identity_model, fx, RandomStream(4, [0]), 50, 8)
    assert np.array_equal(real.values, real.fresh)


def test_chain_one_step_mean_matches_e0(two_state_chain):
    m = 100_000
    fx = PastFixture(state=0)
    real = sample_quenched_paths(two_state_chain, fx, RandomStream(4, [1]), 1, m)
    mc = real.values[:, 0].mean()
    oracle = conditional_expectation_E0(two_state_chain, fx, 1)
    assert abs(mc - oracle) < 4.0 / np.sqrt(m)


def test_linear_one_step_mean_matches_e0(rho_model):
    m = 100_000
    fx = sample_fixture(rho_model, RandomStream(4, [2]))
    real = sample_quenched_paths(rho_model, fx, RandomStream(4, [3]), 1, m)
    oracle = conditional_expectation_E0(rho_model, fx, 1)
    # conditional sd of f.theta^1 is exactly |a_0| sigma = 1
    assert abs(real.values[:, 0].mean() - oracle) < 4.0 / np.sqrt(m)


def test_chain_e0_exactness_up_to_k10(two_state_chain):
    m = 100_000
    fx = PastFixture(state=1)
    real = sample_quenched_paths(two_state_chain, fx, RandomStream(4, [4]), 10, m)
    exact = e0_increment_series(two_state_chain, fx, 10)
    mc = real.values[:].mean(axis=0)
    se = real.values[:].std(axis=0, ddof=1) / np.sqrt(m)
    assert np.all(np.abs(mc - exact) < 4 * se)


def test_stationary_marginal_variance(rho_model):
    path = _stationary_path(rho_model, RandomStream(13, [0]), 100_000)
    target = sum(0.25**j for j in range(41))  # series oracle, = 4/3 - 4^-41 stuff
    assert abs(path.var() - target) < 0.05 * target


def test_chain_lag_one_autocovariance(two_state_chain):
    path = _stationary_path(two_state_chain, RandomStream(13, [1]), 100_000)
    # oracle: pi(g * Pg) = lambda = 0.4
    acov = np.mean(path[:-1] * path[1:]) - path.mean() ** 2
    assert abs(acov - 0.4) < 0.05 * 0.4 + 0.02


def test_stationary_empty_path(rho_model):
    assert _stationary_path(rho_model, RandomStream(13, [2]), 0).size == 0


def test_quenched_paths_with_zero_reps(identity_model, two_state_chain):
    model = LinearModel(np.array([1.0, 0.5]), InnovationDistribution("gaussian", 1.0))
    fixture = sample_fixture(model, RandomStream(7, [0]))
    linear = sample_quenched_paths(model, fixture, RandomStream(7, [1]), 5, 0)
    assert linear.values.shape == linear.fresh.shape == (0, 5)
    # a one-tap model at n = 0 filters rows of length 0
    fixture = sample_fixture(identity_model, RandomStream(7, [3]))
    assert sample_quenched_paths(identity_model, fixture, RandomStream(7, [4]),
                                 0, 3).values.shape == (3, 0)
    markov = sample_quenched_paths(two_state_chain, PastFixture(state=0),
                                   RandomStream(7, [2]), 5, 0)
    assert markov.states.shape == (0, 6) and markov.values[:].shape == (0, 5)


def test_quenched_and_stationary_consistency(two_state_chain):
    # averaging conditional means over sampled pasts recovers the global mean 0
    base = RandomStream(14, [])
    means = [conditional_expectation_E0(
        two_state_chain, sample_fixture(two_state_chain, base.child(i)), 1)
        for i in range(400)]
    assert abs(np.mean(means)) < 4 * 0.4 / np.sqrt(400)


# --- adaptedness -------------------------------------------------------------

def test_linear_adaptedness(rho_model):
    fx = PastFixture(innovations=RandomStream(6, [0]).normal(41))
    fresh = RandomStream(6, [1]).normal(64).reshape(1, 64)
    tampered = fresh.copy()
    tampered[:, 20:] = RandomStream(6, [2]).normal(44)
    a = _linear_observables(rho_model, fx, fresh)
    b = _linear_observables(rho_model, fx, tampered)
    assert np.array_equal(a[:, :20], b[:, :20])
    assert not np.array_equal(a[:, 20:], b[:, 20:])


def test_markov_adaptedness(two_state_chain):
    # step k of the chain consumes exactly one uniform per step, so paths of
    # different lengths share their prefix
    fx = PastFixture(state=0)
    short = sample_quenched_paths(two_state_chain, fx, RandomStream(6, [3]), 5, 10)
    long = sample_quenched_paths(two_state_chain, fx, RandomStream(6, [3]), 9, 10)
    assert np.array_equal(short.states, long.states[:, :6])


# --- misc contracts ----------------------------------------------------------

def test_fixture_kind_mismatch_rejected(rho_model, two_state_chain):
    with pytest.raises(ValueError):
        sample_quenched_paths(rho_model, PastFixture(state=0), RandomStream(1, []), 4)
    with pytest.raises(ValueError):
        sample_quenched_paths(two_state_chain,
                              PastFixture(innovations=np.zeros(41)),
                              RandomStream(1, []), 4)


def test_fixture_wrong_length_rejected(rho_model):
    with pytest.raises(ValueError):
        conditional_expectation_E0(rho_model, PastFixture(innovations=np.zeros(3)), 1)


def test_linear_model_validation():
    with pytest.raises(ValueError):
        LinearModel(np.array([]), InnovationDistribution("gaussian", 1.0))
    with pytest.raises(ValueError):
        LinearModel(np.array([1.0]), InnovationDistribution("gaussian", 1.0),
                    tail_bound=-0.5)


def test_model_keeps_copies_of_the_arrays_it_is_given():
    # a model's arrays are read-only; the caller's stay its own, and writable
    P, g, coeffs = np.array([[0.7, 0.3], [0.3, 0.7]]), np.array([1.0, -1.0]), np.ones(2)
    chain = MarkovFunctionalModel(P, g)
    linear = LinearModel(coeffs, InnovationDistribution("gaussian", 1.0))
    P[0], g[0], coeffs[0] = [0.5, 0.5], 2.0, 3.0
    assert chain.transition[0].tolist() == [0.7, 0.3]
    assert chain.observable[0] == 1.0 and linear.coeffs[0] == 1.0
