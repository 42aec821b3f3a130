import math
from fractions import Fraction

import numpy as np
import pytest

from qlab import (HannanDivergesError, InnovationDistribution, LinearModel,
                  MarkovFunctionalModel, PastFixture, ProjectionSeries,
                  RandomStream,
                  approximation_gap, evaluate_martingale, hannan_sum,
                  martingale_increment, mc_projection_norm_sq, mw_criterion,
                  projection_norms, sample_quenched_paths, sigma_squared)

from conftest import centered_chain


# --- closed-form projection norms -------------------------------------------

def test_norms_single_coefficient(identity_model):
    series = projection_norms(identity_model, 3)
    assert np.array_equal(series.norms, [1.0, 0.0, 0.0, 0.0])
    assert np.all(series.bias == 0.0)


def test_norms_geometric(rho_model):
    series = projection_norms(rho_model, 40)
    assert np.allclose(series.norms, 0.5 ** np.arange(41), atol=0, rtol=1e-14)


def test_norms_chain_eigen_oracle(two_state_chain):
    # eigenfunction identity: Pg = 0.4 g gives norms 0.4^k sqrt(0.84); the
    # implementation evaluates the pair double sum, an independent route
    series = projection_norms(two_state_chain, 12)
    oracle = np.sqrt(0.84) * 0.4 ** np.arange(13)
    assert np.allclose(series.norms, oracle, atol=1e-13)


def test_norms_bias_marks_truncation(rho_model):
    series = projection_norms(rho_model, 50)
    assert np.all(series.bias[:41] == 0.0)
    assert np.all(series.bias[41:] == rho_model.tail_bound)
    assert np.all(series.norms[41:] == 0.0)


# --- summability verdicts -----------------------------------------------------

def check_hannan_verdict(norms, bias, verdict: str, tail_fit: str):
    """``hannan_sum`` of the series reads ``verdict`` by the ``tail_fit`` rule."""
    rep = hannan_sum(ProjectionSeries(norms=norms, bias=bias))
    assert (rep.verdict, rep.tail_fit) == (verdict, tail_fit)
    assert rep.check.ok == (verdict != "diverging")
    return rep


def test_hannan_geometric_series():
    series = ProjectionSeries(norms=0.5 ** np.arange(61),
                              bias=np.zeros(61))
    rep = hannan_sum(series)
    assert rep.partial_sums[-1] == pytest.approx(2.0, abs=1e-12)
    assert rep.verdict == "summable"


def test_hannan_geometric_fit_on_live_tail():
    # all entries above the rounding floor, so the verdict comes from the
    # geometric extrapolation itself
    rep = check_hannan_verdict(0.5 ** np.arange(21), np.full(21, 1e-9),
                               "summable", "geometric")
    assert rep.fitted_tail == pytest.approx(0.5**20, rel=0.05)


def test_hannan_harmonic_series():
    norms = 1.0 / (np.arange(201) + 1.0)
    rep = check_hannan_verdict(norms, np.full(201, 1e-9), "diverging", "polynomial")
    # oracle: the harmonic partial sum, about ln(201) + gamma = 5.88
    oracle = float(np.sum(norms))
    assert rep.partial_sums[-1] == pytest.approx(oracle)
    assert oracle > 5


def test_hannan_finite_support():
    series = ProjectionSeries(norms=np.array([2.5, 0, 0, 0, 0]),
                              bias=np.zeros(5))
    rep = hannan_sum(series)
    assert rep.partial_sums[-1] == 2.5
    assert rep.verdict == "summable"
    assert rep.tail_fit == "none"


def test_hannan_all_zero_is_summable():
    rep = hannan_sum(ProjectionSeries(norms=np.zeros(8), bias=np.zeros(8)))
    assert rep.verdict == "summable"


_K = np.arange(1001)


@pytest.mark.parametrize("norms, verdict, tail_fit", [
    (0.99 ** _K, "inconclusive", "geometric"),
    ((_K + 1.0) ** -1.1, "inconclusive", "polynomial"),
    ((_K + 1.0) ** -1.5, "inconclusive", "polynomial"),
    ((_K + 1.0) ** -2.0, "inconclusive", "polynomial"),
    ((_K + 1.0) ** -2.5, "inconclusive", "polynomial"),
    ((_K + 1.0) ** -3.0, "summable", "polynomial"),
    ((_K + 1.0) ** -0.5, "diverging", "polynomial"),
    ((_K + 1.0) ** -1.0, "diverging", "polynomial"),
    (np.array([1.0, 0.5, 0.25]), "inconclusive", "none"),
], ids=["geometric-0.99", "p1.1", "p1.5", "p2", "p2.5", "p3", "p0.5", "p1",
        "three-terms"])
def test_hannan_verdicts_on_bias_free_series(norms, verdict, tail_fit):
    rep = check_hannan_verdict(norms, np.zeros(norms.size), verdict, tail_fit)
    if verdict == "inconclusive":
        assert rep.fitted_tail > 0


def test_hannan_constant_norms_diverge():
    rep = hannan_sum(ProjectionSeries(norms=np.ones(64),
                                      bias=np.full(64, 1e-9)))
    assert rep.verdict == "diverging"


# --- Maxwell-Woodroofe criterion ---------------------------------------------

def test_mw_identity_model(identity_model):
    rep = mw_criterion(identity_model, 50)
    assert np.all(rep.terms == 0.0)
    assert rep.partial_sums[-1] == 0.0
    assert rep.verdict == "summable"


def test_mw_geometric(rho_model):
    rep = mw_criterion(rho_model, 200)
    # oracle: direct numeric series, term(n) = 0.5^n / sqrt(0.75 n)
    ns = np.arange(1, 41)
    oracle_terms = 0.5**ns / np.sqrt(0.75) / np.sqrt(ns)
    # truncated suffix sums deviate from the infinite form only near n = 40
    assert np.allclose(rep.terms[:20], oracle_terms[:20], rtol=1e-10)
    assert rep.partial_sums[-1] < 1.34
    assert rep.verdict == "summable"


def test_mw_chain_eigen_decay(two_state_chain):
    rep = mw_criterion(two_state_chain, 60)
    ns = np.arange(1, 61)
    assert np.allclose(rep.terms, 0.4**ns / np.sqrt(ns), atol=1e-14)
    assert rep.verdict == "summable"


# --- martingale increment ------------------------------------------------------

def test_increment_identity(identity_model):
    approx = martingale_increment(identity_model)
    assert approx.c == 1.0


def test_increment_geometric_sum(rho_model):
    approx = martingale_increment(rho_model)
    assert approx.c == pytest.approx(2.0, abs=2 * 0.5**40)


def test_increment_chain_poisson(two_state_chain):
    approx = martingale_increment(two_state_chain)
    # oracle: direct solve of the augmented linear system
    P, g = two_state_chain.transition, two_state_chain.observable
    A = np.vstack([np.eye(2) - P, two_state_chain.stationary[None, :]])
    oracle, *_ = np.linalg.lstsq(A, np.concatenate([g, [0.0]]), rcond=None)
    assert np.allclose(approx.g_hat, oracle, atol=1e-12)
    assert np.allclose(approx.g_hat, g / 0.6, atol=1e-12)


def test_increment_finite_orders(two_state_chain):
    r2 = martingale_increment(two_state_chain, 2)
    oracle = two_state_chain.observable * (1 + 0.4 + 0.16)
    assert np.allclose(r2.g_hat, oracle, atol=1e-14)


def test_increment_refuses_divergent_norms():
    slow = LinearModel(1.0 / (np.arange(301) + 1.0),
                       InnovationDistribution("gaussian", 1.0),
                       tail_bound=0.1)
    with pytest.raises(HannanDivergesError) as err:
        martingale_increment(slow, math.inf)
    assert ("verdict: diverging" in str(err.value)
            or "verdict: inconclusive" in str(err.value))
    # finite orders stay available
    assert martingale_increment(slow, 1).c == pytest.approx(1.5)


def test_martingale_conditional_increment_mean_is_zero(two_state_chain):
    # algebraic identity: sum_b P(a, b) m(a, b) = 0 for every previous state
    approx = martingale_increment(two_state_chain)
    P = two_state_chain.transition
    for a in range(2):
        total = sum(P[a, b] * (approx.g_hat[b] - approx.p_g_hat[a])
                    for b in range(2))
        assert abs(total) < 1e-12


def test_evaluate_martingale_identity_model(identity_model):
    fx = PastFixture(innovations=np.array([0.3]))
    real = sample_quenched_paths(identity_model, fx, RandomStream(21, [0]), 30, 5)
    approx = martingale_increment(identity_model)
    mart = evaluate_martingale(approx, real)
    sums = np.cumsum(real.values, axis=1)
    assert np.array_equal(mart, sums)


def test_evaluate_martingale_contracts(identity_model, two_state_chain):
    real_markov = sample_quenched_paths(two_state_chain, PastFixture(state=0),
                                        RandomStream(21, [1]), 10, 3)
    real_linear = sample_quenched_paths(identity_model,
                                        PastFixture(innovations=np.array([0.3])),
                                        RandomStream(21, [2]), 10, 3)
    approx_markov = martingale_increment(two_state_chain)
    approx_linear = martingale_increment(identity_model)
    assert evaluate_martingale(approx_markov, real_markov).shape == (3, 10)
    assert evaluate_martingale(approx_linear, real_linear).shape == (3, 10)
    with pytest.raises(ValueError, match="kinds differ"):
        evaluate_martingale(approx_markov, real_linear)
    with pytest.raises(ValueError, match="kinds differ"):
        evaluate_martingale(approx_linear, real_markov)


# --- long-run variance ----------------------------------------------------------

def test_sigma_squared_identity(identity_model):
    assert sigma_squared(identity_model) == 1.0


def test_sigma_squared_geometric(rho_model):
    assert sigma_squared(rho_model) == pytest.approx(4.0, abs=1e-11)


def test_sigma_squared_chain_autocovariance_oracle(two_state_chain):
    # oracle: 1 + 2 sum_k lambda^k of the autocovariances, lambda = 0.4
    oracle = 1.0 + 2.0 * sum(0.4**k for k in range(1, 200))
    assert sigma_squared(two_state_chain) == pytest.approx(oracle, abs=1e-12)
    assert sigma_squared(two_state_chain) == pytest.approx(7.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.05, 0.01, 0.001])
def test_sigma_squared_slow_two_state_chain(p):
    # a primitive chain is never refused: lambda = 1 - 2p gives the
    # autocovariance sum (1 + lambda) / (1 - lambda) = (1 - p) / p
    chain = MarkovFunctionalModel(np.array([[1 - p, p], [p, 1 - p]]),
                                  np.array([1.0, -1.0]))
    assert sigma_squared(chain) == pytest.approx((1 - p) / p, rel=1e-9)


def _lazy_cycle(S: int) -> np.ndarray:
    P = 0.5 * np.eye(S)
    for x in range(S):
        P[x, (x + 1) % S] += 0.25
        P[x, (x - 1) % S] += 0.25
    return P


@pytest.mark.parametrize("which", ["random6", "lazy-cycle16"])
def test_sigma_squared_autocovariance_sum(which):
    # oracle: pi(g^2) + 2 sum_k pi(g P^k g), each power by matrix_power,
    # sharing no code with the Poisson solve behind sigma_squared
    if which == "random6":
        rng = np.random.default_rng(20240)
        P, raw = rng.dirichlet(np.ones(6), size=6), rng.normal(size=6)
    else:
        P, raw = _lazy_cycle(16), np.arange(16.0) % 5
    chain = centered_chain(P, raw)
    pi, g = chain.stationary, chain.observable
    oracle = float(pi @ g**2) + 2.0 * sum(
        float(pi @ (g * (np.linalg.matrix_power(chain.transition, k) @ g)))
        for k in range(1, 2000))
    assert sigma_squared(chain) == pytest.approx(oracle, rel=1e-9)


def check_sigma_squared_exact(chain, rel: float):
    """sigma_squared within ``rel`` of sum_a pi(a) sum_b P(a, b) (g_hat(b) -
    (P g_hat)(a))^2, summed in Fraction arithmetic on the computed pi, P
    and g_hat."""
    P = [[Fraction(p) for p in row] for row in chain.transition.tolist()]
    u = [Fraction(v) for v in martingale_increment(chain).g_hat.tolist()]
    exact = Fraction(0)
    for weight, row in zip(chain.stationary.tolist(), P):
        pu = sum(p * v for p, v in zip(row, u))
        exact += Fraction(weight) * sum(p * (v - pu) ** 2 for p, v in zip(row, u))
    assert abs(Fraction(sigma_squared(chain)) - exact) <= rel * exact


def test_sigma_squared_against_exact_sum_of_squares():
    # measured 7.1e-17 relative; the bound is 14 times that.  The form
    # pi(g_hat^2) - pi((P g_hat)^2) was 4.5e-14 off here, by cancellation
    check_sigma_squared_exact(centered_chain(_lazy_cycle(64), np.arange(64) % 5), 1e-15)


def test_sigma_squared_refusal():
    slow = LinearModel(1.0 / (np.arange(301) + 1.0),
                       InnovationDistribution("gaussian", 1.0),
                       tail_bound=0.1)
    with pytest.raises(HannanDivergesError):
        sigma_squared(slow)


# --- approximation gap ------------------------------------------------------------

def test_gap_decreases_and_is_tail_bounded(rho_model, two_state_chain):
    for model in (rho_model, two_state_chain):
        series = projection_norms(model, 64)
        gaps = [approximation_gap(model, r) for r in (0, 2, 8, 16)]
        assert all(b <= a + 1e-14 for a, b in zip(gaps, gaps[1:]))
        for r, gap in zip((0, 2, 8, 16), gaps):
            tail = series.norms[r + 1 :].sum()
            assert gap <= tail + 1e-12


# --- Monte Carlo agreement ----------------------------------------------------------

def test_martingale_property_under_conditional_law(rho_model, two_state_chain):
    # empirical conditional means of the increments given the past stay
    # within four standard errors of zero
    m = 20_000
    fx = PastFixture(state=0)
    real = sample_quenched_paths(two_state_chain, fx, RandomStream(22, [0]), 6, m)
    approx = martingale_increment(two_state_chain)
    mart = evaluate_martingale(approx, real)
    increments = np.diff(np.concatenate([np.zeros((m, 1)), mart], axis=1), axis=1)
    for l in range(1, 6):
        for prev in range(2):
            group = increments[real.states[:, l - 1] == prev, l - 1]
            if group.size < 2:      # at l = 1 only the frozen state occurs
                continue
            se = group.std(ddof=1) / np.sqrt(group.size)
            assert abs(group.mean()) < 4 * se
    fx_lin = PastFixture(innovations=RandomStream(22, [1]).normal(41))
    real = sample_quenched_paths(rho_model, fx_lin, RandomStream(22, [2]), 4, m)
    approx = martingale_increment(rho_model)
    mart = evaluate_martingale(approx, real)
    increments = np.diff(np.concatenate([np.zeros((m, 1)), mart], axis=1), axis=1)
    se = increments.std(ddof=1) / np.sqrt(increments.size)
    assert abs(increments.mean()) < 4 * se


@pytest.mark.parametrize("which", ["linear", "markov"])
def test_mc_projection_norm_matches_closed_form(which, rho_model, two_state_chain):
    model = rho_model if which == "linear" else two_state_chain
    series = projection_norms(model, 5)
    base = RandomStream(23, [0 if which == "linear" else 1])
    for k in range(6):
        est, se = mc_projection_norm_sq(model, k, 20_000, base.child(k))
        assert abs(est - series.norms[k] ** 2) < 4 * se
