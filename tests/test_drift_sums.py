"""Conditional drift sums E0(S_N) = sum_{k=1..N} (P^k g)(x) by binary doubling.

The oracle is exact rational arithmetic: every float is a dyadic rational,
so ``fractions.Fraction`` sums P^k g for the stored P and g with no
rounding at all.  Both the doubling helper and the stepped
``np.cumsum(e0_increment_series(...))`` are checked against it.  A chain
whose entries are multiples of 1/8 keeps the fractions small enough for
N = 1,024; random chains use their full 53-bit entries at smaller N.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qlab import (MarkovFunctionalModel, PastFixture, e0_increment_series,
                  uncentered_drift_check)
from qlab.models import _e0_sums

from conftest import centered_chain

# doubly stochastic, so pi is uniform and a g summing to zero is centered
DYADIC_P = np.array([[4, 2, 2], [1, 5, 2], [3, 1, 4]]) / 8
DYADIC_G = np.array([6, -1, -5]) / 8


def _exact_sums(model: MarkovFunctionalModel, Ns) -> np.ndarray:
    """sum_{k=1..N} P^k g in exact rationals, one row per state."""
    P = [[Fraction(p) for p in row] for row in model.transition]
    v = [Fraction(x) for x in model.observable]
    total = [Fraction(0)] * len(v)
    out = {}
    for k in range(1, max(Ns) + 1):
        v = [sum(p * x for p, x in zip(row, v)) for row in P]
        total = [t + x for t, x in zip(total, v)]
        if k in Ns:
            out[k] = [float(t) for t in total]
    return np.array([out[N] for N in Ns]).T


def _assert_both_routes_exact(model, Ns, scale_floor=0.0):
    states = range(model.n_states)
    exact = _exact_sums(model, Ns)
    doubled = _e0_sums(model, [PastFixture(state=x) for x in states], Ns)
    stepped = np.array([np.cumsum(e0_increment_series(model, PastFixture(state=x),
                                                      max(Ns)))[np.array(Ns) - 1]
                        for x in states])
    tol = 1e-13 * max(np.max(np.abs(exact)), scale_floor)
    assert np.max(np.abs(doubled - exact)) <= tol
    assert np.max(np.abs(stepped - exact)) <= tol


def test_dyadic_chain_matches_exact_rationals():
    model = MarkovFunctionalModel(DYADIC_P, DYADIC_G)
    _assert_both_routes_exact(model, [1, 2, 3, 16, 256, 1024])


@settings(max_examples=30)
@given(weights=st.lists(st.integers(0, 8), min_size=4, max_size=36),
       raw_g=st.lists(st.integers(-4, 4), min_size=6, max_size=6))
def test_random_chains_match_exact_rationals(weights, raw_g):
    S = math.isqrt(len(weights))
    W = np.array(weights[: S * S], dtype=float).reshape(S, S) + np.eye(S)
    try:
        model = centered_chain(W / W.sum(axis=1, keepdims=True), raw_g[:S])
    except ValueError:          # reducible, or pi too far off to center g
        assume(False)
    # rows of P that nearly agree make P g nearly constant, so every
    # E0(S_N) sits at the rounding floor; measure errors against g's scale
    _assert_both_routes_exact(model, [1, 2, 3, 16, 64],
                              float(np.max(np.abs(model.observable))))


def test_drift_cost_does_not_grow_with_N(two_state_chain, identity_model):
    # the stepped sum would hold a (fixtures, 2^40) array; doubling takes 41
    # squarings of P
    N = 2**40
    fxs = [PastFixture(state=0), PastFixture(state=1)]
    rep = uncentered_drift_check(two_state_chain, fxs, [256, N])
    for row, fx in zip(rep.table, fxs):
        gx = abs(two_state_chain.observable[fx.state])
        assert row[0] == pytest.approx(gx * (2.0 / 3.0) / 16.0, rel=1e-12)
        # a sum of N terms carries rounding along the constant vector, whose
        # pushes through P never decay, so its error grows like N eps
        assert row[1] == pytest.approx(gx * (2.0 / 3.0) / 2**20, rel=N * 2.0**-52)
    assert rep.verdicts == ["vanishing", "vanishing"]
    fxs = [PastFixture(innovations=np.array([v])) for v in (0.0, 2.0, -3.0)]
    rep = uncentered_drift_check(identity_model, fxs, [256, N])
    assert np.all(rep.table == 0.0)


@pytest.mark.parametrize("Ns", [[256], [256, 1024], [1, 15]])
def test_drift_refuses_Ns_spanning_less_than_16_fold(two_state_chain, Ns):
    # a bounded drift's ratio falls only by sqrt(N_max / N_min), so a span
    # under 16-fold would fail a valid model; one horizon spans nothing
    with pytest.raises(ValueError, match="16-fold|two or more"):
        uncentered_drift_check(two_state_chain, [PastFixture(state=0)], Ns)
