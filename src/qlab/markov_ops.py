"""Exact finite-state operator machinery for the one-step transition Q.

On a finite ergodic chain the conditional-expectation operator of the
next step is just the transition matrix, so the L1/Linf contraction, the
duality pairing and the Hopf maximal inequality are checked in exact
matrix arithmetic rather than statistically; the weak-L2 tail and the
Markov-property identity, which holds by construction, are computed.
Cesaro averages and maximal functions come from one streamed pass that
steps a stack of functions together, so a ``hopf`` run's functions share
one pass, and the Hopf check compares sup_x x pi(h* > x) with |h|_1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from .models import _ATOL, MarkovFunctionalModel, _powers
from .stats import Verdict


def _l1_norm(model: MarkovFunctionalModel, h: np.ndarray) -> float:
    return float(model.stationary @ np.abs(h))


def dual_operator(model: MarkovFunctionalModel) -> np.ndarray:
    """The pi-adjoint matrix T with <Qh, k>_pi = <h, Tk>_pi."""
    pi = model.stationary
    return (model.transition.T * pi[None, :]) / pi[:, None]


def duality_check(model: MarkovFunctionalModel, pairs) -> Verdict:
    """Check <Qh, k>_pi = <h, Tk>_pi over (h, k) pairs, T the dual operator."""
    P, pi, T = model.transition, model.stationary, dual_operator(model)
    error = max([abs(float(pi @ ((P @ h) * k)) - float(pi @ (h * (T @ k))))
                 for h, k in pairs], default=0.0)
    return Verdict.at_most(f"max |<Qh,k> - <h,Tk>| <= {_ATOL:g}", error, _ATOL)


def verify_dunford_schwartz(model: MarkovFunctionalModel, test_functions) -> Verdict:
    """Check that neither the L1(pi) nor the sup norm of any test function
    grows under Q beyond the tolerance; returns the comparison with the
    smallest margin."""
    funcs = [np.asarray(h, dtype=float) for h in test_functions]
    if not funcs:
        raise ValueError("need at least one test function")
    norms = {"L1(pi)": partial(_l1_norm, model), "sup": lambda h: float(np.max(np.abs(h)))}
    return min((Verdict.at_most(f"{name} norm of Qh <= norm of h + {_ATOL:g}",
                                norm(model.transition @ h), norm(h) + _ATOL)
                for h in funcs for name, norm in norms.items()), key=lambda v: v.margin)


@dataclass(frozen=True, eq=False)
class MaximalFunction:
    """Truncated maximal function of the Cesaro averages of Q^i |h|.

    Truncation at N is conservative: the truncated function is dominated
    by the full supremum, so an inequality verified against it is valid
    evidence but never a certificate of more than it states.
    """

    values: np.ndarray
    base: np.ndarray


def _cesaro_pass(model: MarkovFunctionalModel, H: np.ndarray,
                 N: int) -> tuple[np.ndarray, np.ndarray]:
    """(1/N) sum_{i<N} Q^i H and, entry by entry, the largest of the means
    (1/n) sum_{i<n} Q^i H over n = 1..N, for one function H of shape (S,)
    or the columns of an (S, F) stack, stepped together by one P @ H per
    power; only the running sum, mean and maximum are kept."""
    if N < 1:
        raise ValueError("N must be >= 1")
    shape = np.shape(H)
    total, mean, best = np.zeros(shape), np.empty(shape), np.full(shape, -np.inf)
    for n, power in zip(range(1, N + 1), _powers(model.transition, H)):
        total += power
        np.maximum(best, np.divide(total, n, out=mean), out=best)
    return mean, best


def maximal_function(model: MarkovFunctionalModel, h, N: int) -> MaximalFunction:
    """Compute max_{1<=n<=N} (1/n) sum_{i<n} Q^i |h|, for one function h of
    shape (S,) or each column of an (S, F) stack, all in one pass."""
    h = np.asarray(h, dtype=float)
    return MaximalFunction(values=_cesaro_pass(model, np.abs(h), N)[1], base=h)


def _weak_tail(values, weights, power: int) -> float:
    """sup_x x^power mu(|h| > x), which is max_l l^power mu(|h| >= l) over the
    attained levels l, its limit from below each level: one sorted cumulative
    sum of the weights, continuous in the values even where they tie."""
    v = np.abs(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("need a nonempty input")
    w = np.asarray(weights, dtype=float)
    order = np.argsort(v)
    v_sorted = v[order]
    # tail weight at level v_sorted[i] is the total weight of entries >= it
    tail = np.cumsum(w[order][::-1])[::-1]
    return float(np.max(v_sorted**power * tail))


def hopf_check(model: MarkovFunctionalModel, maximal: MaximalFunction) -> Verdict:
    """Check sup_x x pi(h* > x) <= |h|_1: the statistic is that supremum,
    max_l l pi(h* >= l) over the levels of h*, the threshold |h|_1 plus the
    tolerance."""
    return Verdict.at_most(f"max x pi(h* > x) <= |h|_1 + {_ATOL:g}",
                           _weak_tail(maximal.values, model.stationary, 1),
                           _l1_norm(model, maximal.base) + _ATOL)


def weak_l2_tail(values, weights) -> float:
    """sup_lambda lambda^2 mu(|h| > lambda), for a state function with
    ``weights`` = pi or a Monte Carlo sample with weights 1/n."""
    return _weak_tail(values, weights, 2)


def _path_weights(model: MarkovFunctionalModel, length: int):
    """All state paths of a given length with their stationary weights."""
    S = model.n_states
    paths = np.array(list(itertools.product(range(S), repeat=length)), dtype=np.intp)
    weights = model.stationary[paths[:, 0]].copy()
    for i in range(1, length):
        weights *= model.transition[paths[:, i - 1], paths[:, i]]
    return paths, weights


@dataclass
class MarkovPropertyReport:
    max_discrepancy: float
    per_n: dict


def verify_markov_property(model: MarkovFunctionalModel, n_max: int) -> MarkovPropertyReport:
    """Brute-force computation of the defining identity of the chain.

    For every n <= n_max and every tuple of single-state indicators
    (phi_0, ..., phi_n), the expectation of the product phi_0(W_0) ...
    phi_n(W_n) must equal the expectation with phi_n(W_n) replaced by
    (Q phi_n)(W_{n-1}).  Indicators span all bounded functions by
    linearity, so this finite computation covers the general statement.
    Both sides come from exact enumeration of the S^(n+1) paths, the path
    (head, y) being row S * index(head) + y of the longer table, so they
    are the same floating-point products of P: the discrepancy is 0.0 by
    construction, a computation rather than a check, and no Verdict.
    """

    if n_max > 4:
        raise ValueError("n_max must be <= 4 (path enumeration)")
    per_n = {}
    for n in range(1, n_max + 1):
        _, w_full = _path_weights(model, n + 1)
        paths_head, w_head = _path_weights(model, n)
        # Q applied to the indicator of y, read at the last state of the head
        rhs = (w_head[:, None] * model.transition[paths_head[:, -1]]).ravel()
        per_n[n] = float(np.max(np.abs(w_full - rhs)))
    return MarkovPropertyReport(max(per_n.values(), default=0.0), per_n)


def poisson_solve(model: MarkovFunctionalModel) -> np.ndarray:
    """Solve (I - P) g_hat = g with the normalization pi(g_hat) = 0.

    Construction proved the chain primitive, so the kernel of I - P is the
    constants, and g centered against pi, so the system is solvable; a
    residual above 1e-12 (|g|_inf + |g_hat|_inf) still raises, about fifty
    times the most measured on near-decomposable 6-state chains.
    """

    g, pi = model.observable, model.stationary
    A = np.eye(model.n_states) - model.transition
    stacked = np.vstack([A, pi[None, :]])
    rhs = np.concatenate([g, [0.0]])
    g_hat, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    residual = float(np.max(np.abs(A @ g_hat - g)))
    scale = float(np.max(np.abs(g)) + np.max(np.abs(g_hat)))
    if residual > 1e-12 * scale:
        raise ValueError(f"poisson residual {residual:.2e} exceeds 1e-12 x {scale:.2e}")
    return g_hat


def cesaro_average(model: MarkovFunctionalModel, h, n: int) -> np.ndarray:
    """(1/n) sum_{i<n} Q^i h."""
    return _cesaro_pass(model, np.asarray(h, dtype=float), n)[0]
