"""Exact finite-state operator machinery for the one-step transition Q.

On a finite ergodic chain the conditional-expectation operator of the
next step is just the transition matrix, so positivity, the L1/Linf
contraction property, the Hopf maximal inequality, the weak-L2 tail
functional and the Markov-property identity can all be checked in exact
matrix arithmetic rather than statistically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .models import _ATOL, MarkovFunctionalModel, _power_table


def _l1_norm(model: MarkovFunctionalModel, h: np.ndarray) -> float:
    return float(model.stationary @ np.abs(h))


def dual_operator(model: MarkovFunctionalModel) -> np.ndarray:
    """The pi-adjoint matrix T with <Qh, k>_pi = <h, Tk>_pi."""
    pi = model.stationary
    return (model.transition.T * pi[None, :]) / pi[:, None]


@dataclass
class ContractionReport:
    ok: bool
    violations: list = field(default_factory=list)
    checked: int = 0


def verify_dunford_schwartz(model: MarkovFunctionalModel,
                            test_functions) -> ContractionReport:
    """Check that both the L1(pi) and the sup norm never increase under Q."""
    funcs = [np.asarray(h, dtype=float) for h in test_functions]
    if not funcs:
        raise ValueError("need at least one test function")
    report = ContractionReport(ok=True)
    for idx, h in enumerate(funcs):
        qh = model.transition @ h
        l1_before, l1_after = _l1_norm(model, h), _l1_norm(model, qh)
        sup_before = float(np.max(np.abs(h)))
        sup_after = float(np.max(np.abs(qh)))
        report.checked += 1
        if l1_after > l1_before + _ATOL or sup_after > sup_before + _ATOL:
            report.ok = False
            report.violations.append({
                "index": idx,
                "l1_before": l1_before, "l1_after": l1_after,
                "sup_before": sup_before, "sup_after": sup_after,
            })
    return report


@dataclass(frozen=True, eq=False)
class MaximalFunction:
    """Truncated maximal function of the Cesaro averages of Q^i |h|.

    Truncation at N is conservative: the truncated function is dominated
    by the full supremum, so an inequality verified against it is valid
    evidence but never a certificate of more than it states.
    """

    values: np.ndarray
    base: np.ndarray


def _cesaro_means(model: MarkovFunctionalModel, h: np.ndarray, N: int) -> np.ndarray:
    """Rows n = 1..N of (1/n) sum_{i<n} Q^i h, by iterated application."""
    if N < 1:
        raise ValueError("N must be >= 1")
    sums = _power_table(model.transition, h, N, slice(None))
    return np.cumsum(sums, axis=0, out=sums) / np.arange(1, N + 1)[:, None]


def maximal_function(model: MarkovFunctionalModel, h, N: int) -> MaximalFunction:
    """Compute max_{1<=n<=N} (1/n) sum_{i<n} Q^i |h|."""
    h = np.asarray(h, dtype=float)
    return MaximalFunction(values=_cesaro_means(model, np.abs(h), N).max(axis=0), base=h)


@dataclass
class HopfReport:
    ok: bool
    l1_norm: float
    worst_level: float
    worst_product: float


def hopf_check(model: MarkovFunctionalModel, maximal: MaximalFunction) -> HopfReport:
    """Evaluate x * pi(h* > x) <= |h|_1 at every attained level of h*."""
    l1 = _l1_norm(model, maximal.base)
    levels = np.unique(maximal.values)
    pi = model.stationary
    products = np.array(
        [lvl * float(pi[maximal.values > lvl].sum()) for lvl in levels])
    worst = int(np.argmax(products)) if products.size else 0
    ok = bool(np.all(products <= l1 + _ATOL))
    return HopfReport(ok=ok, l1_norm=l1, worst_level=float(levels[worst]),
                      worst_product=float(products[worst]))


def weak_l2_tail(values, weights) -> float:
    """sup_lambda lambda^2 mu(|h| >= lambda) over the attained levels.

    ``values`` is a state function with ``weights`` = pi, or a Monte Carlo
    sample with weights 1/n.  The supremum over all lambda is attained at
    one of the levels because the tail measure is constant between them.
    """

    v = np.abs(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("need a nonempty input")
    w = np.asarray(weights, dtype=float)
    order = np.argsort(v)
    v_sorted = v[order]
    # tail weight at level v_sorted[i] is the total weight of entries >= it
    tail = np.cumsum(w[order][::-1])[::-1]
    return float(np.max(v_sorted**2 * tail))


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
    """Brute-force check of the defining identity of the chain.

    For every n <= n_max and every tuple of single-state indicators
    (phi_0, ..., phi_n), the expectation of the product phi_0(W_0) ...
    phi_n(W_n) must equal the expectation with phi_n(W_n) replaced by
    (Q phi_n)(W_{n-1}).  Indicators span all bounded functions by
    linearity, so this finite check covers the general statement.  Both
    sides are computed by exact path enumeration: the path (head, y) is
    row S * index(head) + y of the longer table, as both list paths in
    ``itertools.product`` order.
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
    return MarkovPropertyReport(max_discrepancy=max(per_n.values(), default=0.0),
                                per_n=per_n)


def poisson_solve(model: MarkovFunctionalModel) -> np.ndarray:
    """Solve (I - P) g_hat = g with the normalization pi(g_hat) = 0.

    Construction proved the chain primitive, so the kernel of I - P is the
    constants, and g centered against pi, so the system is solvable; a
    residual above 1e-10 still raises.
    """

    g, pi = model.observable, model.stationary
    A = np.eye(model.n_states) - model.transition
    stacked = np.vstack([A, pi[None, :]])
    rhs = np.concatenate([g, [0.0]])
    g_hat, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    residual = float(np.max(np.abs(A @ g_hat - g)))
    if residual > 1e-10:
        raise ValueError(f"poisson residual {residual:.2e} exceeds 1e-10")
    return g_hat


def cesaro_average(model: MarkovFunctionalModel, h, n: int) -> np.ndarray:
    """(1/n) sum_{i<n} Q^i h."""
    return _cesaro_means(model, np.asarray(h, dtype=float), n)[-1]
