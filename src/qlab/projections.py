"""Projection norms, summability diagnostics and the martingale approximation.

The heart of the construction: the influence of the time-0 innovation on
the time-k observable has an exact closed form for both model families,

* linear:  |a_k| * sigma_eps,
* markov:  the root of sum_{x,y} pi(x) P(x,y) [ (P^k g)(y) - (P^{k+1} g)(x) ]^2,

and summability of those norms over k is what licenses the martingale
approximation, its limit increment m, and the long-run variance.  A
Markov norm and sigma^2 = |m|^2 are pi times the per-state variance of
one increment, summed as squares (``models._increment_variance``).
Any finite computation of an infinite-sum criterion has to declare its
extrapolation rule; ours fits the observed decay (geometric and
polynomial) over the tail of the computed range and extrapolates the
better fit.  That fit gates the r = infinity increment of a linear model
only: a Markov model is primitive by construction, and for a primitive
finite chain |P^k g| decays geometrically, so its norms are summable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Optional

import numpy as np

from .markov_ops import poisson_solve
from .models import (LinearModel, MarkovFunctionalModel, Model, Realization,
                     _increment_variance, _powers)
from .stats import Verdict

SUMMABLE = "summable"
DIVERGING = "diverging"
INCONCLUSIVE = "inconclusive"

# fitted tail must be this small, relative to the partial sum, to call a
# truncated series summable
TAIL_FRACTION = 1e-6


class HannanDivergesError(ValueError):
    """Raised when an infinite-order quantity is requested without summability."""

    def __init__(self, verdict: str):
        super().__init__(
            f"projection norms are not summable (verdict: {verdict}); "
            "the r = infinity martingale approximation is undefined")


@dataclass(frozen=True, eq=False)
class ProjectionSeries:
    """Norms of the time-0 projections of the shifted observable, k = 0..K."""

    norms: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if np.any(self.norms < 0) or np.any(self.bias < 0):
            raise ValueError("norms and bias must be nonnegative")


def _power_blocks(model: MarkovFunctionalModel, terms: int):
    """Yield (k, V) along one sequential pass of the re-centered powers
    v_j = P^j (g - pi(g)): V holds v_k..v_{k+r} with k + r <= ``terms`` and
    starts at the row the block before ended on.  A block takes r <= 2^15 /
    S^2 terms, so that its (r, S, S) increment temporary stays under 256 KB."""
    P, pi, g = model.transition, model.stationary, model.observable
    powers = _powers(P, g - float(pi @ g), pi)
    rows, V = max(1, 2**15 // g.size**2), [next(powers)]
    for k in range(0, terms, rows):
        V = np.array([V[-1], *islice(powers, min(rows, terms - k))])
        yield k, V


def projection_norms(model: Model, K: int) -> ProjectionSeries:
    """Exact closed-form norms of P_0(f . theta^k) for k = 0..K."""
    if K < 0:
        raise ValueError("K must be >= 0")
    if isinstance(model, LinearModel):
        norms = np.zeros(K + 1)
        bias = np.zeros(K + 1)
        J = model.horizon
        upto = min(K, J)
        norms[: upto + 1] = np.abs(model.coeffs[: upto + 1]) * model.sigma_eps
        if K > J:
            bias[J + 1 :] = model.tail_bound * model.sigma_eps
        return ProjectionSeries(norms=norms, bias=bias)
    norms = np.empty(K + 1)
    for k, V in _power_blocks(model, K + 1):
        variances = _increment_variance(model.transition, V[:-1], V[1:])
        norms[k : k + len(V) - 1] = np.sqrt(variances @ model.stationary)
    return ProjectionSeries(norms=norms, bias=np.zeros(K + 1))


@dataclass
class SummabilityReport:
    terms: np.ndarray
    bias: np.ndarray         # each term's declared bias bound
    partial_sums: np.ndarray
    tail_fit: str            # "geometric" | "polynomial" | "none"
    verdict: str             # "summable" | "diverging" | "inconclusive"
    fitted_tail: float
    check: Verdict           # fails exactly when the verdict is "diverging"


def _fit_tail(x: np.ndarray, logs: np.ndarray, K: int,
              polynomial: bool) -> tuple[float, float, Verdict]:
    """Fit logs = slope * x + intercept by least squares, with x = k for a
    geometric and x = log k for a polynomial decay; return the squared
    error, the extrapolated sum of the terms k > K, and the decay check
    (q = e^slope < 1, or a power -slope > 1) whose failure makes it inf."""
    slope, intercept = np.polyfit(x, logs, 1)
    sse = float(np.sum((np.polyval((slope, intercept), x) - logs) ** 2))
    if polynomial:      # the sum is taken as the integral from K + 1
        decay = Verdict.above("polynomial decay power > 1", -slope, 1.0)
        return sse, (float(math.exp(intercept) * (K + 1) ** (slope + 1) / (-1 - slope))
                     if decay.ok else math.inf), decay
    q = math.exp(slope)
    # 1 - q rounds to 0 only at q = 1, so its sign is that of 1 - q exactly
    decay = Verdict.above("geometric decay 1 - q > 0", 1.0 - q, 0.0)
    return sse, (math.exp(intercept + slope * (K + 1)) / (1.0 - q)
                 if decay.ok else math.inf), decay


def _summability(values: np.ndarray, bias: np.ndarray) -> SummabilityReport:
    """Partial sums of the terms k = 0..K with a verdict: the better fit's tail is
    "summable" under TAIL_FRACTION of the sum, "diverging" if its decay check
    fails.  Every other check passes: a slow chain's norms may not settle by K."""
    sums = np.cumsum(values)
    report = partial(SummabilityReport, values, bias, sums)
    K = values.size - 1
    total = float(sums[-1])
    # entries at the rounding floor cannot carry decay information
    floor = float(values.max()) * 1e-14
    live = np.flatnonzero(values > floor)
    past = values[live[-1] + 1 :] if live.size else values
    settled = Verdict.at_most("tail terms <= 1e-14 x largest term", past.max(initial=0.0),
                              floor)
    # a series of exact support is summable outright, and so is one whose
    # tail is all below the floor and declared bias free: its raw remainder
    # is reported as the tail
    nonzero = np.flatnonzero(values > 0)
    exact_support = (nonzero.size == 0
                     or (nonzero[-1] < K and np.all(bias[nonzero[-1] + 1 :] == 0)))
    if exact_support or (live.size and live[-1] < K and np.all(bias[live[-1] + 1 :] == 0)):
        return report("none", SUMMABLE, 0.0 if exact_support else float(past.sum()), settled)
    window = live[live.size // 2 :]
    if window.size < 3:
        return report("none", INCONCLUSIVE, math.inf,
                      Verdict.at_most("live terms in the fit window <= 2", window.size, 2))
    # the window is the upper half of three or more live indices, so k >= 1
    logs = np.log(values[window])
    fits = {"geometric": _fit_tail(window, logs, K, polynomial=False),
            "polynomial": _fit_tail(np.log(window), logs, K, polynomial=True)}
    # min keeps the first of equal errors: a tie goes to the geometric fit
    tail_fit = min(fits, key=lambda name: fits[name][0])
    _, fitted_tail, decay = fits[tail_fit]
    verdict = (SUMMABLE if fitted_tail < TAIL_FRACTION * total
               else INCONCLUSIVE if decay.ok else DIVERGING)
    return report(tail_fit, verdict, fitted_tail, decay)


def hannan_sum(series: ProjectionSeries) -> SummabilityReport:
    """Partial sums of the projection norms with a summability verdict."""
    return _summability(series.norms, series.bias)


def _conditional_norm_E0(model: Model, n_max: int) -> np.ndarray:
    """Exact |E0(f . theta^n)|_2 for n = 1..n_max."""
    if isinstance(model, LinearModel):
        sq = model.coeffs**2
        suffix = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])
        out = np.zeros(n_max)
        upto = min(n_max, model.horizon)
        out[:upto] = model.sigma_eps * np.sqrt(suffix[1 : upto + 1])
        return out
    out = np.empty(n_max)
    for k, V in _power_blocks(model, n_max):
        out[k : k + len(V) - 1] = np.sqrt(V[1:] ** 2 @ model.stationary)
    return out


def mw_criterion(model: Model, K: int) -> SummabilityReport:
    """Partial sums of |E0(f . theta^n)|_2 / sqrt(n), n = 1..K, with a verdict."""
    if K < 1:
        raise ValueError("K must be >= 1")
    ns = np.arange(1, K + 1)
    terms = _conditional_norm_E0(model, K) / np.sqrt(ns)
    if isinstance(model, LinearModel):
        bias = model.tail_bound * model.sigma_eps / np.sqrt(ns)
    else:
        bias = np.zeros(K)
    return _summability(terms, bias)


@dataclass(frozen=True, eq=False)
class MartingaleApprox:
    """Closed-form representation of the order-r martingale increment.

    Linear models: the increment is ``c * eps_0`` with c the partial
    coefficient sum.  Markov models: the increment is
    ``g_hat(x_0) - (P g_hat)(x_-1)`` with g_hat the partial sum of P^k g
    (the solution of the Poisson equation at r = infinity).
    """

    kind: str
    c: Optional[float] = None
    g_hat: Optional[np.ndarray] = None
    p_g_hat: Optional[np.ndarray] = None


def martingale_increment(model: Model, r: float = math.inf) -> MartingaleApprox:
    """The order-r martingale increment, r a nonnegative integer or inf."""
    if r != math.inf:
        r = int(r)
        if r < 0:
            raise ValueError("r must be >= 0 or infinity")
    if isinstance(model, LinearModel):
        if r == math.inf:
            # a few entries past the coefficient range let exactly finite
            # support show itself as bias-free trailing zeros.  A Markov
            # model needs no gate: construction refuses non-primitive chains
            report = hannan_sum(projection_norms(model, model.horizon + 8))
            if report.verdict != SUMMABLE:
                raise HannanDivergesError(report.verdict)
        upto = model.horizon if r == math.inf else min(int(r), model.horizon)
        return MartingaleApprox(kind="linear",
                                c=float(np.sum(model.coeffs[: upto + 1])))
    P, g = model.transition, model.observable
    if r == math.inf:
        g_hat = poisson_solve(model)
    else:
        g_hat = g.copy()
        for v in islice(_powers(P, g), 1, r + 1):
            g_hat += v
    return MartingaleApprox(kind="markov", g_hat=g_hat, p_g_hat=P @ g_hat)


def evaluate_martingale(approx: MartingaleApprox, realization: Realization,
                        start=-0.0) -> np.ndarray:
    """Partial sums M_1..M_n of the approximating martingale, per path,
    added left to right to M_0 = ``start`` (-0.0 adds exactly).

    The realization must be the one behind the conditional paths being
    compared, so that the difference to the centered sums is a pathwise
    quantity and not a fresh simulation.
    """

    if approx.kind == "linear":
        if realization.fresh is None:
            raise ValueError("approximation and realization kinds differ")
        return approx.c * np.cumsum(realization.fresh, axis=1) + np.reshape(start, (-1, 1))
    states = realization.states
    if states is None:
        raise ValueError("approximation and realization kinds differ")
    sums = np.empty(states.shape)
    sums[:, 0] = start
    np.subtract(approx.g_hat[states[:, 1:]], approx.p_g_hat[states[:, :-1]], out=sums[:, 1:])
    return np.cumsum(sums, axis=1, out=sums)[:, 1:]


def sigma_squared(model: Model) -> float:
    """The limit of E(S_n^2)/n, equal to the squared norm of m."""
    approx = martingale_increment(model)
    if isinstance(model, LinearModel):
        return approx.c**2 * model.innovation.variance
    return float(model.stationary @ _increment_variance(model.transition, approx.g_hat,
                                                        approx.p_g_hat))


def approximation_gap(model: Model, r: float) -> float:
    """Exact |m - m^(r)|_2, the L2 distance to the limit increment."""
    full = martingale_increment(model)
    part = martingale_increment(model, r)
    if isinstance(model, LinearModel):
        return abs(full.c - part.c) * model.sigma_eps
    P, delta = model.transition, full.g_hat - part.g_hat
    return math.sqrt(model.stationary @ _increment_variance(P, delta, P @ delta))
