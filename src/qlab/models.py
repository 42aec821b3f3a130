"""Concrete stationary adapted processes with explicit conditional laws.

Two model families are supported:

* ``LinearModel`` - a causal moving average over iid innovations,
  ``f = sum_{j=0..J} a_j eps_{-j}``, with the sigma-field of the past
  generated by the nonpositive innovations.  Infinite coefficient
  sequences are truncated at a horizon J with a user-declared bound on
  the dropped absolute tail; downstream quantities surface that bound
  as a bias interval instead of hiding it.

* ``MarkovFunctionalModel`` - a finite-state ergodic chain (P, pi) with a
  centered observable g, the process being ``g(W_n)``.  The conditional
  law of the future given the past depends on the current state only, so
  a frozen past is just a state.

Both expose the conditional expectations of future observables given the
past in closed form, and samplers for the conditional ("freeze the past,
resample the future") and the stationary law.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np
from scipy.signal import lfilter

from .streams import InnovationDistribution, RandomStream, sample

MAX_STATES = 64
_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Causal moving average f = sum_j coeffs[j] * eps_{-j}."""

    coeffs: np.ndarray
    innovation: InnovationDistribution
    tail_bound: float = 0.0

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        if not (self.tail_bound >= 0):
            raise ValueError("tail_bound must be nonnegative")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def horizon(self) -> int:
        """Truncation horizon J (largest retained coefficient index)."""
        return self.coeffs.size - 1

    @property
    def sigma_eps(self) -> float:
        return self.innovation.sigma

    def describe(self) -> dict:
        return {
            "type": "linear",
            "coeffs": [float(c) for c in self.coeffs],
            "tail_bound": float(self.tail_bound),
            "innovation": {"kind": self.innovation.kind,
                           "variance": float(self.innovation.variance)},
        }


def _stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 by least squares on the stacked system."""
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


def _is_primitive(P: np.ndarray) -> bool:
    """Some power P^k with k <= n^2 has all entries positive."""
    n = P.shape[0]
    reach = P > 0
    k = 1
    while k < n * n:
        if reach.all():
            return True
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        k *= 2
    return bool(reach.all())


@dataclass(frozen=True, eq=False)
class MarkovFunctionalModel:
    """Finite ergodic chain (P, pi) observed through a centered g."""

    transition: np.ndarray
    observable: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.transition, dtype=float)
        g = np.asarray(self.observable, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("transition must be a square matrix")
        n = P.shape[0]
        if n > MAX_STATES:
            raise ValueError(f"state space larger than {MAX_STATES}")
        if g.shape != (n,):
            raise ValueError("observable must have one value per state")
        if np.any(P < 0):
            raise ValueError("transition entries must be nonnegative")
        rows = P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > _ATOL:
            raise ValueError("transition rows must sum to 1 within 1e-12")
        if not _is_primitive(P):
            raise ValueError("chain must be irreducible and aperiodic")
        pi = _stationary_distribution(P)
        if np.max(np.abs(pi @ P - pi)) > _ATOL:
            raise ValueError("stationary vector residual exceeds 1e-12")
        if np.any(pi <= 0):
            raise ValueError("ergodic chain must have strictly positive pi")
        if abs(float(pi @ g)) > _ATOL:
            raise ValueError("observable must be centered: |pi.g| <= 1e-12")
        object.__setattr__(self, "transition", P)
        object.__setattr__(self, "observable", g)
        object.__setattr__(self, "_pi", pi)
        # the last cumulative sum is 1; leaving it out caps a step at S - 1
        object.__setattr__(self, "_thresholds", np.cumsum(P, axis=1)[:, :-1])

    @classmethod
    def from_raw_observable(cls, transition, raw_observable) -> "MarkovFunctionalModel":
        """Center an arbitrary observable against the stationary law."""
        P = np.asarray(transition, dtype=float)
        g = np.asarray(raw_observable, dtype=float)
        pi = _stationary_distribution(P)
        return cls(P, g - float(pi @ g))

    @property
    def stationary(self) -> np.ndarray:
        return self._pi

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    def describe(self) -> dict:
        return {
            "type": "markov",
            "P": [[float(v) for v in row] for row in self.transition],
            "g": [float(v) for v in self.observable],
        }


Model = LinearModel | MarkovFunctionalModel


@dataclass(frozen=True, eq=False)
class PastFixture:
    """A realized past: frozen nonpositive innovations, or a frozen state.

    For a linear model ``innovations[i]`` holds eps_{-i}, i = 0..J.  For a
    Markov model only the current state matters (the conditional law of
    the future given the whole past depends on it alone), so the fixture
    stores just that state.
    """

    innovations: Optional[np.ndarray] = None
    state: Optional[int] = None

    def __post_init__(self):
        if (self.innovations is None) == (self.state is None):
            raise ValueError("fixture must hold either innovations or a state")
        if self.innovations is not None:
            eps = np.asarray(self.innovations, dtype=float)
            object.__setattr__(self, "innovations", eps)

    @property
    def kind(self) -> str:
        return "linear" if self.innovations is not None else "markov"

    def describe(self) -> dict:
        if self.innovations is not None:
            return {"kind": "linear", "innovations": [float(v) for v in self.innovations]}
        return {"kind": "markov", "state": int(self.state)}


def _check_fixture(model: Model, fixture: PastFixture) -> None:
    if isinstance(model, LinearModel):
        if fixture.kind != "linear":
            raise ValueError("linear model requires an innovation fixture")
        if fixture.innovations.size != model.horizon + 1:
            raise ValueError(
                f"fixture must freeze exactly {model.horizon + 1} innovations")
    else:
        if fixture.kind != "markov":
            raise ValueError("markov model requires a state fixture")
        if not (0 <= fixture.state < model.n_states):
            raise ValueError("frozen state out of range")


def _stationary_states(model: MarkovFunctionalModel, stream: RandomStream,
                       count: int) -> np.ndarray:
    """``count`` states drawn from pi by inverse CDF, one uniform each."""
    u = stream.uniform_open(count)
    cum_pi = np.cumsum(model.stationary)
    return np.minimum(np.searchsorted(cum_pi, u, side="right"), model.n_states - 1)


def _markov_paths(model: MarkovFunctionalModel, start: np.ndarray, steps: int,
                  stream: RandomStream) -> np.ndarray:
    """One row W_0..W_steps per entry of ``start``, drawn as in sample_quenched_paths."""
    count = start.size
    u = stream.uniform_open(steps * count).reshape(steps, count)
    states = np.empty((count, steps + 1), dtype=np.intp)
    states[:, 0] = start
    for k in range(steps):
        states[:, k + 1] = (model._thresholds[states[:, k]] <= u[k, :, None]).sum(axis=1)
    return states


def _powers(P: np.ndarray, v: np.ndarray, pi: Optional[np.ndarray] = None):
    """Yield v, Pv, P^2 v, ...; with ``pi`` given, re-center each iterate.

    pi(P^k v) = pi(v) exactly, so re-centering a centered v only removes
    rounding, which keeps a decaying sequence from stalling at the floor.
    """
    while True:
        yield v
        v = P @ v
        if pi is not None:
            v -= float(pi @ v)


def sample_fixture(model: Model, stream: RandomStream) -> PastFixture:
    """Draw a past from the stationary law restricted to the past."""
    if isinstance(model, LinearModel):
        eps = sample(stream, model.innovation, model.horizon + 1)
        return PastFixture(innovations=eps)
    return PastFixture(state=int(_stationary_states(model, stream, 1)[0]))


def conditional_expectation_E0(model: Model, fixture: PastFixture, k: int) -> float:
    """E0(f . theta^k): the mean of the k-step-ahead observable given the past."""
    if k <= 0:
        raise ValueError("k must be >= 1")
    _check_fixture(model, fixture)
    if isinstance(model, LinearModel):
        J = model.horizon
        if k > J:
            return 0.0
        # sum_{j>=k} a_j eps_{k-j}; eps_{k-j} = innovations[j-k]
        return float(model.coeffs[k:] @ fixture.innovations[: J - k + 1])
    v = np.linalg.matrix_power(model.transition, k) @ model.observable
    return float(v[fixture.state])


def e0_increment_series(model: Model, fixture: PastFixture, n: int) -> np.ndarray:
    """The vector (E0(f . theta^k))_{k=1..n}, computed exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_fixture(model, fixture)
    out = np.zeros(n)
    if isinstance(model, LinearModel):
        J = model.horizon
        for k in range(1, min(n, J) + 1):
            out[k - 1] = model.coeffs[k:] @ fixture.innovations[: J - k + 1]
        return out
    powers = islice(_powers(model.transition, model.observable), 1, n + 1)
    for k, v in enumerate(powers):
        out[k] = v[fixture.state]
    return out


@dataclass(frozen=True, eq=False)
class Realization:
    """The raw randomness behind a batch of conditional paths.

    For a linear model ``fresh`` holds the post-past innovations
    eps_1..eps_n per replication; for a Markov model ``states`` holds
    W_0..W_n per replication (column 0 is the frozen state).  ``values``
    holds the observables f . theta^k, k = 1..n.  Keeping the raw
    randomness lets the martingale be evaluated on the same paths.
    """

    values: np.ndarray
    fresh: Optional[np.ndarray] = None
    states: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.values.shape[1]


def _linear_observables(model: LinearModel, fixture: PastFixture,
                        fresh: np.ndarray) -> np.ndarray:
    """f . theta^k = sum_j a_j eps_{k-j} mixing frozen and fresh draws."""
    reps, n = fresh.shape
    J = model.horizon
    if J == 0:
        return model.coeffs[0] * fresh
    # columns: eps_{1-J} .. eps_0 (frozen, reversed), then eps_1 .. eps_n
    prefix = fixture.innovations[J - 1 :: -1]
    full = np.empty((reps, J + n))
    full[:, :J] = prefix
    full[:, J:] = fresh
    y = lfilter(model.coeffs, [1.0], full, axis=1)
    return y[:, J : J + n]


def sample_quenched_paths(model: Model, fixture: PastFixture,
                          stream: RandomStream, n: int, reps: int = 1) -> Realization:
    """Draw ``reps`` conditional paths of length ``n`` given the frozen past.

    A Markov block takes all ``n * reps`` uniforms in one call, time-major:
    uniform ``k * reps + i`` moves chain ``i`` from step ``k`` to ``k + 1``
    by inverse CDF on the cumulative sums of its current row.
    """
    if n < 0 or reps < 0:
        raise ValueError("n and reps must be >= 0")
    _check_fixture(model, fixture)
    if isinstance(model, LinearModel):
        fresh = sample(stream, model.innovation, reps * n).reshape(reps, n)
        return Realization(values=_linear_observables(model, fixture, fresh),
                           fresh=fresh)
    states = _markov_paths(model, np.full(reps, fixture.state), n, stream)
    return Realization(values=model.observable[states[:, 1:]], states=states)
