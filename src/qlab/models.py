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

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .streams import InnovationDistribution, RandomStream, sample

MAX_STATES = 64            # states fit in uint8
_ATOL = 1e-12
GUIDE_BITS = 12           # the Markov step's guide table has 2^12 buckets of u
_STEP_DRAWS = 1 << 18     # uniforms drawn per chunk of steps, over all lanes
_STEP_CHUNK = 128         # at most this many time steps per chunk


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Causal moving average f = sum_j coeffs[j] * eps_{-j}."""

    coeffs: np.ndarray
    innovation: InnovationDistribution
    tail_bound: float = 0.0

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)     # a copy: the caller's stays writable
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        if not (0 <= self.tail_bound < np.inf):
            raise ValueError("tail_bound must be nonnegative and finite")
        # sigma2 is (sum a_j)^2 v, and the squared projection norms sum to sum a_j^2 v
        with np.errstate(over="ignore"):
            variances = (np.array([np.sum(coeffs**2), np.sum(coeffs) ** 2])
                         * self.innovation.variance)
        if not np.all(np.isfinite(variances)):
            raise ValueError("sum a_j^2 * variance and (sum a_j)^2 * variance must be finite")
        coeffs.flags.writeable = False      # a shared model keeps no run's change
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


def _guide_table(thresholds: np.ndarray) -> np.ndarray:
    """Chen & Asau's guide table for the inverse-CDF step, as next-row offsets.

    Entry ``s * 2^GUIDE_BITS + j`` belongs to row ``s`` and the bucket
    ``[j, j + 1) / 2^GUIDE_BITS`` of u.  When no threshold of the row lies
    strictly inside the bucket, ``count(t <= u)`` is the same for every u
    in it, and the entry holds that next state shifted left by GUIDE_BITS;
    otherwise it holds -1 and the step compares the row.  Scaling by a
    power of two is exact: bucket j starts in state
    ``count(ceil(t * 2^GUIDE_BITS) <= j)``, and a threshold with a
    fractional ``t * 2^GUIDE_BITS`` lies inside bucket ``floor`` of it.
    """
    S = thresholds.shape[0]
    buckets = 1 << GUIDE_BITS
    scaled = thresholds * buckets
    # a row's thresholds are sorted, so each state fills one run of buckets
    starts = np.minimum(np.ceil(scaled), buckets).astype(np.intp)
    edges = np.column_stack([np.zeros(S, np.intp), starts, np.full(S, buckets)])
    offsets = np.arange(S, dtype=np.int32) << GUIDE_BITS
    guide = np.repeat(np.tile(offsets, S), np.diff(edges, axis=1).ravel()).reshape(S, buckets)
    floors = np.floor(scaled)
    rows, cols = np.nonzero((scaled != floors) & (floors < buckets))
    guide[rows, floors[rows, cols].astype(np.intp)] = -1
    return guide.ravel()


@dataclass(frozen=True, eq=False)
class MarkovFunctionalModel:
    """Finite ergodic chain (P, pi) observed through a centered g."""

    transition: np.ndarray
    observable: np.ndarray

    def __post_init__(self):
        # copies: the caller's arrays stay writable
        P = np.array(self.transition, dtype=float)
        g = np.array(self.observable, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("transition must be a square matrix")
        n = P.shape[0]
        if n > MAX_STATES:
            raise ValueError(f"state space larger than {MAX_STATES}")
        if g.shape != (n,):
            raise ValueError("observable must have one value per state")
        if not (np.all(np.isfinite(P)) and np.all(np.isfinite(g))):
            raise ValueError("transition and observable must be finite")
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
        # the last cumulative sum is 1; leaving it out caps a step at S - 1
        thresholds = np.cumsum(P, axis=1)[:, :-1]
        for name, value in [("transition", P), ("observable", g), ("_pi", pi),
                            ("_thresholds", thresholds), ("_guide", _guide_table(thresholds))]:
            value.flags.writeable = False   # a shared model keeps no run's change
            object.__setattr__(self, name, value)

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


def _markov_steps(model: MarkovFunctionalModel, start: np.ndarray, steps: int,
                  blocks: Sequence[tuple[RandomStream, int]]):
    """Yield the states W_1..W_steps (int32), one lane per entry of ``start``,
    all lanes stepped together.

    ``blocks`` holds (stream, count) pairs whose counts sum to
    ``start.size``; block b owns the next ``count`` lanes and draws their
    integers k from its own stream as sample_quenched_paths documents, in
    chunks of steps fetched when the chunk's first step is asked for.  A
    chunk is _STEP_DRAWS // lanes steps wide, clipped to [1, _STEP_CHUNK],
    so its buffers stop growing with the lane count.  A step reads the
    guide table at bucket ``k >> (53 - GUIDE_BITS)`` of u = k / 2^53, and
    compares the current row's thresholds only in the lanes whose bucket
    holds one: t <= u exactly when t * 2^53 <= k, so a tie t == u moves
    up.  Every step yields the same lane array, overwritten by the next
    step.
    """
    guide = model._guide
    # scaling by 2^53 is exact, and so is k < 2^53 in float64
    cuts = np.ldexp(model._thresholds, 53)
    total = start.size
    chunk = min(max(_STEP_DRAWS // max(total, 1), 1), _STEP_CHUNK)
    state = start.astype(np.int32)
    offset = state << GUIDE_BITS
    index = np.empty(total, dtype=np.int32)
    ambiguous = np.empty(total, dtype=bool)
    # 0-d operands: a Python int would become a new array at every step
    zero, bits = np.zeros((), dtype=np.int32), np.array(GUIDE_BITS, dtype=np.int32)
    # one pair of chunk buffers serves every chunk; the last may use a prefix
    draw_chunk = np.empty((min(chunk, steps), total), dtype=np.int64)
    bucket_chunk = np.empty(draw_chunk.shape, dtype=np.int32)
    for k0 in range(0, steps, chunk):
        width = min(chunk, steps - k0)
        draws, buckets = draw_chunk[:width], bucket_chunk[:width]
        lo = 0
        for stream, count in blocks:
            draws[:, lo : lo + count] = stream.uniform_integers(width * count).reshape(width, count)
            lo += count
        np.right_shift(draws, 53 - GUIDE_BITS, out=buckets, casting="unsafe")
        # every index is in range, so take need not buffer its output
        for k in range(width):
            np.add(offset, buckets[k], out=index)
            guide.take(index, out=offset, mode="clip")
            if np.count_nonzero(np.less(offset, zero, out=ambiguous)):
                lanes = np.flatnonzero(ambiguous)
                rows = cuts[state[lanes]]
                offset[lanes] = (rows <= draws[k, lanes, None]).sum(axis=1) << GUIDE_BITS
            np.right_shift(offset, bits, out=state)
            yield state


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


def _power_table(A: np.ndarray, v: np.ndarray, rows: int, cols) -> np.ndarray:
    """Rows (A^m v)[cols], m < rows, of one ``_powers`` pass in one preallocated
    array; ``cols`` is an index, an index array or a slice."""
    table = np.empty((rows,) + np.shape(v[cols]))
    for m, power in zip(range(rows), _powers(A, v)):
        table[m] = power[cols]
    return table


def _increment_variance(P: np.ndarray, u: np.ndarray, pu: np.ndarray) -> np.ndarray:
    """sum_b P(a, b) (u(b) - pu(a))^2 per state a: with pu = P u, the variance of
    u(W_1) - pu(W_0) given W_0 = a, as a sum of squares that cannot go negative.
    Rows of (r, S) arrays u and pu give one row of variances each."""
    terms = u[..., None, :] - pu[..., :, None]
    terms *= terms
    terms *= P
    return terms.sum(axis=-1)


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
    """The vector (E0(f . theta^k))_{k=1..n}, computed exactly; a Markov
    model reads it off the power sequence P^k g."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_fixture(model, fixture)
    if isinstance(model, LinearModel):
        out = np.zeros(n)
        J = model.horizon
        for k in range(1, min(n, J) + 1):
            out[k - 1] = model.coeffs[k:] @ fixture.innovations[: J - k + 1]
        return out
    return _power_table(model.transition, model.transition @ model.observable, n,
                        fixture.state)


def _e0_sums(model: Model, fixtures, Ns) -> np.ndarray:
    """E0(S_N) = sum_{k=1..N} E0(f . theta^k), one row per fixture and one
    column per N, without the series up to max(Ns).

    A linear model sums its first min(N, J) terms left to right; the rest
    are exact zeros.  A Markov model sums P^k g by binary doubling: with
    A = P^(2^j) and T = sum_{k=1..2^j} P^k g, each set bit 2^j of N folds
    s <- T + A s, so s = sum_{k=1..N} P^k g costs O(S^3 log N).  As in
    the stepped sum, rounding along the constant vector, which P never
    damps, grows like N eps.
    """
    if isinstance(model, LinearModel):
        last = np.minimum(Ns, model.horizon)
        drifts = [np.cumsum(np.r_[0.0, e0_increment_series(model, fx, last.max())])
                  for fx in fixtures]
        return np.array([drift[last] for drift in drifts]).reshape(len(fixtures), len(Ns))
    for fixture in fixtures:
        _check_fixture(model, fixture)
    A, T = model.transition, model.transition @ model.observable
    sums = np.zeros((len(Ns), model.n_states))
    for j in range(max(Ns).bit_length()):
        for s, N in zip(sums, Ns):
            if N >> j & 1:
                s[:] = T + A @ s
        T, A = T + A @ T, A @ A
    return sums[:, [fixture.state for fixture in fixtures]].T


@dataclass(frozen=True, eq=False)
class Realization:
    """The raw randomness behind a batch of conditional paths.

    ``values`` holds the uncentered observables f . theta^k, k = 1..n, one
    row per replication: for a linear model they mix the frozen past into
    the post-past innovations ``fresh`` (eps_1..eps_n); for a Markov model
    they are g(W_1..W_n), ``states`` (uint8) holding W_0..W_n with column 0
    the frozen state.  The raw randomness lets the martingale be evaluated
    on the same paths; the experiments' chunks of paths carry it alone and
    leave ``values`` as None.
    """

    values: np.ndarray | None
    fresh: Optional[np.ndarray] = None
    states: Optional[np.ndarray] = None


def _fir(coeffs: np.ndarray, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Zero-state FIR of each row of ``x``, y_k = sum_j coeffs[j] x_{k-j}:
    one np.convolve per row, as lfilter(coeffs, [1.0], x, axis=1) does it,
    written into ``out`` when given."""
    y = np.empty(x.shape) if out is None else out
    for row, dst in zip(x, y) if x.size else ():    # convolve refuses empty rows
        dst[:] = np.convolve(coeffs, row)[: x.shape[1]]
    return y


def _linear_observables(model: LinearModel, fixture: PastFixture,
                        fresh: np.ndarray) -> np.ndarray:
    """f . theta^k = sum_j a_j eps_{k-j} mixing frozen and fresh draws."""
    J = model.horizon
    # columns: eps_{1-J} .. eps_0 (frozen, reversed), then eps_1 .. eps_n
    prefix = np.broadcast_to(fixture.innovations[:J][::-1], (len(fresh), J))
    return _fir(model.coeffs, np.hstack([prefix, fresh]))[:, J:]


def sample_quenched_paths(model: Model, fixture: PastFixture, stream: RandomStream,
                          n: int, reps: int = 1) -> Realization:
    """Draw one block of ``reps`` conditional paths of length ``n`` given
    the frozen past, from ``stream``.

    The Markov draw contract: the block draws ``n * reps`` integers k,
    uniform on [1, 2^53), time-major, each the uniform u = k / 2^53.  Draw
    ``j * reps + i`` moves its chain ``i`` from step ``j`` to ``j + 1`` by
    inverse CDF on the cumulative sums t of the current row: the next
    state counts the t <= u, so a tie t == u moves up.  The kernel starts
    from bucket ``k >> 41`` of a guide table over 2^12 buckets of u.  How
    many calls fetch the draws does not change the numbers:
    ``_markov_steps`` sets its chunk width from a fixed draw budget and the
    lane count.  The Markov states are the transposed view of a time-major
    array that stores each row ``_markov_steps`` yields.
    """
    if n < 0 or reps < 0:
        raise ValueError("n and reps must be >= 0")
    _check_fixture(model, fixture)
    if isinstance(model, LinearModel):
        fresh = sample(stream, model.innovation, reps * n).reshape(reps, n)
        return Realization(values=_linear_observables(model, fixture, fresh),
                           fresh=fresh)
    states = np.empty((n + 1, reps), dtype=np.uint8)    # time-major
    states[0] = fixture.state
    for k, state in enumerate(_markov_steps(model, states[0], n, [(stream, reps)]), 1):
        states[k] = state
    return Realization(values=model.observable[states[1:].T], states=states.T)
