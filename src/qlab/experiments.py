"""Quenched experiments: CLT/WIP sampling, rate checks and exact identities.

Replications are generated in fixed-size blocks, each block drawing from
its own derived stream and the blocks being reduced in index order, so
results are bit-identical no matter how many workers execute them.  A
sampling run is a sequence of fixtures, each with its own stream, even
when it holds one; it hands the blocks of all its fixtures, fixture by
fixture, to one replication pass, which splits them into one contiguous
group per worker; a group's Markov blocks are stepped in loops of about
2^14 chains, and a loop may span fixtures.

The statistic is the conditionally centered sum S_k - E0(S_k); every
reduction of it folds chunks of the path left to right.  A Markov loop
adds g to one running sum per chain at each step, writes it into chunks
of steps and subtracts each start state's exact drift; the endpoint is
the one chunk at time n.  A linear block is one chunk, built from its
fresh innovations alone because the frozen past cancels: the endpoint
as one sum per path weighted by the partial sums B_t of the
coefficients, a path grid as the cumsum of a zero-state FIR.  The frozen
past enters a linear experiment only through
``sample_quenched_paths(...).values`` and the decomposition identity
check, which compares that uncentered route against the decomposition.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import pairwise
from typing import Optional

import numpy as np

from .models import (LinearModel, MarkovFunctionalModel, Model, PastFixture,
                     Realization, _check_fixture, _e0_sums, _fir,
                     _increment_variance, _markov_steps, _power_table, _powers,
                     _stationary_states, e0_increment_series, sample,
                     sample_quenched_paths)
from .paths import PathFunctional
from .projections import (evaluate_martingale, martingale_increment,
                          sigma_squared)
from .stats import (Verdict, brownian_inf_cdf, brownian_sup_abs_cdf,
                    brownian_sup_cdf, ks_one_sample, normal_reference)
from .streams import RandomStream

BLOCK_REPS = 256          # replication block size; fixed, never tuned per run
# about this many chains share one Markov loop: on a 2-vCPU host,
# ten fixtures of 5,000 chains ran about 1.5x slower in one loop than one
# fixture at a time, and two loops of 12,288 chains beat one of 24,576
_LOOP_LANES = 1 << 14
_FOLD_VALUES = 1 << 15    # at most this many values per chunk of a Markov fold
DEGENERATE_VARIANCE = 1e-18


def digest_of(payload) -> str:
    """Short stable digest of a describable object (model or fixture).  A
    model is read-only, so it keeps its digest from the first call."""
    if isinstance(payload, Model):
        if "_digest" not in payload.__dict__:
            object.__setattr__(payload, "_digest", digest_of(payload.describe()))
        return payload._digest
    if hasattr(payload, "describe"):
        payload = payload.describe()
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class ExperimentReport:
    """One fixture's audit record of a quenched WIP run."""

    statistic: str
    model_digest: str
    fixture_digest: str
    n: int
    reps: int
    seed_path: list
    estimate: float
    std_error: float
    test_statistic: Optional[float]
    p_value: Optional[float]
    verdict: str             # "pass" | "fail" | "degenerate"
    check: Verdict
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("standard error must be nonnegative")
        if self.p_value is not None and not (0.0 <= self.p_value <= 1.0):
            raise ValueError("p-value must lie in [0, 1]")


def _seed_path(stream: RandomStream) -> list:
    return [stream.master_seed, *stream.path]


_pool = None    # (executor, workers) of the innermost open worker_pool block


@contextmanager
def worker_pool(workers: int):
    """Run the blocks of every experiment inside the block on one pool of
    ``workers`` processes, at most one per CPU, or in-process when that is
    one.  The pool is kept in a module slot for ``_map_ordered``; exiting
    restores the slot."""
    global _pool
    enclosing = _pool
    workers = min(workers, os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()
    with pool:
        _pool = (pool, workers) if workers > 1 else None
        try:
            yield
        finally:
            _pool = enclosing


def _map_ordered(fn, tasks) -> list:
    """Apply ``fn`` to contiguous groups of tasks, in task order: one group
    per worker of the open ``worker_pool``, or one in-process group."""
    parts = min(_pool[1], len(tasks)) if _pool else 1
    if parts <= 1:
        return [fn(tasks)]
    return list(_pool[0].map(fn, _split(tasks, parts)))


def _split(items: list, parts: int) -> list:
    """``items`` in ``parts`` contiguous slices of near-equal length."""
    bounds = [len(items) * j // parts for j in range(parts + 1)]
    return [items[lo:hi] for lo, hi in pairwise(bounds)]


def _block_tasks(streams, reps: int) -> list:
    """(fixture index, seed, stream path, count) of every replication block
    of a run, in (fixture, block) order: block b of fixture i draws from
    its stream's path + (0, b)."""
    sizes = [BLOCK_REPS] * (reps // BLOCK_REPS)
    if reps % BLOCK_REPS:
        sizes.append(reps % BLOCK_REPS)
    return [(i, stream.master_seed, stream.path + (0, b), count)
            for i, stream in enumerate(streams) for b, count in enumerate(sizes)]


def _linear_centered_sums(model: LinearModel, fresh: np.ndarray,
                          endpoint: bool) -> np.ndarray:
    """Grid of S_k - E0(S_k) from a block's fresh innovations eps_1..eps_n.

    S_k - E0(S_k) = sum_{m<=k} B_{k-m} eps_m with B_t = a_0 + ... + a_min(t, J):
    the frozen past cancels exactly.  The full (count, n + 1) grid is 0, then
    the cumsum of the zero-state FIR.  With ``endpoint`` the grid holds only
    times 0 and n: S_n - E0(S_n) is the product of each row with the
    weights B_min(n-m, J), summed left to right as the grid's cumsum is,
    so the bytes do not depend on a BLAS kernel's summation order and
    J = 0 gives exactly the grid's last column.
    """
    count, n = fresh.shape
    if endpoint:
        B = np.cumsum(model.coeffs)
        terms = fresh * B[np.minimum(np.arange(n - 1, -1, -1), model.horizon)]
        grid = np.zeros((count, 2))
        grid[:, 1] = np.cumsum(terms, axis=1, out=terms)[:, -1]
        return grid
    grid = np.zeros((count, n + 1))
    np.cumsum(_fir(model.coeffs, fresh), axis=1, out=grid[:, 1:])
    return grid


def _reduce_linear_blocks(model: LinearModel, n: int, endpoint: bool, reduce,
                          blocks) -> np.ndarray:
    """Concatenate ``reduce(chunks)`` over linear blocks, in order, a block's
    one chunk being its grid and the ``count * n`` fresh innovations it
    draws as ``sample_quenched_paths`` does, so its fixture does not enter."""
    reduced = []
    for _, seed, path, count in blocks:
        fresh = sample(RandomStream(seed, path), model.innovation, count * n).reshape(count, n)
        reduced.append(reduce([(_linear_centered_sums(model, fresh, endpoint),
                                Realization(None, fresh=fresh))]))
    return np.concatenate(reduced)


def _drifts(model: MarkovFunctionalModel, states, n: int) -> np.ndarray:
    """E0(S_k), k = 1..n, summed stepwise: one column per start state."""
    drifts = _power_table(model.transition, model.transition @ model.observable, n, states)
    return np.cumsum(drifts, axis=0, out=drifts)


def _markov_chunks(model: MarkovFunctionalModel, fixtures, n: int, endpoint: bool,
                   blocks):
    """The (grid, realization) chunks of one loop over the blocks' chains,
    each stepped from its fixture's state.  A step adds g to each chain's
    running sum and writes it into the chunk, which subtracts each start
    state's E0(S_k) once full.  A chunk of at most _FOLD_VALUES values covers
    times k0..k1 and the states W_k0..W_k1, as views of buffers that the
    next chunk overwrites; the endpoint's one chunk stores time n alone."""
    lanes = [(RandomStream(seed, path), count) for _, seed, path, count in blocks]
    # a block's paths at n = 0 are its start lanes and draw nothing;
    # the chain-clt trace in bench/run.py reads this call's span
    start = np.concatenate([
        sample_quenched_paths(model, fixtures[i], stream, 0, count).states[:, 0]
        for (i, *_), (stream, count) in zip(blocks, lanes)])
    # the drift given the past is a function of the start state alone
    present, owner = np.unique(start, return_inverse=True)
    drifts = _drifts(model, present, n)
    width = 1 if endpoint else min(max(_FOLD_VALUES // start.size, 1), n)
    states = np.empty((width + 1, start.size), dtype=np.uint8)     # time-major
    sums, last = np.empty(states.shape), np.zeros(start.size)
    states[0] = start
    # -0.0 is the additive identity, so the first add yields g exactly
    total, term, j = np.full(start.size, -0.0), np.empty(start.size), 0
    for k, state in enumerate(_markov_steps(model, start, n, lanes), 1):
        total += np.take(model.observable, state, out=term)
        if endpoint and k < n:
            continue
        j += 1
        states[j], sums[j] = state, total
        if j == width or k == n:
            rows, chunk = sums[: j + 1], states[: j + 1]
            rows[1:] -= drifts[k - j : k, owner]
            # the carry is copied first: a reduction may overwrite its grid
            rows[0], last = last, rows[-1].copy()
            yield rows.T, Realization(None, states=chunk.T)
            states[0], j = chunk[-1], 0


def _reduce_markov_blocks(model: MarkovFunctionalModel, fixtures, n: int,
                          endpoint: bool, reduce, blocks) -> np.ndarray:
    """Concatenate ``reduce(chunks)`` over loops of about _LOOP_LANES of the
    group's chains, whatever their fixture, each loop's chunks folded as
    they are produced: the peak grows with neither n nor the fixtures."""
    loops = math.ceil(sum(count for *_, count in blocks) / _LOOP_LANES)
    # the endpoint loop runs before its reduction, so a trace times it as the route's
    return np.concatenate([reduce(list(chunks) if endpoint else chunks) for chunks in
                           map(partial(_markov_chunks, model, fixtures, n, endpoint),
                               _split(blocks, loops))])


def _replicate(model: Model, fixtures, streams, n: int, reps: int, reduce,
               endpoint: bool = False) -> list:
    """``reduce(chunks)`` of every replication block of conditional paths,
    one array per fixture, fixture i drawing from ``streams[i]``.

    ``chunks`` yields (grid, realization) pairs that cut paths in time, in
    order: ``grid`` holds S_k - E0(S_k), one row per path, from the last
    time of the chunk before (0 at time 0), and the realization the raw
    randomness behind it alone: the fresh innovations, or the states from
    the one before the chunk.  A whole grid comes as a list of one pair;
    with ``endpoint`` it holds times 0 and n only.  A reduction keeps one
    carry per path and may overwrite grids.

    The blocks of all the fixtures form one task list in (fixture, block)
    order, which ``_map_ordered`` splits into one contiguous group per
    worker, so a run makes one pool map whatever its fixture count.
    Only Markov paths need the drift E0(S_k); a linear fixture is
    validated all the same.
    """
    if not fixtures or len(streams) != len(fixtures):
        raise ValueError("need at least one fixture, and one stream per fixture")
    for fixture in fixtures:
        _check_fixture(model, fixture)
    if isinstance(model, LinearModel):
        fn = partial(_reduce_linear_blocks, model, n, endpoint, reduce)
    else:
        fn = partial(_reduce_markov_blocks, model, fixtures, n, endpoint, reduce)
    return np.split(np.concatenate(_map_ordered(fn, _block_tasks(streams, reps))),
                    len(fixtures))


# --- replicated functional sampling -------------------------------------

def _functional_of(functional, n, chunks) -> np.ndarray:
    grids = (np.divide(grid, math.sqrt(n), out=grid) for grid, _ in chunks)
    # a list holds one whole grid, whose array the trace counts
    return functional.of_grid(next(grids) if isinstance(chunks, list) else grids)


def sample_path_functional(model: Model, fixtures: Sequence[PastFixture],
                           functional: PathFunctional, n: int, reps: int,
                           streams: Sequence[RandomStream]) -> list:
    """Replicated values of the functional of the centered path / sqrt(n),
    one array per fixture, fixture i drawing from ``streams[i]``.

    The centered path is S_k - E0(S_k), k = 0..n.  For the endpoint
    functional only S_n - E0(S_n) is computed, as one sum per path (see
    ``_linear_centered_sums`` and ``_markov_chunks``); for every other
    functional a linear block builds its whole grid, and a Markov loop
    folds its chunks of steps as they come.  One replication pass covers
    the blocks of all the fixtures, and each array is the one its fixture
    would give alone.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if reps < 1:
        raise ValueError("empty sample: reps must be >= 1")
    return _replicate(model, fixtures, streams, n, reps,
                      partial(_functional_of, functional, n),
                      endpoint=functional.kind == "endpoint")


# --- CLT / WIP experiments ----------------------------------------------

EXTREMA = ("supremum", "infimum", "sup-abs")


def _limit_law(kind: str, sigma2: float, n: int):
    """(name, CDF) of the functional of sigma W on [0, 1]; for the time
    integral, the law N(0, sigma^2 (4n^2 - 1) / (12 n^2)) of the trapezoid
    rule on n Gaussian steps, which weights step j by (n - j + 1/2) / n."""
    sigma = math.sqrt(sigma2)
    if kind == "endpoint":
        return "normal", normal_reference(sigma2)
    if kind == "time-integral":
        return "trapezoid-normal", normal_reference(sigma2 * (4 * n * n - 1) / (12 * n * n))
    if kind == "supremum":
        return "brownian-sup", partial(brownian_sup_cdf, sigma=sigma)
    if kind == "infimum":
        return "brownian-inf", partial(brownian_inf_cdf, sigma=sigma)
    return "brownian-sup-abs", partial(brownian_sup_abs_cdf, sigma=sigma)


def quenched_wip_experiment(model: Model, fixtures: Sequence[PastFixture],
                            functional: PathFunctional, n: int, reps: int,
                            streams: Sequence[RandomStream],
                            alpha: float = 0.01, d_threshold: float = 0.03,
                            sample_sink: Optional[dict] = None) -> list:
    """Compare the law of a path functional with its Brownian limit, one
    report per fixture, fixture i drawing from ``streams[i]``.

    Every functional is tested one-sample against a closed-form CDF (see
    ``_limit_law``).  The comparison is against the limit law, so
    systematic finite-n bias shows up as inflation of the KS distance,
    not as an error: the endpoint and the grid-exact time integral are
    judged by the p-value at ``alpha``, while the three extrema (whose
    references ignore the polygonal-grid bias by design) are judged by
    the distance threshold ``d_threshold``.  All the fixtures are
    sampled in one pass (see ``sample_path_functional``).  Passing a dict
    as ``sample_sink`` collects the first fixture's raw sample and the
    reference CDF for plotting dumps.
    """

    extremum = functional.kind in EXTREMA
    if extremum and not 0 < d_threshold <= 1:
        raise ValueError("d_threshold must lie in (0, 1]")
    if not extremum and not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    sigma2 = sigma_squared(model)
    # no KS test is run against a degenerate limit, the point mass at 0
    degenerate = Verdict.at_most(f"degenerate: sigma2 <= {DEGENERATE_VARIANCE:g}", sigma2,
                                 DEGENERATE_VARIANCE)
    # refused before sampling, after the sampler's own refusals of n and reps
    if n >= 1 and 1 <= reps < 10 and not degenerate.ok:
        raise ValueError("one-sample KS requires reps >= 10")
    samples = sample_path_functional(model, fixtures, functional, n, reps, streams)
    # the law is chosen after sampling has refused n < 1: the time integral's law divides by n
    ref_kind, ref = (("point-mass", lambda t: np.where(np.asarray(t) >= 0, 1.0, 0.0))
                     if degenerate.ok else _limit_law(functional.kind, sigma2, n))
    if sample_sink is not None:
        sample_sink.update(values=samples[0], ref_cdf=ref)
    reports = []
    for fixture, stream, values in zip(fixtures, streams, samples):
        if degenerate.ok:
            d = p = None
            check, verdict = degenerate, "degenerate"
            details = {"sigma2": sigma2, "max_abs_value": float(np.max(np.abs(values)))}
        else:
            d, p = ks_one_sample(values, ref)
            check = (Verdict.at_most(f"D<={d_threshold}", d, d_threshold) if extremum
                     else Verdict.above(f"p>{alpha}", p, alpha))
            verdict = "pass" if check.ok else "fail"
            details = {"sigma2": sigma2, "alpha": alpha, "reference": ref_kind}
        reports.append(ExperimentReport(
            statistic=functional.kind, model_digest=digest_of(model),
            fixture_digest=digest_of(fixture), n=n, reps=reps, seed_path=_seed_path(stream),
            estimate=float(values.mean()),
            std_error=float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
            test_statistic=d, p_value=p, verdict=verdict, check=check, details=details))
    return reports


# --- martingale approximation rate ---------------------------------------

@dataclass
class StrestReport:
    """Per-N estimates of E0[max_{n<=N} (centered sum - martingale)^2] / N."""

    Ns: list
    estimates: list
    std_errors: list
    reps: int
    model_digest: str
    fixture_digest: str
    seed_path: list
    check: Verdict


def _horizons(Ns) -> list:
    """``Ns`` sorted, once checked to be two or more positive horizons, none
    repeated: a decay compares two, and a tie would fail a valid model."""
    Ns = sorted(int(N) for N in Ns)
    if len(Ns) < 2 or Ns[0] < 1:
        raise ValueError("Ns must be two or more positive integers: a decay needs two")
    if len(set(Ns)) < len(Ns):
        raise ValueError("Ns must not repeat a horizon")
    return Ns


def _strest_of(approx, Ns, chunks) -> np.ndarray:
    reads, k, mart, top = [], 0, -0.0, 0.0
    for grid, real in chunks:
        sums = evaluate_martingale(approx, real, mart)
        mart = sums[:, -1].copy()
        gaps = grid[:, 1:]
        gaps -= sums
        gaps **= 2
        np.maximum(gaps[:, 0], top, out=gaps[:, 0])
        top = np.maximum.accumulate(gaps, axis=1, out=gaps)[:, -1].copy()
        reads += [gaps[:, N - 1 - k].copy() for N in Ns if k < N <= k + gaps.shape[1]]
        k += gaps.shape[1]
    # one contiguous column per N, so that a mean over the paths sums it pairwise
    return np.array(reads).T


def strest_experiment(model: Model, fixture: PastFixture, r: float,
                      Ns, reps: int, stream: RandomStream) -> StrestReport:
    """Monte Carlo decay check of the maximal squared approximation error.

    The centered sums and the martingale share each replication's
    randomness; the deviation is pathwise by construction.
    """

    Ns = _horizons(Ns)
    if reps < 2:
        raise ValueError("reps must be >= 2")
    approx = martingale_increment(model, r)
    [mat] = _replicate(model, [fixture], [stream], Ns[-1], reps,
                       partial(_strest_of, approx, Ns))
    scaled = mat / np.asarray(Ns, dtype=float)[None, :]
    est = [float(v) for v in scaled.mean(axis=0)]
    # estimates that are all rounding pass; otherwise each must fall strictly
    # below the one before, and the last below half the first: the smallest
    # such difference is positive (a difference is 0 only for equal floats)
    check = Verdict.at_most("max estimate <= 1e-12", max(est), 1e-12)
    if not check.ok:
        check = Verdict.above("min(each drop in N, first / 2 - last) > 0",
                              min([a - b for a, b in pairwise(est)] + [est[0] / 2 - est[-1]]), 0.0)
    return StrestReport(
        Ns=Ns, estimates=est,
        std_errors=[float(v) for v in scaled.std(axis=0, ddof=1) / math.sqrt(reps)],
        reps=reps, model_digest=digest_of(model),
        fixture_digest=digest_of(fixture), seed_path=_seed_path(stream),
        check=check)


# --- drift of the uncentered sums ----------------------------------------

@dataclass
class DriftReport:
    Ns: list
    table: np.ndarray          # |E0(S_N)| / sqrt(N), one row per fixture
    checks: list               # one Verdict per fixture
    verdicts: list             # "vanishing" | "not-vanishing", one per fixture

    @property
    def verdict(self) -> str:
        return "pass" if all(c.ok for c in self.checks) else "fail"


def uncentered_drift_check(model: Model, fixtures, Ns) -> DriftReport:
    """Exact conditional-drift ratios |E0(S_N)|/sqrt(N) per fixture.

    Each E0(S_N) = sum_{k=1..N} E0(f . theta^k) is summed on its own, a
    Markov one by binary doubling of P^k g (see ``models._e0_sums``), so
    the cost grows only like log N and no series up to max(Ns) is held.

    A fixture is marked vanishing when the ratio at the largest N has
    dropped to a quarter of the smallest-N ratio or both are below 1e-6;
    its check is the quarter rule's unless only the other passes.  A drift
    that converges to a constant has its ratio fall by sqrt(N_max/N_min),
    so Ns must span at least 16-fold or a valid model would fail.  At
    exactly 16-fold the quarter is attained exactly, so the comparison
    carries a relative slack of 1e-9.
    """

    Ns = _horizons(Ns)
    if Ns[-1] < 16 * Ns[0]:
        raise ValueError("drift needs Ns spanning at least 16-fold "
                         "(largest >= 16 x smallest)")
    table = np.abs(_e0_sums(model, list(fixtures), Ns)) / np.sqrt(Ns)
    checks = []
    for ratios in table:
        quartered = Verdict.at_most("ratio at N_max <= a quarter of it at N_min",
                                    ratios[-1], 0.25 * ratios[0] * (1.0 + 1e-9))
        small = Verdict.above("1e-6 - the larger ratio > 0",
                              1e-6 - max(ratios[0], ratios[-1]), 0.0)
        checks.append(small if small.ok and not quartered.ok else quartered)
    return DriftReport(Ns, table, checks,
                       ["vanishing" if c.ok else "not-vanishing" for c in checks])


# --- conditional Doob-type bound (Markov models) --------------------------

@dataclass
class DoobReport:
    lhs: float
    rhs: float
    relative_se: float
    check: Verdict           # lhs against rhs with a 3-standard-error slack


def doob_bound_check(model: Model, fixture: PastFixture, n: int, reps: int,
                     stream: RandomStream) -> DoobReport:
    """Monte Carlo LHS vs exact RHS of the maximal inequality for S_k - E0(S_k).

    Markov models only.  With v_i = P^i g and x the frozen state, the
    centered sum telescopes into S_k - E_x S_k = sum_{i<k} M^(i)_{k-i},
    where M^(i)_t = sum_{j<=t} [v_i(W_j) - v_{i+1}(W_{j-1})] is a
    martingale under P_x.  Minkowski's inequality over i and then Doob's
    L^2 maximal inequality for each M^(i) give

        || max_{k<=n} |S_k - E_x S_k| ||_2 <= 2 sum_{i<n} ||M^(i)_{n-i}||_2,

    and ||M^(i)_t||_2^2 = c_t . u_i, with c_t = sum_{m<t} e_x P^m and
    u_i(a) = sum_b P(a, b) (v_i(b) - v_{i+1}(a))^2, the conditional variance
    of one increment (``models._increment_variance``).  The right side
    takes exactly n terms; the left side is the root of the mean of the
    squared ``sup-abs`` functional.
    """

    if not isinstance(model, MarkovFunctionalModel):
        raise ValueError("model must be a Markov model: the exact right side sums "
                         "over the chain's states")
    if n < 1 or reps < 2:
        raise ValueError("need n >= 1 and reps >= 2")
    # rounding keeps x^2 monotone in |x|: the largest square is max |x| squared
    [sup] = _replicate(model, [fixture], [stream], n, reps,
                       partial(_functional_of, PathFunctional("sup-abs"), 1))
    maxima = sup ** 2
    mean = float(maxima.mean())
    se = float(maxima.std(ddof=1) / math.sqrt(reps))
    lhs = math.sqrt(mean)
    rel_se = se / (2.0 * mean) if mean > 0 else 0.0

    P, rhs = model.transition, 0.0
    # row m of C is e_x P^m, and its cumsum's row t - 1 is c_t; term i
    # pairs c_{n-i} with u_i, i = 0..n-1
    C = _power_table(P.T, np.eye(model.n_states)[fixture.state], n, slice(None))
    for c, (v, v_next) in zip(np.cumsum(C, axis=0, out=C)[::-1],
                              pairwise(_powers(P, model.observable))):
        rhs += 2.0 * math.sqrt(c @ _increment_variance(P, v, v_next))
    return DoobReport(lhs=lhs, rhs=rhs, relative_se=rel_se,
                      check=Verdict.at_most("lhs <= rhs (1 + 3 relative_se)", lhs,
                                            rhs * (1.0 + 3.0 * rel_se)))


# --- exact decomposition identity -----------------------------------------

@dataclass
class IdentityReport:
    residual: float
    allowance: float
    reps: int
    check: Verdict


def decomposition_identity_check(model: Model, fixture: PastFixture, n: int,
                                 stream: RandomStream) -> IdentityReport:
    """Evaluate both sides of the centered-sum decomposition pathwise.

    The left side is the centered partial sum; the right side rebuilds it
    from the time-0 projection components shifted along the path.  Both
    are computed on a shared realization of 64 paths at every prefix
    length up to n.  A Markov right side sums all n components, however
    small the late ones, so the residual is rounding alone.
    """

    if n < 1:
        raise ValueError("need n >= 1")
    reps = 64
    real = sample_quenched_paths(model, fixture, stream, n, reps)
    e0cum = np.cumsum(e0_increment_series(model, fixture, n))
    lhs = np.cumsum(real.values, axis=1) - e0cum
    rhs = np.zeros_like(lhs)
    if isinstance(model, LinearModel):
        E = np.cumsum(real.fresh, axis=1)
        for i in range(min(n, model.horizon + 1)):
            rhs[:, i:] += model.coeffs[i] * E[:, : n - i]
        allowance = 1e-9 + n * model.tail_bound * model.sigma_eps
    else:
        states = real.states
        for i, (v, v_next) in zip(range(n), pairwise(_powers(model.transition,
                                                             model.observable))):
            # the cumsum of a prefix is the prefix of the cumsum
            inc = v[states[:, 1 : n - i + 1]] - v_next[states[:, : n - i]]
            rhs[:, i:] += np.cumsum(inc, axis=1)
        allowance = 1e-9
    residual = float(np.max(np.abs(lhs - rhs)))
    return IdentityReport(residual, allowance, reps,
                          Verdict.at_most("residual <= allowance", residual, allowance))


# --- Monte Carlo estimator of the projection norms ------------------------

def _last_states(model: MarkovFunctionalModel, start: np.ndarray, steps: int,
                 blocks) -> np.ndarray:
    """W_steps of each chain stepped from ``start`` (``start`` at 0 steps)."""
    state = start
    for state in _markov_steps(model, start, steps, blocks):
        pass
    return state


def mc_projection_norm_sq(model: Model, k: int, reps: int,
                          stream: RandomStream) -> tuple[float, float]:
    """Nested conditional Monte Carlo estimate of |P_0(f . theta^k)|_2^2.

    Outer average over sampled pasts; for each past, the gap between the
    two conditional means is estimated twice from independent single
    future draws, and the product of the two independent gap estimates is
    an unbiased estimate of the squared gap.  Independent of every closed
    form used elsewhere.  Returns (estimate, standard error).
    """

    if k < 0 or reps < 2:
        raise ValueError("need k >= 0 and reps >= 2")
    if isinstance(model, LinearModel):
        J = model.horizon
        dist = model.innovation
        frozen = sample(stream, dist, reps * (J + 1)).reshape(reps, J + 1)
        w = np.zeros(k)
        for i in range(1, k + 1):          # weight of fresh eps_i in f.theta^k
            if k - i <= J:
                w[i - 1] = model.coeffs[k - i]
        d_full = frozen[:, : J + 1 - k] @ model.coeffs[k:] if k <= J else np.zeros(reps)
        d_tail = frozen[:, 1 : J + 1 - k] @ model.coeffs[k + 1 :] if k + 1 <= J else np.zeros(reps)
        a_k = model.coeffs[k] if k <= J else 0.0
        gaps = []
        for _ in range(2):
            fresh_a = sample(stream, dist, reps * k).reshape(reps, k) if k else np.zeros((reps, 0))
            fresh_b = sample(stream, dist, reps * k).reshape(reps, k) if k else np.zeros((reps, 0))
            eps0_b = sample(stream, dist, reps)
            a_hat = (fresh_a @ w if k else 0.0) + d_full
            b_hat = (fresh_b @ w if k else 0.0) + a_k * eps0_b + d_tail
            gaps.append(a_hat - b_hat)
    else:
        g = model.observable
        w_prev = _stationary_states(model, stream, reps)
        block = [(stream, reps)]
        w_curr = _last_states(model, w_prev, 1, block)
        gaps = []
        for _ in range(2):
            a_end = _last_states(model, w_curr, k, block)
            b_end = _last_states(model, w_prev, k + 1, block)
            gaps.append(g[a_end] - g[b_end])
    products = gaps[0] * gaps[1]
    return (float(products.mean()),
            float(products.std(ddof=1) / math.sqrt(reps)))
