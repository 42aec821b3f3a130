"""Deterministic, splittable random streams and innovation distributions.

Every experiment draws from a stream addressed by ``(master_seed, path)``
where ``path`` is a short tuple of nonnegative integers (for example
``[fixture_index, replication_block]``).  The same address reproduces the
same draws on every run and platform, and streams with distinct addresses
are statistically independent, so replication order and worker count can
never change a result.

The generator is Philox (counter based), keyed through numpy's
``SeedSequence`` spawn-key mechanism.  Gaussian variates are the
generator's own ``standard_normal`` (numpy's ziggurat; Marsaglia & Tsang,
J. Stat. Softw. 2000); the choice is fixed so a given address always
yields the same normal draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily; load it with qlab, not at the first draw

MAX_PATH_LENGTH = 8

_TWO53 = 2**53

INNOVATION_KINDS = ("gaussian", "rademacher", "uniform-centered")


class RandomStream:
    """A reproducible random stream addressed by (master_seed, path).

    The address is immutable; drawing from the stream advances an internal
    cursor.  Child streams (longer paths) are independent of the parent
    and of each other.
    """

    __slots__ = ("master_seed", "path", "_gen")

    def __init__(self, master_seed: int, path=()):
        master_seed = int(master_seed)
        if master_seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        path = tuple(int(p) for p in path)
        if len(path) > MAX_PATH_LENGTH:
            raise ValueError(f"derivation path longer than {MAX_PATH_LENGTH}: {path}")
        if any(p < 0 for p in path):
            raise ValueError(f"derivation path entries must be nonnegative: {path}")
        self.master_seed = master_seed
        self.path = path
        seq = np.random.SeedSequence(master_seed, spawn_key=path)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def child(self, *indices: int) -> "RandomStream":
        """Derive the independent child stream at ``path + indices``."""
        return RandomStream(self.master_seed, self.path + tuple(indices))

    def uniform_open(self, count: int) -> np.ndarray:
        """Uniform draws on the open interval (0, 1), 53-bit resolution."""
        if count < 0:
            raise ValueError("count must be >= 0")
        raw = self._gen.integers(1, _TWO53, size=count, dtype=np.int64)
        return raw / _TWO53

    def normal(self, count: int) -> np.ndarray:
        """Standard normal draws from the generator's ziggurat."""
        return self._gen.standard_normal(count)

    def integers(self, low: int, high: int, count: int) -> np.ndarray:
        return self._gen.integers(low, high, size=count)

    def __repr__(self) -> str:
        return f"RandomStream(master_seed={self.master_seed}, path={list(self.path)})"


@dataclass(frozen=True)
class InnovationDistribution:
    """A centered innovation law with declared variance.

    kind is one of ``gaussian``, ``rademacher``, ``uniform-centered``; the
    mean is exactly 0 and the variance is exactly ``variance``.
    """

    kind: str
    variance: float = 1.0

    def __post_init__(self):
        if self.kind not in INNOVATION_KINDS:
            raise ValueError(f"unknown innovation kind {self.kind!r}")
        if not (self.variance > 0 and np.isfinite(self.variance)):
            raise ValueError("variance must be a positive finite real")

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.variance))


def sample(stream: RandomStream, dist: InnovationDistribution, count: int) -> np.ndarray:
    """Draw ``count`` iid innovations from ``dist``, advancing ``stream``."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if dist.kind == "gaussian":
        return dist.sigma * stream.normal(count)
    if dist.kind == "rademacher":
        signs = 2.0 * stream.integers(0, 2, count) - 1.0
        return dist.sigma * signs
    # uniform-centered: [-a, a) with a = sqrt(3 v) so the variance is v
    half_width = np.sqrt(3.0 * dist.variance)
    return half_width * (2.0 * stream.uniform_open(count) - 1.0)
