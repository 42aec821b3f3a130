"""Continuous functionals of polygonal partial-sum paths."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FUNCTIONAL_KINDS = ("endpoint", "supremum", "infimum", "sup-abs", "time-integral")


@dataclass(frozen=True)
class PathFunctional:
    """A functional on C[0,1] that is continuous in the sup norm."""

    kind: str

    def __post_init__(self):
        if self.kind not in FUNCTIONAL_KINDS:
            raise ValueError(f"unknown functional {self.kind!r}; "
                             f"choose from {FUNCTIONAL_KINDS}")

    def of_grid(self, grid) -> np.ndarray:
        """Evaluate on batched polygonal paths given their grid values.

        ``grid`` has shape (reps, n+1) with column 0 equal to 0, or is an
        iterable of such arrays that cut the paths in time, each from the
        last column of the one before, folded left to right as they come.
        Extremes of a polygonal path sit at grid points, and its time
        integral is the trapezoid rule summed left to right, so every
        supported functional is exact.
        """

        carry, n = None, 0
        for chunk in map(np.atleast_2d, [grid] if isinstance(grid, np.ndarray) else grid):
            n += chunk.shape[1] - 1
            if self.kind == "time-integral":
                # -0.0 is the additive identity, so the first pair enters exactly
                pairs = np.empty_like(chunk)
                pairs[:, 0] = -0.0 if carry is None else carry
                np.add(chunk[:, :-1], chunk[:, 1:], out=pairs[:, 1:])
                carry = np.cumsum(pairs, axis=1, out=pairs)[:, -1].copy()
            elif self.kind == "endpoint":
                carry = chunk[:, -1].copy()
            else:
                fold = np.minimum if self.kind == "infimum" else np.maximum
                step = fold.reduce(np.abs(chunk) if self.kind == "sup-abs" else chunk, axis=1)
                carry = step if carry is None else fold(carry, step)
        return carry / (2.0 * n) if self.kind == "time-integral" else carry
