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

    def of_grid(self, grid: np.ndarray) -> np.ndarray:
        """Evaluate on batched polygonal paths given their grid values.

        ``grid`` has shape (reps, n+1) with column 0 equal to 0.  Extremes
        of a polygonal path sit at grid points, and its time integral is
        the trapezoid rule, so every supported functional is exact.
        """

        grid = np.atleast_2d(grid)
        n = grid.shape[1] - 1
        if self.kind == "endpoint":
            return grid[:, -1].copy()
        if self.kind == "supremum":
            return grid.max(axis=1)
        if self.kind == "infimum":
            return grid.min(axis=1)
        if self.kind == "sup-abs":
            return np.abs(grid).max(axis=1)
        return (grid[:, :-1] + grid[:, 1:]).sum(axis=1) / (2.0 * n)
