"""Replicable mean estimation by randomized grid rounding.

The estimator discretizes [0, 1] into cells of a fixed width, shifts the
grid by a random offset drawn from the algorithm's own random source,
and returns the midpoint of the cell containing the sample mean.  Two
estimates computed from different sample sets agree whenever both means
fall in the same cell, which is what makes the output replicable: the
offset is pinned by the shared random source, and the cell width is
large relative to the sampling noise.

``confidence_widths`` gives the matching deviation radii: with n
samples the returned estimate lies within this width of the true mean
with high probability, and the width also serves as the exploration
bonus in the epoch-based algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .randomness import UniformStream

__all__ = [
    "RepMeanParams",
    "confidence_widths",
    "grid_cell_width",
    "rep_mean",
    "snap_to_grid",
]


def _check_probability_split(delta_prime: float, rho_prime: float) -> None:
    if not (0.0 < 2.0 * delta_prime < rho_prime < 1.0):
        raise ValueError(
            f"need 0 < 2*delta_prime < rho_prime < 1, got "
            f"delta_prime={delta_prime!r}, rho_prime={rho_prime!r}"
        )


def grid_cell_width(delta_prime: float, rho_prime: float) -> float:
    """Width of one rounding cell: 2*delta' / (1 + rho' - 2*delta')."""
    _check_probability_split(delta_prime, rho_prime)
    return 2.0 * delta_prime / (1.0 + rho_prime - 2.0 * delta_prime)


@dataclass(frozen=True)
class RepMeanParams:
    """Parameters of one estimator call.

    ``grid_cell`` is derived from (delta_prime, rho_prime); ``offset`` is
    the randomized grid shift in [0, grid_cell], drawn once per call from
    the algorithm's random source.
    """

    delta_prime: float
    rho_prime: float
    offset: float
    grid_cell: float = 0.0

    def __post_init__(self) -> None:
        cell = grid_cell_width(self.delta_prime, self.rho_prime)
        object.__setattr__(self, "grid_cell", cell)
        if not (0.0 <= self.offset <= cell):
            raise ValueError(f"offset {self.offset!r} outside [0, {cell!r}]")

    @classmethod
    def draw(
        cls, delta_prime: float, rho_prime: float, stream: UniformStream
    ) -> "RepMeanParams":
        """Draw the grid offset from ``stream`` (one uniform consumed)."""
        cell = grid_cell_width(delta_prime, rho_prime)
        return cls(delta_prime, rho_prime, stream.next_uniform() * cell)


def snap_to_grid(mean, cell, offset):
    """Midpoint of the offset-grid cell containing ``mean``, capped at 1.

    Elementwise over broadcast arrays; a python float for scalar input.
    """
    z = np.floor(np.maximum((np.asarray(mean) - offset) / cell, 0.0))
    out = np.minimum(offset + (z + 0.5) * cell, 1.0)
    return float(out) if out.ndim == 0 else out


def rep_mean(samples, params: RepMeanParams) -> float:
    """Replicable mean estimate of samples supported on [0, 1].

    The output depends on the samples only through which grid cell their
    mean falls in; values exactly equal to 1 are handled by the final
    cap, no special casing.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("samples must be a nonempty 1-d collection")
    if float(arr.min()) < 0.0 or float(arr.max()) > 1.0:
        raise ValueError("samples must lie in [0, 1]")
    mean = float(np.cumsum(arr)[-1]) / arr.size
    return snap_to_grid(mean, params.grid_cell, params.offset)


def confidence_widths(
    counts, delta_prime: float, rho_prime: float
) -> np.ndarray:
    """Deviation radii for estimates built from ``counts`` samples each.

    Elementwise over ``counts``; zero counts are clamped to one so
    never-sampled arms keep a width of at least the single-sample radius.
    """
    _check_probability_split(delta_prime, rho_prime)
    n = np.maximum(np.asarray(counts, dtype=np.float64), 1.0)
    return np.sqrt(
        2.0 * np.log(2.0 / delta_prime) / (n * (rho_prime - 2.0 * delta_prime) ** 2)
    )
