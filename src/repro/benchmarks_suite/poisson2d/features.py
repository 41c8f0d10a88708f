"""Input features for the Poisson 2D benchmark.

The paper uses "the residual measure of the input, the standard deviation of
the input, and a count of zeros in the input".  The residual measure probes
the roughness of the right-hand side (a rough RHS means the solution has
high-frequency content that cheap smoothers handle well); it is the
expensive feature because it applies the stencil operator.
"""

from __future__ import annotations

import math

import numpy as np

from repro.lang.cost import charge
from repro.lang.features import FeatureExtractor, FeatureSet


def _sample_grid(grid: np.ndarray, fraction: float) -> np.ndarray:
    """Take a centred square crop covering roughly ``fraction`` of the grid."""
    n = grid.shape[0]
    side = max(4, int(math.ceil(n * math.sqrt(fraction))))
    side = min(side, n)
    start = (n - side) // 2
    return grid[start : start + side, start : start + side]


def residual_measure(problem, fraction: float) -> float:
    """Roughness of the RHS: RMS of its discrete Laplacian, normalized."""
    sample = _sample_grid(np.asarray(problem.rhs, dtype=float), fraction)
    n = sample.shape[0]
    charge(5.0 * n * n)
    padded = np.pad(sample, 1)
    laplacian = (
        4.0 * padded[1:-1, 1:-1]
        - padded[:-2, 1:-1]
        - padded[2:, 1:-1]
        - padded[1:-1, :-2]
        - padded[1:-1, 2:]
    )
    scale = float(np.sqrt(np.mean(sample ** 2))) + 1e-12
    return float(np.sqrt(np.mean(laplacian ** 2))) / scale


def deviation(problem, fraction: float) -> float:
    """Standard deviation of the sampled RHS values."""
    sample = _sample_grid(np.asarray(problem.rhs, dtype=float), fraction)
    charge(sample.size)
    return float(np.std(sample))


def zeros(problem, fraction: float) -> float:
    """Fraction of (near-)zero entries in the sampled RHS."""
    sample = _sample_grid(np.asarray(problem.rhs, dtype=float), fraction)
    charge(sample.size)
    return float(np.mean(np.abs(sample) < 1e-12))


def size_feature(problem, fraction: float) -> float:
    """Log2 of the grid dimension."""
    charge(1.0)
    return math.log2(max(problem.rhs.shape[0], 2))


def build_feature_set() -> FeatureSet:
    """Poisson 2D's feature set (4 properties x 3 levels)."""
    return FeatureSet(
        [
            FeatureExtractor("residual", residual_measure, level_fractions=[0.1, 0.3, 1.0]),
            FeatureExtractor("deviation", deviation),
            FeatureExtractor("zeros", zeros),
            FeatureExtractor("size", size_feature, level_fractions=[1.0, 1.0, 1.0]),
        ]
    )
