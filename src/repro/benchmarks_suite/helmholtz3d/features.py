"""Input features for the Helmholtz 3D benchmark.

The paper lists "the residual measure of the input, the standard deviation of
the input, and a count of zeros in the input" plus a range feature (its best
classifier uses residual, zeros, deviation at the intermediate level and
range at the cheapest level).  The extractors below mirror the Poisson 2D
ones, extended to three dimensions and to the coefficient field.
"""

from __future__ import annotations

import math

import numpy as np

from repro.lang.cost import charge
from repro.lang.features import FeatureExtractor, FeatureSet


def _sample_grid(grid: np.ndarray, fraction: float) -> np.ndarray:
    n = grid.shape[0]
    side = max(3, int(math.ceil(n * fraction ** (1.0 / 3.0))))
    side = min(side, n)
    start = (n - side) // 2
    return grid[start : start + side, start : start + side, start : start + side]


def residual_measure(problem, fraction: float) -> float:
    """Roughness of the RHS: RMS of its discrete Laplacian, normalized."""
    sample = _sample_grid(np.asarray(problem.rhs, dtype=float), fraction)
    n = sample.shape[0]
    charge(8.0 * n ** 3)
    padded = np.pad(sample, 1)
    laplacian = (
        6.0 * padded[1:-1, 1:-1, 1:-1]
        - padded[:-2, 1:-1, 1:-1]
        - padded[2:, 1:-1, 1:-1]
        - padded[1:-1, :-2, 1:-1]
        - padded[1:-1, 2:, 1:-1]
        - padded[1:-1, 1:-1, :-2]
        - padded[1:-1, 1:-1, 2:]
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


def value_range(problem, fraction: float) -> float:
    """Range of the coefficient field (how "variable" the operator is)."""
    sample = _sample_grid(np.asarray(problem.coefficient, dtype=float), fraction)
    charge(sample.size)
    return float(np.max(sample) - np.min(sample)) if sample.size else 0.0


def size_feature(problem, fraction: float) -> float:
    """Log2 of the grid dimension."""
    charge(1.0)
    return math.log2(max(problem.rhs.shape[0], 2))


def build_feature_set() -> FeatureSet:
    """Helmholtz 3D's feature set (5 properties x 3 levels)."""
    return FeatureSet(
        [
            FeatureExtractor("residual", residual_measure, level_fractions=[0.1, 0.3, 1.0]),
            FeatureExtractor("deviation", deviation),
            FeatureExtractor("zeros", zeros),
            FeatureExtractor("range", value_range),
            FeatureExtractor("size", size_feature, level_fractions=[1.0, 1.0, 1.0]),
        ]
    )
