"""Input features for the SVD benchmark.

The paper uses "range, the standard deviation of the input, and a count of
zeros in the input", noting that the number of significant eigenvalues --
the property the benchmark is actually sensitive to -- is too expensive to
measure directly, and the cheap features reflect it only indirectly (a matrix
with many zeros tends to have fewer significant singular values).
"""

from __future__ import annotations

import math

import numpy as np

from repro.lang.cost import charge
from repro.lang.features import FeatureExtractor, FeatureSet


def _sample_entries(matrix: np.ndarray, fraction: float) -> np.ndarray:
    flat = np.asarray(matrix, dtype=float).ravel()
    count = len(flat)
    if count == 0:
        return flat
    sample_size = max(4, int(math.ceil(count * fraction)))
    sample_size = min(sample_size, count)
    indices = np.linspace(0, count - 1, sample_size, dtype=int)
    return flat[indices]


def value_range(problem, fraction: float) -> float:
    """Max minus min sampled entry."""
    sample = _sample_entries(problem.matrix, fraction)
    charge(len(sample))
    return float(np.max(sample) - np.min(sample)) if len(sample) else 0.0


def deviation(problem, fraction: float) -> float:
    """Standard deviation of sampled entries."""
    sample = _sample_entries(problem.matrix, fraction)
    charge(len(sample))
    return float(np.std(sample)) if len(sample) else 0.0


def zeros(problem, fraction: float) -> float:
    """Fraction of sampled entries that are (near) zero."""
    sample = _sample_entries(problem.matrix, fraction)
    charge(len(sample))
    if len(sample) == 0:
        return 0.0
    return float(np.mean(np.abs(sample) < 1e-12))


def build_feature_set() -> FeatureSet:
    """SVD's feature set (3 properties x 3 levels)."""
    return FeatureSet(
        [
            FeatureExtractor("range", value_range),
            FeatureExtractor("deviation", deviation),
            FeatureExtractor("zeros", zeros),
        ]
    )
