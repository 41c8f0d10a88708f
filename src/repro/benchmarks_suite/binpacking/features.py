"""Input features for the Bin Packing benchmark.

The paper lists "average, standard deviation, value range, and sortedness"
as Bin Packing's feature extractors.  Each samples a level-dependent fraction
of the item list and charges the elements it touches.
"""

from __future__ import annotations

import math

import numpy as np

from repro.lang.cost import charge
from repro.lang.features import FeatureExtractor, FeatureSet


def _sample(items: np.ndarray, fraction: float) -> np.ndarray:
    count = len(items)
    if count == 0:
        return items
    sample_size = max(2, int(math.ceil(count * fraction)))
    sample_size = min(sample_size, count)
    indices = np.linspace(0, count - 1, sample_size, dtype=int)
    return items[indices]


def average(items: np.ndarray, fraction: float) -> float:
    """Mean item size: small means almost any heuristic packs densely."""
    sample = _sample(np.asarray(items, dtype=float), fraction)
    charge(len(sample))
    return float(np.mean(sample)) if len(sample) else 0.0


def deviation(items: np.ndarray, fraction: float) -> float:
    """Standard deviation of item sizes."""
    sample = _sample(np.asarray(items, dtype=float), fraction)
    charge(len(sample))
    return float(np.std(sample)) if len(sample) else 0.0


def value_range(items: np.ndarray, fraction: float) -> float:
    """Max minus min item size."""
    sample = _sample(np.asarray(items, dtype=float), fraction)
    charge(len(sample))
    return float(np.max(sample) - np.min(sample)) if len(sample) else 0.0


def sortedness(items: np.ndarray, fraction: float) -> float:
    """Fraction of adjacent sampled pairs in non-increasing order.

    A pre-sorted (decreasing) item list makes the "...Decreasing" variants'
    extra sort pure overhead, which is one of the input-adaptive decisions
    the benchmark rewards.
    """
    sample = _sample(np.asarray(items, dtype=float), fraction)
    charge(len(sample))
    if len(sample) < 2:
        return 1.0
    ordered = np.count_nonzero(sample[:-1] >= sample[1:])
    return float(ordered) / (len(sample) - 1)


def size_feature(items: np.ndarray, fraction: float) -> float:
    """Log2 of the number of items."""
    charge(1.0)
    return math.log2(max(len(items), 1))


def build_feature_set() -> FeatureSet:
    """Bin Packing's feature set (5 properties x 3 levels)."""
    return FeatureSet(
        [
            FeatureExtractor("average", average),
            FeatureExtractor("deviation", deviation),
            FeatureExtractor("range", value_range),
            FeatureExtractor("sortedness", sortedness),
            FeatureExtractor("size", size_feature, level_fractions=[1.0, 1.0, 1.0]),
        ]
    )
