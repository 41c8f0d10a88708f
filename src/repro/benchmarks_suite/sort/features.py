"""Input features for the Sort benchmark.

The paper uses "standard deviation, duplication, sortedness, and the
performance of a test sort on a subsequence of the list" as Sort's input
features.  Each extractor samples a fraction of the input determined by its
sampling level (the ``level`` tunable of the paper's Figure 1): cheap levels
look at a small stride sample, the expensive level looks at everything.
Every extractor charges the number of elements it touches, so the
cost/benefit trade-off the two-level framework must negotiate is real.
"""

from __future__ import annotations

import math

import numpy as np

from repro.benchmarks_suite.sort.algorithms import _count_inversions
from repro.lang.cost import charge
from repro.lang.features import FeatureExtractor, FeatureSet


def _sample(data: np.ndarray, fraction: float) -> np.ndarray:
    """Take an evenly-strided sample covering ``fraction`` of the input."""
    count = len(data)
    if count == 0:
        return data
    sample_size = max(2, int(math.ceil(count * fraction)))
    sample_size = min(sample_size, count)
    indices = np.linspace(0, count - 1, sample_size, dtype=int)
    return data[indices]


def sortedness(data: np.ndarray, fraction: float) -> float:
    """Fraction of adjacent sampled pairs already in order (paper Figure 1)."""
    sample = _sample(np.asarray(data, dtype=float), fraction)
    charge(len(sample))
    if len(sample) < 2:
        return 1.0
    ordered = np.count_nonzero(sample[:-1] <= sample[1:])
    return float(ordered) / (len(sample) - 1)


def duplication(data: np.ndarray, fraction: float) -> float:
    """One minus the fraction of distinct values in the sample."""
    sample = _sample(np.asarray(data, dtype=float), fraction)
    charge(len(sample) * max(1.0, math.log2(max(len(sample), 2))))
    if len(sample) == 0:
        return 0.0
    if bool(np.isnan(sample).any()):
        # np.unique collapses NaNs (equal_nan); the sorted-run count below
        # would not, so keep the reference path for NaN-bearing samples.
        distinct = len(np.unique(sample))
    else:
        ordered = np.sort(sample)
        distinct = 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
    return 1.0 - distinct / len(sample)


def deviation(data: np.ndarray, fraction: float) -> float:
    """Coefficient-of-variation-style spread of the sampled values."""
    sample = _sample(np.asarray(data, dtype=float), fraction)
    charge(len(sample))
    if len(sample) == 0:
        return 0.0
    spread = float(np.std(sample))
    scale = float(np.mean(np.abs(sample))) + 1e-12
    return spread / scale


def test_sort(data: np.ndarray, fraction: float) -> float:
    """Cost of insertion-sorting a small subsequence, normalized by its length.

    This is the paper's "performance of a test sort on a subsequence"
    feature: a direct, if expensive, probe of how hard the input is for a
    comparison sort.
    """
    sample = _sample(np.asarray(data, dtype=float), fraction)
    count = len(sample)
    if count < 2:
        return 0.0
    if bool(np.isnan(sample).any()):
        # NaNs break the vectorized order statistics; run the textbook loop.
        moves = 0.0
        result = np.empty_like(sample)
        for i in range(count):
            position = int(np.searchsorted(result[:i], sample[i], side="right"))
            shift = i - position
            if shift > 0:
                result[position + 1 : i + 1] = result[position:i]
                moves += shift
            result[position] = sample[i]
        charge(count + moves)
        return moves / count
    # The total shift distance of the insertion pass is exactly the number of
    # inversions in the sample (an integer, so the float accounting is
    # bit-identical to the incremental loop).
    moves = float(_count_inversions(sample))
    charge(count + moves)
    return moves / count


def size_feature(data: np.ndarray, fraction: float) -> float:
    """Log2 of the input length -- essentially free, always useful."""
    charge(1.0)
    return math.log2(max(len(data), 1))


def build_feature_set() -> FeatureSet:
    """The Sort benchmark's feature set (5 properties x 3 levels = 15 features)."""
    return FeatureSet(
        [
            FeatureExtractor("sortedness", sortedness),
            FeatureExtractor("duplication", duplication),
            FeatureExtractor("deviation", deviation),
            FeatureExtractor("test_sort", test_sort, level_fractions=[0.02, 0.05, 0.15]),
            FeatureExtractor("size", size_feature, level_fractions=[1.0, 1.0, 1.0]),
        ]
    )
