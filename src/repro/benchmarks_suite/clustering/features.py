"""Input features for the Clustering benchmark.

The paper lists "radius, centers, density, and range" and notes that
``centers`` is the most expensive feature relative to execution time (it has
to probe the cluster structure itself).  Each extractor samples a fraction of
the points determined by its level and charges the points it touches.
"""

from __future__ import annotations

import math

import numpy as np

from repro.lang.cost import charge
from repro.lang.features import FeatureExtractor, FeatureSet


def _sample_points(points: np.ndarray, fraction: float) -> np.ndarray:
    count = len(points)
    if count == 0:
        return points
    sample_size = max(4, int(math.ceil(count * fraction)))
    sample_size = min(sample_size, count)
    indices = np.linspace(0, count - 1, sample_size, dtype=int)
    return points[indices]


def radius(problem, fraction: float) -> float:
    """RMS distance of sampled points from their centroid."""
    sample = _sample_points(np.asarray(problem.points, dtype=float), fraction)
    charge(len(sample))
    if len(sample) == 0:
        return 0.0
    centroid = sample.mean(axis=0)
    return float(np.sqrt(np.mean(np.sum((sample - centroid) ** 2, axis=1))))


def centers(problem, fraction: float) -> float:
    """Estimated number of clusters via a coarse occupancy grid.

    This is the expensive feature: it scans the sample onto a grid and counts
    occupied connected regions (a cheap stand-in for running a pilot
    clustering, which is what makes the feature costly in the paper).
    """
    sample = _sample_points(np.asarray(problem.points, dtype=float), fraction)
    charge(len(sample) * 8.0)  # grid binning + neighbourhood scan
    if len(sample) < 4:
        return 1.0
    grid_size = 12
    mins = sample.min(axis=0)
    maxs = sample.max(axis=0)
    span = np.maximum(maxs - mins, 1e-9)
    cells = np.floor((sample - mins) / span * (grid_size - 1)).astype(int)
    occupied = np.zeros((grid_size, grid_size), dtype=bool)
    occupied[cells[:, 0], cells[:, 1]] = True
    # Count occupied regions with a simple flood fill (4-connectivity).
    visited = np.zeros_like(occupied)
    regions = 0
    for x in range(grid_size):
        for y in range(grid_size):
            if occupied[x, y] and not visited[x, y]:
                regions += 1
                stack = [(x, y)]
                visited[x, y] = True
                while stack:
                    cx, cy = stack.pop()
                    for nx, ny in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
                        if (
                            0 <= nx < grid_size
                            and 0 <= ny < grid_size
                            and occupied[nx, ny]
                            and not visited[nx, ny]
                        ):
                            visited[nx, ny] = True
                            stack.append((nx, ny))
    return float(regions)


def density(problem, fraction: float) -> float:
    """Points per unit bounding-box area (log scale)."""
    sample = _sample_points(np.asarray(problem.points, dtype=float), fraction)
    charge(len(sample))
    if len(sample) < 2:
        return 0.0
    mins = sample.min(axis=0)
    maxs = sample.max(axis=0)
    area = float(np.prod(np.maximum(maxs - mins, 1e-9)))
    return math.log10(len(sample) / area + 1e-12)


def value_range(problem, fraction: float) -> float:
    """Largest coordinate span of the sampled points."""
    sample = _sample_points(np.asarray(problem.points, dtype=float), fraction)
    charge(len(sample))
    if len(sample) == 0:
        return 0.0
    return float(np.max(sample.max(axis=0) - sample.min(axis=0)))


def size_feature(problem, fraction: float) -> float:
    """Log2 of the number of points (essentially free)."""
    charge(1.0)
    return math.log2(max(len(problem.points), 1))


def build_feature_set() -> FeatureSet:
    """The Clustering benchmark's feature set (5 properties x 3 levels)."""
    return FeatureSet(
        [
            FeatureExtractor("radius", radius),
            FeatureExtractor("centers", centers, level_fractions=[0.1, 0.3, 1.0]),
            FeatureExtractor("density", density),
            FeatureExtractor("range", value_range),
            FeatureExtractor("size", size_feature, level_fractions=[1.0, 1.0, 1.0]),
        ]
    )
