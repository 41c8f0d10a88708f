"""Input generators for the Bin Packing benchmark.

The synthetic population mixes families that favour different heuristics:

* **perfectly packable** -- items produced by slicing full bins, so an
  optimal packing with occupancy 1.0 exists; careful heuristics
  (BestFitDecreasing, MFFD) recover most of it, sloppy ones do not;
* **small items** -- everything packs densely, so the cheapest heuristic
  (NextFit) is the right answer;
* **pre-sorted decreasing** -- the "...Decreasing" variants' sort is wasted
  work;
* **bimodal large/small** -- pairing-sensitive, where MFFD shines;
* **uniform random** -- the classical average case.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.inputs import per_index_rng

#: The lower bound is large enough that the partially-filled final bin of a
#: good packing cannot by itself drag the mean occupancy below the 0.95
#: accuracy threshold.
MIN_ITEMS = 150
MAX_ITEMS = 800


def _random_count(rng: np.random.Generator) -> int:
    log_low, log_high = np.log(MIN_ITEMS), np.log(MAX_ITEMS)
    return int(np.exp(rng.uniform(log_low, log_high)))


def perfectly_packable(rng: np.random.Generator) -> np.ndarray:
    """Items created by splitting unit bins into 2-4 pieces, then shuffled."""
    n = _random_count(rng)
    items: List[float] = []
    while len(items) < n:
        pieces = int(rng.integers(2, 5))
        cuts = np.sort(rng.uniform(0.05, 0.95, size=pieces - 1))
        sizes = np.diff(np.concatenate([[0.0], cuts, [1.0]]))
        items.extend(float(s) for s in sizes)
    items = items[:n]
    rng.shuffle(items)
    return np.array(items, dtype=float)


def small_items(rng: np.random.Generator) -> np.ndarray:
    """Items uniformly in (0, 0.15]: any heuristic packs densely and fast ones win.

    The count is kept high enough that the one partially-filled final bin
    cannot pull the mean occupancy below the accuracy threshold.
    """
    n = max(_random_count(rng), 300)
    return rng.uniform(0.01, 0.15, size=n)


def presorted_decreasing(rng: np.random.Generator) -> np.ndarray:
    """Smallish items already sorted in non-increasing order.

    The pre-sort makes the "...Decreasing" variants' extra sort pure
    overhead, and the small sizes keep high occupancy reachable.
    """
    n = _random_count(rng)
    return np.sort(rng.uniform(0.05, 0.4, size=n))[::-1].copy()


def bimodal(rng: np.random.Generator) -> np.ndarray:
    """Complementary large/small pairs that fill bins almost exactly.

    Each large item (~0.55-0.68) is generated together with a partner that
    nearly completes the bin, so a pairing-aware heuristic (BestFitDecreasing,
    MFFD) can reach near-perfect occupancy while sloppy heuristics leave
    large gaps.
    """
    n = _random_count(rng)
    n_pairs = n // 2
    large = rng.uniform(0.55, 0.68, size=n_pairs)
    slack = rng.uniform(0.0, 0.04, size=n_pairs)
    small = 1.0 - large - slack
    items = np.concatenate([large, small, rng.uniform(0.05, 0.3, size=n - 2 * n_pairs)])
    rng.shuffle(items)
    return items


def uniform_random(rng: np.random.Generator) -> np.ndarray:
    """Uniform items capped at half a bin (keeps dense packings reachable)."""
    n = _random_count(rng)
    return rng.uniform(0.05, 0.5, size=n)


SYNTHETIC_FAMILIES = [
    perfectly_packable,
    small_items,
    presorted_decreasing,
    bimodal,
    uniform_random,
]


def synthetic_item(index: int, seed: int = 0) -> np.ndarray:
    """Input ``index`` of the Bin Packing population (pure in (index, seed))."""
    rng = per_index_rng(seed, index, "binpacking", "synthetic")
    family = SYNTHETIC_FAMILIES[index % len(SYNTHETIC_FAMILIES)]
    return family(rng)
