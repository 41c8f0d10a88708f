"""Input generators for the Poisson 2D benchmark.

Right-hand sides with different spectral content so different solver
configurations win:

* **smooth** -- a few low-frequency sine modes; smoothers converge slowly on
  the resulting smooth solution, so multigrid or the direct solver is needed;
* **oscillatory** -- high-frequency modes; cheap Jacobi/SOR sweeps already
  reduce the error by many orders of magnitude;
* **point sources** -- sparse spikes (mostly-zero RHS, exercising the
  ``zeros`` feature);
* **mixed spectrum** -- broad-band content, the general case;
* **random noise** -- white noise, dominated by high frequencies.

Grid sizes vary between 15 and 31 (2^k - 1 so multigrid can coarsen fully).
"""

from __future__ import annotations

import math

import numpy as np

from repro.benchmarks_suite.poisson2d.benchmark import PoissonInput
from repro.core.inputs import per_index_rng

GRID_SIZES = (15, 23, 31)


def _grid(rng: np.random.Generator) -> int:
    return int(rng.choice(GRID_SIZES))


def _mode(n: int, kx: int, ky: int) -> np.ndarray:
    """A single sine mode on the n x n interior grid."""
    coords = np.arange(1, n + 1) / (n + 1)
    return np.outer(np.sin(math.pi * kx * coords), np.sin(math.pi * ky * coords))


def smooth(rng: np.random.Generator) -> PoissonInput:
    """Low-frequency RHS: the hard case for smoothers."""
    n = _grid(rng)
    f = np.zeros((n, n))
    for _ in range(int(rng.integers(1, 4))):
        kx, ky = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        f += float(rng.uniform(0.5, 2.0)) * _mode(n, kx, ky)
    return PoissonInput(rhs=f)


def oscillatory(rng: np.random.Generator) -> PoissonInput:
    """High-frequency RHS: smoothers converge quickly."""
    n = _grid(rng)
    f = np.zeros((n, n))
    for _ in range(int(rng.integers(2, 6))):
        kx = int(rng.integers(max(2, n // 2), n + 1))
        ky = int(rng.integers(max(2, n // 2), n + 1))
        f += float(rng.uniform(0.5, 2.0)) * _mode(n, kx, ky)
    return PoissonInput(rhs=f)


def point_sources(rng: np.random.Generator) -> PoissonInput:
    """A few delta-like sources on an otherwise zero RHS."""
    n = _grid(rng)
    f = np.zeros((n, n))
    for _ in range(int(rng.integers(1, 6))):
        x, y = rng.integers(0, n, size=2)
        f[x, y] = float(rng.uniform(-5.0, 5.0))
    return PoissonInput(rhs=f)


def mixed_spectrum(rng: np.random.Generator) -> PoissonInput:
    """Both low- and high-frequency content."""
    n = _grid(rng)
    f = np.zeros((n, n))
    for _ in range(int(rng.integers(3, 8))):
        kx = int(rng.integers(1, n + 1))
        ky = int(rng.integers(1, n + 1))
        f += float(rng.uniform(0.2, 1.5)) * _mode(n, kx, ky)
    return PoissonInput(rhs=f)


def white_noise(rng: np.random.Generator) -> PoissonInput:
    """I.i.d. Gaussian RHS (broad spectrum, mostly high frequencies)."""
    n = _grid(rng)
    return PoissonInput(rhs=rng.normal(0.0, 1.0, size=(n, n)))


SYNTHETIC_FAMILIES = [smooth, oscillatory, point_sources, mixed_spectrum, white_noise]


def synthetic_item(index: int, seed: int = 0) -> PoissonInput:
    """Input ``index`` of the Poisson 2D population (pure in (index, seed))."""
    rng = per_index_rng(seed, index, "poisson2d", "synthetic")
    family = SYNTHETIC_FAMILIES[index % len(SYNTHETIC_FAMILIES)]
    return family(rng)
