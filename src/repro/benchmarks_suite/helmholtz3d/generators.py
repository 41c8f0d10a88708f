"""Input generators for the Helmholtz 3D benchmark.

Each input is a (right-hand side, coefficient field) pair on a small 3-D
grid.  As in Poisson 2D, the spectral content of the RHS determines which
solver wins; the coefficient field adds a second axis of variation (strongly
varying coefficients slow the smoothers further).
"""

from __future__ import annotations

import math

import numpy as np

from repro.benchmarks_suite.helmholtz3d.benchmark import HelmholtzInput
from repro.core.inputs import per_index_rng

GRID_SIZES = (7, 11, 15)


def _grid(rng: np.random.Generator) -> int:
    return int(rng.choice(GRID_SIZES))


def _mode(n: int, kx: int, ky: int, kz: int) -> np.ndarray:
    coords = np.arange(1, n + 1) / (n + 1)
    sx = np.sin(math.pi * kx * coords)
    sy = np.sin(math.pi * ky * coords)
    sz = np.sin(math.pi * kz * coords)
    return sx[:, None, None] * sy[None, :, None] * sz[None, None, :]


def _coefficient(rng: np.random.Generator, n: int, variability: float) -> np.ndarray:
    """A non-negative coefficient field with the given relative variability."""
    base = float(rng.uniform(0.0, 5.0))
    field = base + variability * rng.random((n, n, n)) * max(base, 1.0)
    return np.abs(field)


def smooth(rng: np.random.Generator) -> HelmholtzInput:
    """Low-frequency RHS with a mild coefficient field."""
    n = _grid(rng)
    f = np.zeros((n, n, n))
    for _ in range(int(rng.integers(1, 3))):
        f += float(rng.uniform(0.5, 2.0)) * _mode(
            n, int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
        )
    return HelmholtzInput(rhs=f, coefficient=_coefficient(rng, n, 0.1))


def oscillatory(rng: np.random.Generator) -> HelmholtzInput:
    """High-frequency RHS: cheap smoothers suffice."""
    n = _grid(rng)
    f = np.zeros((n, n, n))
    for _ in range(int(rng.integers(2, 5))):
        k = lambda: int(rng.integers(max(2, n // 2), n + 1))
        f += float(rng.uniform(0.5, 2.0)) * _mode(n, k(), k(), k())
    return HelmholtzInput(rhs=f, coefficient=_coefficient(rng, n, 0.2))


def point_sources(rng: np.random.Generator) -> HelmholtzInput:
    """Sparse spike sources on an otherwise zero RHS."""
    n = _grid(rng)
    f = np.zeros((n, n, n))
    for _ in range(int(rng.integers(1, 6))):
        x, y, z = rng.integers(0, n, size=3)
        f[x, y, z] = float(rng.uniform(-5.0, 5.0))
    return HelmholtzInput(rhs=f, coefficient=_coefficient(rng, n, 0.3))


def rough_coefficient(rng: np.random.Generator) -> HelmholtzInput:
    """Strongly varying coefficient field with mixed-spectrum RHS."""
    n = _grid(rng)
    f = rng.normal(0.0, 1.0, size=(n, n, n))
    return HelmholtzInput(rhs=f, coefficient=_coefficient(rng, n, 3.0))


def white_noise(rng: np.random.Generator) -> HelmholtzInput:
    """White-noise RHS with a mild coefficient field."""
    n = _grid(rng)
    return HelmholtzInput(
        rhs=rng.normal(0.0, 1.0, size=(n, n, n)),
        coefficient=_coefficient(rng, n, 0.1),
    )


SYNTHETIC_FAMILIES = [smooth, oscillatory, point_sources, rough_coefficient, white_noise]


def synthetic_item(index: int, seed: int = 0) -> HelmholtzInput:
    """Input ``index`` of the Helmholtz 3D population (pure in (index, seed))."""
    rng = per_index_rng(seed, index, "helmholtz3d", "synthetic")
    family = SYNTHETIC_FAMILIES[index % len(SYNTHETIC_FAMILIES)]
    return family(rng)
