"""Solvers for the 2-D Poisson equation.

All solvers operate on the interior of a uniform ``n x n`` grid over the unit
square with homogeneous Dirichlet boundaries, i.e. they solve

    -laplace(u) = f,    u = 0 on the boundary,

with the standard 5-point stencil.  Work is charged per stencil application
(5 flops per interior point), so the classical cost hierarchy -- Jacobi
iterations are cheap but converge slowly on smooth error, multigrid costs a
small constant per digit of accuracy, the direct fast solver costs
``O(n^3)`` (dense sine-transform matrices) but is exact -- is reflected in
the cost model.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.lang.cost import charge


def _grid_spacing(n: int) -> float:
    """Mesh width for an n x n interior grid on the unit square."""
    return 1.0 / (n + 1)


def apply_operator(u: np.ndarray, charge_cost: bool = True) -> np.ndarray:
    """Apply the 5-point negative Laplacian (scaled by 1/h^2) to ``u``."""
    n = u.shape[0]
    h2 = _grid_spacing(n) ** 2
    padded = np.pad(u, 1)
    result = (
        4.0 * padded[1:-1, 1:-1]
        - padded[:-2, 1:-1]
        - padded[2:, 1:-1]
        - padded[1:-1, :-2]
        - padded[1:-1, 2:]
    ) / h2
    if charge_cost:
        charge(5.0 * n * n)
    return result


def residual(u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Residual ``f - A u`` of a candidate solution."""
    return f - apply_operator(u)


def residual_norm(u: np.ndarray, f: np.ndarray) -> float:
    """RMS norm of the residual."""
    r = residual(u, f)
    return float(np.sqrt(np.mean(r ** 2)))


def _ghost_buffer(f: np.ndarray, u0: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """A zero ghost-cell buffer around the iterate, and the iterate as its interior view.

    Sweeps update the interior in place, so the zero Dirichlet ring is
    allocated once per call instead of once per ``np.pad``-ed sweep.
    """
    source = f if u0 is None else u0
    padded = np.zeros(tuple(size + 2 for size in source.shape), dtype=source.dtype)
    interior = padded[1:-1, 1:-1]
    if u0 is not None:
        interior[...] = u0
    return padded, interior


def jacobi(f: np.ndarray, iterations: int, u0: np.ndarray = None, weight: float = 0.8) -> np.ndarray:
    """Weighted Jacobi iteration.

    Cheap per sweep but reduces smooth (low-frequency) error extremely
    slowly, so it only reaches the accuracy target on inputs whose solution
    is dominated by high-frequency content.
    """
    n = f.shape[0]
    h2 = _grid_spacing(n) ** 2
    padded, u = _ghost_buffer(f, u0)
    for _ in range(max(0, iterations)):
        neighbours = (
            padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
        )
        updated = (neighbours + h2 * f) / 4.0
        u[...] = (1.0 - weight) * u + weight * updated
        charge(6.0 * n * n)
    return u.copy()


def sor(f: np.ndarray, iterations: int, omega: float = None, u0: np.ndarray = None) -> np.ndarray:
    """Red-black successive over-relaxation.

    With the optimal relaxation factor (used when ``omega`` is None) the
    iteration count for a fixed error reduction grows only linearly in the
    grid dimension, so SOR is a viable mid-cost choice on moderate grids.
    """
    n = f.shape[0]
    h2 = _grid_spacing(n) ** 2
    if omega is None:
        rho = math.cos(math.pi * _grid_spacing(n))
        omega = 2.0 / (1.0 + math.sqrt(1.0 - rho * rho))
    padded, u = _ghost_buffer(f, u0)

    index = np.arange(n)
    red_mask = ((index[:, None] + index[None, :]) % 2) == 0
    black_mask = ~red_mask

    for _ in range(max(0, iterations)):
        for mask in (red_mask, black_mask):
            neighbours = (
                padded[:-2, 1:-1]
                + padded[2:, 1:-1]
                + padded[1:-1, :-2]
                + padded[1:-1, 2:]
            )
            gauss_seidel = (neighbours + h2 * f) / 4.0
            u[mask] = (1.0 - omega) * u[mask] + omega * gauss_seidel[mask]
        charge(8.0 * n * n)
    return u.copy()


def direct_banded_cholesky(f: np.ndarray) -> np.ndarray:
    """Exact direct solver via banded Cholesky factorization.

    The 5-point Laplacian on an ``n x n`` grid is a symmetric positive
    definite banded matrix with ``n^2`` unknowns and bandwidth ``n``; a
    banded Cholesky factorization therefore costs on the order of
    ``n^2 * n^2 = n^4`` flops (charged as such), which is the classical
    "direct solver" trade-off the benchmark exposes: always accurate, but
    asymptotically more expensive than multigrid on large grids.
    """
    from scipy.linalg import solveh_banded

    n = f.shape[0]
    h2 = _grid_spacing(n) ** 2
    unknowns = n * n
    bandwidth = n
    # Lower banded storage: row d holds the d-th sub-diagonal.
    banded = np.zeros((bandwidth + 1, unknowns))
    banded[0, :] = 4.0 / h2
    within_row = -np.ones(unknowns - 1) / h2
    within_row[np.arange(1, unknowns) % n == 0] = 0.0  # no coupling across grid rows
    banded[1, : unknowns - 1] = within_row
    banded[bandwidth, : unknowns - n] = -1.0 / h2
    charge(2.0 * unknowns * bandwidth ** 2)
    solution = solveh_banded(banded, f.reshape(unknowns), lower=True)
    charge(4.0 * unknowns * bandwidth)
    return solution.reshape(n, n)


def direct_fast_poisson(f: np.ndarray) -> np.ndarray:
    """Exact fast Poisson solver via the discrete sine transform.

    Diagonalizes the 5-point Laplacian with dense sine-basis matrix
    multiplications (``O(n^3)`` work, charged as such); the result is exact
    to rounding, so the accuracy target is always met.

    Not exposed as an algorithmic choice of the benchmark (it would dominate
    every other solver under the cost model); it serves as the coarse-grid
    solver inside multigrid and as the reference-solution engine.
    """
    n = f.shape[0]
    h = _grid_spacing(n)
    modes = np.arange(1, n + 1)
    # Sine basis S[i, j] = sin(pi * i * j * h); S is symmetric and S^2 = (n+1)/2 * I.
    sine = np.sin(math.pi * h * np.outer(modes, modes))
    eigenvalues = (2.0 - 2.0 * np.cos(math.pi * modes * h)) / (h * h)
    charge(4.0 * n ** 3)
    f_hat = sine @ f @ sine
    denom = eigenvalues[:, None] + eigenvalues[None, :]
    u_hat = f_hat / denom
    u = sine @ u_hat @ sine
    u *= (2.0 / (n + 1)) ** 2
    charge(4.0 * n ** 3)
    return u


def _every_other(start: int, count: int) -> slice:
    """Indices ``start, start + 2, ...``: ``count`` of them."""
    return slice(start, start + 2 * count, 2)


def _restrict(fine: np.ndarray) -> np.ndarray:
    """Full-weighting restriction to the next coarser grid (n -> (n-1)/2).

    Coarse point ``k`` sits on fine point ``2k + 1``; its neighbours are fine
    points ``2k`` and ``2k + 2`` along each axis.
    """
    n = fine.shape[0]
    coarse_n = (n - 1) // 2
    lo, mid, hi = (_every_other(start, coarse_n) for start in (0, 1, 2))
    center = fine[mid, mid]
    edges = fine[lo, mid] + fine[hi, mid] + fine[mid, lo] + fine[mid, hi]
    corners = fine[lo, lo] + fine[lo, hi] + fine[hi, lo] + fine[hi, hi]
    charge(9.0 * coarse_n * coarse_n)
    return (4.0 * center + 2.0 * edges + corners) / 16.0


def _prolong(coarse: np.ndarray, fine_n: int) -> np.ndarray:
    """Bilinear prolongation from the coarse grid to an n x n fine grid.

    Coarse point ``k`` lands on fine point ``2k + 1``; the fine points
    between two coarse points average them, horizontally then vertically.
    """
    coarse_n = coarse.shape[0]
    fine = np.zeros((fine_n, fine_n))
    on = _every_other(1, coarse_n)
    between = _every_other(2, coarse_n - 1)
    fine[on, on] = coarse
    fine[on, between] = 0.5 * (coarse[:, :-1] + coarse[:, 1:])
    fine[between, on] = 0.5 * (coarse[:-1, :] + coarse[1:, :])
    fine[between, between] = 0.25 * (
        coarse[:-1, :-1] + coarse[1:, :-1] + coarse[:-1, 1:] + coarse[1:, 1:]
    )
    charge(4.0 * fine_n * fine_n)
    return fine


def multigrid(
    f: np.ndarray,
    cycles: int = 8,
    cycle_shape: str = "V",
    pre_smooth: int = 2,
    post_smooth: int = 2,
    u0: np.ndarray = None,
) -> np.ndarray:
    """Geometric multigrid with a tunable cycle shape.

    Args:
        f: right-hand side on the n x n interior grid (n must be 2^k - 1 to
            coarsen fully; other sizes coarsen as far as they can).
        cycles: number of multigrid cycles.
        cycle_shape: ``"V"`` (gamma = 1) or ``"W"`` (gamma = 2).
        pre_smooth: weighted-Jacobi sweeps before coarse-grid correction.
        post_smooth: sweeps after the correction.
        u0: optional initial guess.
    """
    if cycle_shape not in ("V", "W"):
        raise ValueError(f"unknown cycle shape {cycle_shape!r}")
    gamma = 1 if cycle_shape == "V" else 2
    u = np.zeros_like(f) if u0 is None else u0.copy()
    for _ in range(max(0, cycles)):
        u = _mg_cycle(u, f, gamma, pre_smooth, post_smooth)
    return u


def _mg_cycle(u: np.ndarray, f: np.ndarray, gamma: int, pre: int, post: int) -> np.ndarray:
    n = u.shape[0]
    if n <= 3:
        return direct_fast_poisson(f)
    u = jacobi(f, pre, u0=u)
    coarse_residual = _restrict(residual(u, f))
    coarse_correction = np.zeros_like(coarse_residual)
    for _ in range(gamma):
        coarse_correction = _mg_cycle(coarse_correction, coarse_residual, gamma, pre, post)
    u = u + _prolong(coarse_correction, n)
    return jacobi(f, post, u0=u)


def exact_solution(f: np.ndarray) -> np.ndarray:
    """Reference solution used by the accuracy metric (outside cost accounting)."""
    n = f.shape[0]
    h = _grid_spacing(n)
    modes = np.arange(1, n + 1)
    sine = np.sin(math.pi * h * np.outer(modes, modes))
    eigenvalues = (2.0 - 2.0 * np.cos(math.pi * modes * h)) / (h * h)
    f_hat = sine @ f @ sine
    u_hat = f_hat / (eigenvalues[:, None] + eigenvalues[None, :])
    return (sine @ u_hat @ sine) * (2.0 / (n + 1)) ** 2
