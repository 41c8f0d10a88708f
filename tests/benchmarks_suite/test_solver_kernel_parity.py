"""Bit-parity of the Poisson/Helmholtz stencil kernels against reference copies.

The ``_reference_*`` functions below are verbatim copies of the
``np.pad``-per-sweep smoothers and ``np.ix_``-gather grid transfers that
the Table-1 digests were recorded with.  The live kernels may be
restructured for speed, but only if every output array is bit-identical
(``tobytes()``) and every run charges exactly the same work units
(``CostCounter.total``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.benchmarks_suite.helmholtz3d import solvers as helmholtz
from repro.benchmarks_suite.poisson2d import solvers as poisson
from repro.lang.cost import charge, scoped_counter

HELMHOLTZ_SIZES = (7, 11, 15)
POISSON_SIZES = (15, 31)
SWEEPS = 7


# --- reference kernels: Helmholtz 3D ---------------------------------------


def _reference_helmholtz_jacobi(f, coefficient, iterations, u0=None, weight=0.8):
    n = f.shape[0]
    h2 = helmholtz._grid_spacing(n) ** 2
    diagonal = 6.0 / h2 + coefficient
    u = np.zeros_like(f) if u0 is None else u0.copy()
    for _ in range(max(0, iterations)):
        padded = np.pad(u, 1)
        neighbours = (
            padded[:-2, 1:-1, 1:-1]
            + padded[2:, 1:-1, 1:-1]
            + padded[1:-1, :-2, 1:-1]
            + padded[1:-1, 2:, 1:-1]
            + padded[1:-1, 1:-1, :-2]
            + padded[1:-1, 1:-1, 2:]
        ) / h2
        updated = (f + neighbours) / diagonal
        u = (1.0 - weight) * u + weight * updated
        charge(9.0 * n ** 3)
    return u


def _reference_helmholtz_sor(f, coefficient, iterations, omega=None, u0=None):
    n = f.shape[0]
    h2 = helmholtz._grid_spacing(n) ** 2
    diagonal = 6.0 / h2 + coefficient
    if omega is None:
        rho = math.cos(math.pi * helmholtz._grid_spacing(n))
        omega = 2.0 / (1.0 + math.sqrt(max(1e-12, 1.0 - rho * rho)))
    u = np.zeros_like(f) if u0 is None else u0.copy()

    idx = np.arange(n)
    parity = (idx[:, None, None] + idx[None, :, None] + idx[None, None, :]) % 2
    red_mask = parity == 0

    for _ in range(max(0, iterations)):
        for mask in (red_mask, ~red_mask):
            padded = np.pad(u, 1)
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
    return u


def _reference_helmholtz_restrict(fine):
    n = fine.shape[0]
    coarse_n = (n - 1) // 2
    padded = np.pad(fine, 1)
    i = 2 * np.arange(1, coarse_n + 1)
    center = padded[np.ix_(i, i, i)]
    face_sum = (
        padded[np.ix_(i - 1, i, i)]
        + padded[np.ix_(i + 1, i, i)]
        + padded[np.ix_(i, i - 1, i)]
        + padded[np.ix_(i, i + 1, i)]
        + padded[np.ix_(i, i, i - 1)]
        + padded[np.ix_(i, i, i + 1)]
    )
    charge(8.0 * coarse_n ** 3)
    return (2.0 * center + face_sum / 2.0) / 5.0


def _reference_helmholtz_prolong(coarse, fine_n):
    coarse_n = coarse.shape[0]
    fine = np.zeros((fine_n, fine_n, fine_n))
    padded = np.pad(coarse, 1)
    fine_coords = (np.arange(1, fine_n + 1) / 2.0).astype(int)
    fine_coords = np.clip(fine_coords, 0, coarse_n)
    fine = padded[np.ix_(fine_coords, fine_coords, fine_coords)]
    charge(4.0 * fine_n ** 3)
    return fine


# --- reference kernels: Poisson 2D -----------------------------------------


def _reference_poisson_jacobi(f, iterations, u0=None, weight=0.8):
    n = f.shape[0]
    h2 = poisson._grid_spacing(n) ** 2
    u = np.zeros_like(f) if u0 is None else u0.copy()
    for _ in range(max(0, iterations)):
        padded = np.pad(u, 1)
        neighbours = (
            padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
        )
        updated = (neighbours + h2 * f) / 4.0
        u = (1.0 - weight) * u + weight * updated
        charge(6.0 * n * n)
    return u


def _reference_poisson_sor(f, iterations, omega=None, u0=None):
    n = f.shape[0]
    h2 = poisson._grid_spacing(n) ** 2
    if omega is None:
        rho = math.cos(math.pi * poisson._grid_spacing(n))
        omega = 2.0 / (1.0 + math.sqrt(1.0 - rho * rho))
    u = np.zeros_like(f) if u0 is None else u0.copy()

    index = np.arange(n)
    red_mask = ((index[:, None] + index[None, :]) % 2) == 0
    black_mask = ~red_mask

    for _ in range(max(0, iterations)):
        for mask in (red_mask, black_mask):
            padded = np.pad(u, 1)
            neighbours = (
                padded[:-2, 1:-1]
                + padded[2:, 1:-1]
                + padded[1:-1, :-2]
                + padded[1:-1, 2:]
            )
            gauss_seidel = (neighbours + h2 * f) / 4.0
            u[mask] = (1.0 - omega) * u[mask] + omega * gauss_seidel[mask]
        charge(8.0 * n * n)
    return u


def _reference_poisson_restrict(fine):
    n = fine.shape[0]
    coarse_n = (n - 1) // 2
    padded = np.pad(fine, 1)
    i = 2 * np.arange(1, coarse_n + 1)
    center = padded[np.ix_(i, i)]
    edges = (
        padded[np.ix_(i - 1, i)]
        + padded[np.ix_(i + 1, i)]
        + padded[np.ix_(i, i - 1)]
        + padded[np.ix_(i, i + 1)]
    )
    corners = (
        padded[np.ix_(i - 1, i - 1)]
        + padded[np.ix_(i - 1, i + 1)]
        + padded[np.ix_(i + 1, i - 1)]
        + padded[np.ix_(i + 1, i + 1)]
    )
    charge(9.0 * coarse_n * coarse_n)
    return (4.0 * center + 2.0 * edges + corners) / 16.0


def _reference_poisson_prolong(coarse, fine_n):
    coarse_n = coarse.shape[0]
    padded = np.pad(coarse, 1)
    fine = np.zeros((fine_n, fine_n))
    i = np.arange(1, coarse_n + 1)
    fine_idx = 2 * i - 1
    fine[np.ix_(fine_idx, fine_idx)] = padded[np.ix_(i, i)]
    fine[np.ix_(fine_idx, fine_idx[:-1] + 1)] = 0.5 * (
        padded[np.ix_(i, i[:-1])] + padded[np.ix_(i, i[:-1] + 1)]
    )
    fine[np.ix_(fine_idx[:-1] + 1, fine_idx)] = 0.5 * (
        padded[np.ix_(i[:-1], i)] + padded[np.ix_(i[:-1] + 1, i)]
    )
    fine[np.ix_(fine_idx[:-1] + 1, fine_idx[:-1] + 1)] = 0.25 * (
        padded[np.ix_(i[:-1], i[:-1])]
        + padded[np.ix_(i[:-1] + 1, i[:-1])]
        + padded[np.ix_(i[:-1], i[:-1] + 1)]
        + padded[np.ix_(i[:-1] + 1, i[:-1] + 1)]
    )
    charge(4.0 * fine_n * fine_n)
    return fine


# --- helpers -----------------------------------------------------------------


def _charged(function, *args, **kwargs):
    """``(result, work units charged)`` of one call."""
    with scoped_counter() as counter:
        result = function(*args, **kwargs)
    return result, counter.total


def _assert_same(live, reference):
    """Bitwise-equal arrays and equal charges."""
    (live_out, live_cost), (ref_out, ref_cost) = live, reference
    assert live_out.shape == ref_out.shape
    assert live_out.dtype == ref_out.dtype
    assert live_out.tobytes() == ref_out.tobytes()
    assert live_cost == ref_cost


def _helmholtz_problem(n, seed=0):
    rng = np.random.default_rng(seed + n)
    f = rng.normal(size=(n, n, n))
    coefficient = np.abs(rng.uniform(0.0, 5.0) + 3.0 * rng.random((n, n, n)))
    u0 = rng.normal(size=(n, n, n))
    return f, coefficient, u0


def _poisson_problem(n, seed=0):
    rng = np.random.default_rng(seed + n)
    return rng.normal(size=(n, n)), rng.normal(size=(n, n))


def _check_smoother(live, reference, u0, *args):
    """Parity without and with ``u0``; ``u0`` untouched, result unaliased."""
    _assert_same(_charged(live, *args), _charged(reference, *args))
    before = u0.copy()
    live_run = _charged(live, *args, u0=u0)
    assert u0.tobytes() == before.tobytes(), "u0 was mutated"
    _assert_same(live_run, _charged(reference, *args, u0=before.copy()))
    result = live_run[0]
    assert result.base is None, "result is a view of an internal buffer"
    assert not np.shares_memory(result, u0)


# --- smoothers -----------------------------------------------------------------


@pytest.mark.parametrize("n", HELMHOLTZ_SIZES)
@pytest.mark.parametrize("iterations", [0, 1, SWEEPS])
def test_helmholtz_jacobi_parity(n, iterations):
    f, coefficient, u0 = _helmholtz_problem(n)
    _check_smoother(
        helmholtz.jacobi, _reference_helmholtz_jacobi, u0, f, coefficient, iterations
    )


@pytest.mark.parametrize("n", HELMHOLTZ_SIZES)
@pytest.mark.parametrize("iterations", [0, 1, SWEEPS])
def test_helmholtz_sor_parity(n, iterations):
    f, coefficient, u0 = _helmholtz_problem(n)
    _check_smoother(
        helmholtz.sor, _reference_helmholtz_sor, u0, f, coefficient, iterations
    )


@pytest.mark.parametrize("n", POISSON_SIZES)
@pytest.mark.parametrize("iterations", [0, 1, SWEEPS])
def test_poisson_jacobi_parity(n, iterations):
    f, u0 = _poisson_problem(n)
    _check_smoother(poisson.jacobi, _reference_poisson_jacobi, u0, f, iterations)


@pytest.mark.parametrize("n", POISSON_SIZES)
@pytest.mark.parametrize("iterations", [0, 1, SWEEPS])
def test_poisson_sor_parity(n, iterations):
    f, u0 = _poisson_problem(n)
    _check_smoother(poisson.sor, _reference_poisson_sor, u0, f, iterations)


# --- grid transfers -----------------------------------------------------------


@pytest.mark.parametrize("n", HELMHOLTZ_SIZES)
def test_helmholtz_restrict_parity(n):
    fine, _, _ = _helmholtz_problem(n)
    _assert_same(
        _charged(helmholtz._restrict, fine), _charged(_reference_helmholtz_restrict, fine)
    )


@pytest.mark.parametrize("n", HELMHOLTZ_SIZES + (5,))
def test_helmholtz_prolong_parity(n):
    coarse_n = (n - 1) // 2
    coarse = np.random.default_rng(n).normal(size=(coarse_n,) * 3)
    _assert_same(
        _charged(helmholtz._prolong, coarse, n),
        _charged(_reference_helmholtz_prolong, coarse, n),
    )


@pytest.mark.parametrize("n", POISSON_SIZES)
def test_poisson_restrict_parity(n):
    fine, _ = _poisson_problem(n)
    _assert_same(
        _charged(poisson._restrict, fine), _charged(_reference_poisson_restrict, fine)
    )


@pytest.mark.parametrize("n", POISSON_SIZES)
@pytest.mark.parametrize("extra", [0, 1])
def test_poisson_prolong_parity(n, extra):
    coarse_n = (n - 1) // 2
    coarse = np.random.default_rng(n).normal(size=(coarse_n,) * 2)
    fine_n = n + extra
    _assert_same(
        _charged(poisson._prolong, coarse, fine_n),
        _charged(_reference_poisson_prolong, coarse, fine_n),
    )


# --- whole multigrid solves ----------------------------------------------------


@pytest.mark.parametrize("cycle_shape", ["V", "W"])
def test_helmholtz_multigrid_parity(monkeypatch, cycle_shape):
    f, coefficient, _ = _helmholtz_problem(15)
    args = (f, coefficient)
    kwargs = dict(cycles=2, cycle_shape=cycle_shape)
    live = _charged(helmholtz.multigrid, *args, **kwargs)
    monkeypatch.setattr(helmholtz, "jacobi", _reference_helmholtz_jacobi)
    monkeypatch.setattr(helmholtz, "sor", _reference_helmholtz_sor)
    monkeypatch.setattr(helmholtz, "_restrict", _reference_helmholtz_restrict)
    monkeypatch.setattr(helmholtz, "_prolong", _reference_helmholtz_prolong)
    _assert_same(live, _charged(helmholtz.multigrid, *args, **kwargs))


@pytest.mark.parametrize("cycle_shape", ["V", "W"])
def test_poisson_multigrid_parity(monkeypatch, cycle_shape):
    f, _ = _poisson_problem(31)
    kwargs = dict(cycles=2, cycle_shape=cycle_shape)
    live = _charged(poisson.multigrid, f, **kwargs)
    monkeypatch.setattr(poisson, "jacobi", _reference_poisson_jacobi)
    monkeypatch.setattr(poisson, "_restrict", _reference_poisson_restrict)
    monkeypatch.setattr(poisson, "_prolong", _reference_poisson_prolong)
    _assert_same(live, _charged(poisson.multigrid, f, **kwargs))
