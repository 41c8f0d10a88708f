"""Tests for the Poisson 2D benchmark."""

import numpy as np
import pytest

from repro.benchmarks_suite.poisson2d import generators, solvers
from repro.benchmarks_suite.poisson2d.benchmark import (
    ACCURACY_THRESHOLD,
    Poisson2DBenchmark,
    PoissonInput,
    poisson_accuracy,
)
from repro.lang.cost import scoped_counter


def sine_rhs(n=15, kx=2, ky=3):
    coords = np.arange(1, n + 1) / (n + 1)
    return np.outer(np.sin(np.pi * kx * coords), np.sin(np.pi * ky * coords))


class TestPoissonSolvers:
    def test_direct_banded_matches_dst_reference(self):
        f = sine_rhs()
        banded = solvers.direct_banded_cholesky(f)
        reference = solvers.exact_solution(f)
        assert np.allclose(banded, reference, atol=1e-10)

    def test_direct_solves_single_mode_analytically(self):
        """For a single sine mode the continuous solution is f / (pi^2 (kx^2+ky^2));
        the discrete solution converges to it."""
        n, kx, ky = 31, 1, 1
        f = sine_rhs(n, kx, ky)
        u = solvers.direct_banded_cholesky(f)
        analytic = f / (np.pi ** 2 * (kx ** 2 + ky ** 2))
        assert np.allclose(u, analytic, atol=5e-3)

    def test_residual_of_exact_solution_is_small(self):
        f = sine_rhs()
        u = solvers.exact_solution(f)
        assert solvers.residual_norm(u, f) < 1e-8 * np.abs(f).max() + 1e-8

    def test_jacobi_reduces_error(self):
        f = sine_rhs()
        exact = solvers.exact_solution(f)
        few = solvers.jacobi(f, 5)
        many = solvers.jacobi(f, 200)
        assert np.linalg.norm(exact - many) < np.linalg.norm(exact - few)

    def test_sor_converges_faster_than_jacobi(self):
        f = sine_rhs(n=23, kx=1, ky=1)
        exact = solvers.exact_solution(f)
        jacobi_error = np.linalg.norm(exact - solvers.jacobi(f, 60))
        sor_error = np.linalg.norm(exact - solvers.sor(f, 60))
        assert sor_error < jacobi_error

    def test_multigrid_reaches_high_accuracy(self):
        f = sine_rhs(n=31, kx=3, ky=5)
        exact = solvers.exact_solution(f)
        u = solvers.multigrid(f, cycles=10, cycle_shape="V", pre_smooth=2, post_smooth=2)
        relative = np.linalg.norm(exact - u) / np.linalg.norm(exact)
        assert relative < 1e-5

    def test_multigrid_error_shrinks_with_more_cycles(self):
        f = sine_rhs(n=31, kx=2, ky=2)
        exact = solvers.exact_solution(f)
        errors = [
            np.linalg.norm(exact - solvers.multigrid(f, cycles=c)) for c in (1, 4, 8)
        ]
        assert errors[2] < errors[1] < errors[0]

    def test_w_cycle_at_least_as_good_as_v_cycle(self):
        f = sine_rhs(n=31, kx=1, ky=2)
        exact = solvers.exact_solution(f)
        v_error = np.linalg.norm(exact - solvers.multigrid(f, cycles=4, cycle_shape="V"))
        w_error = np.linalg.norm(exact - solvers.multigrid(f, cycles=4, cycle_shape="W"))
        assert w_error <= v_error * 1.5

    def test_unknown_cycle_shape_rejected(self):
        with pytest.raises(ValueError):
            solvers.multigrid(sine_rhs(), cycle_shape="X")

    def test_cost_hierarchy(self):
        """Direct (banded) is charged more than a handful of multigrid cycles
        on a large grid, and jacobi sweeps are the cheapest per-iteration."""
        f = sine_rhs(n=31)
        with scoped_counter() as direct_cost:
            solvers.direct_banded_cholesky(f)
        with scoped_counter() as multigrid_cost:
            solvers.multigrid(f, cycles=3)
        with scoped_counter() as jacobi_cost:
            solvers.jacobi(f, 3)
        assert direct_cost.total > multigrid_cost.total > jacobi_cost.total


class TestPoissonAccuracyAndProgram:
    def test_direct_meets_accuracy_threshold(self):
        problem = PoissonInput(rhs=sine_rhs(n=23))
        solution = solvers.direct_banded_cholesky(problem.rhs)
        assert poisson_accuracy(problem, solution) >= ACCURACY_THRESHOLD

    def test_few_jacobi_iterations_fail_threshold_on_smooth_input(self):
        problem = PoissonInput(rhs=sine_rhs(n=31, kx=1, ky=1))
        solution = solvers.jacobi(problem.rhs, 5)
        assert poisson_accuracy(problem, solution) < ACCURACY_THRESHOLD

    def test_exact_solution_cached(self):
        problem = PoissonInput(rhs=sine_rhs())
        first = problem.exact_solution()
        assert problem.exact_solution() is first

    def test_generator_grid_sizes(self):
        inputs = [generators.synthetic_item(i, seed=0) for i in range(10)]
        assert len(inputs) == 10
        assert all(problem.rhs.shape[0] in generators.GRID_SIZES for problem in inputs)

    def test_program_runs_every_solver(self):
        program = Poisson2DBenchmark().program
        problem = PoissonInput(rhs=sine_rhs(n=15))
        for solver in ("direct", "jacobi", "sor", "multigrid"):
            config = program.default_configuration().with_updates(solver=solver)
            result = program.run(config, problem)
            assert result.time > 0
            assert np.isfinite(result.accuracy)

    def test_accuracy_threshold_is_papers(self):
        program = Poisson2DBenchmark().program
        assert program.accuracy_requirement.accuracy_threshold == pytest.approx(7.0)
