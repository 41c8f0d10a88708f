"""Tests for the Helmholtz 3D benchmark."""

import numpy as np
import pytest
from scipy import sparse

from repro.benchmarks_suite.helmholtz3d import generators, solvers
from repro.benchmarks_suite.helmholtz3d.benchmark import (
    ACCURACY_THRESHOLD,
    Helmholtz3DBenchmark,
    HelmholtzInput,
    helmholtz_accuracy,
)
from repro.lang.cost import scoped_counter


def make_problem(n=7, coefficient_value=1.0, seed=0):
    rng = np.random.default_rng(seed)
    rhs = rng.normal(size=(n, n, n))
    coefficient = np.full((n, n, n), coefficient_value)
    return rhs, coefficient


class TestHelmholtzSolvers:
    def test_direct_solves_the_operator(self):
        rhs, coefficient = make_problem()
        solution = solvers.direct_sparse(rhs, coefficient)
        residual = rhs - solvers.apply_operator(solution, coefficient, charge_cost=False)
        assert np.max(np.abs(residual)) < 1e-8

    def test_sparse_operator_is_symmetric(self):
        _, coefficient = make_problem(n=5)
        matrix = solvers.build_sparse_operator(coefficient)
        dense = matrix.toarray()
        assert np.allclose(dense, dense.T)

    def test_operator_diagonal_includes_coefficient(self):
        _, coefficient = make_problem(n=5, coefficient_value=3.0)
        matrix = solvers.build_sparse_operator(coefficient).toarray()
        h2 = (1.0 / 6.0) ** 2
        assert np.allclose(np.diag(matrix), 6.0 / h2 + 3.0)

    def test_jacobi_reduces_error(self):
        rhs, coefficient = make_problem(n=7)
        exact = solvers.exact_solution(rhs, coefficient)
        few = solvers.jacobi(rhs, coefficient, 3)
        many = solvers.jacobi(rhs, coefficient, 150)
        assert np.linalg.norm(exact - many) < np.linalg.norm(exact - few)

    def test_sor_converges(self):
        rhs, coefficient = make_problem(n=7, seed=2)
        exact = solvers.exact_solution(rhs, coefficient)
        solution = solvers.sor(rhs, coefficient, 150)
        assert np.linalg.norm(exact - solution) / np.linalg.norm(exact) < 1e-4

    def test_multigrid_reduces_error_with_more_cycles(self):
        rhs, coefficient = make_problem(n=7, seed=3)
        exact = solvers.exact_solution(rhs, coefficient)
        few = solvers.multigrid(rhs, coefficient, cycles=1)
        many = solvers.multigrid(rhs, coefficient, cycles=10)
        assert np.linalg.norm(exact - many) < np.linalg.norm(exact - few)

    def test_unknown_cycle_shape_rejected(self):
        rhs, coefficient = make_problem()
        with pytest.raises(ValueError):
            solvers.multigrid(rhs, coefficient, cycle_shape="Z")

    def test_sparse_operator_matches_fresh_assembly(self):
        """The cached Laplacian gives the same CSC bits as assembling it anew."""
        for n, seed in ((7, 0), (11, 1), (7, 2)):
            _, coefficient = make_problem(n=n)
            coefficient = coefficient + np.random.default_rng(seed).random(coefficient.shape)
            h2 = (1.0 / (n + 1)) ** 2
            one_d = sparse.diags(
                [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
                offsets=[-1, 0, 1],
                format="csr",
            )
            eye = sparse.identity(n, format="csr")
            laplacian = (
                sparse.kron(sparse.kron(one_d, eye), eye)
                + sparse.kron(sparse.kron(eye, one_d), eye)
                + sparse.kron(sparse.kron(eye, eye), one_d)
            ) / h2
            fresh = (laplacian + sparse.diags(coefficient.ravel())).tocsc()
            built = solvers.build_sparse_operator(coefficient)
            for field in ("data", "indices", "indptr"):
                assert getattr(built, field).tobytes() == getattr(fresh, field).tobytes()

    def test_direct_charged_more_than_smoothing(self):
        rhs, coefficient = make_problem(n=11, seed=4)
        with scoped_counter() as direct_cost:
            solvers.direct_sparse(rhs, coefficient)
        with scoped_counter() as jacobi_cost:
            solvers.jacobi(rhs, coefficient, 10)
        assert direct_cost.total > jacobi_cost.total


class TestHelmholtzProgram:
    def test_direct_meets_accuracy_threshold(self):
        rhs, coefficient = make_problem(n=7, seed=5)
        problem = HelmholtzInput(rhs=rhs, coefficient=coefficient)
        solution = solvers.direct_sparse(rhs, coefficient)
        assert helmholtz_accuracy(problem, solution) >= ACCURACY_THRESHOLD

    def test_tiny_iteration_budget_fails_threshold(self):
        rhs, coefficient = make_problem(n=11, seed=6)
        problem = HelmholtzInput(rhs=rhs, coefficient=coefficient)
        solution = solvers.jacobi(rhs, coefficient, 2)
        assert helmholtz_accuracy(problem, solution) < ACCURACY_THRESHOLD

    def test_exact_solution_cached(self):
        rhs, coefficient = make_problem(n=7, seed=9)
        problem = HelmholtzInput(rhs=rhs, coefficient=coefficient)
        first = problem.exact_solution()
        assert problem.exact_solution() is first

    @pytest.mark.parametrize("n", generators.GRID_SIZES)
    def test_direct_run_factorizes_once(self, monkeypatch, n):
        """Running ``direct`` and scoring its accuracy share one factorization."""
        rhs, coefficient = make_problem(n=n, seed=10)
        coefficient = coefficient + np.random.default_rng(n).random(coefficient.shape)
        problem = HelmholtzInput(rhs=rhs, coefficient=coefficient)
        program = Helmholtz3DBenchmark().program
        config = program.default_configuration().with_updates(solver="direct")

        factorizations = []
        real_splu = solvers.splu

        def counting_splu(matrix):
            factorizations.append(matrix.shape)
            return real_splu(matrix)

        monkeypatch.setattr(solvers, "splu", counting_splu)
        result = program.run(config, problem)
        assert len(factorizations) == 1

        unknowns = n ** 3
        expected_time = 0.0
        expected_time += 0.5 * unknowns ** 2
        expected_time += 20.0 * unknowns
        assert result.time == expected_time

        stand_alone = solvers.direct_sparse(rhs, coefficient)
        assert result.output.tobytes() == stand_alone.tobytes()
        # The caller owns its output: the cached reference stays untouched.
        assert not np.shares_memory(result.output, problem.exact_solution())
        assert result.accuracy >= ACCURACY_THRESHOLD

    def test_generator_structure(self):
        inputs = generators.generate_synthetic(10, seed=0)
        assert len(inputs) == 10
        for problem in inputs:
            assert problem.rhs.shape == problem.coefficient.shape
            assert problem.rhs.shape[0] in generators.GRID_SIZES
            assert np.all(problem.coefficient >= 0.0)

    def test_program_runs_every_solver(self):
        program = Helmholtz3DBenchmark().program
        rhs, coefficient = make_problem(n=7, seed=7)
        problem = HelmholtzInput(rhs=rhs, coefficient=coefficient)
        for solver in ("direct", "jacobi", "sor", "multigrid"):
            config = program.default_configuration().with_updates(solver=solver)
            result = program.run(config, problem)
            assert result.time > 0
            assert np.isfinite(result.accuracy)

    def test_feature_extraction_works_on_inputs(self):
        program = Helmholtz3DBenchmark().program
        problem = generators.generate_synthetic(1, seed=1)[0]
        values, costs = program.features.extract_vector(problem)
        assert values.shape == costs.shape
        assert np.all(np.isfinite(values))
