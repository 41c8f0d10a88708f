"""Tests for the SVD benchmark."""

import numpy as np
import pytest

from repro.benchmarks_suite.svd import algorithms, features, generators
from repro.benchmarks_suite.svd.benchmark import (
    ACCURACY_THRESHOLD,
    SVDBenchmark,
    SVDInput,
    svd_accuracy,
)
from repro.lang.cost import scoped_counter


def low_rank_matrix(m=40, n=24, rank=3, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(m, rank)) * 3.0) @ rng.normal(size=(rank, n))


class TestRankKAlgorithms:
    @pytest.mark.parametrize("technique", ["exact", "subspace", "power"])
    def test_low_rank_matrix_recovered(self, technique):
        matrix = low_rank_matrix()
        approximation = algorithms.rank_k_approximation(matrix, k=3, technique=technique, iterations=15)
        relative_error = np.linalg.norm(matrix - approximation) / np.linalg.norm(matrix)
        assert relative_error < 0.05

    def test_exact_equals_numpy_truncation(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(20, 12))
        ours = algorithms.exact_rank_k(matrix, 5)
        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
        reference = (u[:, :5] * s[:5]) @ vt[:5]
        assert np.allclose(ours, reference, atol=1e-8)

    def test_larger_k_reduces_error(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(30, 20))
        errors = [
            np.linalg.norm(matrix - algorithms.exact_rank_k(matrix, k))
            for k in (1, 5, 10, 20)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    def test_subspace_cost_scales_with_k(self):
        matrix = low_rank_matrix()
        with scoped_counter() as small:
            algorithms.subspace_rank_k(matrix, k=2, iterations=5)
        with scoped_counter() as large:
            algorithms.subspace_rank_k(matrix, k=10, iterations=5)
        assert large.total > small.total

    def test_exact_cost_independent_of_k(self):
        matrix = low_rank_matrix()
        with scoped_counter() as a:
            algorithms.exact_rank_k(matrix, 1)
        with scoped_counter() as b:
            algorithms.exact_rank_k(matrix, 10)
        assert a.total == pytest.approx(b.total)

    def test_bad_arguments(self):
        matrix = low_rank_matrix()
        with pytest.raises(ValueError):
            algorithms.rank_k_approximation(matrix, k=0, technique="exact")
        with pytest.raises(ValueError):
            algorithms.rank_k_approximation(matrix, k=2, technique="bogus")


class TestSVDAccuracyMetric:
    def test_perfect_reconstruction_has_high_accuracy(self):
        matrix = low_rank_matrix()
        accuracy = algorithms.reconstruction_accuracy(matrix, matrix.copy())
        assert accuracy > 5.0

    def test_zero_approximation_has_zero_accuracy(self):
        matrix = low_rank_matrix()
        assert algorithms.reconstruction_accuracy(matrix, np.zeros_like(matrix)) == pytest.approx(0.0)

    def test_good_rank_meets_threshold_on_low_rank_input(self):
        problem = SVDInput(matrix=low_rank_matrix())
        approximation = algorithms.exact_rank_k(problem.matrix, 3)
        assert svd_accuracy(problem, approximation) >= ACCURACY_THRESHOLD

    def test_rank_one_fails_threshold_on_noise(self):
        rng = np.random.default_rng(3)
        problem = SVDInput(matrix=rng.normal(size=(40, 30)))
        approximation = algorithms.exact_rank_k(problem.matrix, 1)
        assert svd_accuracy(problem, approximation) < ACCURACY_THRESHOLD


class TestSVDGeneratorsAndProgram:
    def test_generator_shapes(self):
        inputs = [generators.synthetic_item(i, seed=0) for i in range(8)]
        assert len(inputs) == 8
        for problem in inputs:
            m, n = problem.matrix.shape
            assert m >= n

    def test_low_rank_family_has_zeros(self):
        inputs = [generators.synthetic_item(i, seed=1) for i in range(8)]
        zero_fractions = [np.mean(problem.matrix == 0.0) for problem in inputs]
        assert max(zero_fractions) > 0.1

    def test_feature_set_structure(self):
        feature_set = features.build_feature_set()
        assert set(feature_set.property_names) == {"range", "deviation", "zeros"}

    def test_program_runs_all_techniques(self):
        program = SVDBenchmark().program
        problem = SVDInput(matrix=low_rank_matrix())
        for technique in ("exact", "subspace", "power"):
            config = program.default_configuration().with_updates(
                technique=technique, rank_fraction=0.5
            )
            result = program.run(config, problem)
            assert result.time > 0
            assert np.isfinite(result.accuracy)

    def test_accuracy_threshold_is_papers(self):
        program = SVDBenchmark().program
        assert program.accuracy_requirement.accuracy_threshold == pytest.approx(0.7)
