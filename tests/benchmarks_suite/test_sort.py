"""Tests for the Sort benchmark: algorithms, features, generators, program."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.benchmarks_suite.sort import algorithms, features, generators
from repro.benchmarks_suite.sort.benchmark import SortBenchmark, run_sort
from repro.lang.cost import scoped_counter
from repro.lang.selector import Selector, SelectorRule


def simple_dispatch(terminal="insertion_sort"):
    """A dispatcher that always uses a terminal algorithm for sub-problems."""

    def dispatch(segment, depth):
        if terminal == "insertion_sort":
            return algorithms.insertion_sort(segment)
        return algorithms.radix_sort(segment)

    return dispatch


float_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(0, 200),
    elements=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
)


class TestSortAlgorithmsCorrectness:
    @pytest.mark.parametrize(
        "algorithm",
        [algorithms.insertion_sort, algorithms.radix_sort, algorithms.bitonic_sort],
    )
    def test_terminal_algorithms_sort(self, algorithm, np_rng):
        data = np_rng.uniform(-100, 100, size=257)
        assert np.array_equal(algorithm(data), np.sort(data))

    def test_quick_sort_sorts(self, np_rng):
        data = np_rng.uniform(0, 1, size=300)
        result = algorithms.quick_sort(data, simple_dispatch(), 0, pivot_rule="median3")
        assert np.array_equal(result, np.sort(data))

    @pytest.mark.parametrize("ways", [2, 3, 4, 8])
    def test_merge_sort_sorts(self, ways, np_rng):
        data = np_rng.uniform(0, 1, size=321)
        result = algorithms.merge_sort(data, simple_dispatch(), 0, ways=ways)
        assert np.array_equal(result, np.sort(data))

    def test_duplicates_handled(self):
        data = np.array([3.0, 1.0, 3.0, 3.0, 1.0, 2.0] * 20)
        for algorithm in (algorithms.insertion_sort, algorithms.radix_sort, algorithms.bitonic_sort):
            assert np.array_equal(algorithm(data), np.sort(data))

    def test_empty_and_singleton(self):
        for algorithm in (algorithms.insertion_sort, algorithms.radix_sort, algorithms.bitonic_sort):
            assert algorithm(np.array([])).size == 0
            assert np.array_equal(algorithm(np.array([5.0])), np.array([5.0]))

    def test_unknown_pivot_rule_rejected(self):
        with pytest.raises(ValueError):
            algorithms.quick_sort(np.array([2.0, 1.0]), simple_dispatch(), 0, pivot_rule="bogus")

    @settings(max_examples=40, deadline=None)
    @given(data=float_arrays)
    def test_property_insertion_sort_matches_numpy(self, data):
        assert np.array_equal(algorithms.insertion_sort(data), np.sort(data))

    @settings(max_examples=40, deadline=None)
    @given(data=float_arrays)
    def test_property_radix_sort_matches_numpy(self, data):
        assert np.array_equal(algorithms.radix_sort(data), np.sort(data))

    @settings(max_examples=40, deadline=None)
    @given(data=float_arrays)
    def test_property_bitonic_sort_matches_numpy(self, data):
        assert np.array_equal(algorithms.bitonic_sort(data), np.sort(data))


class TestSortAlgorithmCosts:
    def test_insertion_cheap_on_sorted_expensive_on_reversed(self):
        data = np.arange(500, dtype=float)
        with scoped_counter() as sorted_cost:
            algorithms.insertion_sort(data)
        with scoped_counter() as reversed_cost:
            algorithms.insertion_sort(data[::-1].copy())
        assert sorted_cost.total * 10 < reversed_cost.total

    def test_radix_cheaper_on_duplicates_than_wide_random(self, np_rng):
        duplicates = np_rng.choice([1.0, 2.0, 3.0, 4.0], size=1000)
        wide = np_rng.uniform(0, 1e6, size=1000)
        with scoped_counter() as duplicate_cost:
            algorithms.radix_sort(duplicates)
        with scoped_counter() as wide_cost:
            algorithms.radix_sort(wide)
        assert duplicate_cost.total < wide_cost.total

    def test_bitonic_cost_independent_of_order(self, np_rng):
        data = np_rng.uniform(0, 1, size=512)
        with scoped_counter() as random_cost:
            algorithms.bitonic_sort(data)
        with scoped_counter() as sorted_cost:
            algorithms.bitonic_sort(np.sort(data))
        assert random_cost.total == pytest.approx(sorted_cost.total)

    def test_quick_first_pivot_pathological_on_sorted(self):
        data = np.arange(800, dtype=float)

        def dispatch_quick(segment, depth):
            if len(segment) <= 8 or depth > algorithms.MAX_RECURSION_DEPTH:
                return algorithms.insertion_sort(segment)
            return algorithms.quick_sort(segment, dispatch_quick, depth, pivot_rule="first")

        def dispatch_random(segment, depth):
            if len(segment) <= 8 or depth > algorithms.MAX_RECURSION_DEPTH:
                return algorithms.insertion_sort(segment)
            return algorithms.quick_sort(segment, dispatch_random, depth, pivot_rule="random")

        with scoped_counter() as first_cost:
            dispatch_quick(data, 0)
        with scoped_counter() as random_cost:
            dispatch_random(data, 0)
        assert first_cost.total > 2 * random_cost.total


class TestSortFeatures:
    def test_sortedness_extremes(self):
        assert features.sortedness(np.arange(100, dtype=float), 1.0) == pytest.approx(1.0)
        assert features.sortedness(np.arange(100, dtype=float)[::-1].copy(), 1.0) == pytest.approx(0.0)

    def test_duplication_extremes(self):
        assert features.duplication(np.ones(100), 1.0) == pytest.approx(0.99)
        assert features.duplication(np.arange(100, dtype=float), 1.0) == pytest.approx(0.0)

    def test_deviation_zero_for_constant(self):
        assert features.deviation(np.full(50, 3.0), 1.0) == pytest.approx(0.0)

    def test_test_sort_cheap_on_sorted(self):
        sorted_cost = features.test_sort(np.arange(1000, dtype=float), 0.1)
        reversed_cost = features.test_sort(np.arange(1000, dtype=float)[::-1].copy(), 0.1)
        assert sorted_cost < reversed_cost

    def test_size_feature_is_log2(self):
        assert features.size_feature(np.zeros(1024), 1.0) == pytest.approx(10.0)

    def test_feature_set_has_five_properties_three_levels(self):
        feature_set = features.build_feature_set()
        assert len(feature_set) == 5
        assert feature_set.num_features() == 15


class TestSortGenerators:
    def test_synthetic_count_and_type(self):
        inputs = SortBenchmark().generate_inputs(16, "synthetic", seed=0)
        assert len(inputs) == 16
        assert all(isinstance(x, np.ndarray) for x in inputs)
        assert all(generators.MIN_LENGTH <= len(x) <= generators.MAX_LENGTH for x in inputs)

    def test_real_world_count(self):
        inputs = SortBenchmark().generate_inputs(10, "real_world", seed=0)
        assert len(inputs) == 10

    def test_generators_deterministic(self):
        first = [generators.synthetic_item(i, seed=3) for i in range(5)]
        second = [generators.synthetic_item(i, seed=3) for i in range(5)]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_families_cover_feature_space(self):
        """The synthetic mixture should contain both nearly-sorted and random lists."""
        inputs = [generators.synthetic_item(i, seed=1) for i in range(16)]
        sortedness_values = [features.sortedness(x, 1.0) for x in inputs]
        assert max(sortedness_values) > 0.95
        assert min(sortedness_values) < 0.6


class TestSortBenchmarkProgram:
    def test_program_structure(self):
        program = SortBenchmark().program
        assert "selector" in program.config_space
        assert "merge_ways" in program.config_space
        assert not program.has_variable_accuracy

    def test_run_sort_with_figure2_selector(self, np_rng):
        program = SortBenchmark().program
        selector = Selector(
            rules=(SelectorRule(600, "insertion_sort"), SelectorRule(1420, "quick_sort")),
            fallback="merge_sort",
        )
        config = program.default_configuration().with_updates(selector=selector)
        data = np_rng.uniform(0, 1e6, size=2000)
        result = program.run(config, data)
        assert np.array_equal(result.output, np.sort(data))
        assert result.time > 0

    def test_random_configurations_always_sort(self, rng, np_rng):
        program = SortBenchmark().program
        data = np_rng.uniform(0, 1e3, size=700)
        for _ in range(5):
            config = program.config_space.sample(rng)
            result = program.run(config, data)
            assert np.array_equal(result.output, np.sort(data))

    def test_input_generators_registered(self):
        generators_map = SortBenchmark().input_generators()
        assert set(generators_map) == {"synthetic", "real_world"}
