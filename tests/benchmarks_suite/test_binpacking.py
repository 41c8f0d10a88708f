"""Tests for the Bin Packing benchmark."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks_suite.binpacking import algorithms, features, generators
from repro.benchmarks_suite.binpacking.benchmark import (
    ACCURACY_THRESHOLD,
    BinPackingBenchmark,
)
from repro.lang.cost import scoped_counter

item_lists = st.lists(
    st.floats(min_value=0.01, max_value=1.0), min_size=0, max_size=120
)


class TestHeuristicsValidity:
    def test_thirteen_heuristics_registered(self):
        assert len(algorithms.HEURISTICS) == 13
        expected = {
            "AlmostWorstFit", "AlmostWorstFitDecreasing", "BestFit",
            "BestFitDecreasing", "FirstFit", "FirstFitDecreasing", "LastFit",
            "LastFitDecreasing", "ModifiedFirstFitDecreasing", "NextFit",
            "NextFitDecreasing", "WorstFit", "WorstFitDecreasing",
        }
        assert set(algorithms.HEURISTICS) == expected

    @pytest.mark.parametrize("name", sorted(algorithms.HEURISTICS))
    def test_every_heuristic_produces_valid_packing(self, name, np_rng):
        items = np_rng.uniform(0.05, 0.95, size=150).tolist()
        bins = algorithms.HEURISTICS[name](items)
        assert algorithms.packing_is_valid(items, bins)

    @pytest.mark.parametrize("name", sorted(algorithms.HEURISTICS))
    def test_empty_input(self, name):
        assert algorithms.HEURISTICS[name]([]) == []

    @settings(max_examples=30, deadline=None)
    @given(items=item_lists)
    def test_property_first_fit_valid(self, items):
        assert algorithms.packing_is_valid(items, algorithms.first_fit(items))

    @settings(max_examples=30, deadline=None)
    @given(items=item_lists)
    def test_property_best_fit_decreasing_valid(self, items):
        assert algorithms.packing_is_valid(items, algorithms.best_fit_decreasing(items))

    @settings(max_examples=30, deadline=None)
    @given(items=item_lists)
    def test_property_mffd_valid(self, items):
        bins = algorithms.modified_first_fit_decreasing(items)
        assert algorithms.packing_is_valid(items, bins)

    @settings(max_examples=30, deadline=None)
    @given(items=item_lists)
    def test_property_bin_count_lower_bound(self, items):
        """No heuristic can use fewer bins than ceil(total size)."""
        lower_bound = int(np.ceil(sum(items) - 1e-9))
        for heuristic in (algorithms.next_fit, algorithms.best_fit, algorithms.first_fit_decreasing):
            assert len(heuristic(items)) >= lower_bound


class TestHeuristicQuality:
    def test_ffd_beats_next_fit_on_uniform_items(self, np_rng):
        items = np_rng.uniform(0.2, 0.8, size=300).tolist()
        assert len(algorithms.first_fit_decreasing(items)) <= len(algorithms.next_fit(items))

    def test_decreasing_variants_charge_sort_cost(self):
        items = [0.4] * 100
        with scoped_counter() as plain:
            algorithms.first_fit(items)
        with scoped_counter() as decreasing:
            algorithms.first_fit_decreasing(items)
        assert decreasing.total > plain.total

    def test_occupancy_range(self, np_rng):
        items = np_rng.uniform(0.05, 0.5, size=200).tolist()
        for heuristic in algorithms.HEURISTICS.values():
            occupancy = algorithms.occupancy(heuristic(items))
            assert 0.0 < occupancy <= 1.0

    def test_occupancy_of_empty_packing(self):
        assert algorithms.occupancy([]) == 1.0


class TestBinpackingFeaturesAndGenerators:
    def test_feature_values_sane(self, np_rng):
        items = np_rng.uniform(0.1, 0.9, size=100)
        assert 0.0 < features.average(items, 1.0) < 1.0
        assert features.deviation(items, 1.0) >= 0.0
        assert features.value_range(items, 1.0) <= 0.9
        assert 0.0 <= features.sortedness(items, 1.0) <= 1.0

    def test_sortedness_of_decreasing_list(self):
        items = np.sort(np.random.default_rng(0).uniform(0, 1, 50))[::-1].copy()
        assert features.sortedness(items, 1.0) == pytest.approx(1.0)

    def test_feature_set_structure(self):
        feature_set = features.build_feature_set()
        assert set(feature_set.property_names) == {"average", "deviation", "range", "sortedness", "size"}

    def test_generator_counts_and_ranges(self):
        inputs = [generators.synthetic_item(i, seed=0) for i in range(10)]
        assert len(inputs) == 10
        for items in inputs:
            assert np.all(items > 0.0) and np.all(items <= 1.0)

    def test_generator_families_mostly_packable_to_threshold(self):
        """At least one heuristic should reach the accuracy threshold on
        nearly every generated input (needed for the satisfaction claim)."""
        inputs = [generators.synthetic_item(i, seed=5) for i in range(30)]
        achievable = [
            max(
                algorithms.occupancy(h(list(items)))
                for h in algorithms.HEURISTICS.values()
            )
            for items in inputs
        ]
        assert np.mean(np.array(achievable) >= ACCURACY_THRESHOLD) >= 0.95


class TestBinPackingProgram:
    def test_program_runs_every_heuristic_choice(self, np_rng):
        program = BinPackingBenchmark().program
        items = np_rng.uniform(0.05, 0.5, size=80)
        for name in algorithms.HEURISTICS:
            config = program.default_configuration().with_updates(heuristic=name)
            result = program.run(config, items)
            assert algorithms.packing_is_valid(items.tolist(), result.output)
            assert 0.0 < result.accuracy <= 1.0

    def test_accuracy_requirement_is_papers(self):
        program = BinPackingBenchmark().program
        assert program.accuracy_requirement.accuracy_threshold == pytest.approx(0.95)
        assert program.accuracy_requirement.satisfaction_threshold == pytest.approx(0.95)
