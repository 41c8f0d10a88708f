"""Tests for the <F, T, A, E> performance dataset."""

import numpy as np
import pytest

from repro.core.dataset import PerformanceDataset
from repro.lang.accuracy import AccuracyRequirement
from repro.lang.config import Configuration


def make_dataset(requirement=None, n=6):
    """A small hand-built dataset with 3 landmarks and 2 properties x 2 levels."""
    feature_names = ["a@0", "a@1", "b@0", "b@1"]
    rng = np.random.default_rng(0)
    features = rng.normal(size=(n, 4))
    extraction_costs = np.abs(rng.normal(size=(n, 4))) + 0.1
    times = np.array(
        [[10.0, 20.0, 30.0],
         [30.0, 10.0, 20.0],
         [20.0, 30.0, 10.0],
         [10.0, 11.0, 12.0],
         [5.0, 50.0, 50.0],
         [50.0, 5.0, 50.0]][:n]
    )
    accuracies = np.array(
        [[1.0, 1.0, 1.0],
         [0.1, 1.0, 1.0],
         [1.0, 0.1, 1.0],
         [0.1, 0.1, 1.0],
         [1.0, 1.0, 0.1],
         [1.0, 1.0, 1.0]][:n]
    )
    landmarks = [Configuration({"id": i}) for i in range(3)]
    return PerformanceDataset(
        feature_names=feature_names,
        features=features,
        extraction_costs=extraction_costs,
        times=times,
        accuracies=accuracies,
        landmarks=landmarks,
        requirement=requirement or AccuracyRequirement.disabled(),
    )


class TestDatasetBasics:
    def test_shapes_and_counts(self):
        dataset = make_dataset()
        assert dataset.n_inputs == 6
        assert dataset.n_features == 4
        assert dataset.n_landmarks == 3

    def test_shape_mismatches_rejected(self):
        dataset = make_dataset()
        with pytest.raises(ValueError):
            PerformanceDataset(
                feature_names=dataset.feature_names,
                features=dataset.features,
                extraction_costs=dataset.extraction_costs[:, :2],
                times=dataset.times,
                accuracies=dataset.accuracies,
                landmarks=dataset.landmarks,
                requirement=dataset.requirement,
            )
        with pytest.raises(ValueError):
            PerformanceDataset(
                feature_names=dataset.feature_names,
                features=dataset.features,
                extraction_costs=dataset.extraction_costs,
                times=dataset.times[:, :2],
                accuracies=dataset.accuracies,
                landmarks=dataset.landmarks,
                requirement=dataset.requirement,
            )

    def test_feature_index_and_columns(self):
        dataset = make_dataset()
        assert dataset.feature_index("b@0") == 2
        columns = dataset.feature_columns(["b@0", "a@0"])
        assert columns.shape == (6, 2)
        assert np.allclose(columns[:, 1], dataset.features[:, 0])
        with pytest.raises(KeyError):
            dataset.feature_index("missing@0")

    def test_extraction_cost_for_subset(self):
        dataset = make_dataset()
        costs = dataset.extraction_cost_for(["a@0", "b@1"])
        expected = dataset.extraction_costs[:, 0] + dataset.extraction_costs[:, 3]
        assert np.allclose(costs, expected)
        assert np.allclose(dataset.extraction_cost_for([]), 0.0)


class TestLabels:
    def test_time_only_labels_are_argmin(self):
        dataset = make_dataset()
        assert dataset.labels().tolist() == [0, 1, 2, 0, 0, 1]

    def test_accuracy_aware_labels_skip_inaccurate_landmarks(self):
        requirement = AccuracyRequirement(accuracy_threshold=0.5)
        dataset = make_dataset(requirement=requirement)
        labels = dataset.labels()
        # Row 1: landmark 0 is fastest-looking? no: times row1 = [30,10,20] and
        # accuracy row1 = [0.1,1,1] -> best accurate is landmark 1.
        assert labels[1] == 1
        # Row 3: only landmark 2 is accurate.
        assert labels[3] == 2
        # Row 4: landmark 2 inaccurate; fastest accurate is landmark 0.
        assert labels[4] == 0

    def test_no_accurate_landmark_falls_back_to_max_accuracy(self):
        requirement = AccuracyRequirement(accuracy_threshold=2.0)  # unattainable
        dataset = make_dataset(requirement=requirement)
        labels = dataset.labels()
        for i in range(dataset.n_inputs):
            assert labels[i] == int(np.argmax(dataset.accuracies[i]))

    def test_best_times_match_labels(self):
        dataset = make_dataset()
        labels = dataset.labels()
        best = dataset.best_times()
        assert np.allclose(best, dataset.times[np.arange(6), labels])


class TestSlicing:
    def test_subset_rows(self):
        dataset = make_dataset()
        subset = dataset.subset([0, 2, 4])
        assert subset.n_inputs == 3
        assert np.allclose(subset.times[1], dataset.times[2])

    def test_restrict_landmarks(self):
        dataset = make_dataset()
        restricted = dataset.restrict_landmarks([2, 0])
        assert restricted.n_landmarks == 2
        assert np.allclose(restricted.times[:, 0], dataset.times[:, 2])
        assert restricted.landmarks[1] == dataset.landmarks[0]

    def test_restrict_landmarks_empty_rejected(self):
        with pytest.raises(ValueError):
            make_dataset().restrict_landmarks([])


class TestWithoutInputs:
    def test_no_inputs_returns_self(self):
        dataset = make_dataset()
        assert dataset.inputs is None
        assert dataset.without_inputs() is dataset

    def test_strips_inputs_and_shares_matrices(self):
        dataset = make_dataset()
        dataset.inputs = ["x"] * dataset.n_inputs
        stripped = dataset.without_inputs()
        assert stripped is not dataset
        assert stripped.inputs is None
        assert dataset.inputs is not None  # the original keeps its inputs
        assert stripped.features is dataset.features
        assert stripped.times is dataset.times

    def test_memoized_identity(self):
        dataset = make_dataset()
        dataset.inputs = ["x"] * dataset.n_inputs
        assert dataset.without_inputs() is dataset.without_inputs()

    @pytest.mark.parametrize("kind", ["list", "source"])
    def test_subset_is_a_lazy_view(self, kind):
        from repro.core.inputs import GeneratedInputSource, InputSource

        dataset = make_dataset()
        dataset.inputs = GeneratedInputSource(
            dataset.n_inputs, 0, lambda i, seed: i * 10
        )
        if kind == "list":
            dataset.inputs = list(dataset.inputs)
        narrowed = dataset.subset([4, 2])
        assert isinstance(narrowed.inputs, InputSource)
        assert list(narrowed.inputs) == [40, 20]
