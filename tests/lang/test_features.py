"""Tests for input-feature extractors and feature sets."""

import numpy as np
import pytest

from repro.lang.cost import charge
from repro.lang.features import (
    FeatureExtractor,
    FeatureSet,
    FeatureValue,
    parse_feature_name,
)


def mean_feature(data, fraction):
    """A toy extractor that charges proportionally to the fraction sampled."""
    sample_size = max(1, int(len(data) * fraction))
    charge(float(sample_size))
    return float(np.mean(data[:sample_size]))


class TestFeatureExtractor:
    def test_levels_produce_increasing_cost(self):
        extractor = FeatureExtractor("mean", mean_feature, levels=3)
        data = np.arange(1000, dtype=float)
        costs = [extractor.extract(data, level).cost for level in range(3)]
        assert costs[0] < costs[1] < costs[2]

    def test_feature_value_fields(self):
        extractor = FeatureExtractor("mean", mean_feature)
        value = extractor.extract(np.ones(10), 0)
        assert isinstance(value, FeatureValue)
        assert value.property_name == "mean"
        assert value.level == 0
        assert value.feature_name == "mean@0"
        assert value.value == pytest.approx(1.0)

    def test_invalid_level_rejected(self):
        extractor = FeatureExtractor("mean", mean_feature, levels=3)
        with pytest.raises(ValueError):
            extractor.extract(np.ones(4), 3)
        with pytest.raises(ValueError):
            extractor.extract(np.ones(4), -1)

    def test_feature_names(self):
        extractor = FeatureExtractor("mean", mean_feature, levels=2)
        assert extractor.feature_names() == ["mean@0", "mean@1"]

    def test_custom_level_fractions_validated(self):
        with pytest.raises(ValueError):
            FeatureExtractor("mean", mean_feature, levels=2, level_fractions=[0.5])
        with pytest.raises(ValueError):
            FeatureExtractor("mean", mean_feature, levels=2, level_fractions=[0.0, 1.0])

    def test_bad_constructor_arguments(self):
        with pytest.raises(ValueError):
            FeatureExtractor("", mean_feature)
        with pytest.raises(ValueError):
            FeatureExtractor("mean", mean_feature, levels=0)


class TestFeatureSet:
    def _feature_set(self):
        return FeatureSet(
            [
                FeatureExtractor("mean", mean_feature, levels=3),
                FeatureExtractor("max", lambda d, f: float(np.max(d)), levels=3),
            ]
        )

    def test_num_features_is_u_times_z(self):
        assert self._feature_set().num_features() == 6

    def test_feature_names_property_major(self):
        names = self._feature_set().feature_names()
        assert names == ["mean@0", "mean@1", "mean@2", "max@0", "max@1", "max@2"]

    def test_duplicate_property_rejected(self):
        features = self._feature_set()
        with pytest.raises(ValueError):
            features.add(FeatureExtractor("mean", mean_feature))

    def test_extract_vector_shapes(self):
        features = self._feature_set()
        values, costs = features.extract_vector(np.arange(100, dtype=float))
        assert values.shape == (6,)
        assert costs.shape == (6,)
        assert np.all(costs >= 0)

    def test_extract_subset_returns_only_requested(self):
        features = self._feature_set()
        values, cost = features.extract_subset(
            np.arange(100, dtype=float), ["mean@0", "max@2"]
        )
        assert set(values) == {"mean@0", "max@2"}
        assert cost >= 0

    def test_extract_subset_cost_less_than_full(self):
        features = self._feature_set()
        data = np.arange(1000, dtype=float)
        _, full_costs = features.extract_vector(data)
        _, subset_cost = features.extract_subset(data, ["mean@0"])
        assert subset_cost < full_costs.sum()

    def test_index_of(self):
        features = self._feature_set()
        assert features.index_of("max@1") == 4
        with pytest.raises(KeyError):
            features.index_of("nope@0")


class TestParseFeatureName:
    def test_round_trip(self):
        assert parse_feature_name("sortedness@2") == ("sortedness", 2)

    def test_property_with_at_sign(self):
        assert parse_feature_name("weird@name@1") == ("weird@name", 1)

    def test_malformed_names_rejected(self):
        with pytest.raises(ValueError):
            parse_feature_name("no_level")
        with pytest.raises(ValueError):
            parse_feature_name("prop@x")
