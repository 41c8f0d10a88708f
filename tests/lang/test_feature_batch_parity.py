"""Hypothesis parity: ``FeatureSet.extract_batch`` vs per-input ``extract_all``.

The tentpole's first layer replaces the per-input, per-feature scalar
extraction loop with one batched pass per chunk.  The contract is exact:
row ``i`` of ``extract_batch(values)`` -- both the feature values and the
extraction costs -- must equal ``extract_vector(values[i])`` bit for bit,
on NaN-bearing and degenerate inputs included.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks_suite.sort.features import build_feature_set
from repro.lang.cost import charge
from repro.lang.features import FeatureExtractor, FeatureSet

finite = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
# Raw element pool: finite values plus the hazards (NaN, infinities, -0.0)
# the vectorized kernels special-case.
element = st.one_of(
    finite,
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0]),
)


@st.composite
def input_batches(draw):
    """A batch of 1-6 sort inputs with adversarial element mixes."""
    n = draw(st.integers(min_value=1, max_value=6))
    batch = []
    for _ in range(n):
        length = draw(st.integers(min_value=0, max_value=40))
        values = draw(
            st.lists(element, min_size=length, max_size=length)
        )
        batch.append(np.asarray(values, dtype=float))
    return batch


@settings(max_examples=60, deadline=None)
@given(input_batches())
def test_sort_features_batch_equals_scalar(batch):
    feature_set = build_feature_set()
    features, costs = feature_set.extract_batch(batch)
    assert features.shape == (len(batch), feature_set.num_features())
    for row, value in enumerate(batch):
        expected_values, expected_costs = feature_set.extract_vector(value)
        np.testing.assert_array_equal(features[row], expected_values)
        np.testing.assert_array_equal(costs[row], expected_costs)


@settings(max_examples=40, deadline=None)
@given(input_batches())
def test_batch_rows_match_extract_all_measurements(batch):
    feature_set = build_feature_set()
    features, costs = feature_set.extract_batch(batch)
    names = feature_set.feature_names()
    for row, value in enumerate(batch):
        measurements = feature_set.extract_all(value)
        assert [f"{m.property_name}@{m.level}" for m in measurements] == names
        scalar_values = np.array([m.value for m in measurements])
        scalar_costs = np.array([m.cost for m in measurements])
        np.testing.assert_array_equal(features[row], scalar_values)
        np.testing.assert_array_equal(costs[row], scalar_costs)


def _charging_feature(value, fraction):
    """A property whose cost depends on the value -- cost isolation probe."""
    amount = float(len(value)) * fraction
    charge(amount)
    return amount


def test_batch_cost_counter_isolated_per_cell():
    """Counter resets between cells: no charge bleeds into a neighbor."""
    feature_set = FeatureSet(
        [
            FeatureExtractor(
                "probe", _charging_feature, levels=2, level_fractions=[0.5, 1.0]
            )
        ]
    )
    batch = [np.zeros(2), np.zeros(10), np.zeros(0)]
    features, costs = feature_set.extract_batch(batch)
    np.testing.assert_array_equal(features, [[1.0, 2.0], [5.0, 10.0], [0.0, 0.0]])
    np.testing.assert_array_equal(costs, features)


def test_batch_of_nothing():
    feature_set = build_feature_set()
    features, costs = feature_set.extract_batch([])
    assert features.shape == (0, feature_set.num_features())
    assert costs.shape == (0, feature_set.num_features())


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(element, min_size=1, max_size=12), min_size=1, max_size=4
    )
)
def test_nan_rows_round_trip(rows):
    """Rows built purely from the hazard pool still match bit for bit."""
    batch = [np.asarray(row, dtype=float) for row in rows]
    feature_set = build_feature_set()
    features, costs = feature_set.extract_batch(batch)
    for index, value in enumerate(batch):
        expected_values, expected_costs = feature_set.extract_vector(value)
        np.testing.assert_array_equal(features[index], expected_values)
        np.testing.assert_array_equal(costs[index], expected_costs)
    assert not math.isnan(costs.sum())  # costs are real work units, never NaN
