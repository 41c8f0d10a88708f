"""Tests for the PetaBricksProgram abstraction."""

import numpy as np
import pytest

from repro.lang.accuracy import AccuracyMetric, AccuracyRequirement
from repro.lang.config import Configuration, ConfigurationSpace, IntegerParameter
from repro.lang.cost import charge
from repro.lang.features import FeatureExtractor, FeatureSet
from repro.lang.program import PetaBricksProgram


def make_toy_program(with_accuracy: bool = False) -> PetaBricksProgram:
    """A tiny program: 'sort' a list by charging work = iterations * n."""
    space = ConfigurationSpace([IntegerParameter("iterations", 1, 10)])

    def run(config: Configuration, data):
        charge(float(config["iterations"]) * len(data))
        return sorted(data)

    features = FeatureSet(
        [FeatureExtractor("length", lambda d, f: float(len(d)), levels=2)]
    )
    if with_accuracy:
        metric = AccuracyMetric("iters", lambda inp, out: 1.0)
        requirement = AccuracyRequirement(accuracy_threshold=0.5)
    else:
        metric = None
        requirement = None
    return PetaBricksProgram(
        name="toy",
        config_space=space,
        run_func=run,
        features=features,
        accuracy_metric=metric,
        accuracy_requirement=requirement,
    )


class TestPetaBricksProgram:
    def test_run_measures_cost(self):
        program = make_toy_program()
        config = Configuration({"iterations": 3}, space=program.config_space)
        result = program.run(config, [3, 1, 2])
        assert result.output == [1, 2, 3]
        assert result.time == pytest.approx(9.0)

    def test_run_cost_is_isolated_per_run(self):
        program = make_toy_program()
        config = Configuration({"iterations": 2}, space=program.config_space)
        first = program.run(config, [1, 2])
        second = program.run(config, [1, 2])
        assert first.time == pytest.approx(second.time)

    def test_default_accuracy_is_one(self):
        program = make_toy_program()
        config = program.default_configuration()
        assert program.run(config, [1]).accuracy == 1.0
        assert not program.has_variable_accuracy

    def test_variable_accuracy_flag(self):
        program = make_toy_program(with_accuracy=True)
        assert program.has_variable_accuracy

    def test_default_configuration_valid(self):
        program = make_toy_program()
        program.config_space.validate(program.default_configuration().as_dict())

    def test_feature_extraction_available(self):
        program = make_toy_program()
        values, costs = program.features.extract_vector([1, 2, 3, 4])
        assert values.shape == (2,)
        assert np.all(values == 4.0)

    def test_repr_mentions_name(self):
        assert "toy" in repr(make_toy_program())
