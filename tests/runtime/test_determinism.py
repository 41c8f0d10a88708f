"""Cross-executor determinism of the full experiment pipeline.

The acceptance bar for the measurement runtime: ``run_experiment`` must
produce *identical* per-input times and speedups whichever executor carries
the program runs.  This holds because (a) every run is a pure function of
(program, configuration, input) -- deterministic cost model, per-run seeded
RNGs -- and (b) everything stochastic in the pipeline itself (clustering,
autotuning, splits) draws from explicitly seeded RNGs on the coordinating
thread, never from worker threads/processes (the seeded-RNG threading
audit).
"""

import random

import numpy as np
import pytest

from repro.benchmarks_suite import get_benchmark
from repro.core.baselines import DynamicOracle, OneLevelLearning
from repro.core.inputs import ObservedInputSource
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.lang.config import ConfigurationSpace, IntegerParameter
from repro.lang.cost import charge
from repro.lang.program import PetaBricksProgram
from repro.runtime import (
    ProcessExecutor,
    RunCache,
    Runtime,
    SerialExecutor,
    ThreadExecutor,
)

#: Small but complete: full two-level training plus all four methods.
METHODS = ("static_oracle", "dynamic_oracle", "two_level", "one_level")


def tiny_config(executor: str, **overrides) -> ExperimentConfig:
    settings = dict(
        n_inputs=24,
        n_clusters=3,
        tuner_generations=2,
        tuner_population=5,
        tuning_neighbors=2,
        max_subsets=12,
        seed=0,
        executor=executor,
        workers=2,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


@pytest.fixture(scope="module")
def serial_result():
    return run_experiment("sort1", tiny_config("serial"))


class TestCrossExecutorDeterminism:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_identical_times_and_speedups(self, serial_result, executor):
        result = run_experiment("sort1", tiny_config(executor))
        assert result.runtime_stats["executor"] == executor
        # A silent fallback would make the process case vacuous.
        assert "executor_fallback" not in result.runtime_stats
        for method in METHODS:
            np.testing.assert_array_equal(
                result.methods[method].times, serial_result.methods[method].times
            )
            np.testing.assert_array_equal(
                result.speedups_over_static(method),
                serial_result.speedups_over_static(method),
            )
            assert result.satisfaction(method) == serial_result.satisfaction(method)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_identical_landmarks_and_dataset(self, serial_result, executor):
        result = run_experiment("sort1", tiny_config(executor))
        assert result.training.landmarks == serial_result.training.landmarks
        np.testing.assert_array_equal(
            result.training.dataset.times, serial_result.training.dataset.times
        )
        np.testing.assert_array_equal(
            result.training.level1.cluster_labels,
            serial_result.training.level1.cluster_labels,
        )

    def test_serial_rerun_is_bit_identical(self, serial_result):
        """Seeded-RNG audit: nothing in the pipeline draws unseeded entropy."""
        result = run_experiment("sort1", tiny_config("serial"))
        for method in METHODS:
            np.testing.assert_array_equal(
                result.methods[method].times, serial_result.methods[method].times
            )

    def test_cache_does_not_change_results(self, serial_result):
        result = run_experiment("sort1", tiny_config("serial", use_cache=False))
        for method in METHODS:
            np.testing.assert_array_equal(
                result.methods[method].times, serial_result.methods[method].times
            )


@pytest.fixture(scope="module")
def sort_setup():
    variant = get_benchmark("sort2")
    program = variant.benchmark.program
    inputs = variant.benchmark.generate_inputs(6, variant.variant, seed=0)
    configs = [program.default_configuration()]
    configs.append(program.config_space.sample(random.Random(7)))
    return program, configs, inputs


def serial_matrices(program, configs, inputs):
    return Runtime(executor=SerialExecutor(), cache=None).measure(
        program, configs, inputs
    )


def assert_identical(actual, expected):
    assert np.array_equal(actual["times"], expected["times"])
    assert np.array_equal(actual["accuracies"], expected["accuracies"])


def local_program():
    """A program whose lambda run function cannot be pickled into workers."""
    space = ConfigurationSpace([IntegerParameter("x", 1, 5)])
    return PetaBricksProgram(
        "local", space, lambda config, value: charge(float(config["x"]) * value)
    )


class TestMeasureMatchesSerial:
    """``Runtime.measure`` streams pairs on every executor, bit-identically."""

    def test_process_measure_matches_serial(self, sort_setup):
        program, configs, inputs = sort_setup
        expected = serial_matrices(program, configs, inputs)
        with Runtime(executor=ProcessExecutor(workers=2), cache=None) as runtime:
            actual = runtime.measure(program, configs, inputs)
            assert runtime.executor.fallback_reason is None
        assert_identical(actual, expected)

    def test_chunked_process_measure_matches_serial(self, sort_setup):
        program, configs, inputs = sort_setup
        expected = serial_matrices(program, configs, inputs)
        with Runtime(
            executor=ProcessExecutor(workers=2), cache=None, batch_chunk=5
        ) as runtime:
            actual = runtime.measure(program, configs, inputs)
            counters = runtime.telemetry.snapshot()["counters"]
        assert_identical(actual, expected)
        # 6 inputs x 2 configs = 12 pairs in chunks of 5 -> 3 chunks.
        assert counters["chunks_dispatched"] == 3
        assert counters["runs_requested"] == 12
        assert counters["runs_executed"] == 12

    def test_thread_measure_matches_serial(self, sort_setup):
        program, configs, inputs = sort_setup
        expected = serial_matrices(program, configs, inputs)
        with Runtime(executor=ThreadExecutor(workers=4), cache=None) as runtime:
            assert_identical(runtime.measure(program, configs, inputs), expected)

    def test_caching_runtime_fills_run_cache(self, sort_setup):
        program, configs, inputs = sort_setup
        expected = serial_matrices(program, configs, inputs)
        with Runtime(executor=ProcessExecutor(workers=2), cache=RunCache()) as runtime:
            assert_identical(runtime.measure(program, configs, inputs), expected)
            assert len(runtime.cache) == 12
            # A repeat is answered from the cache, not re-executed.
            assert_identical(runtime.measure(program, configs, inputs), expected)
            counters = runtime.telemetry.snapshot()["counters"]
        assert counters["cache_hits"] == 12
        assert counters["runs_executed"] == 12

    def test_unpicklable_program_falls_back_to_serial(self):
        program = local_program()
        configs = [program.default_configuration()]
        inputs = [1.0, 2.0, 3.0]
        expected = serial_matrices(program, configs, inputs)
        with Runtime(executor=ProcessExecutor(workers=2), cache=None) as runtime:
            actual = runtime.measure(program, configs, inputs)
            assert "not picklable" in runtime.executor.fallback_reason
        assert_identical(actual, expected)

    def test_unpicklable_program_bumps_fallback_counter(self):
        program = local_program()
        configs = [program.default_configuration()]
        with Runtime(executor=ProcessExecutor(workers=2), cache=None) as runtime:
            assert runtime.stats()["executor_fallbacks"] == 0
            runtime.measure(program, configs, [1.0, 2.0, 3.0])
            stats = runtime.stats()
            assert stats["executor_fallbacks"] == 1
            assert "not picklable" in stats["executor_fallback"]
            # Every batch that runs serially is counted, not just the first.
            runtime.measure(program, configs, [4.0])
            assert runtime.stats()["executor_fallbacks"] == 2

    def test_input_source_materializes_each_input_once(self, sort_setup):
        """A lazy source costs N materializations, not N x K, even when a
        chunk boundary splits an input's K configurations."""
        program, configs, _ = sort_setup
        variant = get_benchmark("sort2")
        source = variant.benchmark.input_generators()["synthetic"].source(6, seed=0)
        expected = serial_matrices(program, configs, list(source))
        materializations = []
        observed = ObservedInputSource(source, materializations.append)
        with Runtime(
            executor=ProcessExecutor(workers=2), cache=None, batch_chunk=5
        ) as runtime:
            assert_identical(runtime.measure(program, configs, observed), expected)
        assert len(materializations) == len(source)


class TestSharedRuntime:
    def test_second_experiment_reuses_measurements(self):
        runtime = Runtime(cache=RunCache())
        config = tiny_config("serial")
        run_experiment("sort1", config, runtime=runtime)
        executed_before = runtime.telemetry.runs_executed
        run_experiment("sort1", config, runtime=runtime)
        # The repeat run is answered entirely from the shared cache.
        assert runtime.telemetry.runs_executed == executed_before
        runtime.close()


class TestLiveOraclesAgreeWithMatrix:
    def test_dynamic_oracle_live_equals_matrix(self, serial_result):
        training = serial_result.training
        dataset = training.dataset
        rows = training.level2.test_rows
        runtime = Runtime(cache=RunCache())
        oracle = DynamicOracle()
        live = oracle.evaluate_live(
            training.deployed.program, dataset, rows, runtime=runtime
        )
        matrix = oracle.evaluate(dataset, rows)
        np.testing.assert_array_equal(live.times, matrix.times)
        np.testing.assert_array_equal(live.labels, matrix.labels)
        assert runtime.telemetry.runs_executed > 0

    def test_one_level_live_equals_matrix(self, serial_result):
        training = serial_result.training
        dataset = training.dataset
        rows = training.level2.test_rows
        baseline = OneLevelLearning(training.level1)
        live = baseline.evaluate_live(
            training.deployed.program, dataset, rows, runtime=Runtime(cache=RunCache())
        )
        matrix = baseline.evaluate(dataset, rows)
        np.testing.assert_array_equal(live.times, matrix.times)
        np.testing.assert_array_equal(live.accuracies, matrix.accuracies)

    def test_live_evaluation_requires_inputs(self, serial_result):
        dataset = serial_result.training.dataset
        stripped = dataset.restrict_landmarks(list(range(dataset.n_landmarks)))
        stripped.inputs = None
        with pytest.raises(ValueError):
            DynamicOracle().evaluate_live(
                serial_result.training.deployed.program, stripped, [0]
            )


class TestDeploymentDeterminism:
    def test_deployed_run_identical_across_executors(self, serial_result):
        deployed = serial_result.training.deployed
        rng = random.Random(5)
        probe = [float(rng.randint(0, 100)) for _ in range(40)]
        probe_input = np.array(probe)
        baseline = deployed.run(probe_input)
        for executor in ("thread", "process"):
            runtime = Runtime.create(executor=executor, workers=2)
            deployed.runtime = runtime
            try:
                outcome = deployed.run(probe_input)
                assert outcome.result.time == baseline.result.time
                assert outcome.total_time == baseline.total_time
                np.testing.assert_array_equal(
                    outcome.result.output, baseline.result.output
                )
            finally:
                deployed.runtime = None
                runtime.close()
