"""Golden regression test: one small row per Table-1 test pinned to a snapshot.

The full pipeline (input generation, autotuning, Level 1, the parallel
Level-2 search, method evaluation) is deterministic given the seed, so each
of the eight tests' small-row numbers are checked into
``snapshots/<test>_small.json`` and every run must reproduce them: the
speedups, the production classifier and a sha256 over the Level-1
time/accuracy matrices.  This is the whole-system complement of the
unit-level determinism tests: any unintended behaviour change anywhere in
the pipeline moves at least one pinned number.

The suite always runs on the ``serial`` and ``thread`` executors; setting
``REPRO_EXECUTOR`` (as CI does for ``process`` and ``distributed``) adds
that executor to the parametrization.

Regenerate the snapshots after an *intended* behaviour change with::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/experiments/test_golden_snapshot.py
"""

import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment

SNAPSHOT_DIR = pathlib.Path(__file__).parent / "snapshots"

#: The paper's eight Table-1 tests.
TESTS = (
    "sort1",
    "sort2",
    "clustering1",
    "clustering2",
    "binpacking",
    "svd",
    "poisson2d",
    "helmholtz3d",
)

#: Per-test config overrides keeping every row around a second or less.
OVERRIDES = {"helmholtz3d": {"n_inputs": 12}}

#: Executors every tier-1 run covers; ``REPRO_EXECUTOR`` adds one more.
EXECUTORS = tuple(
    dict.fromkeys(("serial", "thread", os.environ.get("REPRO_EXECUTOR", "serial")))
)

#: Methods whose numbers are pinned.
METHODS = ("static_oracle", "dynamic_oracle", "two_level", "one_level")

#: Pinned floats are rounded to this many digits and compared with a matching
#: tolerance, absorbing harmless last-bit drift across numpy builds while
#: still catching any real behaviour change.
DIGITS = 9


def golden_config(test: str, executor: str) -> ExperimentConfig:
    settings = dict(
        n_inputs=32,
        n_clusters=4,
        tuner_generations=2,
        tuner_population=4,
        tuning_neighbors=2,
        max_subsets=8,
        seed=0,
        executor=executor,
        workers=2,
    )
    settings.update(OVERRIDES.get(test, {}))
    return ExperimentConfig(**settings)


def matrix_digest(times, accuracies) -> str:
    """sha256 over the N x K time and accuracy matrices (shape + float64 bytes)."""
    digest = hashlib.sha256()
    for matrix in (times, accuracies):
        array = np.ascontiguousarray(matrix, dtype=np.float64)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def summarize(result) -> dict:
    training = result.training
    two_level_times = result.methods["two_level"].times
    return {
        "test": result.test_name,
        "n_landmarks": len(training.landmarks),
        "production_classifier": training.production_classifier.name,
        "relabel_shift": round(training.level2.relabel_shift, DIGITS),
        "mean_speedups": {
            method: round(result.mean_speedup(method), DIGITS) for method in METHODS
        },
        "satisfaction": {
            method: round(result.satisfaction(method), DIGITS) for method in METHODS
        },
        "two_level_times": [round(float(t), DIGITS) for t in two_level_times],
        "matrix_digest": matrix_digest(
            training.dataset.times, training.dataset.accuracies
        ),
    }


def load_snapshot(test: str) -> dict:
    path = SNAPSHOT_DIR / f"{test}_small.json"
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        summary = summarize(run_experiment(test, golden_config(test, "serial")))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(summary, indent=2) + "\n")
    if not path.exists():
        pytest.fail(f"missing golden snapshot {path}")
    return json.loads(path.read_text())


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("test", TESTS)
def test_pipeline_output_matches_snapshot(test, executor):
    golden = load_snapshot(test)
    result = run_experiment(test, golden_config(test, executor))
    assert result.runtime_stats["executor"] == executor
    summary = summarize(result)

    assert summary["test"] == golden["test"]
    assert summary["matrix_digest"] == golden["matrix_digest"]
    assert summary["n_landmarks"] == golden["n_landmarks"]
    assert summary["production_classifier"] == golden["production_classifier"]
    assert summary["relabel_shift"] == pytest.approx(
        golden["relabel_shift"], abs=10**-DIGITS
    )
    for method in METHODS:
        assert summary["mean_speedups"][method] == pytest.approx(
            golden["mean_speedups"][method], abs=10**-DIGITS
        ), f"mean speedup drifted for {method}"
        assert summary["satisfaction"][method] == pytest.approx(
            golden["satisfaction"][method], abs=10**-DIGITS
        ), f"satisfaction drifted for {method}"
    assert summary["two_level_times"] == pytest.approx(
        golden["two_level_times"], abs=10**-DIGITS
    )
