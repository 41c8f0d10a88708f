"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The full
paper-scale runs are long; the harness therefore exposes a small/large switch
via the ``REPRO_BENCH_SCALE`` environment variable:

* ``small`` (default) -- minutes for the full suite, preserves the shapes;
* ``large`` -- closer to the defaults of ``scripts/generate_experiments_report.py``.
"""

from __future__ import annotations

import os
import warnings

import pytest

from repro.experiments.runner import ExperimentConfig


def bench_scale() -> str:
    """The requested benchmark scale (``small`` or ``large``).

    An unrecognized ``REPRO_BENCH_SCALE`` still falls back to ``small`` --
    a typo must not silently skip the large run the caller asked for, so
    the coercion warns with the offending value instead of hiding it.
    """
    raw = os.environ.get("REPRO_BENCH_SCALE", "small")
    scale = raw.lower()
    if scale in ("small", "large"):
        return scale
    warnings.warn(
        f"invalid REPRO_BENCH_SCALE={raw!r} (expected 'small' or 'large'); "
        "falling back to 'small'",
        RuntimeWarning,
        stacklevel=2,
    )
    return "small"


def experiment_config(seed: int = 0) -> ExperimentConfig:
    """The experiment configuration for the selected scale."""
    if bench_scale() == "large":
        return ExperimentConfig(
            n_inputs=240,
            n_clusters=12,
            tuner_generations=8,
            tuner_population=10,
            tuning_neighbors=4,
            max_subsets=128,
            seed=seed,
        )
    return ExperimentConfig(
        n_inputs=60,
        n_clusters=6,
        tuner_generations=3,
        tuner_population=6,
        tuning_neighbors=2,
        max_subsets=24,
        seed=seed,
    )


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Session-wide experiment configuration for all benchmark files."""
    return experiment_config()
