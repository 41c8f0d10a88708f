"""Benchmark: the Helmholtz/Poisson solver kernels.

``BENCH_solvers.json`` is the committed record of the solver-kernel work:
one factorization per Helmholtz input, ghost-cell Jacobi/SOR sweeps and
strided multigrid transfers.  It holds min-of-3 ``run_experiment`` walls
of helmholtz3d, poisson2d and binpacking on population 0 of the
``train-solvers`` workload config, from the pre-change tree
(``baseline_commit``) and from this tree; the workload's ``op_p50_ms``
at both; and the matrix digests both trees produce.  The profile behind
the work is ``benchmarks/PROFILE_solvers.md``.

This file keeps that record honest on every run, at any
``REPRO_BENCH_SCALE`` (the config is the workload's, not the scale's):

* the committed ``train-solvers`` cycle must show ``op_p50_ms`` at least
  35% below the baseline;
* each experiment re-run here must reproduce the committed matrix digest
  and speedups bit for bit -- a kernel that is faster but answers
  differently fails;
* each wall must stay within ``_TOLERANCE``x of the committed wall --
  generous enough for CI machine variation.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time

import numpy as np
import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment

_RECORD = os.path.join(os.path.dirname(__file__), "BENCH_solvers.json")

#: Allowed slowdown vs. the committed wall before the gate trips.
_TOLERANCE = 3.0


def _record():
    with open(_RECORD, "r", encoding="utf-8") as handle:
        return json.load(handle)


def matrix_digest(times, accuracies) -> str:
    """sha256 over the N x K time and accuracy matrices (shape + float64 bytes)."""
    digest = hashlib.sha256()
    for matrix in (times, accuracies):
        array = np.ascontiguousarray(matrix, dtype=np.float64)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def test_committed_cycle_meets_bar():
    """The recorded ``train-solvers`` cycle shows the claimed >= 35% cut."""
    cycle = _record()["cycle"]
    before = statistics.median(cycle["baseline_op_p50_ms"])
    after = statistics.median(cycle["op_p50_ms"])
    assert 1.0 - after / before >= 0.35, f"recorded cycle only cuts {1 - after / before:.1%}"


@pytest.mark.parametrize("test_name", _record()["tests"])
def test_solver_experiment_wall_and_digest(benchmark, test_name):
    """End-to-end wall within tolerance; measurements pinned to the record."""
    record = _record()
    config = ExperimentConfig(
        **{**record["config"], **record["overrides"].get(test_name, {})}
    )
    start = time.perf_counter()
    result = benchmark.pedantic(
        run_experiment, args=(test_name, config), rounds=1, iterations=1
    )
    wall = time.perf_counter() - start

    committed = record["walls"][test_name]["min_seconds"]
    print(f"\n[solvers:{test_name}] wall={wall:.3f}s committed-min={committed}s")
    dataset = result.training.dataset
    expected = record["digests"][test_name]
    assert matrix_digest(dataset.times, dataset.accuracies) == expected["matrix_digest"]
    assert result.mean_speedup("two_level") == expected["two_level_speedup"]
    assert result.mean_speedup("one_level") == expected["one_level_speedup"]
    assert wall <= committed * _TOLERANCE, (
        f"{test_name} wall {wall:.3f}s exceeds {_TOLERANCE}x the committed "
        f"{committed}s -- solver kernels regressed"
    )
