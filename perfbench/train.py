"""The training workloads: ``run_experiment`` passes over a test list.

A pass trains and evaluates every test once on one input population,
each test with a fresh runtime: the default, so every pass pays its own
pool start-up as a user does.  The workload's operation is a cycle: one
pass over each population of a fixed catalog (0 .. populations - 1),
which every run trains; the workload seed sets the order of the catalog.
One population's training cost differs from another's by tens of percent
with the tuned landmarks it happens to get, so drawing the populations
from the seed would make runs differ in the work they time rather than
in the speed of the code, and timing whole cycles keeps every population
weighing the same.  A run trains whole cycles while the next one still
fits in its time.
"""

from __future__ import annotations

import contextlib
import json
import time
from statistics import geometric_mean, mean, median
from typing import Any, Dict, List, Optional, Tuple

from common import (
    OUT,
    cpu_seconds,
    matrix_digest,
    metric,
    peak_rss_mb,
    timed_child,
)
from spans import SpanRecorder, calibrate, install, percentile_ms, self_times, summarize

#: A tiny experiment per test: lazy imports and first calls happen in it,
#: so they land in set-up rather than in the first timed pass.
WARM_UP = {"n_inputs": 6, "n_clusters": 1, "tuner_generations": 1, "tuner_population": 2,
           "tuning_neighbors": 1, "max_subsets": 2, "executor": "serial", "workers": None}


def warm_up(tests: List[str]) -> None:
    from repro.experiments.runner import ExperimentConfig, run_experiment

    for test in tests:
        run_experiment(test, ExperimentConfig(**WARM_UP))


def outcome_of(result: Any) -> Dict[str, Any]:
    """The bit-exact reference fields of one experiment result."""
    dataset = result.training.dataset
    return {
        "digest": matrix_digest(dataset.times, dataset.accuracies),
        "two_level": result.mean_speedup("two_level"),
        "one_level": result.mean_speedup("one_level"),
    }


def configs_for(spec: Dict[str, Any], population: int, **changes: Any) -> Dict[str, Any]:
    """The ``ExperimentConfig`` of each test: workload config, then per-test overrides."""
    from repro.experiments.runner import ExperimentConfig

    overrides = spec.get("overrides", {})
    return {
        test: ExperimentConfig(
            seed=population, **{**spec["config"], **overrides.get(test, {}), **changes})
        for test in spec["tests"]
    }


def run_pass(configs: Dict[str, Any], recorder: Optional[SpanRecorder]) -> Dict[str, Any]:
    """Train every test on one population; returns wall, CPU, per-test times, outcomes."""
    from repro.experiments import runner

    def span(name: str):
        return recorder.span(name) if recorder is not None else contextlib.nullcontext()

    record: Dict[str, Any] = {"ops": {}, "outcomes": {}, "errors": {}, "stats": {}, "satisfaction": {}}
    cpu_start = cpu_seconds()
    start = time.perf_counter()
    with span("pass") as root:
        for test, config in configs.items():
            op_start = time.perf_counter()
            try:
                with span("experiments.run_experiment"):
                    result = runner.run_experiment(test, config)
            except Exception as error:  # noqa: BLE001 - a failed test is counted, not fatal
                record["errors"][test] = f"{type(error).__name__}: {error}"
                continue
            record["ops"][test] = time.perf_counter() - op_start
            record["outcomes"][test] = outcome_of(result)
            record["stats"][test] = result.runtime_stats
            record["satisfaction"][test] = result.satisfaction("two_level")
    record["wall"] = time.perf_counter() - start
    record["cpu"] = cpu_seconds() - cpu_start
    if recorder is not None:
        # The pass wall is the root span's own duration.
        _sid, _name, begin, end, _parent, _rid = next(s for s in recorder.spans if s[0] == root)
        record["wall"] = end - begin
    return record


def check(
    passes: List[Dict[str, Any]], tests: List[str], references: Dict[str, Any]
) -> Tuple[int, int, List[str]]:
    """(attempted, failed, messages) over every test of every pass.

    A population with recorded references must match them bit for bit; a
    population trained twice in one run must reproduce its first pass.
    """
    attempted = failed = 0
    messages: List[str] = []
    first: Dict[int, Dict[str, Any]] = {}
    for number, record in enumerate(passes):
        population = record["population"]
        expected = references.get(str(population)) or first.get(population, {})
        for test in tests:
            attempted += 1
            if test in record["errors"]:
                failed += 1
                messages.append(f"pass {number} {test}: {record['errors'][test]}")
            elif test in expected and record["outcomes"][test] != expected[test]:
                failed += 1
                messages.append(f"pass {number} {test}: {record['outcomes'][test]} != {expected[test]}")
        first.setdefault(population, record["outcomes"])
    return attempted, failed, messages


def per_cycle(passes: List[Dict[str, Any]], count: int, key: str) -> List[float]:
    """The sum of ``record[key]`` over each cycle of ``count`` passes."""
    return [sum(record[key] for record in passes[start:start + count])
            for start in range(0, len(passes), count)]


def runtime_counts(snapshots: List[Dict[str, Any]]) -> Dict[str, float]:
    """Runtime counters summed over ``Runtime.stats()`` snapshots."""
    totals = {"runs_requested": 0, "runs_executed": 0, "cache_hits": 0,
              "tasks_executed": 0, "task_cache_hits": 0}
    for snapshot in snapshots:
        counters = snapshot["telemetry"]["counters"]
        for name in ("runs_requested", "runs_executed", "cache_hits", "tasks_executed"):
            totals[name] += counters.get(name, 0)
        totals["task_cache_hits"] += snapshot.get("task_cache", {}).get("hits", 0)
    return totals


def layer_metrics(
    recorder: SpanRecorder, passes: List[Dict[str, Any]], traced_wall: float
) -> Dict[str, Dict[str, Any]]:
    """Per-layer figures of the traced passes, per pass where additive."""
    table = summarize(recorder.spans)
    n = len(passes)
    snapshots = [stats for record in passes for stats in record["stats"].values()]
    counts = {key: value / n for key, value in runtime_counts(snapshots).items()}
    requested = counts["runs_requested"]
    return {
        "benchmarks_suite.run_s": metric(table["benchmarks_suite.run"]["self"] / n, "s"),
        "benchmarks_suite.runs": metric(table["benchmarks_suite.run"]["count"] / n, "count"),
        "autotuner.tune_s": metric(table["autotuner.tune"]["total"] / n, "s"),
        "autotuner.evaluations": metric(recorder.counts.get("autotuner.evaluations", 0) / n, "count"),
        "runtime.measure_s": metric(table["runtime.measure"]["self"] / n, "s"),
        "runtime.run_pairs_s": metric(table["runtime.run_pairs"]["self"] / n, "s"),
        "runtime.run_tasks_s": metric(table["runtime.run_tasks"]["self"] / n, "s"),
        "runtime.runs_requested": metric(requested, "count"),
        "runtime.runs_executed": metric(counts["runs_executed"], "count"),
        "runtime.cache_hit_ratio": metric(counts["cache_hits"] / requested if requested else 0.0, "ratio"),
        "runtime.tasks_executed": metric(counts["tasks_executed"], "count"),
        "runtime.task_cache_hits": metric(counts["task_cache_hits"], "count"),
        "runtime.run_info_p50_ms": metric(percentile_ms(table, "runtime.run_info", 50), "ms"),
        "runtime.run_info_p99_ms": metric(percentile_ms(table, "runtime.run_info", 99), "ms"),
        "lang.extract_batch_s": metric(table["lang.extract_batch"]["total"] / n, "s"),
        "lang.extract_p50_ms": metric(percentile_ms(table, "lang.extract", 50), "ms"),
        "core.inputs.materialize_s": metric(table["core.inputs.materialize"]["total"] / n, "s"),
        "core.inputs.materializations": metric(table["core.inputs.materialize"]["count"] / n, "count"),
        "core.level1.cluster_s": metric(table["core.level1.cluster"]["total"] / n, "s"),
        "core.level2.train_s": metric(table["core.level2.train"]["total"] / n, "s"),
        "core.select_p50_ms": metric(percentile_ms(table, "core.select", 50), "ms"),
        "core.select_p99_ms": metric(percentile_ms(table, "core.select", 99), "ms"),
        "experiments.evaluate_s": metric(table["experiments.evaluate"]["total"] / n, "s"),
        "trace.overhead_ratio": metric(len(recorder.spans) * calibrate() / traced_wall, "ratio"),
        "trace.spans": metric(len(recorder.spans) / n, "count"),
    }


def quality_metrics(record: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    outcomes = record["outcomes"].values()
    return {
        "quality.two_level_speedup": metric(geometric_mean([o["two_level"] for o in outcomes]), "x"),
        "quality.one_level_speedup": metric(geometric_mean([o["one_level"] for o in outcomes]), "x"),
        "quality.satisfaction_min": metric(min(record["satisfaction"].values()), "ratio"),
    }


def run(name: str, spec: Dict[str, Any], seed: int, seconds: float, trace: bool,
        references: Dict[str, Any], inject_mismatch: bool = False):
    """Run one training workload; returns (metrics, attempted, failed, detail)."""
    tests = spec["tests"]
    setups = [timed_child(f"import train; train.warm_up({tests!r})")
              for _ in range(spec["setup_repeats"])]
    warm_up(tests)

    from repro.experiments.runner import run_experiment

    count = spec["populations"]
    populations = [(seed + j) % count for j in range(count)]
    recorder = SpanRecorder() if trace else None
    uninstall = install(recorder) if recorder is not None else None
    passes: List[Dict[str, Any]] = []
    start = time.perf_counter()
    try:
        while True:
            for population in populations:
                record = run_pass(configs_for(spec, population), recorder)
                record["population"] = population
                passes.append(record)
            elapsed = time.perf_counter() - start
            cycles = len(passes) // count
            if elapsed + elapsed / cycles > seconds:
                break
    finally:
        if uninstall is not None:
            uninstall()

    # Untimed: one test of the first population again on the serial
    # executor, the repository's reference, which must agree bit for bit.
    check_test = spec["check_test"]
    serial = configs_for(spec, populations[0], executor="serial", workers=None)
    recheck = outcome_of(run_experiment(check_test, serial[check_test]))
    if inject_mismatch:
        passes[0]["outcomes"][check_test] = {**recheck, "digest": "0" * 64}
    attempted, failed, messages = check(passes, tests, references)
    observed = passes[0]["outcomes"].get(check_test)
    attempted += 1
    if observed != recheck:
        failed += 1
        messages.append(f"{check_test}: {observed} != serial re-run {recheck}")

    walls = [record["wall"] for record in passes]
    detail: Dict[str, Any] = {
        "populations": populations, "passes": len(passes), "walls": walls,
        "setups": setups,
        "tests": [record["ops"] for record in passes], "mismatches": messages,
        "referenced": [p for p in populations if str(p) in references],
    }
    if recorder is None:
        metrics = {
            "setup_s": metric(median(setups), "s"),
            "op_p50_ms": metric(median(per_cycle(passes, count, "wall")) * 1000.0, "ms"),
            "cpu_ms_per_op": metric(mean(per_cycle(passes, count, "cpu")) * 1000.0, "ms"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        }
        return metrics, attempted, failed, detail

    metrics = layer_metrics(recorder, passes, sum(walls))
    if not messages:
        metrics.update(quality_metrics(passes[0]))
    own = self_times(recorder.spans)
    roots = [s for s in recorder.spans if s[1] == "pass"]
    detail["tree_residual_s"] = max(
        abs(sum(own[s[0]] for s in recorder.spans if s[2] >= r[2] and s[3] <= r[3]) - (r[3] - r[2]))
        for r in roots
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{name}-{seed}.json").write_text(json.dumps(recorder.to_json()))
    return metrics, attempted, failed, detail
