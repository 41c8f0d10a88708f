"""The serve-mixed workload: open-loop traffic against a spawned selector server.

Set-up trains the three served models in this process, on a fixed
training population (``train_seed``), so every run serves the same models;
it then spawns the benchmark's server process, publishes the models with
``swap`` frames and waits for the first ``pong``.  The whole set-up is
repeated and the median taken; every repetition must train the same
models, and the last server spawned takes the traffic.  Before the timed
traffic, every hot index of every test is requested once at the nominal
rate, so each run starts timing with the same warm run cache.

Traffic is open loop at a fixed rate: request *i* is due at ``i / rate``
and is sent then, whether or not earlier requests were answered.  The
workload seed draws the request stream -- each request's test, whether it
goes to the hot set or to the next fresh index, and which hot index --
over a fixed catalog of inputs (the population of ``catalog_seed``, apart
from the training one): runs differ in mix and order, not in the cost of
the catalog, whose heavy-tailed execution times would otherwise swing the
latency tail from seed to seed.  One
sender (this thread) and one receiver thread share one pipelined
connection; latency runs from each request's due time.  Phase A holds a
nominal rate in fixed-size windows; phase B is a rate ladder that doubles
until a rung misses the latency limit, is refused, or the generator falls
behind.  After every phase each result frame is checked, untimed, against
a sequential ``DeployedProgram.run`` of the same (test, index).
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
from statistics import geometric_mean, median
from typing import Any, Dict, List, Tuple

from common import (
    HERE,
    OUT,
    ROOT,
    metric,
    peak_rss_mb,
    percentile,
    process_cpu_seconds,
)
from spans import calibrate, percentile_ms, summarize
from train import outcome_of

Row = Dict[str, Any]


class ServerProcess:
    """The spawned ``server_main.py``; stopped by closing its standard input."""

    def __init__(self, trace: bool, spans_path: str) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "server_main.py"), "--trace", str(int(trace)),
             "--spans", spans_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
        )
        line = self.process.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("server process exited before binding")
        address = json.loads(line)
        self.address: Tuple[str, int] = (address["host"], int(address["port"]))

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        try:
            self.process.stdin.close()
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdout.close()


def train_models(tests: List[str], config: Any) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Train each served test; returns (runtime-free deployed programs, results)."""
    from repro.core.pipeline import DeployedProgram
    from repro.experiments.runner import run_experiment

    models, results = {}, {}
    for test in tests:
        result = run_experiment(test, config)
        deployed = result.training.deployed
        models[test] = DeployedProgram(
            program=deployed.program, landmarks=deployed.landmarks,
            classifier=deployed.classifier,
        )
        results[test] = result
    return models, results


def start_server(models: Dict[str, Any], trace: bool, spans_path: str):
    """Spawn, publish every model, ping; returns (server, client, seconds)."""
    from repro.serving import ServingClient

    start = time.perf_counter()
    server = ServerProcess(trace, spans_path)
    try:
        client = ServingClient(*server.address)
        for test, deployed in models.items():
            reply = client.swap(test, deployed)
            if reply.get("type") != "swapped":
                raise RuntimeError(f"publishing {test} failed: {reply}")
        if client.ping().get("type") != "pong":
            raise RuntimeError("server did not answer ping")
    except BaseException:
        server.stop()
        raise
    return server, client, time.perf_counter() - start


class TraceSource:
    """Seeded request mix: test by weight, then a hot index or the next fresh one."""

    def __init__(self, spec: Dict[str, Any], seed: int) -> None:
        self.rng = random.Random(seed)
        self.tests = list(spec["mix"])
        self.weights = [spec["mix"][test] for test in self.tests]
        self.hot_set = spec["hot_set"]
        self.hot_fraction = spec["hot_fraction"]
        self.fresh = {test: self.hot_set for test in self.tests}

    def schedule(self, rate: float, count: int) -> List[Tuple[float, str, int]]:
        """``count`` (due offset, test, index), one every ``1 / rate`` seconds."""
        offset, plan = 0.0, []
        for _ in range(count):
            test = self.rng.choices(self.tests, self.weights)[0]
            if self.rng.random() < self.hot_fraction:
                index = self.rng.randrange(self.hot_set)
            else:
                index = self.fresh[test]
                self.fresh[test] += 1
            plan.append((offset, test, index))
            offset += 1.0 / rate
        return plan


class OpenLoop:
    """One pipelined connection: this thread sends on schedule, one thread reads."""

    def __init__(self, client: Any, seed: int) -> None:
        self.client = client
        self.seed = seed
        self.next_id = 0

    def play(self, plan: List[Tuple[float, str, int]], drain_timeout: float = 60.0) -> List[Row]:
        from repro.serving import protocol

        rows: Dict[int, Row] = {}
        received: Dict[Any, Tuple[float, Dict[str, Any]]] = {}

        def receive() -> None:
            try:
                for _ in range(len(plan)):
                    frame = self.client.recv()
                    received[frame.get("id")] = (time.perf_counter(), frame)
            except (ConnectionError, OSError, ValueError):
                return

        receiver = threading.Thread(target=receive, name="perfbench-receiver")
        receiver.start()
        base = time.perf_counter() + 0.01
        for offset, test, index in plan:
            due = base + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.next_id += 1
            rows[self.next_id] = {"id": self.next_id, "test": test, "index": index,
                                  "due": due, "sent": time.perf_counter()}
            self.client.send(protocol.run_request(
                self.next_id, test, protocol.index_input(index, seed=self.seed)))
        receiver.join(timeout=drain_timeout)
        if receiver.is_alive():
            raise RuntimeError("responses still missing after the drain timeout")
        for rid, row in rows.items():
            if rid in received:
                row["received"], row["frame"] = received[rid]
        return list(rows.values())


def summarize_rows(rows: List[Row]) -> Dict[str, Any]:
    answered = [row for row in rows if "frame" in row]
    latencies = [row["received"] - row["due"] for row in answered
                 if row["frame"].get("type") == "result"]
    return {
        "requests": len(rows),
        "rejected": sum(1 for row in answered if row["frame"].get("code") == 503),
        "errors": sum(1 for row in answered if row["frame"].get("type") == "error"
                      and row["frame"].get("code") != 503),
        "missing": len(rows) - len(answered),
        "latencies": latencies,
        "lateness": [row["sent"] - row["due"] for row in rows],
    }


class Verifier:
    """Checks result frames against sequential ``DeployedProgram.run`` calls."""

    def __init__(self, models: Dict[str, Any], seed: int, inject_mismatch: bool) -> None:
        self.models = models
        self.seed = seed
        self.expected: Dict[Tuple[str, int], Tuple[int, float, float]] = {}
        self.inject_mismatch = inject_mismatch

    def reference(self, test: str, index: int) -> Tuple[int, float, float]:
        key = (test, index)
        if key not in self.expected:
            from repro.benchmarks_suite import get_benchmark

            variant = get_benchmark(test)
            source = variant.benchmark.input_source(index + 1, variant.variant, seed=self.seed)
            outcome = self.models[test].run(source.materialize(index))
            self.expected[key] = (outcome.landmark_index, outcome.result.time,
                                  outcome.result.accuracy)
            if self.inject_mismatch and len(self.expected) == 1:
                self.expected[key] = (outcome.landmark_index, outcome.result.time + 1.0,
                                      outcome.result.accuracy)
        return self.expected[key]

    def mismatches(self, rows: List[Row]) -> List[str]:
        problems = []
        for row in rows:
            frame = row.get("frame")
            if frame is None or frame.get("type") != "result":
                continue
            got = (frame["landmark"], frame["time"], frame["accuracy"])
            want = self.reference(row["test"], row["index"])
            if got != want:
                problems.append(f"{row['test']}[{row['index']}]: served {got} != sequential {want}")
        return problems


def ladder(loop: OpenLoop, source: TraceSource, verifier: Verifier, spec: Dict[str, Any]):
    """Doubling rate ladder; returns (highest passing rate, rung summaries, mismatches)."""
    best, rungs, problems = 0.0, [], []
    rate = spec["ladder_start_rps"]
    while rate <= spec["ladder_max_rps"]:
        rows = loop.play(source.schedule(rate, int(rate * spec["ladder_rung_seconds"])))
        problems += verifier.mismatches(rows)
        summary = summarize_rows(rows)
        lateness = summary["lateness"]
        quarter = max(1, len(lateness) // 4)
        growing = (sum(lateness[-quarter:]) / quarter - sum(lateness[:quarter]) / quarter
                   > spec["lateness_growth_ms"] / 1000.0)
        p99 = percentile(summary["latencies"], 99) * 1000.0 if summary["latencies"] else float("inf")
        ok = (summary["rejected"] == 0 and summary["errors"] == 0 and summary["missing"] == 0
              and p99 <= spec["latency_limit_ms"] and not growing)
        rungs.append({"rps": rate, "requests": summary["requests"], "p99_ms": p99,
                      "rejected": summary["rejected"], "lateness_growing": growing, "ok": ok})
        if not ok:
            break
        best = rate
        rate *= 2
    return best, rungs, problems


def warm_up(loop: OpenLoop, spec: Dict[str, Any]) -> List[Row]:
    """Request every hot (test, index) once, paced at the nominal rate."""
    interval = 1.0 / spec["rate_rps"]
    plan = [(number * interval, test, index)
            for number, (index, test) in enumerate(
                (index, test) for index in range(spec["hot_set"]) for test in spec["mix"])]
    return loop.play(plan)


def counters_of(stats: Dict[str, Any]) -> Dict[str, int]:
    return dict(stats["runtime"]["telemetry"]["counters"])


def run(name: str, spec: Dict[str, Any], seed: int, seconds: float, trace: bool,
        references: Dict[str, Any], inject_mismatch: bool = False):
    """Run the serving workload; returns (metrics, attempted, failed, detail)."""
    from repro.experiments.runner import ExperimentConfig

    train_seed = spec["train_seed"]
    config = ExperimentConfig(seed=train_seed, **spec["config"])
    expected = references.get(str(train_seed), {})
    OUT.mkdir(exist_ok=True)
    spans_path = str(OUT / f"spans-{name}-{seed}.json")
    setups: List[float] = []
    problems: List[str] = []
    server = client = None
    for attempt in range(spec["setup_repeats"]):
        if server is not None:
            client.close()
            server.stop()
        start = time.perf_counter()
        models, results = train_models(list(spec["mix"]), config)
        last = attempt == spec["setup_repeats"] - 1
        server, client, _ = start_server(models, trace and last, spans_path)
        setups.append(time.perf_counter() - start)
        problems += [
            f"trained {test} (set-up {attempt}): {outcome_of(result)} != reference {expected[test]}"
            for test, result in results.items()
            if test in expected and outcome_of(result) != expected[test]
        ]

    verifier = Verifier(models, spec["catalog_seed"], inject_mismatch)
    source = TraceSource(spec, seed)
    loop = OpenLoop(client, spec["catalog_seed"])
    windows: List[Dict[str, Any]] = []
    try:
        warm_rows = warm_up(loop, spec)
        problems += verifier.mismatches(warm_rows)
        warm = summarize_rows(warm_rows)
        before = counters_of(client.stats())
        window_count = max(1, round(seconds * spec["phase_a_share"] / spec["window_seconds"]))
        per_window = int(spec["rate_rps"] * spec["window_seconds"])
        phase_a_rows: List[Row] = []
        for _ in range(window_count):
            plan = source.schedule(spec["rate_rps"], per_window)
            cpu_before = process_cpu_seconds(server.pid)
            rows = loop.play(plan)
            summary = summarize_rows(rows)
            summary["cpu"] = process_cpu_seconds(server.pid) - cpu_before
            windows.append(summary)
            phase_a_rows += rows
        after = counters_of(client.stats())
        problems += verifier.mismatches(phase_a_rows)
        phase_a_span = (phase_a_rows[0]["due"], max(r.get("received", r["sent"]) for r in phase_a_rows))
        max_rps, rungs, ladder_problems = ladder(loop, source, verifier, spec)
        problems += ladder_problems
    finally:
        client.close()
        server.stop()

    latencies = [value for window in windows for value in window["latencies"]]
    unanswered = warm["errors"] + warm["rejected"] + warm["missing"] + sum(
        window["errors"] + window["rejected"] + window["missing"] for window in windows)
    attempted = (len(results) * spec["setup_repeats"] + warm["requests"]
                 + sum(w["requests"] for w in windows) + sum(r["requests"] for r in rungs))
    failed = unanswered + len(problems)
    detail = {
        "setups": setups, "windows": len(windows),
        "samples": len(latencies), "ladder": rungs, "max_rps": max_rps,
        "latency_ms": {str(q): percentile(latencies, q) * 1000.0 for q in (50, 90, 95, 99)},
        "unanswered": unanswered, "mismatches": problems[:20],
        "verified_inputs": len(verifier.expected),
    }
    if not trace:
        metrics = {
            "setup_s": metric(median(setups), "s"),
            # The median of the windows' medians: a window that a burst of
            # the shared host slowed down does not move it.
            "op_p50_ms": metric(
                median(percentile(w["latencies"], 50) for w in windows) * 1000.0, "ms"),
            "cpu_ms_per_op": metric(
                sum(w["cpu"] for w in windows) * 1000.0 / sum(w["requests"] for w in windows), "ms"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        }
        return metrics, attempted, failed, detail

    spans = json.loads(open(spans_path).read())["spans"]
    lo, hi = phase_a_span
    in_phase = [tuple(span) for span in spans if span[2] >= lo and span[3] <= hi]
    table = summarize(in_phase)
    n = len(windows)
    requests = after.get("serve_requests", 0) - before.get("serve_requests", 0)

    def delta(counter: str) -> int:
        return after.get(counter, 0) - before.get(counter, 0)

    server_cpu = sum(window["cpu"] for window in windows)
    lateness = [value for window in windows for value in window["lateness"]]
    runs_requested = delta("runs_requested")
    speedups = [results[test].mean_speedup("two_level") for test in models]
    metrics = {
        "benchmarks_suite.run_s": metric(table["benchmarks_suite.run"]["self"] / n, "s"),
        "benchmarks_suite.runs": metric(table["benchmarks_suite.run"]["count"] / n, "count"),
        "runtime.runs_requested": metric(runs_requested, "count"),
        "runtime.runs_executed": metric(delta("runs_executed"), "count"),
        "runtime.cache_hit_ratio": metric(delta("cache_hits") / runs_requested if runs_requested else 0.0, "ratio"),
        "runtime.run_info_p50_ms": metric(percentile_ms(table, "runtime.run_info", 50), "ms"),
        "runtime.run_info_p99_ms": metric(percentile_ms(table, "runtime.run_info", 99), "ms"),
        "lang.extract_p50_ms": metric(percentile_ms(table, "lang.extract", 50), "ms"),
        "core.inputs.materialize_s": metric(table["core.inputs.materialize"]["total"] / n, "s"),
        "core.inputs.materializations": metric(table["core.inputs.materialize"]["count"] / n, "count"),
        "core.select_p50_ms": metric(percentile_ms(table, "core.select", 50), "ms"),
        "core.select_p99_ms": metric(percentile_ms(table, "core.select", 99), "ms"),
        "serving.protocol_ms_per_req": metric(table["serving.protocol"]["total"] * 1000.0 / max(requests, 1), "ms"),
        "serving.request_p50_ms": metric(percentile_ms(table, "serving.request", 50), "ms"),
        "serving.request_p99_ms": metric(percentile_ms(table, "serving.request", 99), "ms"),
        "serving.requests": metric(requests, "count"),
        "serving.executions": metric(delta("serve_executions"), "count"),
        "serving.coalesced": metric(delta("serve_coalesced"), "count"),
        "serving.cache_hits": metric(delta("serve_cache_hits"), "count"),
        "serving.rejected": metric(delta("serve_rejected"), "count"),
        "serving.errors": metric(delta("serve_errors"), "count"),
        "serving.dedup_ratio": metric(
            (delta("serve_coalesced") + delta("serve_cache_hits")) / max(requests, 1), "ratio"),
        "serving.max_rps": metric(max_rps, "rps"),
        "loadgen.p99_ms": metric(percentile(latencies, 99) * 1000.0, "ms"),
        "loadgen.lag_p99_ms": metric(percentile(lateness, 99) * 1000.0, "ms"),
        "trace.overhead_ratio": metric(len(in_phase) * calibrate() / max(server_cpu, 1e-9), "ratio"),
        "trace.spans": metric(len(in_phase) / n, "count"),
        "quality.two_level_speedup": metric(geometric_mean(speedups), "x"),
        "quality.one_level_speedup": metric(
            geometric_mean([results[test].mean_speedup("one_level") for test in models]), "x"),
        "quality.satisfaction_min": metric(
            min(results[test].satisfaction("two_level") for test in models), "ratio"),
    }
    return metrics, attempted, failed, detail
