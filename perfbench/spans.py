"""In-memory span recorder and the layer wrappers of the traced run.

A span is ``(id, name, start, end, parent, request_id)`` on the
``time.perf_counter`` clock.  The parent link and the request id ride a
:class:`contextvars.ContextVar`, so they follow asyncio tasks; executor
threads get them through :class:`ContextThreadPool`.  Spans stay in memory
and are written out once, when the run ends.

:func:`install` wraps the public entry points of each layer from the
outside -- nothing under ``src/`` changes -- and returns an ``uninstall``
callable that restores the originals.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from common import percentile

Span = Tuple[int, str, float, float, int, Any]


class SpanRecorder:
    """Collects spans and named counts for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(0, None)
        )

    @contextlib.contextmanager
    def span(self, name: str, request_id: Any = None) -> Iterator[int]:
        parent, inherited = self._current.get()
        span_id = next(self._ids)
        rid = inherited if request_id is None else request_id
        token = self._current.set((span_id, rid))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append((span_id, name, start, end, parent, rid))

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self,
        function: Callable,
        name: str,
        request_id: Optional[Callable[..., Any]] = None,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """``function`` recording one span per call (coroutines included)."""
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                rid = request_id(*args, **kwargs) if request_id else None
                with self.span(name, rid):
                    return await function(*args, **kwargs)

            return traced_async

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = function(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def to_json(self) -> Dict[str, Any]:
        return {
            "fields": ["id", "name", "start", "end", "parent", "request_id"],
            "spans": [list(span) for span in self.spans],
            "counts": dict(self.counts),
        }


class ContextThreadPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in the submitter's context.

    ``loop.run_in_executor`` does not carry context variables into the
    pool thread; this pool does, so a request's execution spans keep their
    parent and request id.
    """

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any):  # type: ignore[override]
        context = contextvars.copy_context()
        return super().submit(context.run, fn, *args, **kwargs)


def _targets(recorder: SpanRecorder) -> List[Tuple[Any, str, str, Dict[str, Any]]]:
    """(owner, attribute, span name, wrap options) for every traced layer call."""
    from repro.autotuner.evolution import EvolutionaryAutotuner
    from repro.core import level1, pipeline
    from repro.core.inputs import GeneratedInputSource
    from repro.core.pipeline import DeployedProgram
    from repro.experiments import runner
    from repro.lang.features import FeatureSet
    from repro.lang.program import PetaBricksProgram
    from repro.runtime.runtime import Runtime
    from repro.serving import server

    def count_evaluations(result: Any) -> None:
        recorder.add("autotuner.evaluations", result.evaluations)

    def message_id(_self: Any, message: Dict[str, Any], *_rest: Any) -> Any:
        return message.get("id")

    return [
        (PetaBricksProgram, "run", "benchmarks_suite.run", {}),
        (EvolutionaryAutotuner, "tune", "autotuner.tune", {"on_result": count_evaluations}),
        (Runtime, "measure", "runtime.measure", {}),
        (Runtime, "run_pairs", "runtime.run_pairs", {}),
        (Runtime, "run_tasks", "runtime.run_tasks", {}),
        (Runtime, "run_info", "runtime.run_info", {}),
        (FeatureSet, "extract_batch", "lang.extract_batch", {}),
        (FeatureSet, "extract_subset", "lang.extract", {}),
        (GeneratedInputSource, "materialize", "core.inputs.materialize", {}),
        (level1, "cluster_inputs", "core.level1.cluster", {}),
        (pipeline, "run_level1", "core.level1.run", {}),
        (pipeline, "run_level2", "core.level2.train", {}),
        (runner, "evaluate_methods", "experiments.evaluate", {}),
        (DeployedProgram, "select_configuration", "core.select", {}),
        # The server calls the protocol codec through its own module's names.
        (server, "decode_message", "serving.protocol", {}),
        (server, "encode_message", "serving.protocol", {}),
        # The per-request coroutine is private, but it is the only place a
        # request's span can open with its id before the request fans out.
        (server.SelectorServer, "_handle_run", "serving.request", {"request_id": message_id}),
    ]


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that unwraps them."""
    originals = []
    for owner, attribute, name, options in _targets(recorder):
        original = inspect.getattr_static(owner, attribute)
        originals.append((owner, attribute, original))
        setattr(owner, attribute, recorder.wrap(getattr(owner, attribute), name, **options))

    def uninstall() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return uninstall


def calibrate(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call (for the overhead ratio)."""

    def noop() -> None:
        return None

    recorder = SpanRecorder()
    traced = recorder.wrap(noop, "calibrate")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - start - plain, 0.0) / calls


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, _name, start, end, parent, _rid in spans:
        children.setdefault(parent, []).append((start, end))
    result: Dict[int, float] = {}
    for sid, _name, start, end, _parent, _rid in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(sid, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[sid] = (end - start) - covered
    return result


def summarize(spans: List[Span]) -> Dict[str, Dict[str, Any]]:
    """Per span name: call count, inclusive and self seconds, durations.

    A name no span carries reads as an empty row.
    """
    own = self_times(spans)
    table: Dict[str, Dict[str, Any]] = defaultdict(
        lambda: {"count": 0, "total": 0.0, "self": 0.0, "durations": []})
    for sid, name, start, end, _parent, _rid in spans:
        row = table[name]
        row["count"] += 1
        row["total"] += end - start
        row["self"] += own[sid]
        row["durations"].append(end - start)
    return table


def percentile_ms(table: Dict[str, Dict[str, Any]], name: str, q: float) -> float:
    """The ``q``-th percentile of a span name's durations in ms; 0 without spans."""
    durations = table[name]["durations"]
    return percentile(durations, q) * 1000.0 if durations else 0.0
