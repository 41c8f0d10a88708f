"""Execution strategies for batched program runs.

An executor takes a program and a batch of ``(configuration, input)`` tasks
and returns one :class:`~repro.lang.program.RunResult` per task, in task
order.  Because every run in this reproduction is a pure function of its
task (deterministic cost model, per-run seeded RNGs, per-run cost counters
held in context variables), the three strategies are interchangeable:

* :class:`SerialExecutor` -- the default; runs tasks in a plain loop and is
  the bit-identical reference behaviour.
* :class:`ThreadExecutor` -- a thread pool.  Correct under the thread-local
  cost accounting in :mod:`repro.lang.cost`; mostly useful when run
  functions release the GIL (NumPy-heavy benchmarks) and as a concurrency
  shake-out of the runtime.
* :class:`ProcessExecutor` -- a process pool for genuine parallelism.  The
  program is shipped to workers once per pool (not per task).  If the
  program or a task cannot be pickled, the batch transparently falls back
  to serial execution and the executor records that it did so.
"""

from __future__ import annotations

import concurrent.futures
# The ``process`` submodule is lazily loaded by the package's __getattr__;
# import it eagerly so ``BrokenProcessPool`` is reachable before any pool
# has been built (retryable tuples are evaluated ahead of pool creation).
import concurrent.futures.process
import math
import os
import pickle
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.lang.config import Configuration
from repro.lang.program import PetaBricksProgram, RunResult
from repro.resilience.faults import install_from_env
from repro.resilience.retry import RetryPolicy

#: A single unit of work: run the program with this configuration on this input.
Task = Tuple[Configuration, Any]

#: A generic unit of work: ``(callable, positional args, keyword args)``.
CallTask = Tuple[Any, Tuple[Any, ...], dict]


@dataclass(frozen=True)
class SharedRef:
    """Placeholder for a large argument shipped to workers once per pool.

    A call batch whose tasks all carry the same big object (the Level-2
    dataset, say) would otherwise re-pickle that object once per chunk.
    Instead the caller passes the object in the batch's ``shared`` mapping
    and puts a ``SharedRef(token)`` in each task's arguments; executors
    substitute the real object at invocation time.  The process executor
    installs the mapping in every worker through the pool initializer --
    exactly how ``run_batch`` already ships the program -- so the object
    crosses the process boundary once per pool, not once per chunk.

    Refs are resolved in top-level positional and keyword arguments only;
    a ref nested inside another container is passed through untouched.
    """

    token: str


def _substitute_shared(call: CallTask, shared: Dict[str, Any]) -> CallTask:
    """Replace top-level :class:`SharedRef` arguments with their objects."""
    fn, args, kwargs = call
    if not any(isinstance(a, SharedRef) for a in args) and not any(
        isinstance(v, SharedRef) for v in kwargs.values()
    ):
        return call
    args = tuple(shared[a.token] if isinstance(a, SharedRef) else a for a in args)
    kwargs = {
        k: shared[v.token] if isinstance(v, SharedRef) else v
        for k, v in kwargs.items()
    }
    return (fn, args, kwargs)


def _invoke_call(call: CallTask) -> Any:
    """Execute one generic call task (module-level so process pools can ship it).

    In a pool worker, :class:`SharedRef` arguments resolve against the
    mapping the pool initializer installed; in the parent process the
    executors substitute refs before invoking, so the worker-side lookup
    only ever sees refs when the registry holds them.
    """
    fn, args, kwargs = _substitute_shared(call, _WORKER_SHARED)
    return fn(*args, **kwargs)


def _call_chunksize(n_calls: int, workers: int) -> int:
    """Chunk size for ``pool.map`` over a generic call batch.

    Large batches target four chunks per worker (load balancing); small
    batches (at most ``workers * 4`` calls) target one chunk per worker
    instead of degenerating to chunksize 1, which would re-pickle any
    shared chunk content once per call.

    The small-batch size is ``n_calls // workers`` (floored, min 1), never
    ``ceil``: rounding the chunk *size* up rounds the chunk *count* down,
    and a batch like 5 calls on 4 workers would ship as 3 chunks of 2 --
    stranding a worker idle while another queues two chunks.  Flooring
    guarantees at least ``min(n_calls, workers)`` chunks, so every worker
    gets one chunk before any worker gets a second.
    """
    if n_calls <= 0:
        return 1
    target_chunks = workers * 4
    if n_calls > target_chunks:
        return max(1, math.ceil(n_calls / target_chunks))
    return max(1, n_calls // max(1, workers))


def _default_workers() -> int:
    return max(1, os.cpu_count() or 1)


class BaseExecutor:
    """Interface shared by all execution strategies."""

    #: Short strategy name used in flags and telemetry.
    name: str = "base"

    #: Why the latest serial fallback happened; None while none has.
    fallback_reason: Optional[str] = None

    #: Batches that ran serially in the parent instead of on the workers.
    fallbacks: int = 0

    def _fall_back(self, reason: str, serial: Callable[[], List[Any]]) -> List[Any]:
        """Record a serial fallback, then run the batch in-process."""
        self.fallback_reason = reason
        self.fallbacks += 1
        return serial()

    def run_batch(
        self, program: PetaBricksProgram, tasks: Sequence[Task]
    ) -> List[RunResult]:
        """Execute every task and return results in task order."""
        raise NotImplementedError

    def run_calls(
        self,
        calls: Sequence[CallTask],
        shared: Optional[Dict[str, Any]] = None,
    ) -> List[Any]:
        """Execute a batch of generic ``(fn, args, kwargs)`` calls, in order.

        The generalized-task counterpart of :meth:`run_batch`: the calls
        must be pure functions of their arguments, and results come back in
        submission order whatever the execution strategy.

        ``shared`` maps :class:`SharedRef` tokens to the (large) objects the
        calls reference; see :class:`SharedRef` for the contract.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""

    def __enter__(self) -> "BaseExecutor":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialExecutor(BaseExecutor):
    """Run tasks one after another in the calling thread."""

    name = "serial"

    def run_batch(
        self, program: PetaBricksProgram, tasks: Sequence[Task]
    ) -> List[RunResult]:
        return [program.run(config, program_input) for config, program_input in tasks]

    def run_calls(
        self,
        calls: Sequence[CallTask],
        shared: Optional[Dict[str, Any]] = None,
    ) -> List[Any]:
        if shared:
            calls = [_substitute_shared(call, shared) for call in calls]
        return [_invoke_call(call) for call in calls]


class ThreadExecutor(BaseExecutor):
    """Run tasks on a shared thread pool.

    Args:
        workers: pool size; defaults to the CPU count.
    """

    name = "thread"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers or _default_workers()
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-runtime"
            )
        return self._pool

    def run_batch(
        self, program: PetaBricksProgram, tasks: Sequence[Task]
    ) -> List[RunResult]:
        if len(tasks) <= 1:
            return SerialExecutor().run_batch(program, tasks)
        pool = self._ensure_pool()
        futures = [
            pool.submit(program.run, config, program_input)
            for config, program_input in tasks
        ]
        return [future.result() for future in futures]

    def run_calls(
        self,
        calls: Sequence[CallTask],
        shared: Optional[Dict[str, Any]] = None,
    ) -> List[Any]:
        # Threads share the parent's memory, so refs resolve locally (no
        # registry hand-off) before the calls are submitted.
        if shared:
            calls = [_substitute_shared(call, shared) for call in calls]
        if len(calls) <= 1:
            return SerialExecutor().run_calls(calls)
        pool = self._ensure_pool()
        futures = [pool.submit(_invoke_call, call) for call in calls]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return f"ThreadExecutor(workers={self.workers})"


# -- process-pool plumbing ----------------------------------------------
#
# The worker receives the program and the shared-argument registry once via
# the pool initializer and keeps them in module globals; tasks then only
# carry (configuration, input) or (fn, args-with-refs, kwargs).

_WORKER_PROGRAM: Optional[PetaBricksProgram] = None

#: Shared-argument registry installed by the pool initializer; parent-side
#: executors substitute refs before invoking, so this stays empty there.
_WORKER_SHARED: Dict[str, Any] = {}


def _process_worker_init(
    program: Optional[PetaBricksProgram], shared: Optional[Dict[str, Any]] = None
) -> None:
    global _WORKER_PROGRAM, _WORKER_SHARED
    _WORKER_PROGRAM = program
    _WORKER_SHARED = shared or {}
    # Chaos plans follow the run into pool workers via the environment.
    install_from_env()


def _process_worker_run(task: Task) -> RunResult:
    assert _WORKER_PROGRAM is not None, "worker pool used before initialization"
    config, program_input = task
    return _WORKER_PROGRAM.run(config, program_input)


class ProcessExecutor(BaseExecutor):
    """Run tasks on a process pool, falling back to serial when pickling fails.

    Args:
        workers: pool size; defaults to the CPU count.

    Attributes:
        fallback_reason: set to a short description the latest time a batch
            had to run serially because the program or its tasks could not
            be pickled (or the pool broke twice); None while the pool is
            healthy.  ``fallbacks`` counts those batches.
        retry_policy: the :class:`~repro.resilience.retry.RetryPolicy`
            governing broken-pool resubmission -- one rebuild-and-retry by
            default, matching the historical behaviour.
        retry_counters: ``retry_*`` telemetry incremented by the policy;
            surfaced through ``Runtime.stats()``.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers or _default_workers()
        self.retry_policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        self.retry_counters: Dict[str, int] = {}
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._pool_program: Optional[PetaBricksProgram] = None
        #: Shared-argument registry the live pool's workers were initialized
        #: with.  Holding the real objects (not just ids) keeps them alive,
        #: so identity comparisons against new batches stay meaningful.
        self._pool_shared: Dict[str, Any] = {}

    def _on_pool_break(self, error: BaseException, _attempt: int) -> None:
        """Retry hook: a broken pool is torn down so the resubmission
        closure rebuilds it (re-registering the program/shared-argument
        initializer) -- one dead worker costs a respawn, not every later
        batch."""
        self.fallback_reason = f"process pool broke: {error}"
        self._shutdown_pool()

    def _rebuild_pool(
        self, program: Optional[PetaBricksProgram], shared: Dict[str, Any]
    ) -> concurrent.futures.ProcessPoolExecutor:
        self._shutdown_pool()
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_process_worker_init,
            initargs=(program, shared),
        )
        self._pool_program = program
        self._pool_shared = shared
        return self._pool

    def _pool_for(
        self, program: PetaBricksProgram
    ) -> concurrent.futures.ProcessPoolExecutor:
        """A pool initialized with ``program``; raises if it cannot be shipped."""
        if self._pool is not None and self._pool_program is program:
            return self._pool
        pickle.dumps(program)
        # A program switch means a new experiment; the old shared registry
        # is dead weight, so the new pool starts with an empty one.
        return self._rebuild_pool(program, {})

    def _calls_pool(
        self, shared: Dict[str, Any]
    ) -> concurrent.futures.ProcessPoolExecutor:
        """A pool whose workers hold (at least) the requested shared registry.

        A batch with no shared arguments runs on any live pool -- the
        program initializer only sets worker globals that generic calls
        ignore.  Otherwise the pool is rebuilt, keeping the current program
        so an interleaved ``run_batch`` does not pay a second rebuild.
        """
        if self._pool is not None and (not shared or self._shared_matches(shared)):
            return self._pool
        return self._rebuild_pool(self._pool_program, shared)

    def _shared_matches(self, shared: Dict[str, Any]) -> bool:
        current = self._pool_shared
        return all(
            token in current and current[token] is value
            for token, value in shared.items()
        )

    def _map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        pool: Callable[[], concurrent.futures.ProcessPoolExecutor],
        serial: Callable[[], List[Any]],
    ) -> List[Any]:
        """Map ``fn`` over ``items`` on ``pool()``, falling back to ``serial()``.

        The one dispatch routine behind :meth:`run_batch` and
        :meth:`run_calls`; every batch it cannot ship runs serially and
        bumps :attr:`fallbacks`.
        """
        if not items:
            return []
        # The probe is the primary fallback detector: batches are homogeneous
        # in practice, so an unpicklable program or first item (a closure
        # factory, say) means the batch belongs on the serial path.  Errors
        # raised *by* a task in a worker are then never mistaken for
        # pickling failures -- only a genuine mid-batch PicklingError still
        # falls back below.
        try:
            pickle.dumps(items[0])
            pool()
        except Exception as error:
            return self._fall_back(f"not picklable: {type(error).__name__}", serial)
        # Chunking matters beyond message overhead: a chunk is pickled as one
        # object, so large per-chunk arguments shared by its items cross the
        # process boundary once per chunk instead of once per item, via the
        # pickle memo.  (The program and registry-shared arguments do even
        # better: they ride the pool initializer and cross once per pool.)
        chunksize = _call_chunksize(len(items), self.workers)

        def attempt() -> List[Any]:
            try:
                results = pool().map(fn, items, chunksize=chunksize)
            except (TypeError, AttributeError) as error:
                # Submission is eager and runs no task (under a spawn start
                # method it pickles the initializer's program/registry), so
                # an error here is transport, never a task's own exception.
                detail = f"{type(error).__name__}: {error}"
                raise pickle.PicklingError(detail) from error
            # During result iteration only a genuine PicklingError is
            # transport: a task-raised TypeError must propagate as-is, not
            # trigger a misleading serial re-run.
            return list(results)

        try:
            # A worker death surfaces as BrokenProcessPool; the retry policy
            # tears the pool down (_on_pool_break) and reruns the batch on a
            # fresh one -- runs are pure, so re-execution is sound -- before
            # giving up to the serial path.
            return self.retry_policy.run(
                attempt,
                retryable=(concurrent.futures.process.BrokenProcessPool,),
                before_retry=self._on_pool_break,
                counters=self.retry_counters,
            )
        except pickle.PicklingError as error:
            return self._fall_back(f"batch not picklable: {error}", serial)
        except concurrent.futures.process.BrokenProcessPool as error:
            self._shutdown_pool()
            return self._fall_back(f"process pool broke: {error}", serial)

    def run_calls(
        self,
        calls: Sequence[CallTask],
        shared: Optional[Dict[str, Any]] = None,
    ) -> List[Any]:
        shared = shared or {}
        return self._map(
            _invoke_call,
            calls,
            lambda: self._calls_pool(shared),
            lambda: SerialExecutor().run_calls(calls, shared=shared),
        )

    def run_batch(
        self, program: PetaBricksProgram, tasks: Sequence[Task]
    ) -> List[RunResult]:
        return self._map(
            _process_worker_run,
            tasks,
            lambda: self._pool_for(program),
            lambda: SerialExecutor().run_batch(program, tasks),
        )

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_program = None
            self._pool_shared = {}

    def close(self) -> None:
        self._shutdown_pool()

    def __repr__(self) -> str:
        return f"ProcessExecutor(workers={self.workers})"


def _make_distributed(workers: Optional[int] = None, **options: Any) -> BaseExecutor:
    """Factory for the distributed executor (imported lazily: no cycle)."""
    from repro.runtime.distributed import DistributedExecutor

    return DistributedExecutor(workers=workers, **options)


#: Registered executor strategies, keyed by flag value.
EXECUTORS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
    "distributed": _make_distributed,
}


def get_executor(
    spec: str = "serial", workers: Optional[int] = None, **options: Any
) -> BaseExecutor:
    """Build an executor from a flag value.

    Accepts ``"serial"``, ``"thread"``, ``"process"``, ``"distributed"``,
    optionally suffixed with a worker count as ``"thread:4"`` /
    ``"process:8"`` / ``"distributed:2"`` (an explicit ``workers`` argument
    wins over the suffix).  Extra keyword ``options`` (``socket_timeout``,
    ``join_timeout``, ...) apply to the distributed strategy and are
    ignored by the in-process ones.
    """
    name, _, suffix = spec.partition(":")
    name = name.strip().lower() or "serial"
    if name not in EXECUTORS:
        raise ValueError(
            f"unknown executor {spec!r}; available: {sorted(EXECUTORS)}"
        )
    if workers is None and suffix:
        workers = int(suffix)
    if name == "serial":
        return SerialExecutor()
    if name == "distributed":
        return _make_distributed(
            workers=workers,
            **{k: v for k, v in options.items() if v is not None},
        )
    return EXECUTORS[name](workers=workers)
