"""Helpers shared by the workloads: paths, statistics, resources, output."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src/``; fail if it is absent."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"perfbench: no source tree at {SOURCE}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))


def load_spec() -> Dict[str, Any]:
    """Workload configs from ``spec.json``, references from ``references.json``."""
    spec = json.loads((HERE / "spec.json").read_text())
    references = HERE / "references.json"
    spec["references"] = json.loads(references.read_text()) if references.is_file() else {}
    return spec


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's and its largest reaped child's max RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU of a live process, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def timed_child(code: str) -> float:
    """Seconds a fresh interpreter takes to import the benchmark and run ``code``."""
    prelude = f"import sys; sys.path[:0] = [{str(SOURCE)!r}, {str(HERE)!r}]; "
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", prelude + code], check=True, cwd=ROOT)
    return time.perf_counter() - start


def matrix_digest(times: Any, accuracies: Any) -> str:
    """sha256 over the N x K time and accuracy matrices (float64 bytes)."""
    import numpy as np

    digest = hashlib.sha256()
    for matrix in (times, accuracies):
        array = np.ascontiguousarray(matrix, dtype=np.float64)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def loop_ms() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed at run time."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1000.0


def environment() -> Dict[str, Any]:
    """Commit, core count, library versions and machine speed, kept with every result."""
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loop_ms": loop_ms(),
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def emit(
    workload: str,
    seed: int,
    trace: bool,
    metrics: Dict[str, Dict[str, Any]],
    attempted: int,
    failed: int,
    detail: Dict[str, Any],
    out: str = "",
) -> Dict[str, Any]:
    """Print the metrics by name, then the one-line JSON result (last line)."""
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "env": environment(), "detail": detail, **result,
    }
    for name, entry in metrics.items():
        print(f"{workload:18s} {name:34s} {entry['value']:14.6g} {entry['unit']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    if out:
        with open(out, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True), flush=True)
    return record
