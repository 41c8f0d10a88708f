"""The repository benchmark: one command, three workloads, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-solvers --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --out results.jsonl

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps every
layer's entry points in spans and reports the per-layer metrics instead.
The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  Any failed or mismatching operation makes the exit code 1;
a checkout without ``src/repro`` exits 2 and prints no result.  Workload
configs and the layer map live in ``perfbench/spec.json``, the training
references in ``perfbench/references.json``; ``perfbench/compare.py``
compares two ``--out`` result files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, emit, load_spec, metric, use_source_tree  # noqa: E402


def run_workload(name: str, spec: dict, args: argparse.Namespace) -> dict:
    import serve
    import train

    workload = spec["workloads"][name]
    module = serve if workload["kind"] == "serve" else train
    metrics, attempted, failed, detail = module.run(
        name, workload, args.seed, args.seconds, bool(args.trace),
        spec["references"].get(name, {}), inject_mismatch=args.inject_mismatch,
    )
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = benchmark["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        for entry in listed:
            # A layer this workload never calls reads 0 rather than going missing.
            metrics.setdefault(entry["name"], metric(0.0, entry["unit"]))
    ordered = {entry["name"]: metrics[entry["name"]] for entry in listed}
    return emit(name, args.seed, bool(args.trace), ordered, attempted, failed, detail, args.out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="", help="append each result record (JSON line) here")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one expected result to prove the gate trips")
    args = parser.parse_args()
    try:
        use_source_tree()
    except FileNotFoundError as error:
        print(error, file=sys.stderr)
        return 2
    spec = load_spec()
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in spec["workloads"]]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {list(spec['workloads'])} or all")
    records = [run_workload(name, spec, args) for name in names]
    if len(records) > 1:
        combined = {
            f"{record['workload']}.{key}": value
            for record in records for key, value in record["metrics"].items()
        }
        print(json.dumps({
            "correct": all(record["correct"] for record in records),
            "attempted": sum(record["attempted"] for record in records),
            "failed": sum(record["failed"] for record in records),
            "metrics": combined,
        }, sort_keys=True), flush=True)
    return 0 if all(record["failed"] == 0 for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
