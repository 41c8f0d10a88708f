"""Compare two result sets of ``run.py --out`` (base first, then change).

Usage (from the repository root)::

    python3 perfbench/compare.py base.jsonl change.jsonl

For every workload and end-to-end metric it prints each side's median and
quartiles, the pairs the change won (runs paired by seed, ties counting
for neither side), and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``beyond bound`` -- the change's median is worse by more than the bound;
* ``improved`` -- the change won at least nine tenths of the pairs and the
  medians differ by more than the base's own spread (quartile distance);
* ``within bound`` -- neither of the above;
* ``unresolved`` -- the base's spread is wider than the bound and the two
  sides' runs overlap, so the data cannot tell.

Records made on different core counts or library versions are flagged, and
the median machine-speed probe (``loop_ms``) of each side is shown.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> List[Dict[str, Any]]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: Dict[int, float], change: Dict[int, float], better: str, bound: float) -> Dict[str, Any]:
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    c_q1, c_med, c_q3 = quartiles(list(change.values()))
    worse = sign * (c_med - b_med) / b_med if b_med else 0.0
    spread = (b_q3 - b_q1) / b_med if b_med else 0.0
    seeds = sorted(set(base) & set(change))
    wins = sum(1 for seed in seeds if sign * (change[seed] - base[seed]) < 0)
    losses = sum(1 for seed in seeds if sign * (change[seed] - base[seed]) > 0)
    separated = (max(change.values()) < min(base.values())
                 or min(change.values()) > max(base.values()))
    if spread > bound and not separated:
        label = "unresolved"
    elif worse > bound:
        label = "beyond bound"
    elif seeds and wins >= 0.9 * len(seeds) and -worse > spread:
        label = "improved"
    else:
        label = "within bound"
    return {
        "base": [b_q1, b_med, b_q3], "change": [c_q1, c_med, c_q3],
        "worse_share": worse, "base_spread": spread, "bound": bound,
        "pairs": len(seeds), "wins": wins, "losses": losses, "verdict": label,
    }


def compare(base_rows: List[Dict[str, Any]], change_rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    report: Dict[str, Any] = {"environments": {}, "rows": []}
    for label, rows in (("base", base_rows), ("change", change_rows)):
        report["environments"][label] = sorted({
            json.dumps({k: v for k, v in row["env"].items() if k != "loop_ms"}, sort_keys=True)
            for row in rows})
        report.setdefault("loop_ms", {})[label] = statistics.median(
            row["env"].get("loop_ms", 0.0) for row in rows)
    base_envs = [json.loads(e) for e in report["environments"]["base"]]
    change_envs = [json.loads(e) for e in report["environments"]["change"]]
    keys = ("nproc", "python", "numpy", "scipy")
    report["comparable"] = all(
        b[key] == c[key] for b in base_envs for c in change_envs for key in keys)
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        for entry in benchmark["end_to_end"]:
            def values(rows: List[Dict[str, Any]]) -> Dict[int, float]:
                return {row["seed"]: row["metrics"][entry["name"]]["value"]
                        for row in rows if row["workload"] == workload and not row["trace"]
                        and entry["name"] in row["metrics"]}

            base, change = values(base_rows), values(change_rows)
            if not base or not change:
                continue
            report["rows"].append({
                "workload": workload, "metric": entry["name"], "unit": entry["unit"],
                **verdict(base, change, entry["better"], entry["bound"]),
            })
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()
    report = compare(load(args.base), load(args.change))
    for label, envs in report["environments"].items():
        for env in envs:
            print(f"{label:6s} {env}")
    print(f"machine loop (ms, median): base {report['loop_ms']['base']:.2f} "
          f"change {report['loop_ms']['change']:.2f}")
    if not report["comparable"]:
        print("warning: the two sets ran on different core counts or library versions")
    print(f"{'workload':18s} {'metric':12s} {'base median [q1,q3]':>30s} "
          f"{'change median [q1,q3]':>30s} {'worse':>7s} {'wins':>7s}  verdict")
    for row in report["rows"]:
        b, c = row["base"], row["change"]
        print(f"{row['workload']:18s} {row['metric']:12s} "
              f"{b[1]:11.4g} [{b[0]:.4g},{b[2]:.4g}]".ljust(62)
              + f"{c[1]:11.4g} [{c[0]:.4g},{c[2]:.4g}]".rjust(30)
              + f" {row['worse_share']:+7.1%} {row['wins']:3d}/{row['pairs']:<3d}  {row['verdict']}")
    return 1 if any(row["verdict"] == "beyond bound" for row in report["rows"]) else 0


if __name__ == "__main__":
    sys.exit(main())
