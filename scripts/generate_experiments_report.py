"""Print a markdown report of the paper's measured tables and figures.

Runs every Table-1 test once at a moderate scale, derives the Figure-6 and
Figure-8 series from the same trained systems, evaluates the Figure-7 model
curves, and runs the in-text ablations, then prints a markdown report to
stdout::

    python scripts/generate_experiments_report.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.experiments.ablations import landmark_selection_ablation, relabel_shift
from repro.experiments.figure6 import distribution_from_result
from repro.experiments.figure7 import model_figure7b
from repro.experiments.figure8 import landmark_sweep
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.table1 import TABLE1_TESTS, format_table1, row_from_result, summarize_headline


def main() -> None:
    config = ExperimentConfig(
        n_inputs=240,
        n_clusters=12,
        tuner_generations=8,
        tuner_population=10,
        tuning_neighbors=4,
        max_subsets=128,
        seed=0,
    )
    start = time.time()
    results = {}
    rows = {}
    for test_name in TABLE1_TESTS:
        t0 = time.time()
        result = run_experiment(test_name, config=config)
        results[test_name] = result
        rows[test_name] = row_from_result(result)
        print(f"<!-- {test_name} finished in {time.time() - t0:.0f}s -->", file=sys.stderr)

    print("## Table 1 (measured)\n")
    print("```")
    print(format_table1(rows))
    print("```\n")
    headline = summarize_headline(rows)
    print(f"- best two-level speedup over the static oracle: **{headline['max_two_level_speedup']:.2f}x**")
    print(f"- worst one-level slowdown (with feature extraction): **{headline['max_one_level_slowdown']:.2f}x**")
    print(f"- largest two-level vs one-level ratio: **{headline['max_two_over_one_level']:.2f}x**")
    print(f"- two-level accuracy satisfaction per test: "
          + ", ".join(f"{name} {row.two_level_accuracy:.0%}" for name, row in rows.items()))
    print()

    print("## Figure 6 (per-input speedup distributions, measured)\n")
    print("| test | mean | median | p90 | max | share > 2x |")
    print("|---|---|---|---|---|---|")
    for test_name, result in results.items():
        panel = distribution_from_result(result)
        q50, q90 = np.quantile(panel.speedups, [0.5, 0.9])
        print(
            f"| {test_name} | {panel.mean:.2f}x | {q50:.2f}x | {q90:.2f}x | "
            f"{panel.maximum:.2f}x | {panel.tail_fraction(2.0):.1%} |"
        )
    print()

    print("## Figure 7b (model: fraction of full speedup vs landmarks)\n")
    curve = model_figure7b(range(10, 101, 10))
    print("| landmarks | " + " | ".join(str(int(k)) for k in curve.x) + " |")
    print("|---|" + "---|" * len(curve.x))
    print("| fraction | " + " | ".join(f"{v:.3f}" for v in curve.y) + " |")
    print()

    print("## Figure 8 (measured speedup vs number of landmarks, restricted dynamic oracle)\n")
    print("| test | " + " | ".join(["k=1", "k=2", "k=half", "k=all"]) + " |")
    print("|---|---|---|---|---|")
    for test_name, result in results.items():
        total = result.training.dataset.n_landmarks
        counts = sorted({1, 2, max(3, total // 2), total})
        points = landmark_sweep(result, landmark_counts=counts, n_subsets=25, seed=0)
        medians = {p.n_landmarks: p.median for p in points}
        ordered = [medians[c] for c in counts]
        while len(ordered) < 4:
            ordered.append(ordered[-1])
        print(f"| {test_name} | " + " | ".join(f"{m:.2f}x" for m in ordered[:4]) + " |")
    print()

    print("## In-text ablations (measured on sort2)\n")
    ablation = landmark_selection_ablation(results["sort2"], n_landmarks=5, seed=0)
    print(f"- k-means landmark selection (5 landmarks): **{ablation.kmeans_speedup:.2f}x** dynamic-oracle speedup")
    print(f"- uniformly random landmark selection (5 landmarks): **{ablation.random_speedup:.2f}x** "
          f"({ablation.degradation:.0%} degradation)")
    shifts = {name: relabel_shift(result) for name, result in results.items()}
    print("- fraction of inputs whose Level-2 label differs from their Level-1 cluster's landmark: "
          + ", ".join(f"{name} {shift:.0%}" for name, shift in shifts.items() if shift is not None))
    print()
    print(f"<!-- total generation time: {time.time() - start:.0f}s -->")


if __name__ == "__main__":
    main()
