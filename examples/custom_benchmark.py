"""Bring your own program: input-aware autotuning of a custom benchmark.

The paper's framework is not tied to the six shipped benchmarks; anything
expressible as a :class:`~repro.lang.program.PetaBricksProgram` -- a
configuration space, a run function charging the cost model, a set of
``input_feature`` extractors, and (optionally) an accuracy contract -- can be
trained the same way.

This example defines a small "search" program from scratch:

* **problem**: find a key in a list, where lists may be sorted or unsorted;
* **algorithmic choice**: linear scan (works on anything) vs. binary search
  preceded by a verification pass (cheap on sorted inputs, wasteful
  otherwise) vs. building a hash index (pays off only when the same list is
  probed many times -- controlled by a ``probes`` tunable);
* **input feature**: a sampled sortedness probe and the list length.

Run with::

    python examples/custom_benchmark.py
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import InputAwareLearning, Level1Config, Level2Config
from repro.lang import (
    CategoricalParameter,
    ConfigurationSpace,
    FeatureExtractor,
    FeatureSet,
    IntegerParameter,
    PetaBricksProgram,
)
from repro.lang.cost import charge


# --- the program under tuning -------------------------------------------------

def run_search(config, problem):
    """Probe the list for ``problem['n_queries']`` keys with the chosen method."""
    data, queries = problem["data"], problem["queries"]
    method = config["method"]
    found = 0
    if method == "linear":
        for key in queries:
            charge(len(data))
            found += int(key in set(data.tolist()))
    elif method == "binary":
        is_sorted = bool(np.all(data[:-1] <= data[1:]))
        charge(len(data))
        ordered = data if is_sorted else np.sort(data)
        if not is_sorted:
            charge(len(data) * math.log2(max(len(data), 2)))
        for key in queries:
            charge(math.log2(max(len(data), 2)))
            position = int(np.searchsorted(ordered, key))
            found += int(position < len(ordered) and ordered[position] == key)
    else:  # hash index
        charge(2.0 * len(data))
        index = set(data.tolist())
        for key in queries:
            charge(1.0)
            found += int(key in index)
    return found


def sortedness(problem, fraction):
    data = problem["data"]
    sample_size = max(2, int(len(data) * fraction))
    sample = data[np.linspace(0, len(data) - 1, sample_size, dtype=int)]
    charge(len(sample))
    return float(np.mean(sample[:-1] <= sample[1:]))


def size_feature(problem, fraction):
    charge(1.0)
    return math.log2(max(len(problem["data"]), 2))


def query_load(problem, fraction):
    charge(1.0)
    return math.log2(max(len(problem["queries"]), 1) + 1)


def build_program() -> PetaBricksProgram:
    space = ConfigurationSpace(
        [
            CategoricalParameter("method", ["linear", "binary", "hash"]),
            IntegerParameter("prefetch", 1, 8),
        ]
    )
    features = FeatureSet(
        [
            FeatureExtractor("sortedness", sortedness),
            FeatureExtractor("size", size_feature, level_fractions=[1.0, 1.0, 1.0]),
            FeatureExtractor("queries", query_load, level_fractions=[1.0, 1.0, 1.0]),
        ]
    )
    return PetaBricksProgram("search", space, run_search, features=features)


# --- an input population with real heterogeneity ------------------------------

def generate_inputs(n, seed=0):
    rng = np.random.default_rng(seed)
    inputs = []
    for i in range(n):
        size = int(rng.integers(200, 4000))
        data = rng.uniform(0, 1e6, size=size)
        if i % 3 == 0:
            data = np.sort(data)          # sorted lists: binary search territory
        n_queries = int(rng.integers(1, 4)) if i % 3 != 2 else int(rng.integers(50, 200))
        queries = rng.uniform(0, 1e6, size=n_queries)
        inputs.append({"data": data, "queries": queries})
    return inputs


def main() -> None:
    program = build_program()
    inputs = generate_inputs(90, seed=7)
    learner = InputAwareLearning(
        level1_config=Level1Config(n_clusters=6, tuner_generations=4, tuner_population=8),
        level2_config=Level2Config(max_subsets=32),
        seed=7,
    )
    training = learner.fit(program, inputs)

    print("landmarks found by the autotuner:")
    for index, landmark in enumerate(training.landmarks):
        print(f"  landmark {index}: method={landmark['method']}")
    print(f"production classifier: {training.production_classifier.name}\n")

    print("deployment decisions on fresh inputs:")
    for problem in generate_inputs(6, seed=99):
        outcome = training.deployed.run(problem)
        print(
            f"  n={len(problem['data']):5d} queries={len(problem['queries']):4d} "
            f"sorted={bool(np.all(problem['data'][:-1] <= problem['data'][1:]))!s:>5s} "
            f"-> {outcome.configuration['method']:<7s} cost={outcome.total_time:,.0f}"
        )


if __name__ == "__main__":
    main()
