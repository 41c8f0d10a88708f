"""Record the bit-exact training references in ``perfbench/references.json``.

Usage (from the repository root)::

    python3 perfbench/references.py

Every test of every workload is trained on each population of the
workload's catalog (the serve workload's fixed training population) with
the workload's config but the serial executor -- the repository's
reference executor -- so a workload that trains on a process pool is
checked against an independent serial computation.  Every workload seed
trains the same catalog, so the references check every run.  A reference is the
sha256 of the N x K time and accuracy matrices plus the two-level and
one-level speedups.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import HERE, load_spec, use_source_tree  # noqa: E402

def main() -> int:
    use_source_tree()

    from repro.experiments.runner import ExperimentConfig, run_experiment
    from train import configs_for, outcome_of

    references = {}
    for name, workload in load_spec()["workloads"].items():
        serial = {"executor": "serial", "workers": None}
        if workload["kind"] == "serve":
            population = workload["train_seed"]
            config = ExperimentConfig(seed=population, **{**workload["config"], **serial})
            configs = {population: {test: config for test in workload["mix"]}}
        else:
            configs = {
                population: configs_for(workload, population, **serial)
                for population in range(workload["populations"])
            }
        references[name] = {
            str(population): {
                test: outcome_of(run_experiment(test, config)) for test, config in tests.items()
            }
            for population, tests in configs.items()
        }
        print(f"{name}: {len(configs)} populations", flush=True)
    (HERE / "references.json").write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
