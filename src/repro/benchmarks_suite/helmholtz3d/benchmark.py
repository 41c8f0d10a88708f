"""The Helmholtz 3D benchmark: input type, configuration space, program.

Mirrors Poisson 2D with a 3-D variable-coefficient operator; the direct
solver is a sparse LU factorization rather than a fast transform.  Accuracy
is the same log error-reduction ratio with the paper's threshold of 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.benchmarks_suite.base import Benchmark, InputGenerator
from repro.lang.accuracy import AccuracyMetric, AccuracyRequirement
from repro.lang.config import (
    CategoricalParameter,
    Configuration,
    ConfigurationSpace,
    IntegerParameter,
)
from repro.lang.program import PetaBricksProgram

#: Accuracy threshold from the paper (10^7 error reduction).
ACCURACY_THRESHOLD = 7.0


@dataclass
class HelmholtzInput:
    """A Helmholtz problem instance: right-hand side plus coefficient field."""

    rhs: np.ndarray
    coefficient: np.ndarray
    _exact: Optional[np.ndarray] = field(default=None, repr=False)

    def __len__(self) -> int:
        return int(self.rhs.size)

    def exact_solution(self) -> np.ndarray:
        """Reference solution (cached; computed outside the cost model)."""
        if self._exact is None:
            from repro.benchmarks_suite.helmholtz3d import solvers

            self._exact = solvers.exact_solution(
                np.asarray(self.rhs, dtype=float),
                np.asarray(self.coefficient, dtype=float),
            )
        return self._exact


def build_config_space() -> ConfigurationSpace:
    """Configuration space: solver choice plus its tunables."""
    space = ConfigurationSpace()
    space.add(
        CategoricalParameter("solver", ["multigrid", "jacobi", "sor", "direct"])
    )
    space.add(IntegerParameter("iterations", 5, 300, log_scale=True))
    space.add(CategoricalParameter("cycle_shape", ["V", "W"]))
    space.add(IntegerParameter("cycles", 1, 12))
    space.add(IntegerParameter("pre_smooth", 1, 4))
    space.add(IntegerParameter("post_smooth", 1, 4))
    return space


def run_helmholtz(config: Configuration, problem: HelmholtzInput) -> np.ndarray:
    """Solve the Helmholtz problem with the configured solver."""
    from repro.benchmarks_suite.helmholtz3d import solvers

    f = np.asarray(problem.rhs, dtype=float)
    c = np.asarray(problem.coefficient, dtype=float)
    solver = config["solver"]
    if solver == "direct":
        # The input's cached reference solution is this very solve.
        return solvers.direct_sparse(f, c, reference=problem.exact_solution())
    if solver == "jacobi":
        return solvers.jacobi(f, c, iterations=int(config["iterations"]))
    if solver == "sor":
        return solvers.sor(f, c, iterations=int(config["iterations"]))
    if solver == "multigrid":
        return solvers.multigrid(
            f,
            c,
            cycles=int(config["cycles"]),
            cycle_shape=config["cycle_shape"],
            pre_smooth=int(config["pre_smooth"]),
            post_smooth=int(config["post_smooth"]),
        )
    raise ValueError(f"unknown solver {solver!r}")


def helmholtz_accuracy(problem: HelmholtzInput, solution: np.ndarray) -> float:
    """Log10 ratio of initial-guess error to achieved error."""
    exact = problem.exact_solution()
    initial_error = float(np.sqrt(np.mean(exact ** 2)))
    output_error = float(np.sqrt(np.mean((exact - solution) ** 2)))
    return float(np.log10((initial_error + 1e-300) / (output_error + 1e-300)))


class Helmholtz3DBenchmark(Benchmark):
    """The paper's Helmholtz 3D benchmark (variable accuracy)."""

    name = "helmholtz3d"

    def build_program(self) -> PetaBricksProgram:
        from repro.benchmarks_suite.helmholtz3d import features

        return PetaBricksProgram(
            name=self.name,
            config_space=build_config_space(),
            run_func=run_helmholtz,
            features=features.build_feature_set(),
            accuracy_metric=AccuracyMetric("log_error_ratio", helmholtz_accuracy),
            accuracy_requirement=AccuracyRequirement(
                accuracy_threshold=ACCURACY_THRESHOLD, satisfaction_threshold=0.95
            ),
        )

    def input_generators(self) -> Dict[str, InputGenerator]:
        from repro.benchmarks_suite.helmholtz3d import generators

        return {
            "synthetic": InputGenerator(
                name="synthetic",
                description="RHS/coefficient pairs with smooth, oscillatory, sparse, rough, and noisy structure",
                item=generators.synthetic_item,
            ),
        }
