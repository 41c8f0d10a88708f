"""Input generators for the SVD benchmark.

Matrices with different effective ranks, so different configurations (small
vs. large ``k``, iterative vs. exact technique) win on different inputs:

* **low rank** -- a handful of dominant singular values plus tiny noise;
  a small ``k`` with a cheap iterative technique already meets the accuracy
  target.
* **decaying spectrum** -- power-law singular values; a moderate ``k`` is
  needed.
* **full rank noise** -- flat spectrum; only a large ``k`` (or the exact
  technique) reaches the target.
* **sparse** -- mostly-zero matrices, whose zero count is the cheap proxy
  feature the paper mentions.
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks_suite.svd.benchmark import SVDInput
from repro.core.inputs import per_index_rng

#: Matrix dimensions; modest so the experiment matrix stays fast.
MIN_ROWS, MAX_ROWS = 24, 64
MIN_COLS, MAX_COLS = 16, 40


def _shape(rng: np.random.Generator):
    m = int(rng.integers(MIN_ROWS, MAX_ROWS + 1))
    n = int(rng.integers(MIN_COLS, min(m, MAX_COLS) + 1))
    return m, n


def _matrix_from_spectrum(rng: np.random.Generator, singular_values: np.ndarray, m: int, n: int) -> np.ndarray:
    """Build a matrix with a prescribed singular spectrum."""
    k = len(singular_values)
    u, _ = np.linalg.qr(rng.normal(size=(m, k)))
    v, _ = np.linalg.qr(rng.normal(size=(n, k)))
    return (u * singular_values) @ v.T


def low_rank(rng: np.random.Generator) -> SVDInput:
    """2-5 dominant singular values, everything else negligible.

    A fraction of the smallest entries is truncated to exactly zero, which
    keeps the matrix approximately low rank while making the cheap ``zeros``
    feature correlate with the effective rank -- the indirect relationship
    the paper points out ("a matrix with many 0s has fewer eigenvalues").
    """
    m, n = _shape(rng)
    effective_rank = int(rng.integers(2, 6))
    spectrum = np.concatenate(
        [
            rng.uniform(5.0, 10.0, size=effective_rank),
            rng.uniform(0.0, 0.02, size=n - effective_rank),
        ]
    )
    matrix = _matrix_from_spectrum(rng, np.sort(spectrum)[::-1], m, n)
    threshold = np.quantile(np.abs(matrix), float(rng.uniform(0.2, 0.5)))
    matrix[np.abs(matrix) < threshold] = 0.0
    return SVDInput(matrix=matrix)


def decaying_spectrum(rng: np.random.Generator) -> SVDInput:
    """Power-law decaying singular values."""
    m, n = _shape(rng)
    exponent = float(rng.uniform(0.8, 2.0))
    spectrum = 10.0 / np.power(np.arange(1, n + 1), exponent)
    return SVDInput(matrix=_matrix_from_spectrum(rng, spectrum, m, n))


def full_rank_noise(rng: np.random.Generator) -> SVDInput:
    """Dense Gaussian noise: a nearly flat spectrum."""
    m, n = _shape(rng)
    return SVDInput(matrix=rng.normal(0.0, 1.0, size=(m, n)))


def sparse_matrix(rng: np.random.Generator) -> SVDInput:
    """Mostly zeros with a few dense rows/columns (low effective rank)."""
    m, n = _shape(rng)
    matrix = np.zeros((m, n))
    n_dense = int(rng.integers(2, 6))
    for _ in range(n_dense):
        row = rng.normal(0.0, 3.0, size=n)
        col = rng.normal(0.0, 1.0, size=m)
        matrix += np.outer(col, row) * (rng.random((m, n)) < 0.3)
    return SVDInput(matrix=matrix)


SYNTHETIC_FAMILIES = [low_rank, decaying_spectrum, full_rank_noise, sparse_matrix]


def synthetic_item(index: int, seed: int = 0) -> SVDInput:
    """Input ``index`` of the SVD population (pure in (index, seed))."""
    rng = per_index_rng(seed, index, "svd", "synthetic")
    family = SYNTHETIC_FAMILIES[index % len(SYNTHETIC_FAMILIES)]
    return family(rng)
