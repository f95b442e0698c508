import itertools
from pathlib import Path

import numpy as np
import pytest

DATA_DIR = Path(__file__).parent / "data"

# Reference elicitation-study values reproduced by the golden tests:
# the published importance matrix and the weight table derived from it.
# The matrix and both published tables (the normalized cells and the
# row averages) are rounded to PUBLISHED_DECIMALS, so each off-diagonal
# matrix entry, and each published value, is only known to within
# ROUNDING_HALF_WIDTH.
REFERENCE_MATRIX = [[1, 5.74, 5.48], [0.95, 1, 2.48], [0.67, 1.95, 1]]
PUBLISHED_NORMALIZED = [[0.38, 0.66, 0.61], [0.36, 0.11, 0.28], [0.26, 0.22, 0.11]]
PUBLISHED_WEIGHTS = (0.55, 0.25, 0.20)
CRITERIA = ("loss", "delay", "jitter")
PUBLISHED_DECIMALS = 2
ROUNDING_HALF_WIDTH = 0.5 * 10.0**-PUBLISHED_DECIMALS


def column_average_intervals(cells, half_width=ROUNDING_HALF_WIDTH):
    """Exact ranges of the column-average table over a matrix's rounding box.

    The box moves every off-diagonal entry of `cells` by up to
    +-`half_width` and keeps the diagonal at 1.  An entry enters only the
    normalized cells of its own column, a_ij / sum_k a_kj, so every
    normalized cell and every row average is monotone in every entry,
    and its extremes lie at the corners of the box.

    Returns ``(cell_lo, cell_hi, weight_lo, weight_hi)``: n x n arrays for
    the normalized cells and length-n arrays for the row averages.
    """
    center = np.asarray(cells, dtype=float)
    n = center.shape[0]
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    cell_lo = np.full((n, n), np.inf)
    cell_hi = np.full((n, n), -np.inf)
    weight_lo = np.full(n, np.inf)
    weight_hi = np.full(n, -np.inf)
    for signs in itertools.product((-1.0, 1.0), repeat=len(off_diagonal)):
        corner = center.copy()
        for (i, j), sign in zip(off_diagonal, signs):
            corner[i, j] += sign * half_width
        normalized = corner / corner.sum(axis=0)
        weights = normalized.mean(axis=1)
        cell_lo = np.minimum(cell_lo, normalized)
        cell_hi = np.maximum(cell_hi, normalized)
        weight_lo = np.minimum(weight_lo, weights)
        weight_hi = np.maximum(weight_hi, weights)
    return cell_lo, cell_hi, weight_lo, weight_hi


def renderings(lo, hi, decimals=PUBLISHED_DECIMALS):
    """Every `decimals`-place string that some value in [lo, hi] rounds to."""
    scale = 10**decimals
    first = round(round(lo, decimals) * scale)
    last = round(round(hi, decimals) * scale)
    return {f"{k / scale:.{decimals}f}" for k in range(first, last + 1)}


@pytest.fixture
def data_dir():
    return DATA_DIR
