"""Pairwise-comparison weighting of quality criteria.

Multiple evaluators judge the relative importance of criteria pair by
pair on the 9-level intensity scale.  Their judgment sets are aggregated
into one positive comparison matrix, criterion weights are derived from
it (column-normalize-and-average by default, principal eigenvector as the
alternative) and judgment coherence is summarized as a consistency ratio.

Aggregated matrices need not be reciprocal: the arithmetic mean of
reciprocal matrices generally is not, and the default aggregation keeps
that property on purpose so published non-reciprocal tables can be
reproduced.  The geometric mean preserves reciprocity.

All operations are pure functions on immutable values.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import combinations
from math import isfinite
from pathlib import Path

import numpy as np

from .emodel import json_number, json_string, names_file, open_text, read_json

SAATY_MIN = 1.0 / 9.0
SAATY_MAX = 9.0

#: Random-index table for the consistency ratio, by matrix order.
RANDOM_INDEX = {
    1: 0.00, 2: 0.00, 3: 0.58, 4: 0.90, 5: 1.12,
    6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49,
}

#: Conventional acceptance threshold for the consistency ratio.
CR_THRESHOLD = 0.1

#: How far a weight vector's sum may be from 1.
WEIGHT_SUM_TOL = 1e-9

AGGREGATION_METHODS = ("arithmetic-mean", "geometric-mean")
WEIGHT_METHODS = ("column-average", "eigenvector")


def _check_criteria(criteria) -> tuple[str, ...]:
    """The one criteria rule: a :func:`json_string` list of unique, non-empty
    labels that UTF-8 can encode, returned as a tuple."""
    criteria = json_string(criteria, "criteria", many=True)
    if not criteria:
        raise ValueError("criteria must be non-empty")
    for c in criteria:
        if not c:
            raise ValueError(f"criterion labels must be non-empty strings, got {c!r}")
        if not c.isascii() and any("\ud800" <= ch <= "\udfff" for ch in c):
            raise ValueError(f"criterion label {c!r} is not encodable as UTF-8")
    if len(set(criteria)) != len(criteria):
        raise ValueError(f"criterion labels must be unique, got {criteria}")
    return criteria


@dataclass(frozen=True)
class JudgmentSet:
    """One evaluator's pairwise importance judgments: exactly one value per
    unordered criterion pair, in either orientation, the reciprocal implied,
    each a :func:`json_number` within [1/9, 9].  The id, the criteria, then
    each judgment in the set's order is checked, so of two faulty judgments
    the first one's fault is reported."""

    evaluator_id: str
    criteria: tuple[str, ...]
    judgments: dict[tuple[str, str], float]

    def __post_init__(self) -> None:
        json_string(self.evaluator_id, "evaluator_id")
        criteria = _check_criteria(self.criteria)
        index = {c: i for i, c in enumerate(criteria)}
        judgments, seen = {}, set()
        for (a, b), value in self.judgments.items():
            if type(value) is not float or not isfinite(value):  # a finite float passes as is
                value = json_number(value, f"judgment {a!r} vs {b!r} value")
            i, j = index.get(a), index.get(b)
            if i is None or j is None or i == j:
                raise ValueError(f"judgment pair ({a!r}, {b!r}) is not a valid pair")
            key = (i, j) if i < j else (j, i)
            if key in seen:
                raise ValueError(f"duplicate judgment for pair {a!r}/{b!r}")
            seen.add(key)
            if not SAATY_MIN <= value <= SAATY_MAX:
                raise ValueError(f"judgment {a!r} vs {b!r} is {value}, outside [1/9, 9]")
            judgments[(a, b)] = value
        n = len(criteria)
        if len(seen) < n * (n - 1) // 2:
            i, j = next(p for p in combinations(range(n), 2) if p not in seen)
            raise ValueError(f"missing judgment for pair {criteria[i]!r}/{criteria[j]!r}")
        object.__setattr__(self, "criteria", criteria)
        object.__setattr__(self, "judgments", judgments)


def _reciprocal_stack(sets: list[JudgmentSet], criteria: tuple[str, ...]) -> np.ndarray:
    """The sets' reciprocal matrices, each over exactly ``criteria``, as one
    (k, n, n) stack in that order: judgment v of a over b at (a, b), 1.0 / v
    at (b, a), ones elsewhere, so no cell needs checking again."""
    n = len(criteria)
    index = {c: i for i, c in enumerate(criteria)}
    at = [(k, index[a], index[b]) for k, js in enumerate(sets) for a, b in js.judgments]
    k, i, j = np.array(at, dtype=np.intp).reshape(-1, 3).T
    v = np.fromiter((v for js in sets for v in js.judgments.values()), float)
    stack = np.ones((len(sets), n, n))
    stack[k, i, j], stack[k, j, i] = v, 1.0 / v
    return stack


@dataclass(frozen=True)
class PairwiseMatrix:
    """Square positive criterion-importance matrix with unit diagonal.

    Reciprocity is not required; aggregated matrices usually lack it.
    """

    criteria: tuple[str, ...]
    cells: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "criteria", _check_criteria(self.criteria))
        cells = np.array(self.cells, dtype=float)
        n = len(self.criteria)
        if cells.shape != (n, n):
            raise ValueError(
                f"cells must be {n}x{n} for {n} criteria, got {cells.shape}"
            )
        limit = np.finfo(float).max / n  # keeps every column sum finite
        for bad, rule in (
            (~(np.isfinite(cells) & (cells > 0)), "finite and positive"),
            (cells > limit, f"at most {limit:.6g} (the largest float over {n})"),
        ):
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ValueError(
                    f"matrix cell ({self.criteria[i]}, {self.criteria[j]}) must be "
                    f"{rule}, got {cells[i, j].item()!r}"
                )
        if not np.all(np.diag(cells) == 1.0):
            raise ValueError("matrix diagonal must be exactly 1")
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)


@dataclass(frozen=True)
class WeightVector:
    """Normalized per-criterion coefficients, each passing :func:`json_number`
    (the first that fails is named), nonnegative and summing to 1."""

    criteria: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(json_number(v, "weight") for v in self.values))
        object.__setattr__(self, "criteria", _check_criteria(self.criteria))
        if len(self.values) != len(self.criteria):
            raise ValueError("one weight per criterion required")
        if not all(v >= 0 for v in self.values):
            raise ValueError(f"weights must be nonnegative, got {self.values}")
        total = 0.0
        for v in self.values:  # left to right, as in combine and make_model
            total += v
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}"
            )

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.criteria, self.values))


@dataclass(frozen=True)
class ConsistencyReport:
    """Judgment-coherence summary: principal eigenvalue, CI, CR, verdict."""

    lambda_max: float
    consistency_index: float
    consistency_ratio: float
    acceptable: bool


def aggregate_judgments(
    sets: list[JudgmentSet], method: str = "arithmetic-mean"
) -> PairwiseMatrix:
    """Combine evaluators' judgment sets into one comparison matrix.

    Each evaluator's judgments are first expanded to a full reciprocal
    matrix, then cells are averaged element-wise.  The arithmetic mean
    (default) does not preserve reciprocity; the geometric mean does.
    Sets must cover the same criteria, each under its own ``evaluator_id``.
    """
    if method not in AGGREGATION_METHODS:
        raise ValueError(
            f"method must be one of {AGGREGATION_METHODS}, got {method!r}"
        )
    if not sets:
        raise ValueError("at least one judgment set is required")
    criteria, seen = sets[0].criteria, set()
    for js in sets:
        if js.evaluator_id in seen:
            raise ValueError(f"evaluator {js.evaluator_id!r} is given more than once")
        seen.add(js.evaluator_id)
        if set(js.criteria) != set(criteria):
            raise ValueError(
                f"evaluator {js.evaluator_id!r} covers criteria "
                f"{sorted(js.criteria)}, expected {sorted(criteria)}"
            )
    arr = _reciprocal_stack(sets, criteria)
    if method == "arithmetic-mean":
        cells = arr.mean(axis=0)
    else:
        cells = np.exp(np.log(arr).mean(axis=0))
    return PairwiseMatrix(criteria, cells)


def column_average_weights(
    matrix: PairwiseMatrix,
) -> tuple[WeightVector, np.ndarray]:
    """Derive weights by normalizing each column to sum 1 and averaging rows.

    Returns the weight vector and the column-normalized table it was
    averaged from (same shape and ordering as the input matrix).
    """
    normalized = matrix.cells / matrix.cells.sum(axis=0)
    weights = normalized.mean(axis=1)
    weights = weights / weights.sum()
    return WeightVector(matrix.criteria, tuple(weights)), normalized


def _principal_eigenpair(cells: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root of a positive matrix, the eigenvalue with the largest real
    part (it is real and dominant), and its eigenvector scaled to sum 1."""
    values, vectors = np.linalg.eig(cells)
    k = int(np.argmax(values.real))
    vec = vectors[:, k].real
    return float(values[k].real), vec / vec.sum()


def eigenvector_weights(matrix: PairwiseMatrix) -> WeightVector:
    """Derive weights as the normalized principal right eigenvector.

    Defined for any positive matrix, reciprocal or not.
    """
    _, vec = _principal_eigenpair(matrix.cells)
    return WeightVector(matrix.criteria, tuple(vec))


def consistency(matrix: PairwiseMatrix) -> ConsistencyReport:
    """Consistency ratio of a comparison matrix.

    CI = (lambda_max - n)/(n - 1), CR = CI/RI(n) against the standard
    random-index table; acceptable at CR <= 0.1.  For n = 2 the random
    index is 0 and CR is reported as 0 (always acceptable).
    """
    n = len(matrix.criteria)
    if n < 2:
        raise ValueError("consistency requires at least 2 criteria")
    lam, _ = _principal_eigenpair(matrix.cells)
    ci = (lam - n) / (n - 1)
    ri = RANDOM_INDEX.get(n, RANDOM_INDEX[10])
    cr = 0.0 if ri == 0.0 else ci / ri
    return ConsistencyReport(
        lambda_max=lam,
        consistency_index=ci,
        consistency_ratio=cr,
        acceptable=cr <= CR_THRESHOLD,
    )


# ---------------------------------------------------------------------------
# File formats: judgment sets as JSON, criteria tables as CSV.

@names_file
def read_judgments(path: str | Path, data: bytes | None = None) -> JudgmentSet:
    """Read a judgment set from its JSON layout, in the file at ``path`` or
    in ``data``, that file's bytes as a caller read them; every error names
    ``path``.

    Expected shape: {"evaluator_id": ..., "criteria": [...],
    "judgments": [{"a": ..., "b": ..., "value": ...}, ...]}.  Only the layout
    is checked here; :class:`JudgmentSet` checks the rest.
    """
    data = read_json(path, "judgment", data)
    try:
        judgments = {}
        for j in data["judgments"]:
            if not isinstance(a := j["a"], str):  # json_string only to raise
                json_string(a, "judgment field a")
            if not isinstance(b := j["b"], str):
                json_string(b, "judgment field b")
            if (a, b) in judgments:
                raise ValueError(f"duplicate judgment for pair {a!r}/{b!r}")
            judgments[(a, b)] = j["value"]
        return JudgmentSet(data["evaluator_id"], data["criteria"], judgments)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed judgment document: {exc}") from exc


def judgments_to_dict(js: JudgmentSet) -> dict:
    return {
        "evaluator_id": js.evaluator_id,
        "criteria": list(js.criteria),
        "judgments": [
            {"a": a, "b": b, "value": v} for (a, b), v in sorted(js.judgments.items())
        ],
    }


@names_file
def read_matrix_csv(path: str | Path, data: bytes | None = None) -> PairwiseMatrix:
    """Read a comparison matrix from CSV, in the file at ``path`` or in
    ``data``, that file's bytes as a caller read them: header row of
    criteria, one labeled row per criterion; every error names ``path``."""
    with open_text(path, data, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if len(rows) < 2:
        raise ValueError("matrix CSV needs a header and data rows")
    criteria = tuple(c.strip() for c in rows[0][1:])
    n = len(criteria)
    cells = np.ones((n, n))
    if len(rows) - 1 != n:
        raise ValueError(f"expected {n} data rows, got {len(rows) - 1}")
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != n + 1:
            raise ValueError(f"line {i}: expected {n + 1} columns")
        label = row[0].strip()
        if label != criteria[i - 2]:
            raise ValueError(
                f"line {i}: row label {label!r} does not match column order {criteria}"
            )
        for j, text in enumerate(row[1:]):
            try:
                cells[i - 2, j] = float(text)
            except ValueError as exc:
                raise ValueError(f"line {i}: bad cell {text!r}") from exc
    return PairwiseMatrix(criteria, cells)


def table_to_csv_text(header: list[str], rows: list[list[float]]) -> str:
    """Render a criteria table as CSV at full precision.

    ``header`` is the corner title, the criteria and any stacked columns;
    row i is labelled with ``header[i + 1]``, its criterion.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for label, row in zip(header[1:], rows):
        writer.writerow([label, *map(repr, row)])
    return buf.getvalue()
