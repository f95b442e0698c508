import json
import math

import numpy as np
import pytest

from qoekit import (
    ConvergenceError,
    JudgmentSet,
    PairwiseMatrix,
    WeightVector,
    aggregate_judgments,
    column_average_weights,
    consistency,
    eigenvector_weights,
    read_judgments,
    read_matrix_csv,
)
from qoekit.ahp import judgments_to_dict, matrix_to_csv_text
from conftest import CRITERIA, REFERENCE_MATRIX


def two_criteria_set(evaluator, value):
    return JudgmentSet(evaluator, ("loss", "delay"), {("loss", "delay"): value})


def random_positive_matrix(rng, n):
    cells = np.exp(rng.uniform(-2.0, 2.0, size=(n, n)))
    np.fill_diagonal(cells, 1.0)
    labels = tuple(f"c{i}" for i in range(n))
    return PairwiseMatrix(labels, cells)


def consistent_matrix(weights, labels=None):
    w = np.asarray(weights, dtype=float)
    labels = labels or tuple(f"c{i}" for i in range(len(w)))
    cells = np.outer(w, 1.0 / w)
    np.fill_diagonal(cells, 1.0)  # w/w may be off by one ulp
    return PairwiseMatrix(labels, cells)


# ---------------------------------------------------------------------------
# judgment sets and aggregation

def test_single_evaluator_identity():
    js = two_criteria_set("e1", 5.0)
    m = aggregate_judgments([js])
    assert m.cell("loss", "delay") == 5.0
    assert m.cell("delay", "loss") == pytest.approx(0.2, abs=1e-15)
    assert np.array_equal(m.cells, js.matrix().cells)


def test_two_evaluators_arithmetic_mean():
    m = aggregate_judgments(
        [two_criteria_set("e1", 9.0), two_criteria_set("e2", 1 / 3)]
    )
    assert m.cell("loss", "delay") == pytest.approx((9 + 1 / 3) / 2, abs=1e-12)
    assert m.cell("delay", "loss") == pytest.approx((1 / 9 + 3) / 2, abs=1e-12)
    # arithmetic aggregation does not preserve reciprocity
    assert m.cell("loss", "delay") * m.cell("delay", "loss") != pytest.approx(1.0)


def test_two_evaluators_geometric_mean():
    m = aggregate_judgments(
        [two_criteria_set("e1", 9.0), two_criteria_set("e2", 1 / 3)],
        method="geometric-mean",
    )
    assert m.cell("loss", "delay") == pytest.approx(math.sqrt(3), abs=1e-12)
    assert m.cell("delay", "loss") == pytest.approx(1 / math.sqrt(3), abs=1e-12)


def test_geometric_mean_preserves_reciprocity():
    rng = np.random.default_rng(11)
    sets = []
    for e in range(5):
        judgments = {}
        for i, a in enumerate(CRITERIA):
            for b in CRITERIA[i + 1 :]:
                judgments[(a, b)] = float(np.exp(rng.uniform(-math.log(9), math.log(9))))
        sets.append(JudgmentSet(f"e{e}", CRITERIA, judgments))
    m = aggregate_judgments(sets, method="geometric-mean")
    for i in range(3):
        for j in range(3):
            assert m.cells[i, j] * m.cells[j, i] == pytest.approx(1.0, abs=1e-9)


def test_aggregate_respects_first_criteria_order():
    a = JudgmentSet("e1", ("loss", "delay"), {("loss", "delay"): 4.0})
    b = JudgmentSet("e2", ("delay", "loss"), {("delay", "loss"): 0.25})
    m = aggregate_judgments([a, b])
    assert m.criteria == ("loss", "delay")
    assert m.cell("loss", "delay") == pytest.approx(4.0)


def test_aggregate_errors():
    with pytest.raises(ValueError, match="at least one"):
        aggregate_judgments([])
    with pytest.raises(ValueError, match="covers criteria"):
        aggregate_judgments(
            [
                two_criteria_set("e1", 2.0),
                JudgmentSet("e2", ("loss", "jitter"), {("loss", "jitter"): 2.0}),
            ]
        )
    with pytest.raises(ValueError, match="method"):
        aggregate_judgments([two_criteria_set("e1", 2.0)], method="median")


def test_judgment_set_validation():
    with pytest.raises(ValueError, match="missing judgment"):
        JudgmentSet("e", CRITERIA, {("loss", "delay"): 2.0})
    with pytest.raises(ValueError, match="duplicate"):
        JudgmentSet(
            "e",
            ("loss", "delay"),
            {("loss", "delay"): 2.0, ("delay", "loss"): 0.5},
        )
    with pytest.raises(ValueError, match="outside"):
        two_criteria_set("e", 9.5)
    with pytest.raises(ValueError, match="outside"):
        two_criteria_set("e", 0.1)
    with pytest.raises(ValueError, match="not a valid pair"):
        JudgmentSet("e", ("loss", "delay"), {("loss", "loss"): 1.0})


def test_matrix_validation():
    with pytest.raises(ValueError, match="positive"):
        PairwiseMatrix(("a", "b"), [[1, 0], [2, 1]])
    with pytest.raises(ValueError, match="diagonal"):
        PairwiseMatrix(("a", "b"), [[1, 2], [0.5, 1.01]])
    with pytest.raises(ValueError, match="unique"):
        PairwiseMatrix(("a", "a"), [[1, 1], [1, 1]])


# ---------------------------------------------------------------------------
# weight derivation

def test_column_average_reference_matrix():
    m = PairwiseMatrix(CRITERIA, REFERENCE_MATRIX)
    weights, normalized = column_average_weights(m)
    # frozen from independent recomputation of the column normalization
    assert normalized[0] == pytest.approx([1 / 2.62, 5.74 / 8.69, 5.48 / 8.96], abs=1e-12)
    assert normalized[1][1] == pytest.approx(0.11507479861910243, abs=1e-12)
    assert weights.values == pytest.approx(
        (0.5512719587479226, 0.25148531091738163, 0.19724273033469575), abs=1e-12
    )


def test_column_average_consistent_matrix_exact():
    m = PairwiseMatrix(("a", "b", "c"), [[1, 2, 4], [0.5, 1, 2], [0.25, 0.5, 1]])
    weights, _ = column_average_weights(m)
    assert weights.values == pytest.approx((4 / 7, 2 / 7, 1 / 7), abs=1e-12)


def test_column_average_identity_opinions():
    m = PairwiseMatrix(CRITERIA, np.ones((3, 3)))
    weights, normalized = column_average_weights(m)
    assert weights.values == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)
    assert normalized == pytest.approx(np.full((3, 3), 1 / 3))


def test_eigenvector_consistent_matrix():
    m = PairwiseMatrix(("a", "b", "c"), [[1, 2, 4], [0.5, 1, 2], [0.25, 0.5, 1]])
    weights = eigenvector_weights(m)
    assert weights.values == pytest.approx((4 / 7, 2 / 7, 1 / 7), abs=1e-9)


def test_eigenvector_all_ones():
    m = PairwiseMatrix(CRITERIA, np.ones((3, 3)))
    assert eigenvector_weights(m).values == pytest.approx((1 / 3,) * 3, abs=1e-12)


def test_eigenvector_recovers_random_weights():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        w = np.exp(rng.uniform(-1.5, 1.5, size=n))
        m = consistent_matrix(w)
        got = np.array(eigenvector_weights(m).values)
        assert np.max(np.abs(got - w / w.sum())) < 1e-9


def test_eigenvector_nonconvergence_reported(monkeypatch):
    monkeypatch.setattr("qoekit.ahp.DEFAULT_TOL", 1e-15)
    monkeypatch.setattr("qoekit.ahp.DEFAULT_MAX_ITER", 2)
    m = PairwiseMatrix(CRITERIA, REFERENCE_MATRIX)
    with pytest.raises(ConvergenceError, match="did not converge"):
        eigenvector_weights(m)


def test_methods_agree_on_consistent_matrices():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = np.exp(rng.uniform(-1.0, 1.0, size=4))
        m = consistent_matrix(w)
        col = np.array(column_average_weights(m)[0].values)
        eig = np.array(eigenvector_weights(m).values)
        assert np.max(np.abs(col - eig)) < 1e-9


def test_weights_sum_to_one_and_nonnegative():
    rng = np.random.default_rng(42)
    for _ in range(25):
        m = random_positive_matrix(rng, int(rng.integers(2, 7)))
        for values in (
            column_average_weights(m)[0].values,
            eigenvector_weights(m).values,
        ):
            assert abs(sum(values) - 1.0) < 1e-9
            assert all(v >= 0 for v in values)


def test_permutation_equivariance():
    rng = np.random.default_rng(7)
    m = random_positive_matrix(rng, 4)
    perm = ("c2", "c0", "c3", "c1")
    pm = m.permuted(perm)
    for derive in (lambda x: column_average_weights(x)[0], eigenvector_weights):
        base = derive(m).as_dict()
        permuted = derive(pm).as_dict()
        for label in m.criteria:
            assert permuted[label] == pytest.approx(base[label], abs=1e-12)


def test_weight_vector_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        WeightVector(("a", "b"), (0.6, 0.5))
    with pytest.raises(ValueError, match="nonnegative"):
        WeightVector(("a", "b"), (1.2, -0.2))


# ---------------------------------------------------------------------------
# consistency

def test_consistency_of_consistent_matrix_is_zero():
    m = consistent_matrix([0.6, 0.3, 0.1])
    report = consistency(m)
    assert report.lambda_max == pytest.approx(3.0, abs=1e-9)
    assert report.consistency_ratio == pytest.approx(0.0, abs=1e-9)
    assert report.consistency_index >= -1e-9
    assert report.acceptable


def test_consistency_all_ones():
    report = consistency(PairwiseMatrix(CRITERIA, np.ones((3, 3))))
    assert report.consistency_ratio == pytest.approx(0.0, abs=1e-12)
    assert report.acceptable


def test_consistency_n2_is_defined_as_zero():
    report = consistency(PairwiseMatrix(("a", "b"), [[1, 7], [1 / 7, 1]]))
    assert report.consistency_ratio == 0.0
    assert report.acceptable


def test_consistency_reference_matrix_against_eigen_oracle():
    # independent oracle: dense eigensolver instead of power iteration
    cells = np.array(REFERENCE_MATRIX, dtype=float)
    eigvals = np.linalg.eigvals(cells)
    lam_oracle = float(max(eigvals.real))
    ci_oracle = (lam_oracle - 3) / 2
    cr_oracle = ci_oracle / 0.58

    report = consistency(PairwiseMatrix(CRITERIA, cells))
    assert report.lambda_max == pytest.approx(lam_oracle, abs=1e-6)
    assert report.consistency_ratio == pytest.approx(cr_oracle, abs=1e-6)
    assert report.acceptable == (cr_oracle <= 0.1)
    assert not report.acceptable  # far from reciprocal, far from consistent


def test_consistency_requires_two_criteria():
    with pytest.raises(ValueError, match="at least 2"):
        consistency(PairwiseMatrix(("a",), [[1.0]]))


# ---------------------------------------------------------------------------
# file formats

def test_judgment_json_roundtrip(tmp_path):
    js = JudgmentSet(
        "e9",
        CRITERIA,
        {("loss", "delay"): 5.0, ("loss", "jitter"): 3.0, ("delay", "jitter"): 1 / 2},
    )
    path = tmp_path / "e9.json"
    path.write_text(json.dumps(judgments_to_dict(js), indent=2) + "\n")
    back = read_judgments(path)
    assert back == js


def test_judgment_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"evaluator_id": "e", "criteria": ["a", "b"]}')
    with pytest.raises(ValueError, match="malformed"):
        read_judgments(path)
    path.write_text("{nope")
    with pytest.raises(ValueError, match="invalid judgment JSON"):
        read_judgments(path)


def test_matrix_csv_roundtrip(tmp_path):
    m = PairwiseMatrix(CRITERIA, REFERENCE_MATRIX)
    path = tmp_path / "matrix.csv"
    path.write_text(matrix_to_csv_text(m), newline="")
    back = read_matrix_csv(path)
    assert back.criteria == m.criteria
    assert np.array_equal(back.cells, m.cells)


def test_matrix_csv_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("Importance,a,b\na,1,x\nb,0.5,1\n")
    with pytest.raises(ValueError, match="line 2"):
        read_matrix_csv(path)
