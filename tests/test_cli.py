import contextlib
import dataclasses
import io
import json
import math
import os
import re
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoekit import cli
from qoekit import trace as trace_module
from qoekit.cli import main, parse_scale_entry, sha256_file
from qoekit.emodel import G729
from qoekit.trace import JITTER_ESTIMATORS, Trace, trace_to_csv_text
from conftest import DATA_DIR

JUDGMENT_FILES = sorted(str(p) for p in (DATA_DIR / "judgments").glob("*.json"))
ZEROED_PROFILE = str(DATA_DIR / "profile_zeroed_jitter.json")
MATRIX_CSV = str(DATA_DIR / "reference_matrix.csv")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_spec(tmp_path, **overrides):
    spec = {
        "loss_prob": 0.0,
        "base_delay_ms": 100.0,
        "duration_s": 30.0,
        "packet_interval_ms": 20.0,
        "rng_seed": 42,
        "jitter": {"model": "none"},
    }
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


# ---------------------------------------------------------------------------
# the parser

def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_does_not_leak_values_between_calls():
    parser = cli.build_parser()
    assert parser.parse_args(["trace", "analyze", "T", "--window", "1"]).window == 1.0
    assert parser.parse_args(["trace", "analyze", "T"]).window == 10.0
    assert parser.parse_args(["ahp", "weights", "--json"]).json is True
    assert parser.parse_args(["ahp", "weights"]).json is False


# ---------------------------------------------------------------------------
# ahp elicit

def test_elicit_prompts_each_pair_once(tmp_path, capsys):
    for answers_text, weights in (
        ("1\n1\n1\n", "loss=0.333 delay=0.333 jitter=0.333"),
        # consistent, but lambda_max lands an ulp below 3: CI is -4.4e-16
        ("2\n4\n2\n", "loss=0.571 delay=0.286 jitter=0.143"),
    ):
        answers = tmp_path / "answers.txt"
        answers.write_text(answers_text)
        out_file = tmp_path / "judgments.json"
        code, out, _ = run(
            capsys,
            "ahp", "elicit",
            "--evaluator-id", "e1",
            "--out", str(out_file),
            "--answers", str(answers),
        )
        assert code == 0
        assert out.count("importance of") == 3  # n(n-1)/2 pairs for 3 criteria
        assert f"weights: {weights}" in out
        assert "CI=0.000 CR=0.000" in out
        doc = json.loads(out_file.read_text())
        assert doc["evaluator_id"] == "e1"
        assert len(doc["judgments"]) == 3


def test_elicit_accepts_reciprocal_entries(tmp_path, capsys):
    answers = tmp_path / "answers.txt"
    answers.write_text("1/3\n2\n1/9\n")
    out_file = tmp_path / "judgments.json"
    code, out, _ = run(
        capsys,
        "ahp", "elicit",
        "--evaluator-id", "e1",
        "--out", str(out_file),
        "--answers", str(answers),
    )
    assert code == 0
    values = {
        (j["a"], j["b"]): j["value"]
        for j in json.loads(out_file.read_text())["judgments"]
    }
    assert values[("loss", "delay")] == pytest.approx(1 / 3)
    assert values[("delay", "jitter")] == pytest.approx(1 / 9)


def test_elicit_offers_revision_when_inconsistent(tmp_path, capsys):
    # wildly circular judgments, then one scripted revision
    answers = tmp_path / "answers.txt"
    answers.write_text("9\n1/9\n9\nloss delay 1/9\n")
    out_file = tmp_path / "judgments.json"
    code, out, _ = run(
        capsys,
        "ahp", "elicit",
        "--evaluator-id", "e1",
        "--out", str(out_file),
        "--answers", str(answers),
    )
    assert code == 0
    assert "you may revise a pair" in out
    values = {
        (j["a"], j["b"]): j["value"]
        for j in json.loads(out_file.read_text())["judgments"]
    }
    assert values[("loss", "delay")] == pytest.approx(1 / 9)


@pytest.mark.parametrize(
    "revision, loss_vs_delay, error",
    [
        # "delay loss 9" is delay 9x loss, so loss vs delay becomes 1/9
        ("delay loss 9", 1 / 9, None),
        ("loss rtt 1/9", None, "unknown pair 'loss'/'rtt'"),
        (
            "loss delay 17",
            None,
            "'17' is not on the 1-9 scale (use 1..9 or reciprocals like 1/3)",
        ),
        ("loss delay", None, "expected 'criterion criterion value', got 'loss delay'"),
    ],
    ids=["reversed-pair", "unknown-pair", "off-scale", "malformed"],
)
def test_elicit_revision_orientation(tmp_path, capsys, revision, loss_vs_delay, error):
    answers = tmp_path / "answers.txt"
    answers.write_text(f"9\n1/9\n9\n{revision}\n")
    out_file = tmp_path / "judgments.json"
    code, out, err = run(
        capsys,
        "ahp", "elicit",
        "--evaluator-id", "e1",
        "--out", str(out_file),
        "--answers", str(answers),
    )
    if error is not None:
        # a scripted session cannot recover, so a bad revision stops it
        assert code == 2
        assert out.splitlines()[-1] == f"  {error}"
        assert err == f"error: {error}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["answers.txt"]
        return
    assert code == 0
    values = {
        (j["a"], j["b"]): j["value"]
        for j in json.loads(out_file.read_text())["judgments"]
    }
    assert values[("loss", "delay")] == loss_vs_delay


def test_elicit_interactive_session_reprompts_after_bad_revision(
    tmp_path, capsys, monkeypatch
):
    import sys

    replies = iter(["9", "1/9", "9", "loss rtt 1/9", "loss delay", "delay loss 9", ""])
    monkeypatch.setattr(sys.stdin, "isatty", lambda: True)
    monkeypatch.setattr("builtins.input", lambda prompt: next(replies))
    out_file = tmp_path / "judgments.json"
    code, out, err = run(
        capsys, "ahp", "elicit", "--evaluator-id", "e1", "--out", str(out_file)
    )
    assert code == 0
    assert err == ""
    assert "  unknown pair 'loss'/'rtt'" in out.splitlines()
    assert "  expected 'criterion criterion value', got 'loss delay'" in out.splitlines()
    values = {
        (j["a"], j["b"]): j["value"]
        for j in json.loads(out_file.read_text())["judgments"]
    }
    assert values[("loss", "delay")] == 1 / 9


def test_elicit_default_criteria_stay_shared_and_unchanged(tmp_path, capsys):
    elicit = ["ahp", "elicit", "--evaluator-id", "e1", "--out", str(tmp_path / "j.json")]
    default = cli.build_parser().parse_args(elicit).criteria
    answers = tmp_path / "answers.txt"
    answers.write_text("3\n5\n2\n")
    code, _, _ = run(capsys, *elicit, "--answers", str(answers))
    assert code == 0
    assert cli.build_parser().parse_args(elicit).criteria is default
    assert default == ("loss", "delay", "jitter")


def test_elicit_rejects_off_scale_entry_in_scripted_mode(tmp_path, capsys):
    answers = tmp_path / "answers.txt"
    answers.write_text("17\n1\n1\n")
    code, _, err = run(
        capsys,
        "ahp", "elicit",
        "--evaluator-id", "e1",
        "--out", str(tmp_path / "x.json"),
        "--answers", str(answers),
    )
    assert code == 2
    assert "not on the 1-9 scale" in err


def test_elicit_requires_terminal_or_answers(tmp_path, capsys, monkeypatch):
    import sys

    monkeypatch.setattr(sys.stdin, "isatty", lambda: False)
    code, _, err = run(
        capsys,
        "ahp", "elicit", "--evaluator-id", "e1", "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "--answers" in err


def test_elicit_answers_file_ending_early_writes_nothing(tmp_path, capsys):
    answers = tmp_path / "answers.txt"
    answers.write_text("9\n# the last pair is never answered\n1/9\n")
    out_file = tmp_path / "judgments.json"
    code, _, err = run(
        capsys,
        "ahp", "elicit",
        "--evaluator-id", "e1",
        "--out", str(out_file),
        "--answers", str(answers),
    )
    assert code == 2
    assert err == "error: answers file ended before all pairs were judged\n"
    assert not out_file.exists()


def test_elicit_interactive_eof_before_last_pair(tmp_path, capsys, monkeypatch):
    import sys

    replies = iter(["9", "1/9"])

    def answer(prompt):
        for reply in replies:
            return reply
        raise EOFError  # as input() does at the end of stdin

    monkeypatch.setattr(sys.stdin, "isatty", lambda: True)
    monkeypatch.setattr("builtins.input", answer)
    out_file = tmp_path / "judgments.json"
    code, _, err = run(
        capsys, "ahp", "elicit", "--evaluator-id", "e1", "--out", str(out_file)
    )
    assert code == 2
    assert err == "error: input ended before all pairs were judged\n"
    assert not out_file.exists()


def test_elicit_interactive_off_scale_answer_asks_the_pair_again(
    tmp_path, capsys, monkeypatch
):
    import sys

    replies = iter(["17", "2", "4", "2"])
    prompts = []

    def answer(prompt):
        prompts.append(prompt)
        return next(replies)

    monkeypatch.setattr(sys.stdin, "isatty", lambda: True)
    monkeypatch.setattr("builtins.input", answer)
    out_file = tmp_path / "judgments.json"
    code, out, err = run(
        capsys, "ahp", "elicit", "--evaluator-id", "e1", "--out", str(out_file)
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == (
        "  '17' is not on the 1-9 scale (use 1..9 or reciprocals like 1/3)"
    )
    loss_vs_delay = "importance of loss vs delay [1..9 or 1/k]: "
    assert prompts[:2] == [loss_vs_delay, loss_vs_delay]
    assert len(prompts) == 4
    values = {
        (j["a"], j["b"]): j["value"]
        for j in json.loads(out_file.read_text())["judgments"]
    }
    assert values == {("loss", "delay"): 2.0, ("loss", "jitter"): 4.0, ("delay", "jitter"): 2.0}


def test_parse_scale_entry():
    assert parse_scale_entry("7") == 7.0
    assert parse_scale_entry("1/4") == 0.25
    for bad in ("0", "10", "2/3", "abc", "1/10"):
        with pytest.raises(ValueError):
            parse_scale_entry(bad)


# ---------------------------------------------------------------------------
# ahp weights

def test_weights_from_judgment_fixtures_prints_reference_weights(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys, "ahp", "weights", *JUDGMENT_FILES, "--out-dir", str(out_dir)
    )
    assert code == 0
    assert "weights: loss=0.55 delay=0.25 jitter=0.20" in out
    for name in ("weights.json", "matrix.csv", "weights.csv"):
        assert (out_dir / name).exists()
    doc = json.loads((out_dir / "weights.json").read_text())
    assert doc["tool"]["name"] == "qoekit"
    assert len(doc["inputs"]) == len(JUDGMENT_FILES)
    assert doc["weights"] == pytest.approx([0.5513, 0.2515, 0.1972], abs=5e-4)


def test_weights_accepts_preaggregated_matrix(capsys):
    code, out, _ = run(capsys, "ahp", "weights", "--matrix", MATRIX_CSV)
    assert code == 0
    assert "weights: loss=0.55 delay=0.25 jitter=0.20" in out


def test_weights_csv_tables_match_json(tmp_path, capsys):
    out_dir = tmp_path / "D"
    code, _, _ = run(
        capsys, "ahp", "weights", "--matrix", MATRIX_CSV, "--out-dir", str(out_dir)
    )
    assert code == 0
    doc = json.loads((out_dir / "weights.json").read_text())
    criteria = doc["criteria"]

    def table(name):
        lines = (out_dir / name).read_text().splitlines()
        header, *rows = [line.split(",") for line in lines]
        assert [row[0] for row in rows] == criteria
        return header, [[float(v) for v in row[1:]] for row in rows]

    header, cells = table("matrix.csv")
    assert header == ["Importance", *criteria]
    assert cells == doc["matrix"]
    header, cells = table("weights.csv")
    assert header == ["Weight", *criteria, "Average"]
    assert [row[:-1] for row in cells] == doc["normalized"]
    assert [row[-1] for row in cells] == doc["weights"]


def test_weights_judgments_and_matrix_are_exclusive(capsys):
    code, _, err = run(
        capsys, "ahp", "weights", JUDGMENT_FILES[0], "--matrix", MATRIX_CSV
    )
    assert code == 2
    assert "not both" in err


def test_weights_requires_input(capsys):
    code, _, err = run(capsys, "ahp", "weights")
    assert code == 2
    assert "required" in err


def test_weights_rejects_mismatched_criteria(tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text(
        json.dumps(
            {
                "evaluator_id": "x",
                "criteria": ["loss", "delay"],
                "judgments": [{"a": "loss", "b": "delay", "value": 3}],
            }
        )
    )
    code, _, err = run(capsys, "ahp", "weights", JUDGMENT_FILES[0], str(other))
    assert code == 2
    assert "covers criteria" in err


#: Stands for the literal 1e400, which json.dumps cannot write: Python's
#: json reads it as an infinite float.
OVERFLOW = "<1e400>"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"criteria": "ab"}, "judgment field criteria must be a list of strings, got 'ab'"),
        ({"criteria": ["a", 2]}, "judgment field criteria must be a list of strings"),
        ({"evaluator_id": 7}, "judgment field evaluator_id must be a string, got 7"),
        (
            {"judgments": [{"a": "a", "b": 2, "value": 3}]},
            "judgment field b must be a string, got 2",
        ),
        (
            {"judgments": [{"a": "a", "b": "b", "value": 12}]},
            "judgment 'a' vs 'b' is 12.0, outside [1/9, 9]",
        ),
        (
            {"judgments": [{"a": "a", "b": "b", "value": "5"}]},
            "judgment 'a' vs 'b' value must be a finite number, got '5'",
        ),
        ({"criteria": ["a", "b", "c"]}, "missing judgment for pair 'a'/'c'"),
        (
            {
                "judgments": [
                    {"a": "a", "b": "b", "value": 3},
                    {"a": "b", "b": "a", "value": 3},
                ]
            },
            "duplicate judgment for pair 'b'/'a'",
        ),
        (
            {
                "judgments": [
                    {"a": "a", "b": "b", "value": 9},
                    {"a": "a", "b": "b", "value": 0.2},
                ]
            },
            "duplicate judgment for pair 'a'/'b'",
        ),
        (
            {"judgments": [{"a": "a", "b": "x", "value": 3}]},
            "judgment pair ('a', 'x') is not a valid pair",
        ),
        *(
            (
                {"judgments": [{"a": "a", "b": "b", "value": value}]},
                f"judgment 'a' vs 'b' value must be a finite number, got {shown}",
            )
            for value, shown in [
                (math.nan, "nan"),
                (math.inf, "inf"),
                (-math.inf, "-inf"),
                (OVERFLOW, "inf"),
                (True, "True"),
                (None, "None"),
                ([5], "[5]"),
            ]
        ),
        (
            {"judgments": [{"a": None, "b": "b", "value": 3}]},
            "judgment field a must be a string, got None",
        ),
    ],
    ids=[
        "criteria-string",
        "criterion-number",
        "evaluator-number",
        "pair-number",
        "value-out-of-range",
        "value-string",
        "missing-pair",
        "duplicate-pair",
        "duplicate-pair-same-orientation",
        "invalid-pair",
        "value-nan",
        "value-infinity",
        "value-minus-infinity",
        "value-overflow",
        "value-true",
        "value-null",
        "value-list",
        "label-null",
    ],
)
def test_weights_rejects_ill_typed_judgment_file(tmp_path, capsys, fields, message):
    # every message names the file, once: among 40 judgment files, an
    # unnamed "missing judgment" could belong to any of them
    path = tmp_path / "e.json"
    judgment = {
        "evaluator_id": "e",
        "criteria": ["a", "b"],
        "judgments": [{"a": "a", "b": "b", "value": 3}],
    }
    text = json.dumps({**judgment, **fields})  # NaN and Infinity as Python reads them
    path.write_text(text.replace(json.dumps(OVERFLOW), "1e400"))
    code, out, err = run(capsys, "ahp", "weights", str(path))
    assert code == 2
    assert out == ""
    assert f"error: {path}: {message}" in err
    assert err.count(str(path)) == 1


def test_weights_rejects_label_not_encodable_as_utf8(tmp_path, capsys):
    # a lone surrogate escape is valid JSON, but no output file can hold it
    path = tmp_path / "e1.json"
    path.write_text(json.dumps({
        "evaluator_id": "e",
        "criteria": ["a", "\udc80x"],
        "judgments": [{"a": "a", "b": "\udc80x", "value": 3}],
    }))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "ahp", "weights", str(path), "--out-dir", str(out_dir))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: criterion label '\\udc80x' is not encodable as UTF-8\n"
    assert not out_dir.exists()


def test_weights_json_printed_equals_weights_json_file(tmp_path, capsys):
    out_dir = tmp_path / "D"
    code, out, _ = run(
        capsys, "ahp", "weights", *JUDGMENT_FILES, "--json", "--out-dir", str(out_dir)
    )
    assert code == 0
    printed = out[out.index("{\n") : out.rindex("\n}") + 2]
    assert (printed + "\n").encode("utf-8") == (out_dir / "weights.json").read_bytes()


def run_counting_opens(capsys, monkeypatch, *argv):
    """``run``'s exit code and stdout, and the paths ``open`` was given."""
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    code, out, _ = run(capsys, *argv)
    monkeypatch.undo()
    return code, out, opened


def test_weights_opens_each_judgment_file_once(capsys, monkeypatch):
    # the bytes read for parsing are the bytes hashed into the report
    files = [*JUDGMENT_FILES, JUDGMENT_FILES[0]]  # a file given twice is read twice
    code, out, opened = run_counting_opens(
        capsys, monkeypatch, "ahp", "weights", *files, "--json"
    )
    assert code == 0
    assert [p for p in opened if p in files] == files
    stamped = json.loads(out[out.index("{\n") :])["inputs"]
    assert stamped == [{"path": p, "sha256": sha256_file(p)} for p in files]


def test_weights_opens_the_matrix_file_once(capsys, monkeypatch):
    code, out, opened = run_counting_opens(
        capsys, monkeypatch, "ahp", "weights", "--matrix", MATRIX_CSV, "--json"
    )
    assert code == 0
    assert opened.count(MATRIX_CSV) == 1
    stamped = json.loads(out[out.index("{\n") :])["inputs"]
    assert stamped == [{"path": MATRIX_CSV, "sha256": sha256_file(MATRIX_CSV)}]


def test_weights_methods_agree_on_consistent_judgments(tmp_path, capsys):
    judgment = tmp_path / "e.json"
    judgment.write_text(
        json.dumps(
            {
                "evaluator_id": "e",
                "criteria": ["loss", "delay", "jitter"],
                "judgments": [
                    {"a": "loss", "b": "delay", "value": 2},
                    {"a": "loss", "b": "jitter", "value": 4},
                    {"a": "delay", "b": "jitter", "value": 2},
                ],
            }
        )
    )
    results = {}
    for method in ("column-average", "eigenvector"):
        code, out, _ = run(
            capsys, "ahp", "weights", str(judgment), "--method", method, "--json"
        )
        assert code == 0
        payload = json.loads(out[out.index("{") :])
        results[method] = payload["weights"]
    assert results["column-average"] == pytest.approx(
        results["eigenvector"], abs=1e-6
    )


def test_weights_deterministic_outputs(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out_dir in (out_a, out_b):
        code, _, _ = run(
            capsys, "ahp", "weights", *JUDGMENT_FILES, "--out-dir", str(out_dir)
        )
        assert code == 0
    for name in ("weights.json", "matrix.csv", "weights.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_weights_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "ahp", "weights", "/nonexistent/judgment.json")
    assert code == 3
    assert "error" in err


def test_exit_codes_documented():
    # README's and the cli docstring's "Exit codes:" lines list the EXIT_* values
    codes = {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for text in (readme, cli.__doc__):
        line = next(ln for ln in text.splitlines() if ln.startswith("Exit codes:"))
        assert {int(c) for c in re.findall(r"\b(\d+) ", line)} == codes, line


@pytest.mark.parametrize(
    "cell, message",
    [
        ("inf", "must be finite and positive, got inf"),
        ("nan", "must be finite and positive, got nan"),
        # above float max / 3, where a column sum can overflow
        (
            "1.7e308",
            "must be at most 5.99231e+307 (the largest float over 3), got 1.7e+308",
        ),
        ("0", "must be finite and positive, got 0.0"),
    ],
    ids=["inf", "nan", "overflow", "zero"],
)
def test_weights_rejects_non_finite_matrix_cell(tmp_path, capsys, cell, message):
    path = tmp_path / "matrix.csv"
    path.write_text(Path(MATRIX_CSV).read_text().replace("5.74", cell))
    code, out, err = run(capsys, "ahp", "weights", "--matrix", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: matrix cell (loss, delay) {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("Importance,a,b\n", "matrix CSV needs a header and data rows"),
        ("Importance,a,b\na,1,2\n", "expected 2 data rows, got 1"),
        ("Importance,a,b\na,1,2\nb,0.5\n", "line 3: expected 3 columns"),
        (
            "Importance,a,b\nb,0.5,1\na,1,2\n",
            "line 2: row label 'b' does not match column order ('a', 'b')",
        ),
    ],
    ids=["header-only", "row-count", "column-count", "label-order"],
)
def test_weights_rejects_malformed_matrix_csv(tmp_path, capsys, text, message):
    path = tmp_path / "matrix.csv"
    path.write_text(text)
    code, out, err = run(capsys, "ahp", "weights", "--matrix", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {message}\n"


# ---------------------------------------------------------------------------
# mos

def test_mos_line_output(capsys):
    code, out, _ = run(
        capsys,
        "mos", "--loss", "0", "--delay", "0", "--profile", ZEROED_PROFILE,
    )
    assert code == 0
    assert "mos_overall=4.242" in out
    assert "mos_loss=4.104" in out
    assert "mos_delay=4.409" in out
    assert "mos_jitter=4.409" in out
    assert "r_loss=82.200" in out
    assert "model=paper-5g-ahp" in out


def test_mos_total_loss_floors(capsys):
    code, out, _ = run(capsys, "mos", "--loss", "100", "--delay", "0")
    assert code == 0
    assert "mos_loss=1.000" in out


def test_mos_json_full_precision(capsys):
    code, out, _ = run(
        capsys,
        "mos", "--loss", "0", "--delay", "0",
        "--profile", ZEROED_PROFILE, "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mos"]["overall"] == pytest.approx(4.241584906, abs=1e-9)
    assert payload["r_factors"]["loss"] == pytest.approx(82.2)


def test_mos_json_lists_mos_in_model_order_then_overall(tmp_path, capsys):
    config = tmp_path / "models.json"
    config.write_text(json.dumps(
        {"name": "jld", "criteria": ["jitter", "loss", "delay"], "weights": [0.3, 0.3, 0.4]}
    ))
    code, out, _ = run(
        capsys, "mos", "--loss", "2", "--delay", "180", "--jitter", "60",
        "--models-config", str(config), "--model", "jld", "--json",
    )
    assert code == 0
    mos = json.loads(out)["mos"]
    assert list(mos.items()) == [
        ("jitter", 3.7092253215496793),
        ("loss", 3.817889612056199),
        ("delay", 4.302757341720992),
        ("overall", 3.9792374167701605),
    ]


def test_mos_rejects_video_model_for_qos_sample(capsys):
    code, _, err = run(
        capsys, "mos", "--loss", "0", "--delay", "0", "--model", "video-network"
    )
    assert code == 2
    assert "throughput" in err


def test_mos_range_violation_named(capsys):
    code, _, err = run(capsys, "mos", "--loss", "123", "--delay", "0")
    assert code == 2
    assert "loss_pct" in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--delay", "nan"), ("--delay", "inf"), ("--jitter", "nan"), ("--jitter", "inf"),
    ],
)
def test_mos_rejects_non_finite_input(capsys, flag, value):
    argv = {"--loss": "1.0", "--delay": "100", "--jitter": "5", flag: value}
    code, out, err = run(capsys, "mos", *(x for kv in argv.items() for x in kv))
    assert code == 2
    assert out == ""
    assert f"{flag[2:]}_ms must be finite" in err


@pytest.mark.parametrize(
    "block, key, value, field",
    [
        ("loss", "b", "NaN", "loss_b"),
        ("jitter", "c4", "Infinity", "jitter_c4"),
        ("jitter", "h", "null", "pareto_h"),
        ("loss", "a", "true", "loss_a"),
        ("jitter", "c1", '"-15.5"', "jitter_c1"),
        ("loss", "c", "1" + "0" * 400, "loss_c"),
    ],
    ids=["nan", "infinity", "null", "boolean", "string", "overflow"],
)
def test_mos_rejects_non_numeric_profile_field(
    tmp_path, capsys, block, key, value, field
):
    doc = json.loads(Path(ZEROED_PROFILE).read_text())
    doc[block][key] = "PLACEHOLDER"
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', value))
    code, out, err = run(
        capsys, "mos", "--loss", "1", "--delay", "50", "--profile", str(path)
    )
    assert code == 2
    assert out == ""
    assert f"error: {path}: {field} must be a finite number" in err


@pytest.mark.parametrize(
    "changes, fields, value",
    [
        ({"loss": {"b": 1e308}}, "loss_a, loss_b and loss_c", "inf"),  # 11 + 1e308 * ln 11
        ({"loss": {"b": 0.0, "c": 1e308}}, "loss_a, loss_b and loss_c", "nan"),  # 0 * ln inf
        # 1.7e308 + 1e308 * exp(-40/30) overflows at the buffer floor only
        ({"jitter": {"c3": 1.7e308, "c4": 1e308}}, "jitter_c1 to jitter_c4", "inf"),
    ],
    ids=["loss-inf", "loss-nan", "jitter-inf"],
)
def test_mos_rejects_profile_whose_terms_overflow(tmp_path, capsys, changes, fields, value):
    # finite coefficients, but a rating of -inf or NaN: named at load,
    # whatever loss and jitter the run asks for
    doc = json.loads(Path(ZEROED_PROFILE).read_text())
    for block, update in changes.items():
        doc[block].update(update)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "mos", "--loss", "0", "--delay", "0", "--profile", str(path)
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {fields} give a non-finite impairment, got {value}\n"


def test_mos_accepts_profile_with_large_finite_terms(tmp_path, capsys):
    # terms that stay finite at their far ends load and floor the MOS
    doc = json.loads(Path(ZEROED_PROFILE).read_text())
    doc["name"] = "big"
    doc["loss"].update(b=1e300, c=1.0)
    doc["jitter"].update(c3=1.5e308, c4=1e308)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "mos", "--loss", "50", "--delay", "0", "--profile", str(path))
    assert code == 0
    assert {"mos_loss=1.000", "mos_jitter=1.000", "profile=big"} <= set(out.split())


@pytest.mark.parametrize(
    "block, changes, message",
    [
        # a loss_c of -1 once scored loss 50% at MOS 4.5 and failed at 100%
        # with a bare "math domain error"
        ("loss", {"c": -1.0}, "loss_c must be > 0, got -1.0"),
        ("loss", {"c": 0.0}, "loss_c must be > 0, got 0.0"),
        ("loss", {"b": -40.0}, "loss_b must be >= 0, got -40.0"),
        ("loss", {"a": -1.0}, "loss_a must be >= 0, got -1.0"),
        ("jitter", {"c4": -13.6}, "jitter_c4 must be >= 0, got -13.6"),
        (
            "jitter", {"c3": -1.0},
            "jitter_c1*pareto_h**2 + jitter_c2*pareto_h + jitter_c3 must be >= 0, "
            "got -1.0",
        ),
    ],
    ids=["loss-c-negative", "loss-c-zero", "loss-b", "loss-a", "jitter-c4", "jitter-base"],
)
def test_mos_rejects_profile_that_would_not_penalize(
    tmp_path, capsys, block, changes, message
):
    # every term is a penalty, so a profile where more loss or a smaller
    # buffer could raise the score is named at load, with its file
    doc = json.loads(Path(ZEROED_PROFILE).read_text())
    doc[block].update(changes)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    for loss in ("50", "100"):
        code, out, err = run(
            capsys, "mos", "--loss", loss, "--delay", "0", "--profile", str(path)
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {message}\n"


def test_mos_profile_file_sets_jitter_h_and_t(tmp_path, capsys):
    # another heavy-tail shape H or buffer size T is a profile file of its own
    doc = json.loads(Path(ZEROED_PROFILE).read_text())
    doc["name"] = "G.729-h0.9-t10"
    doc["jitter"].update(c1=-15.5, c2=33.5, c3=4.4, c4=13.6, h=0.9, t_ms=10)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "mos", "--loss", "0", "--delay", "0", "--profile", str(path))
    assert code == 0
    for field in ("mos_overall=3.995", "mos_jitter=3.175", "r_jitter=61.460",
                  "profile=G.729-h0.9-t10"):
        assert field in out.split()
    code, out, _ = run(
        capsys, "mos", "--loss", "0", "--delay", "0", "--profile", str(path), "--json"
    )
    # H=0.9, T=10, K=30: -15.5*0.81 + 33.5*0.9 + 4.4 + 13.6*exp(-1/3)
    assert json.loads(out)["r_factors"]["jitter"] == pytest.approx(
        93.2 - (-15.5 * 0.81 + 33.5 * 0.9 + 4.4 + 13.6 * 2.718281828459045 ** (-1 / 3)),
        abs=1e-9,
    )


def test_mos_rejects_unknown_profile(capsys):
    code, out, err = run(
        capsys, "mos", "--loss", "0", "--delay", "0", "--profile", "no-such-profile"
    )
    assert code == 2
    assert out == ""
    assert "unknown profile 'no-such-profile'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mos", "--loss", "0", "--delay", "0", "--config", "c.json"],
        ["mos", "--loss", "0", "--delay", "0", "--jitter-h", "0.9"],
        ["trace", "analyze", "t.csv", "--jitter-t", "10"],
    ],
    ids=["config", "jitter-h", "jitter-t"],
)
def test_removed_scoring_flags_are_unrecognized(capsys, argv):
    # a model, profile or window is set by --model, --profile or --window only
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# trace gen / analyze

def test_trace_gen_deterministic(tmp_path, capsys):
    spec = write_spec(tmp_path, loss_prob=0.1, jitter={"model": "uniform", "amplitude_ms": 20})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run(capsys, "trace", "gen", spec, "--out", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_trace_gen_total_loss(tmp_path, capsys):
    spec = write_spec(tmp_path, loss_prob=1.0, duration_s=1.0)
    out = tmp_path / "trace.csv"
    code, stdout, _ = run(capsys, "trace", "gen", spec, "--out", str(out))
    assert code == 0
    assert "loss 100.000%" in stdout
    rows = out.read_text().strip().splitlines()[1:]
    assert all(row.endswith(",") for row in rows)  # recv field empty


@pytest.mark.parametrize(
    "overrides",
    [
        {"duration_s": 1e15},  # 5e16 packets, 355 PiB of seqs: no allocation
        {"duration_s": 1e300},  # beyond numpy's array sizes
        {"packet_interval_ms": 1e-300},
        {"duration_s": 1e306},  # the count overflows to inf
    ],
)
def test_trace_gen_rejects_too_many_packets(tmp_path, capsys, overrides):
    spec = write_spec(tmp_path, **overrides)
    out = tmp_path / "t.csv"
    code, _, err = run(capsys, "trace", "gen", spec, "--out", str(out))
    assert code == 2
    assert err.startswith("error: duration_s ") and "packet_interval_ms" in err
    assert err.rstrip().endswith("packets, too many to allocate")
    assert not out.exists()


def test_trace_gen_rejects_out_of_range_shape(tmp_path, capsys):
    for shape in (0.95, 1.0):  # the Lomax mean is finite only above 1
        spec = write_spec(
            tmp_path, jitter={"model": "pareto", "shape": shape, "scale_ms": 2.0}
        )
        code, _, err = run(capsys, "trace", "gen", spec, "--out", str(tmp_path / "t.csv"))
        assert code == 2
        assert "pareto_shape" in err
    # JSON allows 1e400 (and Infinity), which parse to inf
    for field, overrides in (
        ("duration_s", {"duration_s": float("inf")}),
        ("jitter_amplitude_ms", {"jitter": {"model": "uniform", "amplitude_ms": 1e400}}),
        ("rng_seed", {"rng_seed": float("inf")}),
        # null, booleans, ints beyond the float range and fractional seeds
        ("loss_prob", {"loss_prob": None}),
        ("duration_s", {"duration_s": 10**400}),
        ("base_delay_ms", {"base_delay_ms": True}),
        ("rng_seed", {"rng_seed": 1.7}),
        ("pareto_scale_ms", {"jitter": {"model": "pareto", "scale_ms": "2"}}),
    ):
        spec = write_spec(tmp_path, **overrides)
        code, _, err = run(capsys, "trace", "gen", spec, "--out", str(tmp_path / "t.csv"))
        assert code == 2
        assert f"{field} must be" in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"jitter": "uniform"}, "spec field 'jitter' must be an object with a 'model'"),
        ({"jitter": {"amplitude_ms": 5}}, "spec field 'jitter' must be an object with a 'model'"),
        ({"duration_s": None}, "spec is missing required field 'duration_s'"),
        ({"rng_seed": None}, "spec is missing required field 'rng_seed'"),
        ({"loss_prob": 2}, "loss_prob must be within [0, 1], got 2.0"),
    ],
    ids=["jitter-string", "jitter-without-model", "missing-field", "missing-seed",
         "loss-prob-2"],
)
def test_trace_gen_rejects_malformed_spec(tmp_path, capsys, overrides, message):
    spec = Path(write_spec(tmp_path, **overrides))
    fields = json.loads(spec.read_text()).items()
    spec.write_text(json.dumps({k: v for k, v in fields if v is not None}))  # None drops
    out = tmp_path / "t.csv"
    code, stdout, err = run(capsys, "trace", "gen", str(spec), "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err == f"error: {spec}: {message}\n"
    assert not out.exists()


def test_trace_analyze_matches_point_scoring(tmp_path, capsys):
    spec = write_spec(tmp_path)
    trace_csv = tmp_path / "trace.csv"
    report_json = tmp_path / "report.json"
    report_csv = tmp_path / "report.csv"
    code, _, _ = run(capsys, "trace", "gen", spec, "--out", str(trace_csv))
    assert code == 0
    code, _, _ = run(
        capsys,
        "trace", "analyze", str(trace_csv),
        "--window", "10",
        "--out", str(report_json), "--csv", str(report_csv),
    )
    assert code == 0

    code, mos_out, _ = run(
        capsys, "mos", "--loss", "0", "--delay", "100", "--jitter", "0", "--json"
    )
    assert code == 0
    point = json.loads(mos_out)

    report = json.loads(report_json.read_text())
    assert report["summary"]["window_count"] == 3
    for row in report["windows"]:
        assert row["mos_loss"] == point["mos"]["loss"]
        assert row["mos_delay"] == point["mos"]["delay"]
        assert row["mos_jitter"] == point["mos"]["jitter"]
        assert row["mos_overall"] == point["mos"]["overall"]


def test_trace_analyze_fully_lost_window_floors(tmp_path, capsys):
    lines = ["seq,send_ts_ms,recv_ts_ms"]
    for i in range(15):
        send = i * 20.0
        lost = 5 <= i < 10  # second window entirely lost
        lines.append(f"{i + 1},{send!r}," + ("" if lost else repr(send + 100.0)))
    trace_csv = tmp_path / "trace.csv"
    trace_csv.write_text("\n".join(lines) + "\n")
    report_json = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "trace", "analyze", str(trace_csv),
        "--window", "0.1",
        "--out", str(report_json),
    )
    assert code == 0
    report = json.loads(report_json.read_text())
    row = report["windows"][1]
    assert row["loss_pct"] == 100.0
    assert row["mos_overall"] == 1.0
    assert row["delay_ms"] is None
    assert "n/a" in out


def test_trace_analyze_deterministic(tmp_path, capsys):
    spec = write_spec(tmp_path, loss_prob=0.02, jitter={"model": "uniform", "amplitude_ms": 10})
    trace_csv = tmp_path / "trace.csv"
    run(capsys, "trace", "gen", spec, "--out", str(trace_csv))
    reports = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        code, _, _ = run(
            capsys, "trace", "analyze", str(trace_csv), "--out", str(path)
        )
        assert code == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_trace_analyze_reports_malformed_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("seq,send_ts_ms,recv_ts_ms\n1,0.0,100.0\n2,oops,120.0\n")
    code, _, err = run(capsys, "trace", "analyze", str(bad))
    assert code == 2
    assert "line 3" in err


def test_trace_analyze_names_a_rows_first_fault_in_check_order(tmp_path, capsys):
    # the send time is checked before the order of the two times
    bad = tmp_path / "bad.csv"
    bad.write_text("seq,send_ts_ms,recv_ts_ms\n1,0.0,100.0\n2,inf,5.0\n")
    code, out, err = run(capsys, "trace", "analyze", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: line 3: seq 2: send_ts_ms must be finite, got inf\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_trace_analyze_rejects_non_finite_row(tmp_path, capsys, value):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"seq,send_ts_ms,recv_ts_ms\n1,0.0,100.0\n2,20.0,{value}\n")
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "trace", "analyze", str(bad), "--out", str(report))
    assert code == 2
    assert "line 3" in err and "recv_ts_ms must be finite" in err
    assert out == ""
    assert not report.exists()


def test_trace_analyze_empty_trace_aborts(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("seq,send_ts_ms,recv_ts_ms\n")
    code, _, err = run(capsys, "trace", "analyze", str(empty))
    assert code == 2
    assert "no packets" in err


def test_trace_analyze_rejects_zero_byte_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    code, out, err = run(capsys, "trace", "analyze", str(empty))
    assert code == 2
    assert out == ""
    assert err == f"error: {empty}: empty trace file\n"


def test_trace_analyze_report_hash_tracks_input(tmp_path, capsys):
    spec = write_spec(tmp_path)
    trace_csv = tmp_path / "trace.csv"
    run(capsys, "trace", "gen", spec, "--out", str(trace_csv))
    report_json = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "trace", "analyze", str(trace_csv), "--out", str(report_json)
    )
    assert code == 0
    report = json.loads(report_json.read_text())
    assert report["inputs"][0]["sha256"] == sha256_file(trace_csv)


class CountingFileIO(io.FileIO):
    """A file opened for reading that adds each byte it reads to
    ``counts[name]``."""

    def __init__(self, file, counts: Counter):
        super().__init__(file, "r")
        self.counts = counts

    def readinto(self, buffer):
        n = super().readinto(buffer)
        self.counts[str(self.name)] += n or 0
        return n

    def readall(self):
        data = super().readall()
        self.counts[str(self.name)] += len(data)
        return data


def count_reads(monkeypatch) -> Counter:
    """Bytes read per file through ``open`` in ``qoekit.trace`` and
    ``qoekit.cli``, counted as the operating system delivers them."""
    counts = Counter()

    def counting_open(file, mode="r", buffering=-1, encoding=None, errors=None, newline=None):
        if mode not in ("r", "rb"):
            return open(file, mode, buffering, encoding, errors, newline)
        fh = io.BufferedReader(CountingFileIO(file, counts))
        return fh if mode == "rb" else io.TextIOWrapper(fh, encoding, errors, newline)

    for module in (trace_module, cli):
        monkeypatch.setattr(module, "open", counting_open, raising=False)
    return counts


def write_crlf_trace(tmp_path) -> Path:
    trace = Trace(columns=(
        np.arange(1, 3001), np.arange(3000) * 20.0,
        np.where(np.arange(3000) % 50 == 7, np.nan, np.arange(3000) * 20.0 + 80.5),
    ))
    path = tmp_path / "trace.csv"
    path.write_bytes(trace_to_csv_text(trace).encode("ascii"))
    return path


def test_read_trace_reads_each_byte_once(tmp_path, monkeypatch):
    path = write_crlf_trace(tmp_path)
    monkeypatch.setattr(trace_module, "_BLOCK_BYTES", 4096)  # many blocks
    counts = count_reads(monkeypatch)
    trace = trace_module.read_trace(str(path))
    assert counts == {str(path): path.stat().st_size}
    assert len(trace.seq) == 3000 and trace.seq[-1] == 3000


def test_trace_analyze_out_reads_trace_twice(tmp_path, capsys, monkeypatch):
    # once to parse and once for stamp's hash
    path = write_crlf_trace(tmp_path)
    counts = count_reads(monkeypatch)
    code, _, _ = run(
        capsys, "trace", "analyze", str(path), "--out", str(tmp_path / "report.json")
    )
    assert code == 0
    assert counts == {str(path): 2 * path.stat().st_size}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["trace", "analyze", "T.csv", "--out", "X", "--csv", "X"],
         "--csv names the same file as --out: X"),
        (["trace", "analyze", "T.csv", "--out", "T.csv"],
         "--out names the same file as the trace: T.csv"),
        (["trace", "analyze", "T.csv", "--csv", "sub/../T.csv"],
         "--csv names the same file as the trace: sub/../T.csv"),
        (["trace", "analyze", "L.csv", "--out", "T.csv"],
         "--out names the same file as the trace: T.csv"),
        (["trace", "analyze", "T.csv", "--profile", "P.json", "--out", "./P.json"],
         "--out names the same file as --profile: ./P.json"),
        (["trace", "analyze", "T.csv", "--models-config", "M.json", "--csv", "M.json"],
         "--csv names the same file as --models-config: M.json"),
        (["trace", "gen", "spec.json", "--out", "spec.json"],
         "--out names the same file as the spec: spec.json"),
        (["ahp", "elicit", "--evaluator-id", "e1", "--answers", "A.txt", "--out", "A.txt"],
         "--out names the same file as --answers: A.txt"),
        (["ahp", "weights", "weights.json", "--out-dir", "."],
         "--out-dir names the same file as a judgment file: weights.json"),
        (["ahp", "weights", "--matrix", "matrix.csv", "--out-dir", "."],
         "--out-dir names the same file as --matrix: matrix.csv"),
    ],
    ids=["out-csv", "out-trace", "csv-trace", "symlinked-trace", "out-profile",
         "csv-models-config", "gen-spec", "elicit-answers", "out-dir-judgments",
         "out-dir-matrix"],
)
def test_an_output_naming_an_input_or_another_output_is_refused(
    tmp_path, capsys, monkeypatch, argv, message
):
    # the command exits 2 before it reads or writes anything
    monkeypatch.chdir(tmp_path)
    inputs = {
        "T.csv": "seq,send_ts_ms,recv_ts_ms\r\n1,0.0,80.0\r\n2,20.0,100.0\r\n",
        "P.json": Path(ZEROED_PROFILE).read_text(),
        "M.json": "[]",
        "A.txt": "1\n1\n1\n",
        "weights.json": Path(JUDGMENT_FILES[0]).read_text(),
        "matrix.csv": Path(MATRIX_CSV).read_text(),
    }
    for name, text in inputs.items():
        (tmp_path / name).write_bytes(text.encode())
    inputs["spec.json"] = Path(write_spec(tmp_path)).read_text()
    (tmp_path / "sub").mkdir()
    (tmp_path / "L.csv").symlink_to("T.csv")  # the trace under another name
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*inputs, "sub", "L.csv"])
    for name, text in inputs.items():
        assert (tmp_path / name).read_bytes() == text.encode()


def test_an_output_named_like_the_built_in_profile_is_written(tmp_path, capsys, monkeypatch):
    # --profile g729 names no file, so an output called g729 overwrites nothing
    monkeypatch.chdir(tmp_path)
    Path("T.csv").write_text("seq,send_ts_ms,recv_ts_ms\n1,0.0,80.0\n2,20.0,100.0\n")
    code, _, err = run(capsys, "trace", "analyze", "T.csv", "--csv", "g729")
    assert (code, err) == (0, "")
    assert Path("g729").read_text().startswith("window_id,")


def test_trace_analyze_rejects_overflowing_window(tmp_path, capsys):
    trace_csv = tmp_path / "trace.csv"
    trace_csv.write_text("seq,send_ts_ms,recv_ts_ms\n1,0,100\n2,20,121\n3,40,139\n")
    report, table = tmp_path / "report.json", tmp_path / "report.csv"
    for window, message in (
        # 1e308 s is finite, but 1e311 ms is not
        ("1e308", "window_len_s must be > 0"),
        # 4e15 windows: the kernel's per-window arrays are refused at once
        ("1e-17", "window_len_s 1e-17 gives 4000000000000001 windows"),
    ):
        for outputs in (["--out", str(report)], ["--csv", str(table)]):
            code, out, err = run(
                capsys, "trace", "analyze", str(trace_csv), "--window", window, *outputs
            )
            assert code == 2
            assert out == ""
            assert message in err
    assert not report.exists() and not table.exists()


def floored_partial_trace(path):
    """0.1 s windows: full, fully lost, one received, then a partial one."""
    lines = ["seq,send_ts_ms,recv_ts_ms"]
    for i in range(18):
        send = i * 20.0
        lost = 5 <= i < 14  # all of window 1; window 2 keeps only seq 15
        recv = send + 100.0 + (i % 3) * 1.7
        lines.append(f"{i + 1},{send!r}," + ("" if lost else repr(recv)))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("estimator", ["rfc3550", "mean-abs"])
def test_trace_analyze_report_matches_json_text(
    tmp_path, capsys, estimator
):
    trace_csv = floored_partial_trace(tmp_path / "trace.csv")
    profile = json.loads((DATA_DIR / "profile_zeroed_jitter.json").read_text())
    profile["name"] = 'zeroed "jitter" \u00e9'
    (tmp_path / "profile.json").write_text(json.dumps(profile))
    (tmp_path / "models.json").write_text(json.dumps({
        "name": 'm"\u00f8', "criteria": ["loss", "delay", "jitter"],
        "weights": [0.5, 0.3, 0.2],
    }))
    reports = []
    for options in (
        [],
        ["--profile", str(tmp_path / "profile.json"),
         "--models-config", str(tmp_path / "models.json"), "--model", 'm"\u00f8'],
    ):
        report = tmp_path / f"report{len(reports)}.json"
        code, _, _ = run(
            capsys, "trace", "analyze", trace_csv, "--window", "0.1",
            "--jitter-estimator", estimator, "--out", str(report), *options,
        )
        assert code == 0
        reports.append(report.read_text(encoding="utf-8"))
    for text in reports:
        doc = json.loads(text)
        assert cli.json_text(doc) + "\n" == text
        rows = doc["windows"]
        assert [r["partial"] for r in rows] == [False, False, False, True]
        assert rows[1]["delay_ms"] is None and rows[1]["r_factors"]["delay"] is None
        assert rows[2]["delay_ms"] is not None and rows[2]["jitter_ms"] is None
    assert (doc["model"], doc["profile"]) == ('m"\u00f8', 'zeroed "jitter" \u00e9')


def test_trace_analyze_table_and_csv_cells(tmp_path, capsys):
    trace_csv = floored_partial_trace(tmp_path / "trace.csv")
    table = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "trace", "analyze", trace_csv, "--window", "0.1", "--csv", str(table)
    )
    assert code == 0
    lines = out.splitlines()
    csv_lines = table.read_text().splitlines()
    assert lines[0] == " ".join(cli.REPORT_CSV_COLUMNS)
    assert csv_lines[0] == ",".join(cli.REPORT_CSV_COLUMNS)
    assert lines[2] == "1 100.000 n/a n/a 1.000 1.000 1.000 1.000"
    assert csv_lines[2] == "1,100.000,,,1.000,1.000,1.000,1.000"
    assert lines[3].startswith("2 80.000 103.400 n/a ")
    assert csv_lines[3].startswith("2,80.000,103.400,,")


#: The values one REPORT_ROW takes, one per ``%s``.
ROW_WIDTH = cli.REPORT_ROW.count("%s")


def test_report_row_template_rejects_nan():
    values = [0] * ROW_WIDTH
    text = cli.report_text({"windows": []}, [cli.report_rows([cli.REPORT_ROW], values)])
    assert cli.json_text(json.loads(text)) + "\n" == text
    values[-1] = float("nan")
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.report_rows([cli.REPORT_ROW], values)


def report_row(i: int) -> tuple[dict, list]:
    """A made-up window ``i`` with a value of every JSON type: the row dict
    ``json_text`` renders, and its ``REPORT_ROW`` values."""
    delay = None if i % 7 == 3 else 100.0 + i / 3
    row = {
        "window_id": i, "start_ms": 200.0 * i, "end_ms": 200.0 * (i + 1),
        "expected": 10, "received": 10 - i % 3, "lost": i % 3, "partial": i % 5 == 4,
        "loss_pct": 10.0 * (i % 3), "delay_ms": delay,
        "jitter_ms": None if delay is None else i / 7,
        "r_factors": {"loss": 93.2 - i % 3, "delay": delay and delay / 9, "jitter": -0.0},
        "mos_loss": 4.1, "mos_delay": 1.0, "mos_jitter": 3.5, "mos_overall": 2 + i / 1e4,
    }
    cells = list(row.values())
    return row, [*cells[:10], *row["r_factors"].values(), *cells[11:]]


@pytest.mark.parametrize(
    "n_rows",
    [1, cli._REPORT_BLOCK - 1, cli._REPORT_BLOCK, cli._REPORT_BLOCK + 1,
     2 * cli._REPORT_BLOCK + 1],
)
def test_report_blocks_equal_json_text(n_rows):
    # rendered as cmd_trace_analyze renders them: _REPORT_BLOCK rows a block
    payload = {"model": "m", "windows": [], "summary": {"window_count": n_rows}}
    rows = [report_row(i) for i in range(n_rows)]
    step = ROW_WIDTH * cli._REPORT_BLOCK
    values = [value for _, row_values in rows for value in row_values]
    blocks = [
        cli.report_rows([cli.REPORT_ROW] * (len(chunk) // ROW_WIDTH), chunk)
        for chunk in (values[i : i + step] for i in range(0, len(values), step))
    ]
    expected = cli.json_text({**payload, "windows": [row for row, _ in rows]}) + "\n"
    assert cli.report_text(payload, blocks) == expected
    last = values[(len(values) - 1) // step * step :]
    last[-1] = float("nan")
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.report_rows([cli.REPORT_ROW] * (len(last) // ROW_WIDTH), last)


@pytest.mark.parametrize("chunk", [4, 5, 6, 1 << 20])
def test_atomic_write_text_in_chunks(tmp_path, monkeypatch, chunk):
    # two- and three-byte characters on and across every 4-6 character boundary
    text = "a\u00e9\u00f8\u20ac\n" * 50 + "\u20ac"
    monkeypatch.setattr(cli, "_WRITE_CHARS", chunk)
    path = tmp_path / "out.txt"
    cli.atomic_write_text(path, text)
    assert path.read_bytes() == text.encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_text_failure_removes_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with pytest.raises(UnicodeEncodeError):
        cli.atomic_write_text(path, "a" * 10 + "\udc80")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert path.read_text() == "old"


def test_atomic_write_text_keeps_existing_temp_names(tmp_path):
    # a file named as the temp file once was, or as this process's first
    # temp name, is left alone; the output gets the mode open(..., "w") gives
    text = "report\n"
    path = tmp_path / "out.txt"
    others = {
        tmp_path / "out.txt.tmp": b"unrelated",
        path.with_name(f".out.txt.{os.getpid()}-0.tmp"): b"also unrelated",
    }
    for other, data in others.items():
        other.write_bytes(data)
    cli.atomic_write_text(path, text)
    assert path.read_bytes() == text.encode("utf-8")
    assert {p: p.read_bytes() for p in others} == others
    assert sorted(tmp_path.iterdir()) == sorted([path, *others])
    with open(tmp_path / "reference.txt", "w") as fh:
        fh.write(text)
    assert path.stat().st_mode == (tmp_path / "reference.txt").stat().st_mode


def test_analyze_input_named_as_outputs_old_temp_file_survives(tmp_path, capsys, monkeypatch):
    trace_csv = floored_partial_trace(tmp_path / "X.tmp")
    data = Path(trace_csv).read_bytes()
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "trace", "analyze", "X.tmp", "--out", "X", "--window", "1")
    assert code == 0
    assert Path("X.tmp").read_bytes() == data
    assert json.loads(Path("X").read_text())["inputs"][0]["path"] == "X.tmp"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["X", "X.tmp"]


def test_analyze_without_out_renders_no_report_rows(tmp_path, capsys, monkeypatch):
    def no_rows(rows, values):
        raise AssertionError("report rows rendered without --out")

    monkeypatch.setattr(cli, "report_rows", no_rows)
    trace_csv = floored_partial_trace(tmp_path / "trace.csv")
    code, out, _ = run(capsys, "trace", "analyze", trace_csv, "--window", "0.1")
    assert code == 0
    assert out.startswith(" ".join(cli.REPORT_CSV_COLUMNS) + "\n")


def test_analyze_rejects_non_finite_row_value_before_printing(tmp_path, capsys, monkeypatch):
    # no valid input reaches it: the kernel and QosSample pass finite values only
    trace_csv = floored_partial_trace(tmp_path / "trace.csv")
    monkeypatch.setattr(cli.composite, "combine", lambda model, mos: float("nan"))
    report = tmp_path / "report.json"
    code, out, err = run(
        capsys, "trace", "analyze", trace_csv, "--window", "0.1", "--out", str(report)
    )
    assert (code, out) == (2, "")
    assert "not JSON compliant" in err
    assert not report.exists()


def analyze_outputs(trace_csv, work, *options):
    """stdout, report and table of ``trace analyze --out --csv`` in ``work``."""
    report, table = work / "R.json", work / "R.csv"
    argv = ["trace", "analyze", str(trace_csv), "--out", str(report), "--csv", str(table)]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([*argv, *options]) == 0
    return out.getvalue(), report.read_bytes(), table.read_bytes()


def template_keys(report: bytes) -> list[tuple]:
    """Each window's loss and jitter cells, the key of its row templates."""
    return [
        (w["loss_pct"], w["r_factors"]["loss"], w["mos_loss"],
         w["r_factors"]["jitter"], w["mos_jitter"])
        for w in json.loads(report)["windows"]
    ]


@st.composite
def voice_traces(draw):
    """20 ms voice with iid loss and delay 80 + U(0, amplitude) ms.  Under
    the 40 ms buffer floor the loss and jitter cells of windows repeat; at
    an amplitude of 600 ms nearly every window's jitter cells are distinct."""
    n = draw(st.integers(1, 300))
    loss = draw(st.sampled_from([0.0, 0.05, 0.5]))
    amplitude = draw(st.sampled_from([0.0, 10.0, 600.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    send = np.arange(n) * 20.0
    recv = send + 80.0 + rng.uniform(0.0, amplitude, n)
    recv[rng.random(n) < loss] = np.nan
    return Trace(columns=(np.arange(1, n + 1), send, recv))


@settings(max_examples=60, deadline=None)
@given(
    trace=voice_traces(),
    window=st.sampled_from(["0.1", "0.2", "1"]),
    estimator=st.sampled_from(JITTER_ESTIMATORS),
)
def test_row_templates_leave_analyze_outputs_unchanged(trace, window, estimator):
    built = []
    row_templates = cli.row_templates

    def counted(*key):
        built.append(key)
        return row_templates(*key)

    options = ["--window", window, "--jitter-estimator", estimator]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "row_templates", counted):
        work = Path(tmp)
        (work / "T.csv").write_bytes(trace_to_csv_text(trace).encode())
        with mock.patch.object(cli, "_REPORT_BLOCK", 1):  # no key repeats in a block
            want = analyze_outputs(work / "T.csv", work, *options)
        assert built == []
        got = analyze_outputs(work / "T.csv", work, *options)
    assert got == want
    # every window is in one block: a template per key seen twice, built once
    assert sorted(built, key=repr) == sorted(
        (key for key, n in Counter(template_keys(got[1])).items() if n > 1), key=repr
    )
    summary = json.loads(got[1])["summary"]
    total = 0.0
    for row in json.loads(got[1])["windows"]:
        total += row["mos_overall"]
    assert summary["mean_mos"] == total / summary["window_count"]


def test_template_key_cells_are_never_negative_zero(tmp_path):
    # -0.0 == 0.0, so a key holding one would take the template rendered
    # from the other.  No key cell can be -0.0: loss_pct is 100 * lost /
    # expected, a MOS is at least 1, and an R is r0 - term with r0 > 0,
    # which is +0.0 when the term equals r0.
    assert {(0.0,): "0.0"}[(-0.0,)] == "0.0"
    for r0 in (0.0, -0.0):
        with pytest.raises(ValueError, match="r0 must be within"):
            dataclasses.replace(G729, r0=r0)
    # a profile whose loss and jitter terms both equal r0, at any input
    profile = {
        "name": "edge", "r0": 93.2, "loss": {"a": 93.2, "b": 0.0, "c": 10.0},
        "jitter": {"c1": 0.0, "c2": 0.0, "c3": 93.2, "c4": 0.0},
    }
    (tmp_path / "edge.json").write_text(json.dumps(profile))
    trace_csv = floored_partial_trace(tmp_path / "trace.csv")
    options = ["--window", "0.04", "--profile", str(tmp_path / "edge.json")]
    got = analyze_outputs(trace_csv, tmp_path, *options)
    keys = template_keys(got[1])
    assert max(Counter(keys).values()) > 1  # templates were built
    cells = [cell for key in keys for cell in key if cell == 0.0]
    assert cells and all(math.copysign(1.0, cell) == 1.0 for cell in cells)
    assert b"-0.0" not in got[1]
    with mock.patch.object(cli, "_REPORT_BLOCK", 1):
        assert analyze_outputs(trace_csv, tmp_path, *options) == got


# ---------------------------------------------------------------------------
# models list

def test_models_list(capsys):
    code, out, _ = run(capsys, "models", "list")
    assert code == 0
    assert "paper-5g-ahp [mos-5pt] loss=0.550 delay=0.250 jitter=0.200" in out
    assert "video-network" in out
    assert "video-application" in out


def test_models_list_with_config(tmp_path, capsys):
    config = tmp_path / "models.json"
    config.write_text(
        '[{"name": "zz-custom", "criteria": ["loss", "delay", "jitter"],'
        ' "weights": [0.4, 0.4, 0.2]}]'
    )
    code, out, _ = run(capsys, "models", "list", "--models-config", str(config))
    assert code == 0
    assert "zz-custom" in out


@pytest.mark.parametrize(
    "document, message",
    [
        ("7", "model config must be a model object or a list of them, got int"),
        ('{"models": 5}', "model config field models must be a model object"),
        ("[7]", "model entry must be a JSON object, got int"),
        (
            '{"name": "zc", "criteria": "ldj", "weights": [0.5, 0.3, 0.2]}',
            "model field criteria must be a list of strings, got 'ldj'",
        ),
        (
            '[{"name": "zc", "criteria": ["loss", 3, "jitter"], "weights": [0.5, 0.3, 0.2]}]',
            "model field criteria must be a list of strings",
        ),
        (
            '{"name": 5, "criteria": ["loss", "delay", "jitter"], "weights": [0.5, 0.3, 0.2]}',
            "model field name must be a string, got 5",
        ),
        (
            '{"name": "zc", "criteria": ["loss", "delay", "jitter"], "weights": [0.5, 0.3, 0.2],'
            ' "scale": ["mos-5pt"]}',
            "model field scale must be a string, got ['mos-5pt']",
        ),
    ],
    ids=[
        "number", "models-number", "entry-number", "criteria-string", "criterion-number",
        "name-number", "scale-list",
    ],
)
def test_models_config_rejects_ill_typed_document(
    tmp_path, capsys, document, message
):
    config = tmp_path / "models.json"
    config.write_text(document)
    code, out, err = run(capsys, "models", "list", "--models-config", str(config))
    assert code == 2
    assert out == ""
    assert message in err
    assert "zc" not in run(capsys, "models", "list")[1]


@pytest.mark.filterwarnings("error")
def test_models_config_renormalization_warning_names_the_file(tmp_path, capsys):
    # printed as a message, not raised, even where warnings are errors
    config = tmp_path / "models.json"
    config.write_text(
        '{"name": "zr", "criteria": ["loss", "delay", "jitter"], "weights": [0.56, 0.25, 0.2]}'
    )
    code, out, err = run(capsys, "models", "list", "--models-config", str(config))
    assert code == 0
    assert "zr [mos-5pt] loss=0.554 delay=0.248 jitter=0.198" in out.splitlines()
    assert err == f"warning: {config}: model 'zr': weights sum to 1.010000; renormalizing\n"


@pytest.mark.parametrize(
    "entry, message",
    [
        ('"name": "neg", %s, "weights": [2.0, -1.0, 0.0]',
         "model 'neg': weights must be nonnegative, got (2.0, -1.0, 0.0)"),
        ('"name": "paper-5g-ahp", %s, "weights": [0.55, 0.25, 0.2]',
         "model 'paper-5g-ahp' is already registered"),
    ],
    ids=["negative-weight", "preset-name"],
)
def test_models_config_error_names_file_and_model(tmp_path, capsys, entry, message):
    config = tmp_path / "models.json"
    config.write_text("{" + entry % '"criteria": ["loss", "delay", "jitter"]' + "}")
    code, out, err = run(capsys, "models", "list", "--models-config", str(config))
    assert (code, out) == (2, "")
    assert err == f"error: {config}: {message}\n"


def input_argv(directory, kind, data):
    """The file of input ``kind`` holding ``data`` in a new ``directory``,
    and a command that reads it and writes ``directory/out`` if it can."""
    directory.mkdir()
    path = directory / f"{kind}.input"
    path.write_bytes(data)
    out = str(directory / "out")
    return str(path), {
        "profile": ["mos", "--loss", "1", "--delay", "100", "--profile", str(path)],
        "models-config": ["models", "list", "--models-config", str(path)],
        "judgments": ["ahp", "weights", str(path), "--out-dir", out],
        "spec": ["trace", "gen", str(path), "--out", out],
        "matrix": ["ahp", "weights", "--matrix", str(path), "--out-dir", out],
        "trace": ["trace", "analyze", str(path), "--out", out],
        "answers": ["ahp", "elicit", "--evaluator-id", "e1", "--answers", str(path),
                    "--out", out],
    }[kind]


VALID_INPUTS = {
    "profile": Path(ZEROED_PROFILE).read_bytes(),
    "models-config": (
        b'{"name": "zc", "criteria": ["loss", "delay", "jitter"], "weights": [0.5, 0.3, 0.2]}'
    ),
    "judgments": Path(JUDGMENT_FILES[0]).read_bytes(),
    "spec": json.dumps({
        "loss_prob": 0.0, "base_delay_ms": 100.0, "duration_s": 1.0,
        "packet_interval_ms": 20.0, "rng_seed": 1,
    }).encode(),
    "matrix": Path(MATRIX_CSV).read_bytes(),
    "trace": b"seq,send_ts_ms,recv_ts_ms\n1,0.0,80.0\n2,20.0,101.5\n3,40.0,\n",
    "answers": b"2\n4\n2\n",
}


@pytest.mark.parametrize("kind", VALID_INPUTS)
def test_a_bad_utf8_byte_names_its_file(tmp_path, capsys, kind):
    data = VALID_INPUTS[kind]
    assert run(capsys, *input_argv(tmp_path / "valid", kind, data)[1])[0] == 0
    at = data.index(b"\n") + 1 if b"\n" in data else len(data) // 2  # past the start
    path, argv = input_argv(tmp_path / "bad", kind, data[:at] + b"\xff" + data[at:])
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position {at}: "
        "invalid start byte\n"
    )
    assert not (tmp_path / "bad" / "out").exists()


def test_commands_leave_no_state_behind(tmp_path, capsys):
    # each command run twice in one process, as a benchmark worker runs them
    trace_csv = floored_partial_trace(tmp_path / "trace.csv")
    config = tmp_path / "models.json"
    config.write_text(
        '{"name": "zc", "criteria": ["loss", "delay", "jitter"], "weights": [0.5, 0.3, 0.2]}'
    )
    zc = ["--models-config", str(config), "--model", "zc"]
    for argv in (
        ["models", "list"],
        ["models", "list", "--models-config", str(config)],
        ["mos", "--loss", "1", "--delay", "50"],
        ["mos", "--loss", "1", "--delay", "50", *zc],
        ["trace", "analyze", trace_csv, "--window", "0.1"],
        ["trace", "analyze", trace_csv, "--window", "0.1", *zc],
    ):
        first = run(capsys, *argv)[:2]
        assert first[0] == 0
        assert run(capsys, *argv)[:2] == first
    # the first entry is valid, the second's weights sum to 1.2
    config.write_text(
        '[{"name": "zd", "criteria": ["loss", "delay", "jitter"], "weights": [0.5, 0.3, 0.2]},'
        ' {"name": "ze", "criteria": ["loss", "delay", "jitter"], "weights": [0.5, 0.5, 0.2]}]'
    )
    assert run(capsys, "models", "list", "--models-config", str(config))[0] == 2
    assert run(capsys, "models", "list")[1].splitlines() == [
        "paper-5g-ahp [mos-5pt] loss=0.550 delay=0.250 jitter=0.200",
        "video-application [normalized-score] "
        "bit_rate=0.260 frame_rate=0.630 resolution=0.110",
        "video-network [normalized-score] "
        "loss=0.260 jitter=0.550 throughput=0.070 ars=0.120",
    ]
