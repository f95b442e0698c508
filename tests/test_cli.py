import json
import re
from pathlib import Path

import pytest

from qoekit import cli
from qoekit.cli import main, parse_scale_entry, resolve_profile, sha256_file
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
    ],
    ids=["criteria-string", "criterion-number", "evaluator-number", "pair-number"],
)
def test_weights_rejects_ill_typed_judgment_file(tmp_path, capsys, fields, message):
    path = tmp_path / "e.json"
    judgment = {
        "evaluator_id": "e",
        "criteria": ["a", "b"],
        "judgments": [{"a": "a", "b": "b", "value": 3}],
    }
    path.write_text(json.dumps({**judgment, **fields}))
    code, out, err = run(capsys, "ahp", "weights", str(path))
    assert code == 2
    assert out == ""
    assert f"error: {path}: {message}" in err


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
    ],
    ids=["inf", "nan", "overflow"],
)
def test_weights_rejects_non_finite_matrix_cell(tmp_path, capsys, cell, message):
    path = tmp_path / "matrix.csv"
    path.write_text(Path(MATRIX_CSV).read_text().replace("5.74", cell))
    code, out, err = run(capsys, "ahp", "weights", "--matrix", str(path))
    assert code == 2
    assert out == ""
    assert f"matrix cell (loss, delay) {message}" in err


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
        ("--jitter-t", "nan"), ("--jitter-t", "inf"),
    ],
)
def test_mos_rejects_non_finite_input(capsys, flag, value):
    argv = {"--loss": "1.0", "--delay": "100", "--jitter": "5", flag: value}
    code, out, err = run(capsys, "mos", *(x for kv in argv.items() for x in kv))
    assert code == 2
    assert out == ""
    assert f"{flag[2:].replace('-', '_')}_ms must be finite" in err


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
    assert f"{field} must be a finite number" in err


def test_mos_jitter_overrides(capsys):
    code, out, _ = run(
        capsys,
        "mos", "--loss", "0", "--delay", "0",
        "--jitter-h", "0.9", "--jitter-t", "10", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    # H=0.9, T=10, K=30: -15.5*0.81 + 33.5*0.9 + 4.4 + 13.6*exp(-1/3)
    assert payload["r_factors"]["jitter"] == pytest.approx(
        93.2 - (-15.5 * 0.81 + 33.5 * 0.9 + 4.4 + 13.6 * 2.718281828459045 ** (-1 / 3)),
        abs=1e-9,
    )


def test_mos_config_precedence(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"profile": ZEROED_PROFILE}))
    code, out, _ = run(
        capsys, "mos", "--loss", "0", "--delay", "0", "--config", str(config)
    )
    assert code == 0
    assert "profile=G.729-zeroed-jitter" in out
    # an explicit flag wins over the config file
    code, out, _ = run(
        capsys,
        "mos", "--loss", "0", "--delay", "0",
        "--config", str(config), "--profile", "g729",
    )
    assert code == 0
    assert "profile=G.729" in out


@pytest.mark.parametrize(
    "config, message",
    [
        ({"window_s": True}, "config field window_s must be a finite number, got True"),
        ({"window_s": "10"}, "config field window_s must be a finite number, got '10'"),
        ({"model": ["x"]}, "config field model must be a string"),
        ({"profile": 7}, "config field profile must be a string"),
        (["window_s"], "config must be a JSON object, got list"),
    ],
    ids=["window-bool", "window-string", "model-list", "profile-number", "list"],
)
def test_config_rejects_ill_typed_field(tmp_path, capsys, config, message):
    trace_csv = tmp_path / "trace.csv"
    trace_csv.write_text("seq,send_ts_ms,recv_ts_ms\n1,0,100\n2,20,121\n3,40,139\n")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(
        capsys, "trace", "analyze", str(trace_csv), "--config", str(path)
    )
    assert code == 2
    assert out == ""
    assert message in err


def test_profile_dir_resolution(tmp_path, monkeypatch):
    target = tmp_path / "profiles"
    target.mkdir()
    (target / "zeroed.json").write_text(Path(ZEROED_PROFILE).read_text())
    monkeypatch.setenv("QOEKIT_PROFILE_DIR", str(target))
    assert resolve_profile("G.729-zeroed-jitter").name == "G.729-zeroed-jitter"
    assert resolve_profile("zeroed").name == "G.729-zeroed-jitter"
    with pytest.raises(ValueError, match="unknown profile"):
        resolve_profile("no-such-profile")
    # a profile that fails to load is an error naming its file, not skipped
    wide = json.loads(Path(ZEROED_PROFILE).read_text())
    wide["name"] = "wide"
    wide["jitter"]["h"] = 5
    (target / "wide.json").write_text(json.dumps(wide))
    with pytest.raises(ValueError, match=r"wide\.json: pareto_h must be within"):
        resolve_profile("wide")


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


def test_trace_gen_rejects_out_of_range_shape(tmp_path, capsys):
    spec = write_spec(
        tmp_path, jitter={"model": "pareto", "shape": 0.95, "scale_ms": 2.0}
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
    # a non-finite profile override on a good trace
    good = tmp_path / "good.csv"
    good.write_text("seq,send_ts_ms,recv_ts_ms\n1,0.0,100.0\n2,20.0,121.0\n")
    code, out, err = run(
        capsys, "trace", "analyze", str(good), "--jitter-t", value, "--out", str(report)
    )
    assert code == 2
    assert f"jitter_t_ms must be finite, got {value}" in err
    assert out == ""
    assert not report.exists()


def test_trace_analyze_empty_trace_aborts(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("seq,send_ts_ms,recv_ts_ms\n")
    code, _, err = run(capsys, "trace", "analyze", str(empty))
    assert code == 2
    assert "no packets" in err


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


def test_report_row_template_rejects_nan():
    values = [0] * cli.REPORT_ROW_WIDTH
    text = cli.report_text({"windows": []}, values)
    assert cli.json_text(json.loads(text)) + "\n" == text
    values[-1] = float("nan")
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.report_text({"windows": []}, values)


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
    payload = {"model": "m", "windows": [], "summary": {"window_count": n_rows}}
    rows = [report_row(i) for i in range(n_rows)]
    values = [value for _, row_values in rows for value in row_values]
    expected = cli.json_text({**payload, "windows": [row for row, _ in rows]}) + "\n"
    assert cli.report_text(payload, values) == expected
    values[-1] = float("nan")  # in the last block
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.report_text(payload, values)


@pytest.mark.parametrize("chunk", [4, 5, 6, 1 << 20])
def test_atomic_write_text_in_chunks(tmp_path, monkeypatch, chunk):
    # two- and three-byte characters on and across every 4-6 character boundary
    text = "a\u00e9\u00f8\u20ac\n" * 50 + "\u20ac"
    monkeypatch.setattr(cli, "_WRITE_CHARS", chunk)
    path = tmp_path / "out.txt"
    cli.atomic_write_text(path, text)
    assert path.read_bytes() == text.encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


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
