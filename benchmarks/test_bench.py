"""Self-tests of the benchmark: its oracle, input writers and spans.

Run with ``python3 -m pytest benchmarks/test_bench.py`` from the root.
"""
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from qoekit import ahp, cli, composite, emodel  # noqa: E402
from qoekit import trace as tracemod  # noqa: E402
from tracing import ROOT_SPAN, Tracer, op_layer_metrics, self_times  # noqa: E402

SMALL_TRACE = 3_000  # 60 s; still holds the five 2 s outages


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main([str(a) for a in argv])
    assert rc == 0
    return out.getvalue()


score = run.scorer()


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    truth = inputs.make_trace(7, SMALL_TRACE)
    path = tmp_path_factory.mktemp("trace") / "T.csv"
    inputs.write_text(path, inputs.trace_csv_text(truth))
    return truth, path


def analyze(path, window_s, tmp_path):
    report = tmp_path / "R.json"
    quiet_main(["trace", "analyze", path, "--window", repr(window_s), "--out", report])
    return json.loads(report.read_text())


def test_trace_csv_matches_qoekit_writer(small_trace):
    truth, path = small_trace
    packets = tuple(
        tracemod.PacketRecord(int(q), float(s), None if math.isnan(r) else float(r))
        for q, s, r in zip(truth.seq, truth.send, truth.recv)
    )
    expected = tracemod.trace_to_csv_text(tracemod.Trace(packets))
    assert path.read_bytes().decode() == expected


@pytest.mark.parametrize("window_s", [10.0, 0.2])
def test_oracle_agrees_with_qoekit(small_trace, tmp_path, window_s):
    truth, path = small_trace
    report = analyze(path, window_s, tmp_path)
    assert oracle.check_analyze(report, truth, window_s, score) == []
    if window_s == 0.2:  # the outages floor whole windows
        assert any(row["delay_ms"] is None for row in report["windows"])


def test_oracle_counts_a_changed_count(small_trace, tmp_path):
    truth, path = small_trace
    report = analyze(path, 10.0, tmp_path)
    report["windows"][2]["received"] += 1
    assert oracle.check_analyze(report, truth, 10.0, score)


@pytest.mark.parametrize("name", ["delay_ms", "jitter_ms", "loss_pct"])
def test_oracle_tolerance_is_sharp(small_trace, tmp_path, name):
    truth, path = small_trace
    report = analyze(path, 10.0, tmp_path)
    ref = float(oracle.window_truth(truth, 10.0)[name][1])
    row = report["windows"][1]

    row[name] = ref * (1.0 + oracle.REL_TOL / 2)
    row["mos_overall"] = score(row["loss_pct"], row["delay_ms"], row["jitter_ms"])
    assert oracle.check_analyze(report, truth, 10.0, score) == []

    beyond = ref + oracle.REL_TOL * abs(ref)
    while abs(beyond - ref) <= oracle.REL_TOL * abs(ref):
        beyond = math.nextafter(beyond, math.inf)
    row[name] = beyond
    row["mos_overall"] = score(row["loss_pct"], row["delay_ms"], row["jitter_ms"])
    assert oracle.check_analyze(report, truth, 10.0, score)


def test_oracle_requires_exact_mos(small_trace, tmp_path):
    truth, path = small_trace
    report = analyze(path, 10.0, tmp_path)
    row = report["windows"][0]
    row["mos_overall"] = math.nextafter(row["mos_overall"], 0.0)
    assert oracle.check_analyze(report, truth, 10.0, score)


@pytest.mark.parametrize("variant", range(len(run.WEIGHT_VARIANTS)))
def test_weights_oracle(tmp_path, variant):
    aggregate, method = run.WEIGHT_VARIANTS[variant]
    docs = inputs.make_judgments(3, sets=6)
    files = inputs.write_judgment_files(tmp_path / "j", docs)
    quiet_main(["ahp", "weights", *files, "--aggregate", aggregate,
                "--method", method, "--out-dir", tmp_path / "D"])
    report = json.loads((tmp_path / "D" / "weights.json").read_text())
    assert oracle.check_weights(report, docs, aggregate, method) == []
    tol = oracle.REL_TOL if method == "column-average" else oracle.EIG_TOL
    report["weights"][0] *= 1.0 + 2 * tol
    assert oracle.check_weights(report, docs, aggregate, method)


def test_gen_oracle(tmp_path):
    spec = inputs.gen_spec(5, packets=30_000)
    spec_path = inputs.write_text(tmp_path / "S.json", json.dumps(spec))
    out = tmp_path / "G.csv"
    stdout = quiet_main(["trace", "gen", spec_path, "--out", out])
    text = out.read_bytes().decode()
    assert oracle.check_gen(text, stdout, spec, 30_000) == []
    assert oracle.check_gen(text, stdout, spec, 30_001)
    dropped = text[: text.rindex("\r\n", 0, len(text) - 2) + 2]
    assert oracle.check_gen(dropped, stdout, spec, 30_000)


def traced_op(argv):
    tracer = Tracer({"cli": cli, "trace": tracemod, "composite": composite, "ahp": ahp})
    main = tracer.wrap(ROOT_SPAN, cli.main)
    tracer.begin_op(1)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(a) for a in argv]) == 0
    finally:
        tracer.uninstall()
    assert cli.main is not main and composite.mos_from_r is emodel.mos_from_r
    return tracer


def test_self_times_add_up_to_the_op(small_trace, tmp_path):
    _, path = small_trace
    tracer = traced_op(["trace", "analyze", path, "--window", "0.2",
                        "--out", tmp_path / "R.json"])
    spans = tracer.spans
    roots = [s for s in spans if s[3] < 0]
    assert [s[0] for s in roots] == [ROOT_SPAN]
    total_self = sum(t for t, _ in self_times(spans).values())
    assert total_self == pytest.approx(roots[0][2] - roots[0][1], rel=1e-9)
    metrics = op_layer_metrics(spans, tracer.counts())
    assert metrics["trace.packets"] == SMALL_TRACE
    assert metrics["trace.windows.count"] == SMALL_TRACE // 10
    assert metrics["composite.component_mos.calls"] == SMALL_TRACE // 10
    assert metrics["trace.windows.floored"] > 0


def test_weights_op_has_no_trace_spans(tmp_path):
    files = inputs.write_judgment_files(tmp_path / "j", inputs.make_judgments(4, sets=3))
    tracer = traced_op(["ahp", "weights", *files, "--out-dir", tmp_path / "D"])
    names = {s[0] for s in tracer.spans}
    assert "ahp.aggregate_judgments" in names
    assert not any(n.startswith("trace.") for n in names)


def test_traced_metric_names_match_benchmark_json(tmp_path):
    files = inputs.write_judgment_files(tmp_path / "j", inputs.make_judgments(4, sets=3))
    tracer = traced_op(["ahp", "weights", *files])
    names = set(op_layer_metrics(tracer.spans, tracer.counts())) | {"trace_overhead_frac"}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert names == {m["name"] for m in bench["per_layer"]}


def test_tail_keeps_ten_samples_beyond():
    values = list(np.arange(40.0, 0.0, -1.0))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 75.0
