#!/usr/bin/env python3
"""Regenerate the golden outputs in tests/data/golden/out/.

Each case in ``CASES`` runs one ``qoekit`` command through ``cli.main``
from this directory, with relative paths, so the report stamps and the
"wrote ... to" lines do not depend on where the repository lives.  Case
``name`` writes its files under ``out/<name>/`` and its stdout to
``out/<name>/stdout.txt``.  ``tests/test_golden.py`` reruns every case in
a copy of ``tests/data`` and compares the bytes.

The inputs are the seven judgment fixtures, the reference matrix, the
generator specs of ``SPECS`` (one per jitter model), ``models.json`` (one
custom model for ``--models-config``), ``answers.txt`` (a scripted
``ahp elicit`` session) and two traces:
``out/gen/trace.csv``, the ``trace gen`` case's output for ``spec.json``,
and ``hand.csv``, built here with an outage, absent seqs, a backward send
and a 5 s gap.

Regenerate only for an intended output change, and name each changed file
and its reason in CHANGES.md; regenerating to hide an unintended change
defeats the check.

Run from the repository root:  PYTHONPATH=src python tests/data/golden/make_golden.py
"""
import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

from qoekit import cli

HERE = Path(__file__).parent

#: Generator specs by file name: every jitter model, a seed beyond 64 bits
#: and a negative one, and a loss probability of 0 (no packet lost).
SPECS = {
    "spec.json": {
        "loss_prob": 0.03, "base_delay_ms": 80.0, "duration_s": 20.0,
        "packet_interval_ms": 20.0, "rng_seed": 7,
        "jitter": {"model": "uniform", "amplitude_ms": 12.0},
    },
    "spec-pareto.json": {  # delays large beside send times: pow's last bit shows
        "loss_prob": 0.0, "base_delay_ms": 0.0, "duration_s": 1.0,
        "packet_interval_ms": 1.0, "rng_seed": 2**64 + 5,
        "jitter": {"model": "pareto", "shape": 1.1, "scale_ms": 200.0},
    },
    "spec-none.json": {
        "loss_prob": 0.25, "base_delay_ms": 60.0, "duration_s": 10.0,
        "packet_interval_ms": 10.0, "rng_seed": -11,
        "jitter": {"model": "none"},
    },
}

#: ``models.json``: one model that ranks jitter above delay.
MODELS = [{"name": "jitter-first", "criteria": ["loss", "delay", "jitter"],
           "weights": [0.4, 0.2, 0.4]}]

JUDGMENTS = [f"../judgments/e{k}.json" for k in range(1, 8)]

#: ``answers.txt``: circular judgments (loss 9x delay, jitter 9x loss, delay
#: 9x jitter), then one revision given in the reversed orientation.  It
#: leaves the set inconsistent, so the session asks again, finds the file
#: at its end and saves.
ANSWERS = "# loss/delay, loss/jitter, delay/jitter\n9\n1/9\n9\n\njitter loss 1/9\n"


def hand_rows():
    """(seq, send, recv) rows of ``hand.csv``; recv None = lost."""
    rows = []
    for i in range(520):
        seq = i + 1
        if 200 <= i < 212 or i in (300, 305):  # absent seqs
            continue
        send = 20.0 * i + (5000.0 if i >= 360 else 0.0)  # a 5 s gap after seq 360
        if i == 251:
            send -= 65.0  # sent before seq 250, in the window before it
        lost = 100 <= i < 150 or i % 37 == 0  # a 1 s outage and scattered losses
        recv = None if lost else send + 60.0 + (i * 7 % 13) * 0.37
        rows.append((seq, send, recv))
    return rows


def analyze_cases():
    for label, path in (("gen", "out/gen/trace.csv"), ("hand", "hand.csv")):
        for window in ("0.2", "1", "10"):
            for estimator in ("rfc3550", "mean-abs"):
                name = f"analyze-{label}-{window}s-{estimator}"
                yield name, [
                    "trace", "analyze", path, "--window", window,
                    "--jitter-estimator", estimator,
                    "--out", f"out/{name}/report.json", "--csv", f"out/{name}/table.csv",
                ]


def mos_cases():
    for loss in ("0", "2.5", "100"):
        for delay in ("20", "400"):
            for jitter in ("0", "60"):
                yield f"mos-l{loss}-d{delay}-j{jitter}", [
                    "mos", "--loss", loss, "--delay", delay, "--jitter", jitter, "--json",
                ]


#: (name, argv), in the order they run: the gen case first, since the
#: analyze cases read its trace.
CASES = [
    ("gen", ["trace", "gen", "spec.json", "--out", "out/gen/trace.csv"]),
    ("gen-pareto", ["trace", "gen", "spec-pareto.json", "--out", "out/gen-pareto/trace.csv"]),
    ("gen-none", ["trace", "gen", "spec-none.json", "--out", "out/gen-none/trace.csv"]),
    *analyze_cases(),
    ("analyze-gen-1s-models-config", [
        "trace", "analyze", "out/gen/trace.csv", "--window", "1",
        "--models-config", "models.json", "--model", "jitter-first",
        "--out", "out/analyze-gen-1s-models-config/report.json",
        "--csv", "out/analyze-gen-1s-models-config/table.csv",
    ]),
    ("weights-arithmetic-mean", [
        "ahp", "weights", *JUDGMENTS, "--aggregate", "arithmetic-mean",
        "--out-dir", "out/weights-arithmetic-mean",
    ]),
    ("weights-geometric-mean", [
        "ahp", "weights", *JUDGMENTS, "--aggregate", "geometric-mean",
        "--out-dir", "out/weights-geometric-mean",
    ]),
    ("weights-geometric-mean-eigenvector", [
        "ahp", "weights", *JUDGMENTS, "--aggregate", "geometric-mean",
        "--method", "eigenvector", "--out-dir", "out/weights-geometric-mean-eigenvector",
    ]),
    ("weights-matrix", [
        "ahp", "weights", "--matrix", "../reference_matrix.csv", "--json",
        "--out-dir", "out/weights-matrix",
    ]),
    *mos_cases(),
    ("elicit-revised", [
        "ahp", "elicit", "--evaluator-id", "e-circular", "--answers", "answers.txt",
        "--out", "out/elicit-revised/judgments.json",
    ]),
]


def run_case(name: str, argv: list[str]) -> None:
    """Run one case from the current directory, a copy of this one, into
    ``out/<name>/``; raise unless it exits 0 with nothing on stderr."""
    out_dir = Path("out", name)
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code != 0 or stderr.getvalue():
        raise RuntimeError(f"{name}: exit {code}: {stderr.getvalue()}")
    (out_dir / "stdout.txt").write_bytes(stdout.getvalue().encode("utf-8"))


def main() -> None:
    os.chdir(HERE)
    for name, data in [*SPECS.items(), ("models.json", MODELS)]:
        Path(name).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    lines = ["seq,send_ts_ms,recv_ts_ms"]
    lines += [f"{q},{t!r},{'' if r is None else repr(r)}" for q, t, r in hand_rows()]
    Path("hand.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    Path("answers.txt").write_text(ANSWERS, encoding="utf-8")
    shutil.rmtree("out", ignore_errors=True)
    for name, argv in CASES:
        run_case(name, argv)
    size = sum(p.stat().st_size for p in HERE.rglob("*") if p.is_file())
    print(f"wrote {len(CASES)} cases under {HERE / 'out'} ({size} bytes in all)", file=sys.stderr)


if __name__ == "__main__":
    main()
