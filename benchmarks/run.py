"""qoekit benchmark: closed-loop CLI workloads with an output oracle.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --all [--seed N] [--seconds S] [--record FILE]

One client, one op at a time: an op is one full ``qoekit.cli.main(argv)``
call, and the next starts only when it has returned.  This process
builds the inputs from the seed with numpy, then starts the measured
worker processes one after another (each does its own set-up, a warm-up
op and a share of the run's seconds), and finally checks every op's
outputs.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics of BENCHMARK.json, and the lines before it also show
op_tail_ms and fail_frac, which have no bound; with ``--trace 1`` ops
alternate untraced and traced and the last line carries the per-layer
metrics from the spans.

``--all`` runs every workload in both modes and prints each metric by
name and unit; ``--record FILE`` also writes them with an environment
stamp.  The workloads, metrics and layer map are described in
``benchmarks/manifest.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracle
from tracing import per_op_metrics
from worker import digest

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
RUN_DIR = ROOT / ".bench_run"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Fresh worker processes per run; set-up is measured in each and the
#: run's share of seconds is split between them.
WORKERS = 3
#: Timed ops per run, at least: op_tail_ms needs ten ops beyond it.
MIN_OPS = 12
#: A run must end within this many seconds.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


@dataclass
class Prepared:
    variants: list[dict]
    items_per_op: int
    check: Callable[[int], list[str]]  # variant -> errors of its outputs on disk


def _variant(work: Path, tag: str, argv: list[str], outputs: list[Path]) -> dict:
    stdout, stderr = work / f"{tag}.stdout", work / f"{tag}.stderr"
    return {
        "argv": [str(a) for a in argv],
        "stdout": str(stdout),
        "stderr": str(stderr),
        "captured": [str(p) for p in (stdout, stderr, *outputs)],
    }


def scorer():
    from qoekit import composite, emodel

    model = composite.get_model("paper-5g-ahp")

    def score(loss, delay, jitter):
        sample = composite.QosSample(loss, delay, jitter)
        return composite.score(sample, model, emodel.G729)

    return score


def prepare_analyze(window_s: float):
    def prepare(work: Path, seed: int) -> Prepared:
        truth = inputs.make_trace(seed)
        trace = inputs.write_text(work / "T.csv", inputs.trace_csv_text(truth))
        report, table = work / "R.json", work / "R.csv"
        argv = ["trace", "analyze", trace, "--window", repr(window_s),
                "--out", report, "--csv", table]
        variant = _variant(work, "analyze", argv, [report, table])

        def check(_: int) -> list[str]:
            doc = json.loads(report.read_text(encoding="utf-8"))
            errors = oracle.check_analyze(doc, truth, window_s, scorer())
            return errors + oracle.check_analyze_table(
                table.read_text(encoding="utf-8"),
                Path(variant["stdout"]).read_text(encoding="utf-8"),
                len(doc["windows"]),
            )

        return Prepared([variant], inputs.TRACE_PACKETS, check)

    return prepare


def prepare_gen(work: Path, seed: int) -> Prepared:
    spec = inputs.gen_spec(seed)
    spec_path = inputs.write_text(work / "S.json", json.dumps(spec))
    out = work / "G.csv"
    variant = _variant(work, "gen", ["trace", "gen", spec_path, "--out", out], [out])

    def check(_: int) -> list[str]:
        return oracle.check_gen(
            out.read_bytes().decode("utf-8"),
            Path(variant["stdout"]).read_text(encoding="utf-8"),
            spec,
            inputs.TRACE_PACKETS,
        )

    return Prepared([variant], inputs.TRACE_PACKETS, check)


WEIGHT_VARIANTS = (
    ("arithmetic-mean", "column-average"),
    ("geometric-mean", "eigenvector"),
)


def prepare_weights(work: Path, seed: int) -> Prepared:
    docs = inputs.make_judgments(seed)
    files = inputs.write_judgment_files(work / "judgments", docs)
    variants = []
    for k, (aggregate, method) in enumerate(WEIGHT_VARIANTS):
        out_dir = work / f"D{k}"
        argv = ["ahp", "weights", *files, "--aggregate", aggregate,
                "--method", method, "--out-dir", out_dir]
        outputs = [out_dir / n for n in ("weights.json", "matrix.csv", "weights.csv")]
        variants.append(_variant(work, f"weights{k}", argv, outputs))

    def check(k: int) -> list[str]:
        doc = json.loads((work / f"D{k}" / "weights.json").read_text(encoding="utf-8"))
        return oracle.check_weights(doc, docs, *WEIGHT_VARIANTS[k])

    return Prepared(variants, inputs.JUDGMENT_SETS, check)


WORKLOADS = {
    "analyze-10s": prepare_analyze(10.0),
    "analyze-200ms": prepare_analyze(0.2),
    "gen": prepare_gen,
    "weights": prepare_weights,
}


def run_workers(prep: Prepared, seconds: float, trace: bool, spans_out: Path,
                deadline: float) -> list[dict]:
    per_worker_min = math.ceil(MIN_OPS / WORKERS)
    if trace:  # each variant untraced and traced at least once
        per_worker_min = max(per_worker_min, 2 * len(prep.variants))
    results = []
    for k in range(WORKERS):
        job = {
            "root": str(ROOT),
            "variants": prep.variants,
            "seconds": seconds / WORKERS,
            "min_ops": per_worker_min,
            "trace": trace,
            "spans_out": str(spans_out) if k == WORKERS - 1 else None,
        }
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        job["t_spawn"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(job)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker did not finish within {RUN_LIMIT_S} s") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited with code {proc.returncode}")
        results.append(json.loads(lines[-1]))
    return results


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with >= 10 samples beyond it, and which one."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = RUN_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prep = WORKLOADS[name](work, seed)
        results = run_workers(prep, seconds, trace, RUN_DIR / f"spans-{name}.jsonl", deadline)
        verified = []
        for k, variant in enumerate(prep.variants):
            try:
                errors = prep.check(k)
                good = None if errors else digest(variant["captured"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                errors, good = [f"output unreadable: {exc!r}"], None
            for e in errors[:5]:
                print(f"oracle: variant {k}: {e}", file=sys.stderr)
            verified.append(good)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in results for op in r["ops"]]
    failed = [op for op in ops if op["digest"] is None or op["digest"] != verified[op["variant"]]]
    for op in failed[:5]:
        print(f"failed op: {op.get('error') or 'output differs from the verified result'}",
              file=sys.stderr)
    timed = [op["ms"] for op in ops if op["kind"] == "timed"]
    result = {
        "correct": not failed and all(v is not None for v in verified),
        "attempted": len(ops),
        "failed": len(failed),
    }
    if trace:
        traced = [op["ms"] for op in ops if op["kind"] == "traced"]
        metrics = per_op_metrics([tuple(m) for r in results for m in r["layers"]])
        metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(timed) - 1.0
        result["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
        return result
    tail_ms, tail_pct = tail(timed)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "op_p50_ms": statistics.median(timed),
        "items_per_s": prep.items_per_op * len(timed) / (sum(timed) / 1000.0),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    result["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    # Reported but not in BENCHMARK.json: neither has a usable bound (see
    # benchmarks/manifest.json).
    result["unbounded"] = {
        "op_tail_ms": {"value": tail_ms, "unit": "ms",
                       "note": f"p{tail_pct:.1f} of {len(timed)} timed ops"},
        "fail_frac": {"value": len(failed) / len(ops), "unit": "ratio",
                      "note": f"{len(failed)} of {len(ops)} ops"},
    }
    return result


def print_metrics(name: str, result: dict) -> None:
    for metric, m in {**result["metrics"], **result.get("unbounded", {})}.items():
        note = f"  ({m['note']})" if "note" in m else ""
        print(f"{name:14s} {metric:34s} {m['value']:14.6g} {m['unit']}{note}")


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "commit": git.stdout.strip() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="with --all: write results here")
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so subprocess.run kills and
    # reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "qoekit" / "cli.py").is_file():
        print(f"error: no qoekit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.workload:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print_metrics(args.workload, result)
            result.pop("unbounded", None)
            print(json.dumps(result))
            return 0
        record = {"environment": environment(args.seed), "seconds": args.seconds,
                  "workloads": {}}
        all_correct = True
        for name in WORKLOADS:
            entry = record["workloads"][name] = {}
            for trace in (False, True):
                result = run_workload(name, args.seed, args.seconds, trace)
                print_metrics(name, result)
                metrics = {**result["metrics"], **result.get("unbounded", {})}
                entry.update({k: m["value"] for k, m in metrics.items()})
                all_correct = all_correct and result["correct"]
        if args.record:
            args.record.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        return 0 if all_correct else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
