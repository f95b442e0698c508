"""One measured workload process: set up, then a closed loop of CLI ops.

``run.py`` starts it with a JSON job as its only argument and reads one
JSON result line from its stdout.  The process imports ``qoekit.cli``
from the checkout, runs one untimed warm-up op, then calls
``qoekit.cli.main(argv)`` back to back until its share of the run time
is used and it has run its minimum op count.  After each op its stdout
and stderr are saved beside its output files and all of them are
hashed, so the parent can check every op against one verified result.
With tracing on, ops alternate between untraced and traced, so both are
timed under the same conditions.
"""
import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process image (VmHWM).

    Not ru_maxrss: Linux carries the spawning process's peak into the
    child across exec, so it would report the parent's memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_op(main, variant: dict) -> dict:
    """One timed CLI call; the record says whether and how it failed."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(variant["argv"])
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc, error = exc.code, f"SystemExit({exc.code})"
    except Exception as exc:  # noqa: BLE001 - any exception fails the op
        rc, error = None, f"{type(exc).__name__}: {exc}"
    ms = 1000.0 * (time.perf_counter() - start)
    record = {"ms": ms, "rc": rc, "error": error, "digest": None}
    if rc != 0 and error is None:
        error = record["error"] = err.getvalue().strip()[-500:] or f"exit {rc}"
    if error is None:
        Path(variant["stdout"]).write_text(out.getvalue(), encoding="utf-8")
        Path(variant["stderr"]).write_text(err.getvalue(), encoding="utf-8")
        try:
            record["digest"] = digest(variant["captured"])
        except OSError as exc:
            record["error"] = f"output missing: {exc}"
    return record


def main() -> int:
    job = json.loads(sys.argv[1])
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    import qoekit.cli as cli
    from qoekit import ahp, composite
    from qoekit import trace as tracemod

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"qoekit imported from {cli.__file__}, not the checkout", file=sys.stderr)
        return 2

    variants = job["variants"]
    warm = run_op(cli.main, variants[0])
    setup_s = time.monotonic() - job["t_spawn"]
    warm.update(variant=0, kind="warmup")
    ops = [warm]

    tracer = None
    layers = []
    if job["trace"]:
        from tracing import ROOT_SPAN, Tracer, op_layer_metrics

        tracer = Tracer(
            {"cli": cli, "trace": tracemod, "composite": composite, "ahp": ahp}
        )
        traced_main = tracer.wrap(ROOT_SPAN, cli.main)

    deadline = time.perf_counter() + job["seconds"]
    n = 0
    while n < job["min_ops"] or time.perf_counter() < deadline:
        v = n % len(variants)
        # Each variant runs untraced, then traced, in turn.
        traced = tracer is not None and (n // len(variants)) % 2 == 1
        if traced:
            tracer.begin_op(n)
            tracer.install()
            try:
                rec = run_op(traced_main, variants[v])
            finally:
                tracer.uninstall()
            layers.append((v, op_layer_metrics(tracer.spans, tracer.counts())))
        else:
            rec = run_op(cli.main, variants[v])
        rec.update(variant=v, kind="traced" if traced else "timed")
        ops.append(rec)
        n += 1

    if tracer is not None and job["spans_out"]:
        tracer.dump(Path(job["spans_out"]))
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ops": ops,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
