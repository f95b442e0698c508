"""Replay the golden cases through the installed ``qoekit`` console script.

Every case of ``tests/data/golden/make_golden.py`` runs, in its order, as
``qoekit <argv>`` in a copy of ``tests/data``.  A case passes when it exits
0 with nothing on stderr and writes the golden files of ``out/<name>/``
byte for byte, its stdout included.  Two variants of the
``analyze-gen-0.2s-rfc3550`` case follow: on an LF-only copy of the trace
and on one with a blank line appended, the table and stdout match the
golden ones and the report differs only in its ``"sha256"`` line.  Last,
three inputs must be refused with exit 2: a generator spec without
``rng_seed``, with an error that names the spec; a judgment file named
twice, with an error that names its evaluator; and ``ahp elicit`` with an
empty criterion label, with nothing on stdout (no prompt printed).

Run it from anywhere, with ``qoekit`` on PATH and importable:

    python .github/replay_goldens.py

It prints one line per check and exits 1 when any fails.
"""
import importlib.util
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
GOLDEN = DATA / "golden"
_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

VARIANT_CASE = "analyze-gen-0.2s-rfc3550"


def tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root``, by its path relative to it, with its bytes."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def run_case(qoekit: str, work: Path, name: str, argv: list[str]) -> list[str]:
    """Run one case in ``work``, a copy of the golden directory, into
    ``out/<name>/``; the reasons it failed, if any."""
    out_dir = work / "out" / name
    shutil.rmtree(out_dir)  # no golden file left to match
    out_dir.mkdir()
    proc = subprocess.run(
        [qoekit, *argv], cwd=work, stdin=subprocess.DEVNULL, capture_output=True
    )
    if proc.returncode != 0 or proc.stderr:
        return [f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}"]
    (out_dir / "stdout.txt").write_bytes(proc.stdout)
    got, want = tree(out_dir), tree(GOLDEN / "out" / name)
    if sorted(got) != sorted(want):
        return [f"wrote {sorted(got)}, golden {sorted(want)}"]
    return [f"{path} differs" for path in want if got[path] != want[path]]


def without_sha256(data: bytes) -> list[bytes]:
    """The lines of a report but those of its input digests."""
    return [line for line in data.splitlines() if b'"sha256"' not in line]


def run_variant(qoekit: str, work: Path, trace: bytes) -> list[str]:
    """The variant case on ``trace`` in place of the golden trace."""
    (work / "out" / "gen" / "trace.csv").write_bytes(trace)
    errors = run_case(qoekit, work, VARIANT_CASE, dict(make_golden.CASES)[VARIANT_CASE])
    got, want = (root / "out" / VARIANT_CASE / "report.json" for root in (work, GOLDEN))
    if errors == ["report.json differs"] and without_sha256(got.read_bytes()) == (
        without_sha256(want.read_bytes())
    ):
        return []  # a new input digest, and nothing else
    return errors


def run_seedless(qoekit: str, tmp: Path) -> list[str]:
    """``trace gen`` of a spec without ``rng_seed``: exit 2, naming the spec."""
    spec = tmp / "no-seed.json"
    spec.write_text('{"loss_prob": 0.0, "base_delay_ms": 80.0, "duration_s": 1.0,'
                    ' "packet_interval_ms": 20.0}\n', encoding="utf-8")
    proc = subprocess.run(
        [qoekit, "trace", "gen", str(spec), "--out", str(tmp / "no-seed.csv")],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    print(proc.stderr, end="")
    ok = proc.returncode == 2 and proc.stderr.startswith(f"error: {spec}: ")
    return [] if ok else [f"exit {proc.returncode}, want 2 and an error naming {spec}"]


def run_repeated_evaluator(qoekit: str) -> list[str]:
    """``ahp weights`` of one judgment file named twice: exit 2, naming its
    evaluator."""
    e1 = DATA / "judgments" / "e1.json"
    proc = subprocess.run(
        [qoekit, "ahp", "weights", str(e1), str(e1)],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    print(proc.stderr, end="")
    ok = proc.returncode == 2 and proc.stdout == "" and "'e1'" in proc.stderr
    return [] if ok else [f"exit {proc.returncode}, want 2 and an error naming 'e1'"]


def run_empty_label(qoekit: str, tmp: Path) -> list[str]:
    """``ahp elicit --criteria "" b``: exit 2 before the first prompt."""
    answers = tmp / "answers.txt"
    answers.write_text("3\n", encoding="utf-8")
    proc = subprocess.run(
        [qoekit, "ahp", "elicit", "--criteria", "", "b", "--evaluator-id", "e",
         "--answers", str(answers), "--out", str(tmp / "elicited.json")],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    print(proc.stderr, end="")
    ok = proc.returncode == 2 and proc.stdout == ""
    return [] if ok else [f"exit {proc.returncode}, stdout {proc.stdout!r}; want 2 and none"]


def checks(qoekit: str, tmp: Path):
    """(label, reasons it failed) of each check, in order, run under ``tmp``."""
    work = shutil.copytree(DATA, tmp / "data") / "golden"
    for name, argv in make_golden.CASES:
        yield name, run_case(qoekit, work, name, argv)
    trace = (GOLDEN / "out" / "gen" / "trace.csv").read_bytes()
    for k, (label, variant) in enumerate((("LF-only", trace.replace(b"\r", b"")),
                                          ("blank line appended", trace + b"\r\n"))):
        work = shutil.copytree(DATA, tmp / f"variant-{k}") / "golden"
        yield f"{VARIANT_CASE} on the trace, {label}", run_variant(qoekit, work, variant)
    yield "trace gen of a spec without rng_seed", run_seedless(qoekit, tmp)
    yield "ahp weights of a judgment file named twice", run_repeated_evaluator(qoekit)
    yield "ahp elicit with an empty criterion label", run_empty_label(qoekit, tmp)


def main() -> int:
    qoekit = shutil.which("qoekit")
    if qoekit is None:
        print("qoekit is not on PATH", file=sys.stderr)
        return 1
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for label, errors in checks(qoekit, Path(tmp)):
            print(f"{label}: " + ("FAILED: " + "; ".join(errors) if errors else "ok"))
            failed |= bool(errors)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
