"""Generate, read and analyze a 1.8M-packet trace, each case in its own
Python process, and hold each process's peak RSS to a bound.

Run it in an empty working directory, with qoekit importable:

    python .github/bounded_runs.py

It writes spec10h.json, trace10h.csv, R.json and R.csv there, prints one
line per case, and exits 1 when a case fails, prints the wrong output or
peaks above its bound.  The peak is the child's ``ru_maxrss`` from
``os.wait4``: its VmHWM at exit, or this small launcher's at the spawn if
that were higher.
"""
import json
import os
import subprocess
import sys

SPEC = {
    "loss_prob": 0.02, "base_delay_ms": 80.0, "duration_s": 36000,
    "packet_interval_ms": 20.0, "rng_seed": 1,
    "jitter": {"model": "uniform", "amplitude_ms": 10.0},
}
QOEKIT = [sys.executable, "-m", "qoekit.cli"]
READ = "import sys; from qoekit.trace import read_trace; print(len(read_trace(sys.argv[1]).seq))"
ANALYZE = [*QOEKIT, "trace", "analyze", "trace10h.csv", "--window"]
#: name, argv, bound on peak RSS in MB, and the stdout required (None: any)
CASES = [
    ("trace gen", [*QOEKIT, "trace", "gen", "spec10h.json", "--out", "trace10h.csv"],
     249, None),
    ("read_trace", [sys.executable, "-c", READ, "trace10h.csv"], 150, "1800000\n"),
    ("trace analyze --window 10", [*ANALYZE, "10"], 160, None),
    ("trace analyze --window 0.2 --out --csv",
     [*ANALYZE, "0.2", "--out", "R.json", "--csv", "R.csv"], 295, None),
]


def run(argv: list[str], capture: bool) -> tuple[int, str | None, float]:
    """Exit code, stdout (when ``capture``) and peak RSS in MB of one process."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE if capture else subprocess.DEVNULL, text=True
    )
    out = None
    if capture:  # read to the end, not by communicate(), which would reap it
        with proc.stdout:
            out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, out, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main() -> int:
    with open("spec10h.json", "w") as fh:
        json.dump(SPEC, fh)
    failed = False
    for name, argv, bound_mb, want in CASES:
        code, out, peak_mb = run(argv, capture=want is not None)
        ok = code == 0 and peak_mb <= bound_mb and out == want
        shown = f", stdout {out.strip()!r}" if want is not None else ""
        print(f"{name}: exit {code}{shown}, peak RSS {peak_mb:.1f} MB (bound {bound_mb} MB)"
              + ("" if ok else "  FAILED"))
        failed |= not ok
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
