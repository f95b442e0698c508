"""Output checks, computed from the generator's ground truth with numpy.

Each check returns a list of error strings; an empty list means the
output is correct.  Counts must match exactly.  Floating-point values
that qoekit sums in another order than numpy are compared to a relative
tolerance stated here; MOS values must match qoekit's own point scorer
exactly (acceptance criterion 7).
"""
from __future__ import annotations

import re

import numpy as np

from inputs import PacketTruth

#: Relative tolerance for loss, delay and jitter against the numpy
#: reference, and for column-average weights (sum-order differences are
#: ~1e-15 relative).
REL_TOL = 1e-9
#: Power iteration stops when the L1-normalized vector moves < 1e-10, so
#: eigenvector weights and lambda_max are compared to np.linalg.eig
#: results at this relative tolerance.
EIG_TOL = 1e-6
#: Printed values carry 3 decimals, so they round off by at most half
#: the last digit.
PRINT_TOL = 5e-4 + 1e-9
RFC3550_GAIN = 1.0 / 16.0
MAX_ERRORS = 20


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * abs(b)


def rfc3550(send: np.ndarray, recv: np.ndarray, group: np.ndarray, ngroups: int):
    """Final RFC 3550 jitter per group of received packets (NaN if < 2).

    Uses the closed form of J += (|D| - J)/16 from J = 0:
    J_m = sum_k g (1 - g)^(m - k) |D_k| over the group's transit deltas.
    """
    d = np.abs(np.diff(recv) - np.diff(send))
    same = group[1:] == group[:-1]
    d, g = d[same], group[1:][same]
    per_group = np.bincount(g, minlength=ngroups)
    first = np.concatenate(([0], np.cumsum(per_group)[:-1]))
    from_end = per_group[g] - 1 - (np.arange(len(g)) - first[g])
    weights = RFC3550_GAIN * (1.0 - RFC3550_GAIN) ** from_end
    jitter = np.bincount(g, weights=weights * d, minlength=ngroups)
    return np.where(per_group > 0, jitter, np.nan)


def window_truth(truth: PacketTruth, window_s: float) -> dict[str, np.ndarray]:
    """Per-window counts and metrics by send time, as ``trace analyze`` defines them."""
    win_ms = window_s * 1000.0
    idx = np.floor_divide(truth.send - truth.send[0], win_ms).astype(np.int64)
    nwin = int(idx.max()) + 1
    got = ~np.isnan(truth.recv)
    lo = np.searchsorted(idx, np.arange(nwin), side="left")
    hi = np.searchsorted(idx, np.arange(nwin), side="right")
    if np.any(hi == lo):
        raise ValueError("the reference covers traces without empty windows only")
    expected = truth.seq[hi - 1] - truth.seq[lo] + 1  # the window's seq span
    received = np.bincount(idx[got], minlength=nwin)
    delay_sum = np.bincount(
        idx[got], weights=(truth.recv - truth.send)[got], minlength=nwin
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        delay = np.where(received > 0, delay_sum / received, np.nan)
    loss = 100.0 * (expected - received) / expected
    jitter = rfc3550(truth.send[got], truth.recv[got], idx[got], nwin)
    return {
        "expected": expected,
        "received": received,
        "loss_pct": loss,
        "delay_ms": delay,
        "jitter_ms": np.where(received >= 2, jitter, np.nan),
    }


def _check_value(errors, where, name, got, want) -> None:
    if np.isnan(want):
        if got is not None:
            errors.append(f"{where}: {name}={got!r}, expected None (floored)")
    elif got is None or not close(got, float(want)):
        errors.append(f"{where}: {name}={got!r}, reference {float(want)!r}")


def check_analyze(report: dict, truth: PacketTruth, window_s: float, score) -> list[str]:
    """``score(loss, delay, jitter)`` is qoekit's point scorer for the report's model."""
    ref = window_truth(truth, window_s)
    rows = report["windows"]
    errors: list[str] = []
    nwin = len(ref["expected"])
    if len(rows) != nwin or report["summary"]["window_count"] != nwin:
        return [f"{len(rows)} windows reported, {nwin} expected"]
    for k, row in enumerate(rows):
        where = f"window {k}"
        if row["window_id"] != k:
            errors.append(f"{where}: window_id {row['window_id']}")
        exp, rec = int(ref["expected"][k]), int(ref["received"][k])
        if (row["expected"], row["received"], row["lost"]) != (exp, rec, exp - rec):
            errors.append(
                f"{where}: counts {row['expected']}/{row['received']}/{row['lost']}, "
                f"truth {exp}/{rec}/{exp - rec}"
            )
        for name in ("loss_pct", "delay_ms", "jitter_ms"):
            _check_value(errors, where, name, row[name], ref[name][k])
        want = score(row["loss_pct"], row["delay_ms"], row["jitter_ms"])
        if row["mos_overall"] != want:
            errors.append(f"{where}: mos_overall {row['mos_overall']!r} != score() {want!r}")
        if len(errors) >= MAX_ERRORS:
            return errors
    totals = [sum(r[k] for r in rows) for k in ("expected", "received", "lost")]
    whole_expected = int(truth.seq[-1] - truth.seq[0] + 1)
    whole_received = int(np.count_nonzero(~np.isnan(truth.recv)))
    if totals != [whole_expected, whole_received, whole_expected - whole_received]:
        errors.append(f"window totals {totals} differ from whole-trace counts")
    overall = [r["mos_overall"] for r in rows]
    summary = report["summary"]
    if summary["min_mos"] != min(overall) or not close(
        summary["mean_mos"], sum(overall) / len(overall)
    ):
        errors.append(f"summary {summary} disagrees with the window rows")
    return errors


def check_analyze_table(csv_text: str, stdout: str, nwin: int) -> list[str]:
    errors = []
    if len(csv_text.splitlines()) != nwin + 1:
        errors.append(f"CSV table has {len(csv_text.splitlines())} lines, {nwin + 1} expected")
    # header, one line per window, summary, two "wrote" lines
    if len(stdout.splitlines()) != nwin + 4:
        errors.append(f"stdout has {len(stdout.splitlines())} lines, {nwin + 4} expected")
    return errors


def parse_trace_csv(text: str) -> PacketTruth:
    lines = text.split("\r\n")
    if lines[0] != "seq,send_ts_ms,recv_ts_ms" or lines[-1] != "":
        raise ValueError("trace CSV header or line endings differ from qoekit's format")
    seq, send, recv = [], [], []
    for line in lines[1:-1]:
        s, t, r = line.split(",")
        seq.append(int(s))
        send.append(float(t))
        recv.append(float(r) if r else np.nan)
    return PacketTruth(np.array(seq), np.array(send), np.array(recv))


def check_gen(csv_text: str, stdout: str, spec: dict, packets: int) -> list[str]:
    try:
        truth = parse_trace_csv(csv_text)
    except ValueError as exc:
        return [str(exc)]
    errors = []
    if len(truth.seq) != packets:
        return [f"{len(truth.seq)} packets written, {packets} expected"]
    if not np.array_equal(truth.seq, np.arange(1, packets + 1)):
        errors.append("seq is not 1..N")
    if not np.array_equal(truth.send, np.arange(packets) * spec["packet_interval_ms"]):
        errors.append("send times are not on the spec's cadence")
    got = ~np.isnan(truth.recv)
    delay = (truth.recv - truth.send)[got]
    amp = spec["jitter"]["amplitude_ms"]
    lo, hi = spec["base_delay_ms"] - amp, spec["base_delay_ms"] + amp
    if delay.size and not (delay.min() >= lo - 1e-6 and delay.max() <= hi + 1e-6):
        errors.append(f"delays span [{delay.min()}, {delay.max()}], outside [{lo}, {hi}]")
    loss = 100.0 * (packets - delay.size) / packets
    # 180k Bernoulli draws at 2 % have a standard deviation of 0.033
    # points; a fifth of the spec's rate is twelve of them.
    if abs(loss - 100.0 * spec["loss_prob"]) > 0.2 * 100.0 * spec["loss_prob"]:
        errors.append(f"loss {loss:.3f}% is far from the spec's {100 * spec['loss_prob']}%")
    group = np.zeros(delay.size, dtype=np.int64)
    jitter = rfc3550(truth.send[got], truth.recv[got], group, 1)[0]
    m = re.fullmatch(
        r"wrote (\d+) packets to \S+ \(loss ([\d.]+)%, mean delay ([\d.]+) ms, "
        r"jitter ([\d.]+) ms\)\n",
        stdout,
    )
    if m is None:
        errors.append(f"unexpected stdout {stdout[:200]!r}")
    else:
        printed = [float(x) for x in m.groups()]
        want = [packets, loss, float(delay.mean()), float(jitter)]
        for label, p, w in zip(("packets", "loss", "delay", "jitter"), printed, want):
            if abs(p - w) > PRINT_TOL:
                errors.append(f"printed {label} {p} differs from reference {w}")
    return errors


def aggregate_reference(docs: list[dict], method: str) -> np.ndarray:
    criteria = docs[0]["criteria"]
    pos = {c: i for i, c in enumerate(criteria)}
    stack = []
    for doc in docs:
        m = np.ones((len(criteria), len(criteria)))
        for j in doc["judgments"]:
            a, b = pos[j["a"]], pos[j["b"]]
            m[a, b] = j["value"]
            m[b, a] = 1.0 / j["value"]
        stack.append(m)
    arr = np.stack(stack)
    cells = arr.mean(axis=0) if method == "arithmetic-mean" else np.exp(np.log(arr).mean(axis=0))
    np.fill_diagonal(cells, 1.0)
    return cells


def check_weights(report: dict, docs: list[dict], aggregate: str, method: str) -> list[str]:
    errors = []
    if report["criteria"] != docs[0]["criteria"]:
        return [f"criteria {report['criteria']} differ from the judgment files"]
    cells = aggregate_reference(docs, aggregate)
    if not np.allclose(report["matrix"], cells, rtol=REL_TOL, atol=0.0):
        errors.append("aggregated matrix differs from the numpy reference")
    weights = np.array(report["weights"])
    if abs(weights.sum() - 1.0) > 1e-9:
        errors.append(f"weights sum to {weights.sum()!r}")
    normalized = cells / cells.sum(axis=0)
    if not np.allclose(report["normalized"], normalized, rtol=REL_TOL, atol=0.0):
        errors.append("normalized table differs from the numpy reference")
    values, vectors = np.linalg.eig(cells)
    k = int(np.argmax(values.real))
    lam = float(values[k].real)
    if method == "column-average":
        want, tol = normalized.mean(axis=1), REL_TOL
        want = want / want.sum()
    else:
        vec = np.abs(vectors[:, k].real)
        want, tol = vec / vec.sum(), EIG_TOL
    if not np.allclose(weights, want, rtol=tol, atol=0.0):
        errors.append(f"{method} weights {weights.tolist()} differ from {want.tolist()}")
    if not close(report["consistency"]["lambda_max"], lam, EIG_TOL):
        errors.append(f"lambda_max {report['consistency']['lambda_max']} != eig {lam}")
    return errors
