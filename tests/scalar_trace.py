"""Scalar reference for the columnar trace metrics, one packet at a time.

This is the per-packet implementation that ``qoekit.trace`` used before
it held traces as numpy columns, kept only as an oracle for the property
tests.  It works on a tuple of ``PacketRecord`` (``Trace.packets``) and
runs the RFC 3550 recursion step by step.
"""
from __future__ import annotations

from dataclasses import dataclass

RFC3550_GAIN = 16.0


@dataclass(frozen=True)
class ScalarWindow:
    window_id: int
    loss_pct: float
    delay_ms: float | None
    jitter_ms: float | None
    packet_count: int
    lost_count: int
    received_count: int
    start_ms: float
    end_ms: float
    partial: bool


def _in_window(packets, window):
    if window is None:
        return list(packets)
    start, end = window
    return [p for p in packets if start <= p.send_ts_ms < end]


def loss_rate(packets, window=None) -> float:
    packets = _in_window(packets, window)
    if not packets:
        raise ValueError(f"window {window} contains no packets")
    expected = packets[-1].seq - packets[0].seq + 1
    received = sum(1 for p in packets if p.received)
    return 100.0 * (expected - received) / expected


def mean_delay(packets, window=None) -> float:
    delays = [p.delay_ms for p in _in_window(packets, window) if p.received]
    if not delays:
        raise ValueError(f"window {window} has no received packets")
    return sum(delays) / len(delays)


def jitter_rfc3550(packets, window=None) -> float:
    received = [p for p in _in_window(packets, window) if p.received]
    if len(received) < 2:
        raise ValueError("jitter needs at least 2 received packets")
    j = 0.0
    for prev, cur in zip(received, received[1:]):
        d = (cur.recv_ts_ms - prev.recv_ts_ms) - (cur.send_ts_ms - prev.send_ts_ms)
        j += (abs(d) - j) / RFC3550_GAIN
    return j


def jitter_mean_abs(packets, window=None) -> float:
    received = [p for p in _in_window(packets, window) if p.received]
    if len(received) < 2:
        raise ValueError("jitter needs at least 2 received packets")
    diffs = [
        abs(cur.delay_ms - prev.delay_ms) for prev, cur in zip(received, received[1:])
    ]
    return sum(diffs) / len(diffs)


JITTER = {"rfc3550": jitter_rfc3550, "mean-abs": jitter_mean_abs}


def windows(packets, window_len_s, jitter_estimator="rfc3550", interval_ms=None):
    """Bucket by send time from the first packet's send; measure each bucket."""
    win_ms = window_len_s * 1000.0
    t0 = packets[0].send_ts_ms
    coverage_end = packets[-1].send_ts_ms + (interval_ms or 0.0)
    buckets: dict[int, list] = {}
    for p in packets:
        buckets.setdefault(int((p.send_ts_ms - t0) // win_ms), []).append(p)
    last = max(buckets)
    out = []
    for idx in range(last + 1):
        start = t0 + idx * win_ms
        end = start + win_ms
        bucket = buckets.get(idx, [])
        received = [p for p in bucket if p.received]
        if bucket:
            expected = bucket[-1].seq - bucket[0].seq + 1
            loss = 100.0 * (expected - len(received)) / expected
        else:
            expected, loss = 0, 100.0
        delay = (
            sum(p.delay_ms for p in received) / len(received) if received else None
        )
        jitter = JITTER[jitter_estimator](bucket) if len(received) >= 2 else None
        out.append(
            ScalarWindow(
                idx, loss, delay, jitter, expected, expected - len(received),
                len(received), start, end, idx == last and coverage_end < end,
            )
        )
    return out
