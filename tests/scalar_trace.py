"""Scalar reference for the columnar trace metrics and the generator, one
packet at a time.

This is the per-packet implementation that ``qoekit.trace`` used before
it held traces as numpy columns and drew its random numbers in blocks,
kept only as an oracle for the property tests.  The metrics work on a
trace's :func:`rows`, one ``Packet`` per row, and run the RFC 3550
recursion step by step; :func:`generate` takes its two streams' draws
one packet at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from qoekit.trace import Trace

RFC3550_GAIN = 16.0


class Packet(NamedTuple):
    """One row of a trace; ``recv_ts_ms`` is None for a lost packet."""

    seq: int
    send_ts_ms: float
    recv_ts_ms: float | None

    @property
    def received(self) -> bool:
        return self.recv_ts_ms is not None

    @property
    def delay_ms(self) -> float:
        return self.recv_ts_ms - self.send_ts_ms


def rows(trace: Trace) -> list[Packet]:
    """The trace's packets in seq order: the input of the metrics below."""
    columns = zip(trace.seq.tolist(), trace.send.tolist(), trace.recv.tolist())
    return [Packet(q, t, None if r != r else r) for q, t, r in columns]


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


def loss_rate(packets) -> float:
    expected = packets[-1].seq - packets[0].seq + 1
    received = sum(1 for p in packets if p.received)
    return 100.0 * (expected - received) / expected


def mean_delay(packets) -> float:
    delays = [p.delay_ms for p in packets if p.received]
    if not delays:
        raise ValueError("trace has no received packets")
    return sum(delays) / len(delays)


def jitter_rfc3550(packets) -> float:
    received = [p for p in packets if p.received]
    if len(received) < 2:
        raise ValueError("jitter needs at least 2 received packets")
    j = 0.0
    for prev, cur in zip(received, received[1:]):
        d = (cur.recv_ts_ms - prev.recv_ts_ms) - (cur.send_ts_ms - prev.send_ts_ms)
        j += (abs(d) - j) / RFC3550_GAIN
    return j


def jitter_mean_abs(packets) -> float:
    received = [p for p in packets if p.received]
    if len(received) < 2:
        raise ValueError("jitter needs at least 2 received packets")
    diffs = [
        abs(cur.delay_ms - prev.delay_ms) for prev, cur in zip(received, received[1:])
    ]
    return sum(diffs) / len(diffs)


JITTER = {"rfc3550": jitter_rfc3550, "mean-abs": jitter_mean_abs}


def windows(packets, window_len_s, jitter_estimator="rfc3550", interval_ms=None):
    """Bucket by send time from the earliest send; measure each bucket."""
    win_ms = window_len_s * 1000.0
    t0 = min(p.send_ts_ms for p in packets)
    coverage_end = max(p.send_ts_ms for p in packets) + (interval_ms or 0.0)
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


def generate(spec):
    """Per packet, one loss draw and one jitter draw, each from its own
    stream; a received packet's delay is base plus jitter, truncated at
    zero."""
    count = int(round(spec.duration_s * 1000.0 / spec.packet_interval_ms))
    if count < 1:
        raise ValueError("duration_s and packet_interval_ms yield an empty trace")
    streams = np.random.SeedSequence(abs(spec.rng_seed)).spawn(2)
    loss_draw, jitter_draw = (np.random.default_rng(s).random for s in streams)
    amplitude, scale, power = (
        spec.jitter_amplitude_ms, spec.pareto_scale_ms, -1.0 / spec.pareto_shape
    )
    draw = {
        "none": lambda u: 0.0,
        "uniform": lambda u: -amplitude + (amplitude - -amplitude) * u,
        # 1 - u is in (0, 1]; guards against u = 0
        "pareto": lambda u: scale * ((1.0 - u) ** power - 1.0),
    }[spec.jitter_model]
    loss, base, nan = spec.loss_prob, spec.base_delay_ms, math.nan
    delays = []
    for _ in range(count):
        lost = loss_draw() < loss
        delay = max(base + draw(jitter_draw()), 0.0)
        delays.append(nan if lost else delay)
    send = np.arange(count, dtype=np.float64) * spec.packet_interval_ms
    return Trace(columns=(np.arange(1, count + 1), send, send + np.array(delays)))
