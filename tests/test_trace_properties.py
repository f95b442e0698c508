"""Property tests: the columnar trace kernel against the scalar oracle.

Random traces carry losses, absent seqs (gaps in seq), windows with no
rows, and window lengths from a few ms to a second.  ``scalar_trace``
holds the per-packet implementation the kernel replaced.
"""
import math
import tempfile
from itertools import accumulate
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_trace as oracle
from qoekit.trace import (
    JITTER_ESTIMATORS,
    PacketRecord,
    Trace,
    jitter_mean_abs,
    jitter_rfc3550,
    loss_rate,
    mean_delay,
    read_trace,
    windows,
    write_trace,
)

JITTER_REL = 1e-12

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def traces(draw, backward_sends=False):
    """A valid trace; with ``backward_sends`` a send may precede the last."""
    n = draw(st.integers(1, 60))
    first_seq = draw(st.integers(0, 5))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
    seqs = list(accumulate(gaps, initial=first_seq))
    low = -30.0 if backward_sends else 0.0
    steps = draw(st.lists(st.floats(low, 80.0), min_size=n - 1, max_size=n - 1))
    sends = list(accumulate(steps, initial=draw(st.floats(-1e3, 1e3))))
    delay = st.one_of(st.none(), st.floats(0.0, 200.0))
    delays = draw(st.lists(delay, min_size=n, max_size=n))
    packets = [
        PacketRecord(q, t, None if d is None else t + d)
        for q, t, d in zip(seqs, sends, delays)
    ]
    return Trace(packets, interval_ms=draw(st.sampled_from([None, 20.0])))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=JITTER_REL, abs_tol=0.0)


@PROPERTY_SETTINGS
@given(
    trace=traces(backward_sends=True),
    window_len_s=st.floats(0.005, 1.0),
    estimator=st.sampled_from(JITTER_ESTIMATORS),
)
def test_windows_equal_scalar_oracle(trace, window_len_s, estimator):
    got = windows(trace, window_len_s, estimator)
    want = oracle.windows(trace.packets, window_len_s, estimator, trace.interval_ms)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (
            g.window_id, g.packet_count, g.lost_count, g.received_count,
            g.start_ms, g.end_ms, g.partial,
        ) == (
            w.window_id, w.packet_count, w.lost_count, w.received_count,
            w.start_ms, w.end_ms, w.partial,
        )
        assert g.sample.loss_pct == w.loss_pct
        assert g.sample.delay_ms == w.delay_ms
        assert close(g.sample.jitter_ms, w.jitter_ms), (g.sample.jitter_ms, w.jitter_ms)


@PROPERTY_SETTINGS
@given(
    trace=traces(backward_sends=True),
    bounds=st.tuples(st.floats(-1e3, 6e3), st.floats(0.0, 3e3)),
    whole=st.booleans(),
)
def test_whole_trace_functions_equal_scalar_oracle(trace, bounds, whole):
    window = None if whole else (bounds[0], bounds[0] + bounds[1])
    for fn, ref in (
        (loss_rate, oracle.loss_rate),
        (mean_delay, oracle.mean_delay),
    ):
        assert outcome(fn, trace, window) == outcome(ref, trace.packets, window)
    for fn, ref in (
        (jitter_rfc3550, oracle.jitter_rfc3550),
        (jitter_mean_abs, oracle.jitter_mean_abs),
    ):
        (kind, got), (ref_kind, want) = (
            outcome(fn, trace, window), outcome(ref, trace.packets, window)
        )
        assert kind == ref_kind
        assert close(got, want) if kind == "ok" else got == want


@PROPERTY_SETTINGS
@given(
    trace=traces(),
    window_len_s=st.floats(0.005, 1.0),
    estimator=st.sampled_from(JITTER_ESTIMATORS),
)
def test_window_received_counts_sum_to_whole_trace(trace, window_len_s, estimator):
    # Sends here never go back in time.  A row sent before the first row
    # falls in no window, so then the sum falls short of the whole trace.
    received = int(np.count_nonzero(~np.isnan(trace.recv)))
    wins = windows(trace, window_len_s, estimator)
    assert sum(w.received_count for w in wins) == received
    assert sum(w.received_count + w.lost_count for w in wins) <= (
        trace.seq[-1] - trace.seq[0] + 1
    )


@PROPERTY_SETTINGS
@given(trace=traces(backward_sends=True))
def test_csv_round_trip_is_exact(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace(trace, path)
        back = read_trace(path)
    assert np.array_equal(back.seq, trace.seq)
    assert np.array_equal(back.send, trace.send)
    assert np.array_equal(back.recv, trace.recv, equal_nan=True)
    assert back.packets == trace.packets
