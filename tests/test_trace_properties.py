"""Property tests: the columnar trace kernel against the scalar oracle,
and the bulk CSV reader against the row loop.

Random traces carry losses, absent seqs (gaps in seq), windows with no
rows, and window lengths from a few ms to a second.  ``scalar_trace``
holds the per-packet implementation the kernel replaced; the row loop
(``trace._read_rows``) is the reference for the bulk reader.
"""
import math
import tempfile
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_trace as oracle
from qoekit import trace as trace_module
from qoekit.trace import (
    JITTER_ESTIMATORS,
    PacketRecord,
    Trace,
    jitter_mean_abs,
    jitter_rfc3550,
    loss_rate,
    mean_delay,
    read_trace,
    trace_to_csv_text,
    windows,
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
@given(trace=traces(backward_sends=True))
def test_whole_trace_functions_equal_scalar_oracle(trace):
    for fn, ref in (
        (loss_rate, oracle.loss_rate),
        (mean_delay, oracle.mean_delay),
    ):
        assert outcome(fn, trace) == outcome(ref, trace.packets)
    for fn, ref in (
        (jitter_rfc3550, oracle.jitter_rfc3550),
        (jitter_mean_abs, oracle.jitter_mean_abs),
    ):
        (kind, got), (ref_kind, want) = outcome(fn, trace), outcome(ref, trace.packets)
        assert kind == ref_kind
        assert close(got, want) if kind == "ok" else got == want


@PROPERTY_SETTINGS
@given(
    trace=traces(backward_sends=True),
    window_len_s=st.floats(0.005, 1.0),
    estimator=st.sampled_from(JITTER_ESTIMATORS),
)
def test_window_received_counts_sum_to_whole_trace(trace, window_len_s, estimator):
    received = int(np.count_nonzero(~np.isnan(trace.recv)))
    wins = windows(trace, window_len_s, estimator)
    assert sum(w.received_count for w in wins) == received


@PROPERTY_SETTINGS
@given(
    trace=traces(),
    window_len_s=st.floats(0.005, 1.0),
    estimator=st.sampled_from(JITTER_ESTIMATORS),
)
def test_window_expected_counts_within_seq_span(trace, window_len_s, estimator):
    # Sends here never go back in time.  When they do, windows interleave
    # in seq and each counts the other's seqs as lost (ROADMAP item 3).
    wins = windows(trace, window_len_s, estimator)
    assert sum(w.received_count + w.lost_count for w in wins) <= (
        trace.seq[-1] - trace.seq[0] + 1
    )


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    backward_sends=st.booleans(),
    window_len_s=st.floats(0.001, 0.1),  # short, so backward sends cross windows
    estimator=st.sampled_from(JITTER_ESTIMATORS),
)
def test_in_order_path_equals_sorted_path(data, backward_sends, window_len_s, estimator):
    # The kernel sorts and drops rows unless window_of is nonnegative and
    # nondecreasing.  Rows left out (window -1) or sent backward take that
    # path; the same rows already dropped and sorted take the in-order one.
    trace = data.draw(traces(backward_sends=backward_sends))
    win_ms = window_len_s * 1000.0
    window_of = ((trace.send - trace.send.min()) // win_ms).astype(np.int64)
    n_windows = int(window_of.max()) + 1
    start = data.draw(st.integers(0, len(window_of)))
    window_of[start : data.draw(st.integers(start, start + 3))] = -1  # rows left out
    order = np.flatnonzero(window_of >= 0)
    order = order[np.argsort(window_of[order], kind="stable")]
    in_order = SimpleNamespace(
        seq=trace.seq[order], send=trace.send[order], recv=trace.recv[order]
    )
    got = trace_module.window_metrics(trace, window_of, n_windows, estimator)
    want = trace_module.window_metrics(in_order, window_of[order], n_windows, estimator)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()  # bit-equal, NaN too


@PROPERTY_SETTINGS
@given(trace=traces(backward_sends=True))
def test_csv_round_trip_is_exact(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_text(trace_to_csv_text(trace), newline="")
        back = read_trace(path)
    assert np.array_equal(back.seq, trace.seq)
    assert np.array_equal(back.send, trace.send)
    assert np.array_equal(back.recv, trace.recv, equal_nan=True)
    assert back.packets == trace.packets


# ---------------------------------------------------------------------------
# The bulk reader against the row loop

#: Cells of the forms only the row loop reads: padded, quoted, blank rows.
ROW_LOOP_FORMS = ("space", "quote", "blank-row", "blank-cells")

FAULTS = ("cell", "columns", "underscore", "junk", "lone-cr")

#: Cells, by column, that the row loop rejects.
BAD_CELLS = {
    0: ("1.5", "1e3", str(2**64), str(-(2**63) - 1), "", "nan", "0x10"),
    1: ("nan", "inf", "-Infinity", "", "0x10"),
    2: ("nan", "inf", "-Infinity", "0x10"),
}


def spell_float(draw, value: float) -> str:
    """``value`` as repr, or as another spelling both float() and numpy take."""
    return draw(st.sampled_from([repr(value), f"{value:.17e}", f"{value:+.17g}"]))


@st.composite
def trace_rows(draw):
    """The cells of a valid trace file's rows, spelled in varied numeric forms."""
    trace = draw(traces(backward_sends=True))
    rows = []
    for q, t, r in zip(trace.seq.tolist(), trace.send.tolist(), trace.recv.tolist()):
        seq = draw(st.sampled_from([str(q), f"+{q}", f"00{q}"]))
        recv = "" if r != r else spell_float(draw, r)
        rows.append([seq, spell_float(draw, t), recv])
    return rows


def file_text(draw, rows) -> str:
    """Header and rows with LF or CRLF line ends, with or without a final one."""
    newline = draw(st.sampled_from(["\r\n", "\n"]))
    lines = [",".join(trace_module.TRACE_HEADER)] + [",".join(row) for row in rows]
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


def read_both(text: str, block_bytes: int):
    """read_trace's outcome on ``text`` in bulk, by the row loop alone, and
    whether the bulk reader took the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(trace_module, "_BLOCK_BYTES", block_bytes):
            bulk = outcome(read_trace, path)
            in_bulk = trace_module._read_blocks(path) is not None
        with mock.patch.object(trace_module, "_read_blocks", lambda path: None):
            rows = outcome(read_trace, path)
    return bulk, rows, in_bulk


def assert_same_outcome(bulk, rows) -> None:
    (kind, got), (ref_kind, want) = bulk, rows
    assert kind == ref_kind, (got, want)
    if kind == "error":
        assert got == want
        return
    for g, w in zip((got.seq, got.send, got.recv), (want.seq, want.send, want.recv)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()  # bit-equal, NaN too
    assert got.interval_ms == want.interval_ms


#: Block sizes from one byte (a block per row) to the reader's own.
BLOCK_BYTES = st.one_of(st.integers(1, 200), st.just(trace_module._BLOCK_BYTES))


@PROPERTY_SETTINGS
@given(data=st.data(), block_bytes=BLOCK_BYTES)
def test_bulk_reader_equals_row_loop_on_valid_files(data, block_bytes):
    rows = data.draw(trace_rows())
    forms = data.draw(st.lists(st.sampled_from(ROW_LOOP_FORMS), unique=True))
    # spaces go in before quotes: csv reads '" 1 "' but not ' "1" '
    for form in sorted(forms, key=ROW_LOOP_FORMS.index):
        i, k = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, 2))
        if form == "blank-row":
            rows.insert(i, [""])
        elif form == "blank-cells":
            rows.insert(i, [" ", "", " "])
        else:
            cell = rows[i][k]
            rows[i][k] = f" {cell} " if form == "space" else f'"{cell}"'
    bulk, by_rows, in_bulk = read_both(file_text(data.draw, rows), block_bytes)
    assert bulk[0] == "ok", bulk[1]
    assert_same_outcome(bulk, by_rows)
    assert in_bulk == (not forms)


@PROPERTY_SETTINGS
@given(data=st.data(), block_bytes=BLOCK_BYTES)
def test_bulk_reader_and_row_loop_agree_on_faulty_files(data, block_bytes):
    # A bad cell or column count fails; digits with "_" (which int() and
    # float() take), numeric junk or a lone CR may pass, the same way in both.
    rows = data.draw(trace_rows())
    i, k = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, 2))
    fault = data.draw(st.sampled_from(FAULTS))
    if fault == "cell":
        rows[i][k] = data.draw(st.sampled_from(BAD_CELLS[k]))
    elif fault == "columns":
        rows[i] = rows[i][:2] if data.draw(st.booleans()) else [*rows[i], "1.0"]
    elif fault == "underscore":
        rows[i][k] = "1_0" if k == 0 else "1_0.0"
    elif fault == "junk":  # only bytes the bulk reader's guard lets through
        rows[i][k] = data.draw(st.text(alphabet="0123456789.+-eE", max_size=5))
    else:
        rows[i][k] += "\r"
    bulk, by_rows, _ = read_both(file_text(data.draw, rows), block_bytes)
    assert_same_outcome(bulk, by_rows)
    if fault in ("cell", "columns"):
        assert bulk[0] == "error"
