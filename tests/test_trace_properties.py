"""Property tests: the columnar trace kernel and the block generator
against the scalar oracle, and the bulk CSV reader against the row loop.

Random traces carry losses, absent seqs (gaps in seq), windows with no
rows, and window lengths from a few ms to a second.  ``scalar_trace``
holds the per-packet implementations the kernel and the generator
replaced; the row loop (``trace._read_rows``) is the reference for the
bulk reader.
"""
import math
import tempfile
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_trace as oracle
from qoekit import trace as trace_module
from qoekit.emodel import PARETO_H_MAX, PARETO_H_MIN
from qoekit.trace import (
    JITTER_ESTIMATORS,
    JITTER_MODELS,
    ImpairmentSpec,
    Trace,
    generate,
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
    recvs = [math.nan if d is None else t + d for t, d in zip(sends, delays)]
    return Trace(columns=(seqs, sends, recvs))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=JITTER_REL, abs_tol=0.0)


def median_send_delta(trace) -> float:
    """The nominal interval ``windows()`` takes: the upper median send delta."""
    deltas = sorted(np.diff(trace.send).tolist())
    return deltas[len(deltas) // 2] if deltas else 0.0


@PROPERTY_SETTINGS
@given(
    trace=traces(backward_sends=True),
    window_len_s=st.floats(0.005, 1.0),
    estimator=st.sampled_from(JITTER_ESTIMATORS),
)
def test_windows_equal_scalar_oracle(trace, window_len_s, estimator):
    got = windows(trace, window_len_s, estimator)
    interval_ms = median_send_delta(trace)
    want = oracle.windows(oracle.rows(trace), window_len_s, estimator, interval_ms)
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
        assert outcome(fn, trace) == outcome(ref, oracle.rows(trace))
    for fn, ref in (
        (jitter_rfc3550, oracle.jitter_rfc3550),
        (jitter_mean_abs, oracle.jitter_mean_abs),
    ):
        (kind, got), (ref_kind, want) = outcome(fn, trace), outcome(ref, oracle.rows(trace))
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
    # The kernel sorts rows unless window_of is nondecreasing.  Rows sent
    # backward take that path; the same rows already sorted take the
    # in-order one.
    trace = data.draw(traces(backward_sends=backward_sends))
    win_ms = window_len_s * 1000.0
    window_of = ((trace.send - trace.send.min()) // win_ms).astype(np.int64)
    order = np.argsort(window_of, kind="stable")
    in_order = SimpleNamespace(
        seq=trace.seq[order], send=trace.send[order], recv=trace.recv[order]
    )
    got = trace_module.window_metrics(trace, window_of, estimator)
    want = trace_module.window_metrics(in_order, window_of[order], estimator)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()  # bit-equal, NaN too


def csv_round_trip(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_text(trace_to_csv_text(trace), newline="")
        return read_trace(path)


@PROPERTY_SETTINGS
@given(trace=traces(backward_sends=True))
def test_csv_round_trip_is_exact(trace):
    back = csv_round_trip(trace)
    assert np.array_equal(back.seq, trace.seq)
    assert np.array_equal(back.send, trace.send)
    assert np.array_equal(back.recv, trace.recv, equal_nan=True)


@PROPERTY_SETTINGS
@given(
    trace=traces(backward_sends=True),
    window_len_s=st.floats(0.005, 1.0),
    estimator=st.sampled_from(JITTER_ESTIMATORS),
)
def test_windows_of_a_trace_equal_windows_of_its_csv(trace, window_len_s, estimator):
    # a trace's windows depend on its packets alone, not on how it was built
    got = windows(trace, window_len_s, estimator)
    assert got == windows(csv_round_trip(trace), window_len_s, estimator)


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
    """Header and rows, each line ended by LF or CRLF drawn on its own, so
    one file can mix both; the last line with or without its end."""
    lines = [",".join(trace_module.TRACE_HEADER)] + [",".join(row) for row in rows]
    ends = draw(st.lists(
        st.sampled_from(["\r\n", "\n"]), min_size=len(lines), max_size=len(lines)
    ))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


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


@pytest.mark.parametrize(
    "rows",
    [
        "1,0.0,80.0\r\n2,20.0,\r3,40.0,120.0\r\n",  # a lone CR ends a row
        "1,0.0,80.0\n2,20.0\r,100.0\n",  # a lone CR splits a row
        "1,0.0,80.0\r\n2,20.0,100.0\r",  # the file ends in a lone CR
    ],
    ids=["row-end", "in-row", "file-end"],
)
def test_bulk_reader_sends_lone_cr_to_row_loop_before_numpy(rows):
    # the bulk reader's own check refuses a lone CR; numpy, which may
    # refuse one too, is never asked
    text = ",".join(trace_module.TRACE_HEADER) + "\r\n" + rows
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("loadtxt called")):
        bulk, by_rows, in_bulk = read_both(text, trace_module._BLOCK_BYTES)
    assert not in_bulk
    assert_same_outcome(bulk, by_rows)


@st.composite
def specs(draw):
    """A generator spec of up to 2,000 packets, empty ones included."""
    return ImpairmentSpec(
        loss_prob=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        base_delay_ms=draw(st.floats(0.0, 200.0)),
        duration_s=draw(st.floats(0.001, 2.0)),
        packet_interval_ms=draw(st.floats(1.0, 20.0)),
        rng_seed=draw(st.one_of(
            st.sampled_from([0, -1, 2**32, 2**64, -(2**64) - 1, 2**100 + 3]),
            st.integers(),
        )),
        jitter_model=draw(st.sampled_from(JITTER_MODELS)),
        jitter_amplitude_ms=draw(st.floats(0.0, 50.0)),
        pareto_shape=draw(st.floats(PARETO_H_MIN, PARETO_H_MAX)),
        pareto_scale_ms=draw(st.floats(0.0, 10.0)),
    )


@PROPERTY_SETTINGS
@given(spec=specs(), block=st.sampled_from([1, 2, 7, 64, trace_module._GEN_BLOCK]))
def test_generate_equals_scalar_generator(spec, block):
    # small blocks put many block boundaries, and their carried draws,
    # inside one short trace
    with mock.patch.object(trace_module, "_GEN_BLOCK", block):
        got = outcome(generate, spec)
    assert_same_outcome(got, outcome(oracle.generate, spec))
