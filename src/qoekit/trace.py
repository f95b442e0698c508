"""Packet-trace impairment metrics and a seeded trace generator.

A trace is three columns in strictly increasing seq order: ``seq``, and
``send`` and ``recv`` times in ms (NaN receive time = lost).  One kernel,
:func:`window_metrics`, measures loss, mean one-way delay and jitter
(smoothed RFC 3550, or a mean absolute difference) for any set of
windows; the whole trace is one window.  Lost packets count toward loss
only.  Generated traces are deterministic for a given seed.
"""
from __future__ import annotations

import csv
import io
import math
import random
import warnings
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .composite import QosSample
from .emodel import (
    PARETO_H_MAX, PARETO_H_MIN, check_finite, json_number, json_object, json_string,
    read_json,
)

TRACE_HEADER = ("seq", "send_ts_ms", "recv_ts_ms")
JITTER_ESTIMATORS = ("rfc3550", "mean-abs")
JITTER_MODELS = ("none", "uniform", "pareto")
#: Gain of the smoothed jitter recursion, J += (|D| - J)/16.
RFC3550_GAIN = 16.0


@dataclass(frozen=True)
class PacketRecord:
    """One packet: sequence number, send time, receive time (None = lost)."""

    seq: int
    send_ts_ms: float
    recv_ts_ms: float | None = None

    def __post_init__(self) -> None:
        _check_seqs([self.seq])
        if self.seq < 0:
            raise ValueError(f"seq must be nonnegative, got {self.seq}")
        for name in TRACE_HEADER[1:]:  # the messages of _check_columns
            value = getattr(self, name)
            if not math.isfinite(value or 0.0):
                raise ValueError(f"seq {self.seq}: {name} must be finite, got {value}")
        if self.recv_ts_ms is not None and self.recv_ts_ms < self.send_ts_ms:
            raise ValueError(
                f"seq {self.seq}: recv_ts_ms {self.recv_ts_ms} precedes "
                f"send_ts_ms {self.send_ts_ms}"
            )

    @property
    def received(self) -> bool:
        return self.recv_ts_ms is not None

    @property
    def delay_ms(self) -> float:
        if self.recv_ts_ms is None:
            raise ValueError(f"seq {self.seq} was lost; no delay")
        return self.recv_ts_ms - self.send_ts_ms


def _check_seqs(seqs) -> None:
    """Raise for the first seq that is not an int64 integer: a float such as
    1.5 would be truncated, a bool is no sequence number, and a seq beyond
    64 bits would overflow or wrap."""
    for s in seqs:
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
            raise ValueError(f"seq must be an integer, got {s!r}")
        if not -(2**63) <= s < 2**63:
            raise ValueError(f"seq must be nonnegative and below 2**63, got {s}")


def _check_columns(seq, send, recv, where=lambda i: "") -> None:
    """Raise for the first row that breaks the trace contract, at ``where(i)``."""
    backwards = np.append(False, seq[1:] <= seq[:-1])
    checks = (
        (seq < 0, "seq must be nonnegative, got {s}"),
        (~np.isfinite(send), "seq {s}: send_ts_ms must be finite, got {t}"),
        (np.isinf(recv), "seq {s}: recv_ts_ms must be finite, got {r}"),
        (recv < send, "seq {s}: recv_ts_ms {r} precedes send_ts_ms {t}"),
        (backwards, "seq must be strictly increasing, got {p} then {s}"),
    )
    found = [(int(bad.argmax()), message) for bad, message in checks if bad.any()]
    if found:
        i, message = min(found)
        s, t, r, p = seq[i].item(), send[i].item(), recv[i].item(), seq[i - 1].item()
        raise ValueError(where(i) + message.format(s=s, t=t, r=r, p=p))


class Trace:
    """Nonempty, read-only packet columns ordered by strictly increasing seq.

    ``Trace(records)`` takes :class:`PacketRecord` objects, ``columns=(seq,
    send, recv)`` takes arrays, and :func:`_check_columns` checks either.
    """

    def __init__(
        self, packets=(), interval_ms: float | None = None,
        *, columns: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        if columns is None:  # a None receive time becomes NaN
            packets = tuple(packets)
            columns = [[getattr(p, name) for p in packets] for name in TRACE_HEADER]
        seq = columns[0]
        if isinstance(seq, (list, tuple)):  # name a listed seq as given, not upcast
            _check_seqs(seq)
        else:
            seq = np.asarray(seq)
            if seq.dtype.kind != "i":  # a float would truncate, a uint64 wrap
                _check_seqs(seq.tolist())
        seq = np.asarray(seq, np.int64)
        send, recv = (np.asarray(c, np.float64) for c in columns[1:])
        if not len(seq):
            raise ValueError("trace must contain at least one packet")
        _check_columns(seq, send, recv)
        for column in (seq, send, recv):
            column.flags.writeable = False
        self.seq, self.send, self.recv = seq, send, recv
        self.interval_ms = interval_ms

    @property
    def packets(self) -> tuple[PacketRecord, ...]:
        """The records, rebuilt on each access."""
        rows = zip(self.seq.tolist(), self.send.tolist(), self.recv.tolist())
        return tuple(PacketRecord(s, t, None if r != r else r) for s, t, r in rows)


@dataclass(frozen=True)
class WindowMetrics:
    """Per-window measurement: loss/delay/jitter sample plus packet counts.

    ``packet_count`` is the expected count from the window's seq span;
    delay/jitter are None when too few packets arrived to measure them.
    """

    window_id: int
    sample: QosSample
    packet_count: int
    lost_count: int
    received_count: int
    start_ms: float
    end_ms: float
    partial: bool = False


@dataclass(frozen=True)
class ImpairmentSpec:
    """Generator settings: loss probability, base delay, jitter model,
    duration, cadence and a mandatory RNG seed."""

    loss_prob: float
    base_delay_ms: float
    duration_s: float
    packet_interval_ms: float
    rng_seed: int
    jitter_model: str = "none"
    jitter_amplitude_ms: float = 0.0
    pareto_shape: float = 0.6
    pareto_scale_ms: float = 0.0

    def __post_init__(self) -> None:
        lo, hi, models = PARETO_H_MIN, PARETO_H_MAX, JITTER_MODELS
        check_finite(self)
        for ok, message in (
            (0.0 <= self.loss_prob <= 1.0, "loss_prob must be within [0, 1]"),
            (self.base_delay_ms >= 0, "base_delay_ms must be >= 0"),
            (self.duration_s > 0, "duration_s must be > 0"),
            (self.packet_interval_ms > 0, "packet_interval_ms must be > 0"),
            (isinstance(self.rng_seed, int), "rng_seed must be an integer"),
            (self.jitter_model in models, f"jitter_model must be one of {models}"),
            (self.jitter_amplitude_ms >= 0, "jitter_amplitude_ms must be >= 0"),
            (lo <= self.pareto_shape <= hi, f"pareto_shape must be within [{lo}, {hi}]"),
            (self.pareto_scale_ms >= 0, "pareto_scale_ms must be >= 0"),
        ):
            if not ok:
                value = getattr(self, message.split()[0])
                raise ValueError(f"{message}, got {value!r}")


#: Per-window arrays from :func:`window_metrics`; NaN = unavailable.
WindowColumns = namedtuple(
    "WindowColumns", "sent expected received loss_pct delay_ms jitter_ms"
)


def window_metrics(
    trace: Trace, window_of: np.ndarray, n_windows: int, jitter_estimator: str
) -> WindowColumns:
    """Counts, loss, delay and jitter of every window in one pass.

    ``window_of[i]`` is packet i's window, or negative to leave it out;
    within a window packets keep seq order.  When ``window_of`` is
    nonnegative and nondecreasing the columns are used as they are, with
    no sorted copy.  ``expected`` is the seq span of the window's ``sent``
    rows, so an absent seq counts as lost; a window with no rows reports
    100% loss.  The RFC 3550 recursion J += (|D| - J)/16 from J = 0 ends
    at J_m = sum_k g (1-g)^(m-k) |D_k|.
    """
    columns = (trace.seq, trace.send, trace.recv, window_of)
    if window_of.min(initial=0) < 0 or (window_of[1:] < window_of[:-1]).any():
        order = np.flatnonzero(window_of >= 0)
        order = order[np.argsort(window_of[order], kind="stable")]
        columns = (column[order] for column in columns)
    seq, send, recv, win = columns  # in window order, and seq order within one
    sent = np.bincount(win, minlength=n_windows)
    has, last = sent > 0, np.cumsum(sent) - 1
    expected = np.zeros_like(sent)
    expected[has] = seq[last[has]] - seq[(last - sent + 1)[has]] + 1
    got = ~np.isnan(recv)
    rwin, rsend, rrecv = win[got], send[got], recv[got]
    received = np.bincount(rwin, minlength=n_windows)
    delay = rrecv - rsend
    same = rwin[1:] == rwin[:-1]  # consecutive received pairs of one window
    pwin = rwin[1:][same]
    pairs = np.bincount(pwin, minlength=n_windows)
    with np.errstate(invalid="ignore", divide="ignore"):
        loss = np.where(has, 100.0 * (expected - received) / expected, 100.0)
        delay_ms = np.bincount(rwin, weights=delay, minlength=n_windows) / received
        if jitter_estimator == "rfc3550":
            d = np.abs(np.diff(rrecv) - np.diff(rsend))[same]
            age = (np.cumsum(pairs) - 1)[pwin] - np.arange(len(pwin))
            d = d * (1.0 - 1.0 / RFC3550_GAIN) ** age / RFC3550_GAIN
            jitter = np.bincount(pwin, weights=d, minlength=n_windows)
        else:
            d = np.abs(np.diff(delay))[same]
            jitter = np.bincount(pwin, weights=d, minlength=n_windows) / pairs
    jitter = np.where(pairs > 0, jitter, np.nan)
    return WindowColumns(sent, expected, received, loss, delay_ms, jitter)


def _whole(trace: Trace, field: str, estimator="rfc3550") -> float:
    """One metric over the whole trace."""
    m = window_metrics(trace, np.zeros_like(trace.seq), 1, estimator)
    value = getattr(m, field)[0].item()
    if value != value:
        raise ValueError(
            "trace has no received packets" if field == "delay_ms"
            else "jitter needs at least 2 received packets"
        )
    return value


def loss_rate(trace: Trace) -> float:
    """Packet loss percentage over the whole trace.

    Expected is the seq span, so an absent seq counts as lost.
    """
    return _whole(trace, "loss_pct")


def mean_delay(trace: Trace) -> float:
    """Mean one-way delay in ms over received packets."""
    return _whole(trace, "delay_ms")


def jitter_rfc3550(trace: Trace) -> float:
    """Smoothed interarrival jitter over consecutive received packets.

    D is the transit-time difference of each pair; returns the final J of
    J += (|D| - J)/16 from J = 0, in ms.
    """
    return _whole(trace, "jitter_ms", "rfc3550")


def jitter_mean_abs(trace: Trace) -> float:
    """Mean absolute transit-time difference over consecutive received pairs."""
    return _whole(trace, "jitter_ms", "mean-abs")


def windows(
    trace: Trace, window_len_s: float, jitter_estimator: str = "rfc3550"
) -> list[WindowMetrics]:
    """Partition a trace by send time into half-open windows and measure each.

    Windows start at the earliest send time; the jitter recursion restarts
    in each.  A window with no received packets has None delay and jitter.
    The last window is partial when the trace, which ends at the latest send
    plus the nominal interval (if known), does not cover it.
    """
    t0 = trace.send.min().item()
    t_end = trace.send.max().item()
    win_ms = window_len_s * 1000.0
    # NaN fails too, and the last window's index must fit the int64 cast
    if not (0 < win_ms < math.inf and (t_end - t0) // win_ms < 2.0**63):
        raise ValueError(
            f"window_len_s must be > 0, finite in ms and give fewer than 2**63 "
            f"windows, got {window_len_s}"
        )
    if jitter_estimator not in JITTER_ESTIMATORS:
        raise ValueError(
            f"jitter_estimator must be one of {JITTER_ESTIMATORS}, "
            f"got {jitter_estimator!r}"
        )
    coverage_end = t_end + (trace.interval_ms or 0.0)
    window_of = ((trace.send - t0) // win_ms).astype(np.int64)
    n = int(window_of.max()) + 1
    try:  # the kernel's arrays have one cell per window
        m = window_metrics(trace, window_of, n, jitter_estimator)
    except MemoryError:
        raise ValueError(
            f"window_len_s {window_len_s} gives {n} windows, too many to allocate"
        ) from None
    out = []
    for idx, (expected, received, loss, delay, jitter) in enumerate(
        zip(*(column.tolist() for column in m[1:]))
    ):
        start = t0 + idx * win_ms
        end = start + win_ms
        delay = None if delay != delay else delay
        jitter = None if jitter != jitter else jitter
        sample = QosSample(loss, delay, jitter)
        lost, partial = expected - received, idx == n - 1 and coverage_end < end
        out.append(
            WindowMetrics(idx, sample, expected, lost, received, start, end, partial)
        )
    return out


def generate(spec: ImpairmentSpec) -> Trace:
    """Generate a trace at fixed cadence with independent loss and jitter.

    Per packet, one loss draw and then, if received, one jitter draw; the
    delay is base plus jitter, truncated at zero.
    """
    count = int(round(spec.duration_s * 1000.0 / spec.packet_interval_ms))
    if count < 1:
        raise ValueError("duration_s and packet_interval_ms yield an empty trace")
    rng = random.Random(spec.rng_seed)
    rand, amplitude = rng.random, spec.jitter_amplitude_ms
    scale, power = spec.pareto_scale_ms, -1.0 / spec.pareto_shape
    draw = {
        "none": lambda: 0.0,
        "uniform": lambda: rng.uniform(-amplitude, amplitude),
        # 1 - random() is in (0, 1]; guards against u = 0
        "pareto": lambda: scale * ((1.0 - rand()) ** power - 1.0),
    }[spec.jitter_model]
    loss, base, nan = spec.loss_prob, spec.base_delay_ms, math.nan
    delays = [nan if rand() < loss else max(base + draw(), 0.0) for _ in range(count)]
    send = np.arange(count, dtype=np.float64) * spec.packet_interval_ms
    return Trace(
        interval_ms=spec.packet_interval_ms,
        columns=(np.arange(1, count + 1), send, send + np.array(delays)),
    )


# ---------------------------------------------------------------------------
# File formats: traces as CSV, generator specs as JSON.

def trace_to_csv_text(trace: Trace) -> str:
    """CSV text with ``repr`` timestamps; an empty recv field marks a loss."""
    parts = [",".join(TRACE_HEADER) + "\r\n"]
    for i in range(0, len(trace.seq), 8192):  # in blocks, to bound peak memory
        block = (c[i : i + 8192].tolist() for c in (trace.seq, trace.send, trace.recv))
        text = "".join([f"{s},{t!r},{r!r}\r\n" for s, t, r in zip(*block)])
        parts.append(text.replace(",nan\r\n", ",\r\n"))  # only recv can be NaN
    return "".join(parts)


def read_trace(path: str | Path) -> Trace:
    """Read a CSV trace, naming the line of a malformed row; skip blank rows.

    A plain numeric file is parsed in bulk (:func:`_read_blocks`); any
    other file goes through the row loop (:func:`_read_rows`), which gives
    the same trace or names the bad line.  The nominal inter-packet
    interval is the median send-time delta (None for single-packet traces).
    """
    columns, lines = _read_blocks(path) or _read_rows(path)
    _check_columns(*columns, where=lambda i: f"{path}: line {lines[i]}: ")
    interval_ms = None
    if len(columns[0]) > 1:
        deltas = np.diff(columns[1])
        interval_ms = np.partition(deltas, len(deltas) // 2)[len(deltas) // 2].item()
    return Trace(interval_ms=interval_ms, columns=columns)


#: Bytes of CSV text per numpy parse; each block is extended to a line end.
_BLOCK_BYTES = 1 << 20
#: The only bytes of a block that is parsed in bulk: no letter (so no
#: literal nan or inf), space, quote or tab.
_NUMERIC = b"0123456789.,+-eE\r\n"
_HEADER_LINES = tuple(",".join(TRACE_HEADER).encode() + end for end in (b"\r\n", b"\n"))
_ROW = np.dtype([("seq", np.int64), ("send", np.float64), ("recv", np.float64)])


def _read_blocks(path: str | Path):
    """The columns of a plain numeric trace file and the line number of each
    row, parsed by numpy's C tokenizer a block at a time; None if the row
    loop must read the file instead.

    That is the case for a header other than the exact one, a byte outside
    ``_NUMERIC``, a lone CR, a blank row, or a row numpy refuses.  Past that
    guard an empty ``recv_ts_ms`` (a lost packet) can become ``nan``.
    """
    with open(path, "rb") as fh, warnings.catch_warnings():
        # a warning refuses the file too: numpy 1.23 parses "1.5" into an
        # int64 seq with only a DeprecationWarning, and a blank block warns
        warnings.simplefilter("error")
        if fh.readline() not in _HEADER_LINES:
            return None
        start, count, last = fh.tell(), 0, b"\n"  # count rows to fill exact columns
        for block in iter(lambda: fh.read(_BLOCK_BYTES), b""):
            count, last = count + block.count(b"\n"), block
        count += not last.endswith(b"\n")
        columns = tuple(np.empty(count, _ROW[name]) for name in _ROW.names)
        fh.seek(start)
        done = 0
        while block := fh.read(_BLOCK_BYTES) + fh.readline():
            lone_cr = block.count(b"\r") != block.count(b"\r\n")
            if lone_cr or block.translate(None, _NUMERIC):
                return None
            if not block.endswith(b"\n"):
                block += b"\n"
            text = block.replace(b",\n", b",nan\n").replace(b",\r\n", b",nan\r\n")
            try:
                rows = np.loadtxt(
                    io.BytesIO(text), _ROW, comments=None, delimiter=",",
                    encoding="ascii", ndmin=1,
                )
            except (ValueError, Warning):
                return None
            for column, name in zip(columns, _ROW.names):
                column[done : done + len(rows)] = rows[name]
            done += len(rows)
    if not count or done < count:  # numpy skips blank rows
        return None
    return columns, range(2, count + 2)


def _read_rows(path: str | Path):
    """The columns of any trace file and their line numbers, one csv row at
    a time; raises naming the line of a malformed row."""
    seq, send, recv, blank = [], [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty trace file")
        if tuple(h.strip() for h in header) != TRACE_HEADER:
            raise ValueError(f"{path}: line 1: expected header {','.join(TRACE_HEADER)}")
        for n, row in enumerate(reader, start=2):
            try:
                q, t, r = row
                q, t, r = int(q), float(t), (float(r) if r.strip() else None)
                if r != r:  # NaN marks a lost packet, so a literal NaN must not pass
                    raise ValueError("recv_ts_ms must be finite, got nan")
            except ValueError as exc:  # blank rows are checked for only here
                if not any(cell.strip() for cell in row):
                    blank.append(n)
                    continue
                reason = exc if len(row) == 3 else "expected 3 columns"
                raise ValueError(f"{path}: line {n}: {reason}") from exc
            seq.append(q)
            send.append(t)
            recv.append(r)
    if not seq:
        raise ValueError(f"{path}: trace contains no packets")
    lines = np.delete(np.arange(2, len(seq) + len(blank) + 2), np.array(blank, int) - 2)
    try:  # a None receive time becomes NaN
        columns = (np.array(seq, np.int64), np.array(send), np.array(recv, np.float64))
    except OverflowError:
        i = next(i for i, q in enumerate(seq) if not -(2**63) <= q < 2**63)
        raise ValueError(f"{path}: line {lines[i]}: seq {seq[i]} is too large") from None
    return columns, lines


def spec_from_dict(data: dict) -> ImpairmentSpec:
    """Build a generator spec from its JSON layout, where jitter settings
    nest as "jitter": {"model", "amplitude_ms", "shape", "scale_ms"}."""
    if "rng_seed" not in json_object(data, "spec"):
        raise ValueError("spec is missing required field 'rng_seed'")
    jitter = data.get("jitter", {"model": "none"})
    if not isinstance(jitter, dict) or "model" not in jitter:
        raise ValueError("spec field 'jitter' must be an object with a 'model'")
    try:
        fields = {
            "loss_prob": data["loss_prob"],
            "base_delay_ms": data["base_delay_ms"],
            "duration_s": data["duration_s"],
            "packet_interval_ms": data["packet_interval_ms"],
            "jitter_amplitude_ms": jitter.get("amplitude_ms", 0.0),
            "pareto_shape": jitter.get("shape", 0.6),
            "pareto_scale_ms": jitter.get("scale_ms", 0.0),
        }
    except KeyError as exc:
        raise ValueError(f"spec is missing required field {exc}") from exc
    return ImpairmentSpec(
        rng_seed=json_number(data["rng_seed"], "rng_seed", integer=True),
        jitter_model=json_string(jitter["model"], "jitter_model"),
        **{name: json_number(value, name) for name, value in fields.items()},
    )


def load_impairment_spec(path: str | Path) -> ImpairmentSpec:
    return spec_from_dict(read_json(path, "spec"))
