"""Packet-trace impairment metrics and a seeded trace generator.

A trace is three columns in strictly increasing seq order: ``seq``, and
``send`` and ``recv`` times in ms (NaN receive time = lost).  One kernel,
:func:`window_metrics`, measures loss, mean one-way delay and jitter
(smoothed RFC 3550, or a mean absolute difference) for any set of
windows; the whole trace is one window.  Lost packets count toward loss
only.  Generated traces are deterministic for a given seed.
"""
from __future__ import annotations

import array
import csv
import io
import math
import random
import warnings
from collections import namedtuple
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .composite import QosSample
from .emodel import (
    json_number, json_object, json_string, names_file, read_json,
)

TRACE_HEADER = ("seq", "send_ts_ms", "recv_ts_ms")
JITTER_ESTIMATORS = ("rfc3550", "mean-abs")
JITTER_MODELS = ("none", "uniform", "pareto")
#: Gain of the smoothed jitter recursion, J += (|D| - J)/16.
RFC3550_GAIN = 16.0


@dataclass(frozen=True)
class PacketRecord:
    """One packet: seq, send time, receive time (None = lost); unchecked."""

    seq: int
    send_ts_ms: float
    recv_ts_ms: float | None = None


def _check_seqs(seqs) -> None:
    """Raise for the first seq that is not an int64 integer: a float such as
    1.5 would be truncated, a bool is no sequence number, and a seq beyond
    64 bits would overflow or wrap."""
    for s in seqs:
        s = json_number(s, "seq", integer=True)
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
    found = [(int(bad.argmax()), k) for k, (bad, _) in enumerate(checks) if bad.any()]
    if found:  # the first bad row, and of its faults the one checked first
        i, k = min(found)
        s, t, r, p = seq[i].item(), send[i].item(), recv[i].item(), seq[i - 1].item()
        raise ValueError(where(i) + checks[k][1].format(s=s, t=t, r=r, p=p))


class Trace:
    """Nonempty, read-only packet columns ordered by strictly increasing seq.

    ``Trace(records)`` takes :class:`PacketRecord` objects, ``columns=(seq,
    send, recv)`` takes arrays, and :func:`_check_columns` checks either.
    Of several faults, a seq that is not an integer is reported first, then
    the first row that breaks the contract, then the first record whose
    ``recv_ts_ms`` is NaN, which a column would read as a loss.
    """

    def __init__(
        self, packets=(),
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
        if nan := [p.seq for p in packets if p.recv_ts_ms != p.recv_ts_ms]:  # records only
            raise ValueError(f"seq {nan[0]}: recv_ts_ms must be finite, got nan")
        for column in (seq, send, recv):
            column.flags.writeable = False
        self.seq, self.send, self.recv = seq, send, recv

    @property
    def packets(self) -> tuple[PacketRecord, ...]:
        """The records, rebuilt on each access."""
        rows = zip(self.seq.tolist(), self.send.tolist(), self.recv.tolist())
        return tuple(PacketRecord(s, t, None if r != r else r) for s, t, r in rows)


class WindowMetrics(NamedTuple):
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
    duration, cadence and a mandatory RNG seed.

    Pareto jitter is the Lomax law scale * ((1 - u)**(-1/shape) - 1), whose
    mean scale/(shape - 1) is finite only for shape > 1; the default 1.5
    leaves its variance infinite.  First, in field order, numbers must pass
    :func:`json_number` (``rng_seed`` as an integer) and ``jitter_model``
    :func:`json_string`, however the spec was built."""

    loss_prob: float
    base_delay_ms: float
    duration_s: float
    packet_interval_ms: float
    rng_seed: int
    jitter_model: str = "none"
    jitter_amplitude_ms: float = 0.0
    pareto_shape: float = 1.5
    pareto_scale_ms: float = 0.0

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            value = (json_string(value, name) if name == "jitter_model"
                     else json_number(value, name, integer=name == "rng_seed"))
            object.__setattr__(self, name, value)
        for ok, message in (
            (0.0 <= self.loss_prob <= 1.0, "loss_prob must be within [0, 1]"),
            (self.base_delay_ms >= 0, "base_delay_ms must be >= 0"),
            (self.duration_s > 0, "duration_s must be > 0"),
            (self.packet_interval_ms > 0, "packet_interval_ms must be > 0"),
            (self.jitter_model in JITTER_MODELS, f"jitter_model must be one of {JITTER_MODELS}"),
            (self.jitter_amplitude_ms >= 0, "jitter_amplitude_ms must be >= 0"),
            (self.pareto_shape > 1.0, "pareto_shape must be > 1"),
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
    trace: Trace, window_of: np.ndarray, jitter_estimator: str
) -> WindowColumns:
    """Counts, loss, delay and jitter of windows 0 to ``max(window_of)`` in
    one pass.

    ``window_of[i]`` is packet i's window, nonnegative; within a window
    packets keep seq order.  When ``window_of`` is nondecreasing the
    columns are used as they are, with no sorted copy.  ``expected`` is
    the seq span of the window's ``sent`` rows, so an absent seq counts as
    lost; a window with no rows reports 100% loss.  The RFC 3550 recursion
    J += (|D| - J)/16 from J = 0 ends at J_m = sum_k g (1-g)^(m-k) |D_k|.
    """
    if jitter_estimator not in JITTER_ESTIMATORS:
        raise ValueError(
            f"jitter_estimator must be one of {JITTER_ESTIMATORS}, "
            f"got {jitter_estimator!r}"
        )
    columns = (trace.seq, trace.send, trace.recv, window_of)
    if (window_of[1:] < window_of[:-1]).any():
        order = np.argsort(window_of, kind="stable")
        columns = [column[order] for column in columns]
        del order
    seq, send, recv, win = columns  # in window order, and seq order within one
    n_windows = int(win[-1]) + 1
    sent = np.bincount(win, minlength=n_windows)
    has, last = sent > 0, np.cumsum(sent) - 1
    expected = np.zeros_like(sent)
    expected[has] = seq[last[has]] - seq[(last - sent + 1)[has]] + 1
    got = ~np.isnan(recv)
    rwin, rsend, rrecv = win[got], send[got], recv[got]
    # Each per-packet temporary is dropped after its last use, which bounds
    # the peak; the in-place steps keep each expression's arithmetic.
    del got, columns, seq, win, send, recv
    received = np.bincount(rwin, minlength=n_windows)
    delay = rrecv - rsend
    with np.errstate(invalid="ignore", divide="ignore"):
        loss = np.where(has, 100.0 * (expected - received) / expected, 100.0)
        delay_ms = np.bincount(rwin, weights=delay, minlength=n_windows) / received
        if jitter_estimator == "rfc3550":  # |D|: |diff(recv) - diff(send)|
            del delay
            d = np.diff(rrecv)
            del rrecv
            d -= np.diff(rsend)
            del rsend
        else:  # |diff(delay)|
            del rrecv, rsend
            d = np.diff(delay)
            del delay
        np.abs(d, out=d)
        same = rwin[1:] == rwin[:-1]  # consecutive received pairs of one window
        pwin = rwin[1:][same]
        del rwin
        d = d[same]
        pairs = np.bincount(pwin, minlength=n_windows)
        if jitter_estimator == "rfc3550":
            age = (np.cumsum(pairs) - 1)[pwin]
            age -= np.arange(len(pwin))
            d *= (1.0 - 1.0 / RFC3550_GAIN) ** age
            d /= RFC3550_GAIN
            jitter = np.bincount(pwin, weights=d, minlength=n_windows)
        else:
            jitter = np.bincount(pwin, weights=d, minlength=n_windows) / pairs
    jitter = np.where(pairs > 0, jitter, np.nan)
    return WindowColumns(sent, expected, received, loss, delay_ms, jitter)


def _whole(trace: Trace, field: str, estimator="rfc3550") -> float:
    """One metric over the whole trace."""
    m = window_metrics(trace, np.zeros_like(trace.seq), estimator)
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
    plus the nominal interval, does not cover it.  That interval is the
    upper median send-time delta (0 for a one-packet trace).
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
    window_of = ((trace.send - t0) // win_ms).astype(np.int64)
    try:  # the kernel's arrays have one cell per window
        m = window_metrics(trace, window_of, jitter_estimator)
    except MemoryError:
        n = int(window_of.max()) + 1
        raise ValueError(
            f"window_len_s {window_len_s} gives {n} windows, too many to allocate"
        ) from None
    n, deltas = len(m.sent), np.diff(trace.send)  # after the kernel: a lower peak
    k = len(deltas) // 2
    if len(deltas):
        deltas.partition(k)  # in place; np.partition would copy
    coverage_end = t_end + (deltas[k].item() if len(deltas) else 0.0)
    # start = t0 + idx * win_ms and end = start + win_ms per window, with the
    # same IEEE operations as the scalar arithmetic
    starts = t0 + np.arange(n) * win_ms
    ends = starts + win_ms
    partial = [False] * n
    partial[-1] = coverage_end < ends[-1].item()
    delay, jitter = (
        [None if v != v else v for v in column.tolist()] for column in (m.delay_ms, m.jitter_ms)
    )
    samples = map(QosSample, m.loss_pct.tolist(), delay, jitter)
    columns = (
        range(n), samples, m.expected.tolist(), (m.expected - m.received).tolist(),
        m.received.tolist(), starts.tolist(), ends.tolist(), partial,
    )
    return list(map(WindowMetrics._make, zip(*columns)))


#: Packets decoded per block of draws in :func:`generate`; bounds its
#: temporaries.
_GEN_BLOCK = 1 << 16


def _mersenne_twister(seed: int) -> np.random.MT19937:
    """numpy's MT19937 on the state that ``random.Random(seed)`` seeds."""
    bits, key = np.random.MT19937(), random.Random(seed).getstate()[1]
    bits.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(key[:-1], np.uint32), "pos": key[-1]},
    }
    return bits


def _random_doubles(bits: np.random.MT19937, n: int) -> np.ndarray:
    """The next ``n`` values of CPython's ``random()`` on the state ``bits``:
    a 53-bit fraction from the top 27 and 26 bits of two 32-bit words."""
    a, b = bits.random_raw(2 * n).reshape(n, 2).T
    return ((a >> 5) * 67108864.0 + (b >> 6)) / 9007199254740992.0


def generate(spec: ImpairmentSpec) -> Trace:
    """Generate a trace at fixed cadence with independent loss and jitter.

    Per packet, one loss draw and then, if received, one jitter draw; the
    delay is base plus jitter, truncated at zero.  The draws are those of
    ``random.Random(spec.rng_seed)``, taken in blocks from numpy's MT19937
    on the same state, so the trace is the one a per-packet loop gives.
    """
    packets = spec.duration_s * 1000.0 / spec.packet_interval_ms
    too_many = (
        f"duration_s {spec.duration_s} and packet_interval_ms "
        f"{spec.packet_interval_ms} give {packets:.4g} packets, too many to allocate"
    )
    if not packets < 2.0**63:  # round() and numpy's sizes would overflow
        raise ValueError(too_many)
    count = round(packets)
    if count < 1:
        raise ValueError("duration_s and packet_interval_ms yield an empty trace")
    try:
        seq = np.arange(1, count + 1)
        send = np.arange(count, dtype=np.float64)
        recv = np.empty(count)
    except (MemoryError, ValueError):  # numpy's ValueError: beyond its sizes
        raise ValueError(too_many) from None
    bits = _mersenne_twister(spec.rng_seed)
    loss, base, amplitude = spec.loss_prob, spec.base_delay_ms, spec.jitter_amplitude_ms
    scale, power = spec.pareto_scale_ms, -1.0 / spec.pareto_shape
    jitter = {
        "uniform": lambda u: -amplitude + (amplitude - -amplitude) * u,
        # 1 - u is in (0, 1]; Python's pow per element, as np.power can
        # differ from it in the last bit
        "pareto": lambda u: scale * (
            np.array([x**power for x in (1.0 - u).tolist()]) - 1.0
        ),
    }.get(spec.jitter_model)
    u = np.empty(0)
    for start in range(0, count, _GEN_BLOCK):
        block = recv[start : start + _GEN_BLOCK]
        if jitter is None:  # each draw is a packet's loss draw
            u = _random_doubles(bits, len(block))
            block[:] = np.where(u < loss, math.nan, base)
            continue
        # A packet takes at most two draws, so 2 per packet decode the block
        # and the rest carry over: the next block starts at a loss draw.
        # The first draw and each draw after one below loss is a loss draw;
        # in the run of draws >= loss that follows, loss (packet kept) and
        # jitter draws alternate.
        u = np.concatenate([u, _random_doubles(bits, max(2 * len(block) - len(u), 0))])
        j = np.arange(len(u))
        run_start = np.maximum.accumulate(np.where(np.append(True, u[:-1] < loss), j, 0))
        at = np.flatnonzero((j - run_start) % 2 == 0)[: len(block)]
        kept = u[at] >= loss
        block[:] = math.nan
        block[kept] = np.maximum(base + jitter(u[at[kept] + 1]), 0.0)
        u = u[at[-1] + 1 + kept[-1] :]
    send *= spec.packet_interval_ms
    recv += send
    return Trace(columns=(seq, send, recv))


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


@names_file
def read_trace(path: str | Path) -> Trace:
    """Read a CSV trace, naming the line of a malformed row; skip blank rows.

    A plain numeric file is parsed in bulk (:func:`_read_blocks`); any
    other file goes through the row loop (:func:`_read_rows`), which gives
    the same trace or names the bad line.
    """
    columns, lines = _read_blocks(path) or _read_rows(path)
    _check_columns(*columns, where=lambda i: f"line {lines[i]}: ")
    return Trace(columns=columns)


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
        buffers = tuple(array.array(code) for code in "qdd")  # grown per block
        while block := fh.read(_BLOCK_BYTES) + fh.readline():
            # a CR that ends the file is lone: the LF added below must not
            # make it a CRLF
            if block.translate(None, _NUMERIC) or block.endswith(b"\r"):
                return None
            if not block.endswith(b"\n"):
                block += b"\n"
            # One scan for LFs gives the rest: a line is CRLF when a CR comes
            # just before its LF, any other CR is lone, and a comma just
            # before a line's end leaves its recv_ts_ms empty.  A block starts
            # a line and ends in an LF, so index -1, read for a first line
            # that is empty, finds that LF and never a CR or a comma.
            a = np.frombuffer(block, np.uint8)
            ends = np.flatnonzero(a == ord("\n"))
            crlf = a[ends - 1] == ord("\r")
            if block.count(b"\r") != np.count_nonzero(crlf):  # a lone CR
                return None
            ends[crlf] -= 1  # each line's end: its CR, else its LF
            at = ends[a[ends - 1] == ord(",")].tolist()
            count = len(ends)
            del a, ends, crlf  # not held through the parse
            text = b"nan".join([block[i:j] for i, j in zip([0, *at], [*at, len(block)])])
            try:
                rows = np.loadtxt(
                    io.BytesIO(text), _ROW, comments=None, delimiter=",",
                    encoding="ascii", ndmin=1,
                )
            except (ValueError, Warning):
                return None
            if len(rows) < count:  # numpy skips blank rows
                return None
            for buffer, name in zip(buffers, _ROW.names):
                buffer.frombytes(rows[name].tobytes())
    if not buffers[0]:
        return None
    columns = tuple(np.frombuffer(b, _ROW[name]) for b, name in zip(buffers, _ROW.names))
    return columns, range(2, len(columns[0]) + 2)


def _read_rows(path: str | Path):
    """The columns of any trace file and their line numbers, one csv row at
    a time; raises naming the line of a malformed row."""
    seq, send, recv, lines = [], [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty trace file")
        if tuple(h.strip() for h in header) != TRACE_HEADER:
            raise ValueError(f"line 1: expected header {','.join(TRACE_HEADER)}")
        for n, row in enumerate(reader, start=2):
            try:
                q, t, r = row
                q, t, r = int(q), float(t), (float(r) if r.strip() else None)
                if r != r:  # NaN marks a lost packet, so a literal NaN must not pass
                    raise ValueError("recv_ts_ms must be finite, got nan")
            except ValueError as exc:  # blank rows are checked for only here
                if not any(cell.strip() for cell in row):
                    continue
                reason = exc if len(row) == 3 else "expected 3 columns"
                raise ValueError(f"line {n}: {reason}") from exc
            seq.append(q)
            send.append(t)
            recv.append(r)
            lines.append(n)
    if not seq:
        raise ValueError("trace contains no packets")
    try:  # a None receive time becomes NaN
        columns = (np.array(seq, np.int64), np.array(send), np.array(recv, np.float64))
    except OverflowError:
        i = next(i for i, q in enumerate(seq) if not -(2**63) <= q < 2**63)
        raise ValueError(f"line {lines[i]}: seq {seq[i]} is too large") from None
    return columns, lines


def spec_from_dict(data: dict) -> ImpairmentSpec:
    """Build a generator spec from its JSON layout, where jitter settings
    nest as "jitter": {"model", "amplitude_ms", "shape", "scale_ms"};
    :class:`ImpairmentSpec` checks the values."""
    if "rng_seed" not in json_object(data, "spec"):
        raise ValueError("spec is missing required field 'rng_seed'")
    jitter = data.get("jitter", {"model": "none"})
    if not isinstance(jitter, dict) or "model" not in jitter:
        raise ValueError("spec field 'jitter' must be an object with a 'model'")
    try:
        return ImpairmentSpec(
            loss_prob=data["loss_prob"],
            base_delay_ms=data["base_delay_ms"],
            duration_s=data["duration_s"],
            packet_interval_ms=data["packet_interval_ms"],
            rng_seed=data["rng_seed"],
            jitter_model=jitter["model"],
            jitter_amplitude_ms=jitter.get("amplitude_ms", 0.0),
            pareto_shape=jitter.get("shape", ImpairmentSpec.pareto_shape),
            pareto_scale_ms=jitter.get("scale_ms", 0.0),
        )
    except KeyError as exc:
        raise ValueError(f"spec is missing required field {exc}") from exc


@names_file
def load_impairment_spec(path: str | Path) -> ImpairmentSpec:
    return spec_from_dict(read_json(path, "spec"))
