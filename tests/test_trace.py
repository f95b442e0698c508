import math
import random

import numpy as np
import pytest

from qoekit import (
    ImpairmentSpec,
    PacketRecord,
    Trace,
    generate,
    jitter_mean_abs,
    jitter_rfc3550,
    load_impairment_spec,
    loss_rate,
    mean_delay,
    read_trace,
    windows,
)
from qoekit.trace import (
    _mersenne_twister, _random_doubles, spec_from_dict, trace_to_csv_text, window_metrics,
)


def make_trace(delays, interval_ms=20.0, start_seq=1):
    """Trace with one packet per delay; None marks a lost packet."""
    send = np.arange(len(delays)) * interval_ms
    recv = send + np.array(delays, np.float64)  # a None delay becomes NaN
    return Trace(columns=(np.arange(len(delays)) + start_seq, send, recv))


def assert_same_packets(a, b):
    """Equal columns, a NaN (lost) receive time matching a NaN."""
    for x, y in zip((a.seq, a.send, a.recv), (b.seq, b.send, b.recv)):
        np.testing.assert_array_equal(x, y)


def uniform_spec(**overrides):
    fields = dict(
        loss_prob=0.0,
        base_delay_ms=100.0,
        duration_s=30.0,
        packet_interval_ms=20.0,
        rng_seed=42,
    )
    fields.update(overrides)
    return ImpairmentSpec(**fields)


# ---------------------------------------------------------------------------
# loss

def test_loss_rate_basic():
    delays = [100.0] * 95 + [None] * 5
    assert loss_rate(make_trace(delays)) == 5.0
    assert loss_rate(make_trace([100.0] * 40)) == 0.0


def test_loss_rate_counts_seq_gaps():
    send = [0.0, 20.0, 60.0, 80.0]
    trace = Trace(columns=([1, 2, 4, 5], send, [t + 100.0 for t in send]))
    assert loss_rate(trace) == 20.0  # seq 3 is absent entirely


# ---------------------------------------------------------------------------
# delay

def test_mean_delay_constant():
    assert mean_delay(make_trace([100.0] * 50)) == 100.0


def test_mean_delay_average():
    assert mean_delay(make_trace([90.0, 110.0])) == 100.0


def test_mean_delay_excludes_lost():
    assert mean_delay(make_trace([100.0, None, 100.0])) == 100.0


def test_mean_delay_requires_received():
    with pytest.raises(ValueError, match="no received"):
        mean_delay(make_trace([None, None]))


# ---------------------------------------------------------------------------
# jitter

def test_jitter_rfc3550_constant_delay_is_zero():
    assert jitter_rfc3550(make_trace([100.0] * 100)) == 0.0


def test_jitter_rfc3550_alternating_delays_matches_replay_oracle():
    delays = [100.0 if i % 2 == 0 else 110.0 for i in range(10)]
    trace = make_trace(delays)
    # brute-force replay of the smoothing recursion, independent of the
    # library path
    expected = 0.0
    for prev, cur in zip(delays, delays[1:]):
        expected += (abs(cur - prev) - expected) / 16.0
    assert expected == pytest.approx(4.405754932813579, abs=1e-12)  # frozen
    assert jitter_rfc3550(trace) == pytest.approx(expected, abs=1e-12)


def test_jitter_rfc3550_nonnegative():
    import random

    rng = random.Random(4)
    delays = [100 + rng.uniform(-40, 40) for _ in range(200)]
    assert jitter_rfc3550(make_trace(delays)) >= 0.0


def test_jitter_rfc3550_invariant_to_recv_shift():
    delays = [100.0, 140.0, 90.0, 125.0, 101.0]
    base = make_trace(delays)
    shifted = Trace(columns=(base.seq, base.send, base.recv + 5000.0))
    assert jitter_rfc3550(shifted) == jitter_rfc3550(base)


def test_jitter_rfc3550_skips_lost_packets():
    with_loss = make_trace([100.0, None, 100.0, 100.0])
    assert jitter_rfc3550(with_loss) == 0.0


def test_jitter_needs_two_received():
    with pytest.raises(ValueError, match="at least 2"):
        jitter_rfc3550(make_trace([100.0, None]))
    with pytest.raises(ValueError, match="at least 2"):
        jitter_mean_abs(make_trace([100.0]))


def test_jitter_mean_abs_examples():
    assert jitter_mean_abs(make_trace([100.0] * 10)) == 0.0
    assert jitter_mean_abs(make_trace([100.0, 110.0, 100.0])) == 10.0
    assert jitter_mean_abs(make_trace([100.0, 104.0])) == 4.0


def test_jitter_mean_abs_uniform_matches_closed_form():
    # E|X - X'| for uniform(+-a) is 2a/3; verified at a modest n here and at
    # n=100000 in the acceptance suite
    amplitude = 30.0
    trace = generate(
        uniform_spec(
            duration_s=400.0,
            jitter_model="uniform",
            jitter_amplitude_ms=amplitude,
            rng_seed=99,
        )
    )
    assert jitter_mean_abs(trace) == pytest.approx(2 * amplitude / 3, rel=0.05)


def test_windowed_rfc3550_restart_delta_is_small(capsys):
    # The recursion restarts at each window boundary; measure how far the
    # last window's estimate drifts from the continuous-stream estimate.
    trace = generate(
        uniform_spec(
            duration_s=60.0,
            jitter_model="uniform",
            jitter_amplitude_ms=25.0,
            rng_seed=5,
        )
    )
    continuous = jitter_rfc3550(trace)
    per_window = [w.sample.jitter_ms for w in windows(trace, 10.0)]
    delta = abs(per_window[-1] - continuous)
    print(
        f"windowed-vs-continuous smoothed jitter: continuous={continuous:.4f} "
        f"last_window={per_window[-1]:.4f} delta={delta:.4f} ms"
    )
    assert all(j is not None and j >= 0 for j in per_window)
    # 500 packets per window is far beyond the ~16-sample memory of the
    # smoother, so the restart effect stays small
    assert delta < 0.2 * continuous


# ---------------------------------------------------------------------------
# windowing

def test_windows_partitioning():
    trace = generate(uniform_spec())
    wins = windows(trace, 10.0)
    assert len(wins) == 3
    assert [w.window_id for w in wins] == [0, 1, 2]
    assert not any(w.partial for w in wins)


def test_windows_start_at_earliest_send():
    # a row sent before the first row still falls in a window
    trace = Trace(columns=([1, 2, 3], [100.0, 50.0, 120.0], [110.0, 60.0, 130.0]))
    (win,) = windows(trace, 1.0)
    assert (win.start_ms, win.received_count, win.sample.loss_pct) == (50.0, 3, 0.0)
    # coverage ends at the latest send plus the upper median send delta, 190 ms
    assert win.partial


def test_windows_short_trace_is_single_partial():
    trace = generate(uniform_spec(duration_s=4.0))
    wins = windows(trace, 10.0)
    assert len(wins) == 1
    assert wins[0].partial


def test_windows_fully_lost_window():
    # 3 windows of 5 packets; the middle window is entirely lost
    delays = [100.0] * 5 + [None] * 5 + [100.0] * 5
    trace = make_trace(delays, interval_ms=20.0)
    wins = windows(trace, 0.1)
    assert len(wins) == 3
    middle = wins[1]
    assert middle.sample.loss_pct == 100.0
    assert middle.sample.delay_ms is None
    assert middle.sample.jitter_ms is None
    assert middle.received_count == 0
    assert middle.packet_count == 5


def test_windows_loss_consistent_with_counts():
    trace = generate(uniform_spec(loss_prob=0.3, rng_seed=8))
    for w in windows(trace, 5.0):
        assert w.sample.loss_pct == pytest.approx(
            100.0 * w.lost_count / w.packet_count, abs=1e-9
        )


def test_windows_validation():
    trace = generate(uniform_spec(duration_s=1.0))
    with pytest.raises(ValueError, match="window_len_s"):
        windows(trace, 0.0)
    with pytest.raises(ValueError, match="window_len_s"):
        windows(trace, float("nan"))
    # finite in seconds, but infinite in milliseconds
    with pytest.raises(ValueError, match="window_len_s"):
        windows(trace, 1e308)
    # so small that the latest send's window index overflows int64
    with pytest.raises(ValueError, match="window_len_s"):
        windows(make_trace([80.0, 80.0, 80.0]), 1e-300)
    # fits int64, but 4e15 windows' arrays are refused at once
    with pytest.raises(ValueError, match="window_len_s 1e-17 gives 4000000000000001"):
        windows(make_trace([80.0, 80.0, 80.0]), 1e-17)
    with pytest.raises(ValueError, match="jitter_estimator"):
        windows(trace, 1.0, jitter_estimator="median")


def test_unknown_jitter_estimator_is_refused():
    # the kernel checks the name itself, rather than measuring mean-abs
    trace = make_trace([80.0, 90.0, 80.0])
    message = "jitter_estimator must be one of ('rfc3550', 'mean-abs'), got 'bogus'"
    for call in (
        lambda: windows(trace, 1.0, "bogus"),
        lambda: window_metrics(trace, np.zeros(3, np.int64), "bogus"),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# generator

def test_generate_zero_impairment_round_trip():
    trace = generate(uniform_spec())
    assert len(trace.seq) == 1500
    assert not np.isnan(trace.recv).any()
    assert loss_rate(trace) == 0.0
    assert mean_delay(trace) == 100.0
    assert jitter_rfc3550(trace) == 0.0
    for w in windows(trace, 10.0):
        assert w.sample.loss_pct == 0.0
        assert w.sample.delay_ms == 100.0
        assert w.sample.jitter_ms == 0.0


def test_generate_total_loss():
    trace = generate(uniform_spec(loss_prob=1.0, duration_s=2.0))
    assert np.isnan(trace.recv).all()
    assert loss_rate(trace) == 100.0


@pytest.mark.parametrize("seed", [0, 1, -7, 2**64 + 3])
def test_random_doubles_continue_the_seeded_random_stream(seed):
    # two blocks of 500 draws take 2,000 words, past the 624-word state
    bits = _mersenne_twister(seed)
    got = np.concatenate([_random_doubles(bits, 500), _random_doubles(bits, 500)])
    rng = random.Random(seed)
    assert got.tolist() == [rng.random() for _ in range(1000)]


def test_generate_loss_rate_concentrates():
    # binomial: 3 sigma at n=20000, p=0.05 is ~0.46 pct points
    trace = generate(uniform_spec(loss_prob=0.05, duration_s=400.0, rng_seed=1234))
    assert len(trace.seq) == 20000
    assert loss_rate(trace) == pytest.approx(5.0, abs=0.5)


def test_generate_deterministic():
    spec = uniform_spec(
        loss_prob=0.1, jitter_model="uniform", jitter_amplitude_ms=20.0
    )
    a, b = generate(spec), generate(spec)
    assert_same_packets(a, b)
    assert trace_to_csv_text(a) == trace_to_csv_text(b)


def test_generate_pareto_delays_nonnegative_and_heavy():
    trace = generate(
        uniform_spec(
            base_delay_ms=50.0,
            jitter_model="pareto",
            pareto_shape=1.5,
            pareto_scale_ms=2.0,
            duration_s=60.0,
        )
    )
    delays = (trace.recv - trace.send).tolist()  # no loss: every packet arrives
    assert all(d >= 50.0 for d in delays)  # pareto draw is nonnegative
    assert max(d - 50.0 for d in delays) > 20.0  # heavy tail shows up


def test_numpy_integer_seed_is_the_same_seed():
    settings = dict(loss_prob=0.1, jitter_model="uniform", jitter_amplitude_ms=20.0)
    spec = uniform_spec(**settings, rng_seed=np.int64(3))
    assert type(spec.rng_seed) is int
    assert_same_packets(generate(spec), generate(uniform_spec(**settings, rng_seed=3)))
    for seed in (True, np.True_):  # a bool would seed like 1
        with pytest.raises(ValueError) as exc:
            uniform_spec(rng_seed=seed)
        assert str(exc.value) == f"rng_seed must be an integer, got {seed!r}"


def test_impairment_spec_validation_names_fields():
    with pytest.raises(ValueError, match="loss_prob"):
        uniform_spec(loss_prob=1.5)
    with pytest.raises(ValueError, match="base_delay_ms"):
        uniform_spec(base_delay_ms=-1.0)
    for shape in (0.95, 1.0):  # the Lomax mean is finite only above 1
        with pytest.raises(ValueError, match=f"pareto_shape must be > 1, got {shape}"):
            uniform_spec(jitter_model="pareto", pareto_shape=shape)
    with pytest.raises(ValueError, match="rng_seed must be an integer, got True"):
        uniform_spec(rng_seed=True)  # a bool would seed like 1
    with pytest.raises(ValueError, match="jitter_model"):
        uniform_spec(jitter_model="gauss")
    with pytest.raises(ValueError, match="duration_s must be a finite number, got inf"):
        uniform_spec(duration_s=float("inf"))
    with pytest.raises(ValueError, match="jitter_amplitude_ms must be a finite number, got inf"):
        uniform_spec(jitter_model="uniform", jitter_amplitude_ms=float("inf"))
    with pytest.raises(ValueError, match="rng_seed"):
        spec_from_dict(
            {
                "loss_prob": 0,
                "base_delay_ms": 100,
                "duration_s": 1,
                "packet_interval_ms": 20,
            }
        )
    with pytest.raises(ValueError, match="spec must be a JSON object, got list"):
        spec_from_dict(["rng_seed"])
    valid = {
        "loss_prob": 0, "base_delay_ms": 100, "duration_s": 1,
        "packet_interval_ms": 20, "rng_seed": 3,
    }
    for field, value, message in (
        ("loss_prob", None, "loss_prob must be a finite number, got None"),
        ("duration_s", 10**400, "duration_s must be a finite number"),
        ("base_delay_ms", True, "base_delay_ms must be a finite number, got True"),
        ("packet_interval_ms", "20", "packet_interval_ms must be a finite number"),
        ("rng_seed", 1.7, "rng_seed must be an integer, got 1.7"),
        ("rng_seed", False, "rng_seed must be an integer, got False"),
        ("jitter", {"model": 5}, "jitter_model must be a string, got 5"),
    ):
        with pytest.raises(ValueError, match=message):
            spec_from_dict({**valid, field: value})


def test_spec_from_dict_jitter_block():
    spec = spec_from_dict(
        {
            "loss_prob": 0.05,
            "base_delay_ms": 80,
            "duration_s": 10,
            "packet_interval_ms": 20,
            "rng_seed": 7,
            "jitter": {"model": "uniform", "amplitude_ms": 15},
        }
    )
    assert spec.jitter_model == "uniform"
    assert spec.jitter_amplitude_ms == 15.0
    # a Pareto block without a shape takes ImpairmentSpec's default
    spec = spec_from_dict({
        "loss_prob": 0, "base_delay_ms": 80, "duration_s": 1,
        "packet_interval_ms": 20, "rng_seed": 7,
        "jitter": {"model": "pareto", "scale_ms": 5},
    })
    assert spec.pareto_shape == uniform_spec().pareto_shape == 1.5


def test_load_impairment_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        '{"loss_prob": 0.0, "base_delay_ms": 100, "duration_s": 1,'
        ' "packet_interval_ms": 20, "rng_seed": 3}'
    )
    assert load_impairment_spec(path).rng_seed == 3


# ---------------------------------------------------------------------------
# trace records and file format

def refusal(records) -> str:
    """The message with which ``Trace`` refuses ``records``."""
    with pytest.raises(ValueError) as exc:
        Trace(records)
    return str(exc.value)


def test_record_validation():
    # a record is a plain value, and Trace checks it
    assert PacketRecord(1, 100.0, 50.0).recv_ts_ms == 50.0
    assert refusal([PacketRecord(1, 100.0, 50.0)]) == (
        "seq 1: recv_ts_ms 50.0 precedes send_ts_ms 100.0"
    )
    assert refusal([PacketRecord(-1, 0.0, None)]) == "seq must be nonnegative, got -1"


def test_trace_validation():
    with pytest.raises(ValueError, match="at least one"):
        Trace(())
    with pytest.raises(ValueError, match="at least one"):
        Trace(columns=((), (), ()))
    # records and columns meet the same checks, with the same messages
    for rows, message in (
        ([(2, 0.0, 1.0), (2, 20.0, 21.0)], "seq must be strictly increasing, got 2 then 2"),
        ([(3, 0.0, 1.0), (2, 20.0, 21.0)], "seq must be strictly increasing, got 3 then 2"),
        ([(1, 0.0, 1.0), (2, 20.0, 5.0)], "seq 2: recv_ts_ms 5.0 precedes send_ts_ms 20.0"),
        ([(1, 0.0, 1.0), (2, 20.0, math.inf)], "seq 2: recv_ts_ms must be finite, got inf"),
        ([(1, 0.0, 1.0), (2, -math.inf, 21.0)], "seq 2: send_ts_ms must be finite, got -inf"),
        ([(1, 0.0, 1.0), (-1, 20.0, 21.0)], "seq must be nonnegative, got -1"),
        ([(1.5, 0.0, 1.0)], "seq must be an integer, got 1.5"),
        ([(True, 0.0, 1.0)], "seq must be an integer, got True"),
        # of one row's faults, the one checked first is named
        ([(1, math.inf, math.inf)], "seq 1: send_ts_ms must be finite, got inf"),
    ):
        with pytest.raises(ValueError) as from_columns:
            Trace(columns=tuple(np.array(column) for column in zip(*rows)))
        from_records = refusal([PacketRecord(*row) for row in rows])
        assert from_records == str(from_columns.value) == message
    # A NaN receive time is refused only in a record: a column reads it as a
    # loss.  Of several faults, a non-integer seq comes first, then the first
    # row that breaks the contract, then the first NaN receive time.
    nan = math.nan
    for rows, message in (
        ([(1, 0.0, 1.0), (2, 20.0, nan)], "seq 2: recv_ts_ms must be finite, got nan"),
        ([(-1, 0.0, nan)], "seq must be nonnegative, got -1"),
        ([(1, 0.0, nan), (2, 20.0, nan), (2.5, 40.0, 5.0)], "seq must be an integer, got 2.5"),
        ([(1, 0.0, nan), (2, 20.0, 5.0), (1, 40.0, 41.0)],
         "seq 2: recv_ts_ms 5.0 precedes send_ts_ms 20.0"),
        ([(1, 0.0, 1.0), (2, 20.0, nan), (3, 40.0, nan)],
         "seq 2: recv_ts_ms must be finite, got nan"),
    ):
        assert refusal([PacketRecord(*row) for row in rows]) == message
    lost = Trace([PacketRecord(1, 0.0, None), PacketRecord(2, 20.0, 21.0)])
    assert np.isnan(lost.recv[0])  # None, not NaN, marks a lost record


@pytest.mark.parametrize(
    "seqs, shown",
    [([1.5, 2.7, 3.9], "1.5"), ([1, 2.0, 3], "2.0"), (np.array([1.0, 2.5]), "1.0"),
     ([True, False], "True"), (["1", "2"], "'1'"), ([True, 2], "True")],
)
def test_trace_columns_reject_seq_that_is_not_an_integer(seqs, shown):
    # np.asarray(..., int64) would truncate 1.5 to seq 1 and score 0% loss,
    # and take [True, 2] as seqs 1, 2
    send = [20.0 * i for i in range(len(seqs))]
    with pytest.raises(ValueError) as exc:
        Trace(columns=(seqs, send, [t + 10.0 for t in send]))
    assert str(exc.value) == f"seq must be an integer, got {shown}"


@pytest.mark.parametrize(
    "seqs", [[1, 2**63], np.array([1, 2**63], np.uint64)], ids=["list", "uint64"]
)
def test_trace_columns_reject_seq_beyond_64_bits(seqs):
    # a list overflowed in the int64 cast, and a uint64 array wrapped to -2**63
    with pytest.raises(ValueError) as exc:
        Trace(columns=(seqs, [0.0, 20.0], [10.0, 30.0]))
    assert str(exc.value) == f"seq must be nonnegative and below 2**63, got {2**63}"


def test_record_rejects_seq_that_is_not_an_integer():
    for seq, shown in ((1.5, "1.5"), (2.0, "2.0"), (True, "True"), ("3", "'3'")):
        assert refusal([PacketRecord(seq, 0.0, 10.0)]) == f"seq must be an integer, got {shown}"
    assert Trace([PacketRecord(np.int64(3), 0.0, 10.0)]).seq.tolist() == [3]


def test_read_trace_names_true_line_in_a_later_block(tmp_path):
    trace = generate(uniform_spec(duration_s=1600.0))  # 80,000 rows, 2 MB
    rows = trace_to_csv_text(trace).split("\r\n")
    bad_line = 75_000  # holds seq 74999, sent at 1499960.0 ms
    assert len("\r\n".join(rows[:bad_line])) > 1 << 20  # past the first block
    for bad_row, message in (
        ("74999,1499960.0,1499950.0", "seq 74999: recv_ts_ms 1499950.0 precedes"),
        ("74999,1499960.0,nan", "recv_ts_ms must be finite, got nan"),
        ("74999,1499960.0", "expected 3 columns"),
    ):
        path = tmp_path / "long.csv"
        lines = [*rows[: bad_line - 1], bad_row, *rows[bad_line:]]
        path.write_text("\r\n".join(lines), newline="")
        with pytest.raises(ValueError) as exc:
            read_trace(path)
        assert str(exc.value).startswith(f"{path}: line {bad_line}: {message}")


def test_trace_csv_round_trip(tmp_path):
    trace = generate(
        uniform_spec(
            loss_prob=0.2,
            duration_s=2.0,
            jitter_model="uniform",
            jitter_amplitude_ms=30.0,
        )
    )
    path = tmp_path / "trace.csv"
    path.write_text(trace_to_csv_text(trace), newline="")
    back = read_trace(path)
    assert_same_packets(back, trace)


def test_read_trace_infers_nominal_interval(tmp_path):
    trace = generate(uniform_spec(duration_s=2.0))
    path = tmp_path / "trace.csv"
    path.write_text(trace_to_csv_text(trace), newline="")
    back = read_trace(path)
    assert not windows(back, 1.0)[-1].partial  # full coverage, no partial flag


def test_windows_partial_depends_only_on_packets(tmp_path):
    # 50 packets every 20 ms cover one 1 s window however the trace was built
    send = np.arange(50) * 20.0
    built = Trace(columns=(np.arange(1, 51), send, send + 80.0))
    path = tmp_path / "trace.csv"
    path.write_text(trace_to_csv_text(built), newline="")
    for trace in (built, read_trace(path), generate(uniform_spec(duration_s=1.0))):
        (win,) = windows(trace, 1.0)
        assert not win.partial
    (win,) = windows(Trace(columns=([1], [0.0], [80.0])), 1.0)
    assert win.partial  # one packet: the interval is 0


def test_read_trace_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("seq,send_ts_ms,recv_ts_ms\n1,0.0,100.0\n2,20.0,oops\n")
    with pytest.raises(ValueError, match="line 3"):
        read_trace(path)


def test_read_trace_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,0.0,100.0\n")
    with pytest.raises(ValueError, match="header"):
        read_trace(path)


def test_read_trace_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("seq,send_ts_ms,recv_ts_ms\n")
    with pytest.raises(ValueError, match="no packets"):
        read_trace(path)


@pytest.mark.parametrize(
    "row, field",
    [
        ("2,20.0,nan", "recv_ts_ms"),
        ("2,20.0,inf", "recv_ts_ms"),
        ("2,20.0,-Infinity", "recv_ts_ms"),
        ("2,nan,120.0", "send_ts_ms"),
        ("2,inf,", "send_ts_ms"),
    ],
)
def test_read_trace_rejects_non_finite_timestamps(tmp_path, row, field):
    # NaN marks a lost packet in the columns, so a literal non-finite
    # timestamp must be rejected rather than read as a loss
    path = tmp_path / "bad.csv"
    path.write_text(f"seq,send_ts_ms,recv_ts_ms\n1,0.0,100.0\n{row}\n3,40.0,140.0\n")
    with pytest.raises(ValueError, match=f"line 3: .*{field} must be finite"):
        read_trace(path)


def test_read_trace_skips_blank_rows_and_keeps_line_numbers(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("seq,send_ts_ms,recv_ts_ms\n1,0.0,100.0\n\n , ,\n2,20.0,\n")
    trace = read_trace(path)
    assert_same_packets(trace, Trace(columns=([1, 2], [0.0, 20.0], [100.0, math.nan])))
    path.write_text("seq,send_ts_ms,recv_ts_ms\n1,0.0,100.0\n\n2,20.0,10.0\n")
    with pytest.raises(ValueError, match="line 4: seq 2: recv_ts_ms 10.0 precedes"):
        read_trace(path)


def test_read_trace_names_line_of_seq_that_does_not_increase(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("seq,send_ts_ms,recv_ts_ms\n1,0.0,100.0\n2,20.0,\n2,40.0,\n")
    with pytest.raises(ValueError, match="line 4: seq must be strictly increasing"):
        read_trace(path)


def test_record_rejects_non_finite_timestamps():
    for row, message in (
        ((1, 0.0, math.nan), "seq 1: recv_ts_ms must be finite, got nan"),
        ((1, math.inf, None), "seq 1: send_ts_ms must be finite, got inf"),
        ((1, 0.0, -math.inf), "seq 1: recv_ts_ms must be finite, got -inf"),
    ):
        assert refusal([PacketRecord(*row)]) == message


def test_read_trace_rejects_seq_beyond_64_bits(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(f"seq,send_ts_ms,recv_ts_ms\n1,0.0,100.0\n{2**64},20.0,\n")
    with pytest.raises(ValueError, match="line 3: seq 18446744073709551616"):
        read_trace(path)


def test_read_trace_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("seq,send_ts_ms,recv_ts_ms\n1,0.0,100.0\n\n2,20.0\n")
    with pytest.raises(ValueError, match="line 4: expected 3 columns"):
        read_trace(path)
