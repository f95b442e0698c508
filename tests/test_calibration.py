"""Calibration: statistics of generated traces against their closed forms.

For a trace from ``generate`` the truth is known without reference to
any estimator: each packet is lost with probability p, and a received
packet's delay is the base plus an independent jitter draw, uniform on
[-A, A] for the ``uniform`` model, 0 for ``none`` and, for ``pareto``, a
Lomax draw scale * ((1 - u)**(-1/alpha) - 1), with u uniform on [0, 1).
With base >= A no delay is truncated at zero, and a Lomax draw is never
negative.  Each check compares a statistic with its
expectation within Z standard deviations, the deviation derived from the
statistic's variance as each test states.  The seeds are fixed, so a
check passes or fails the same way on every run; a bound is never widened
to make a check pass.

Two closed forms about |D|, the absolute transit difference of two
consecutive received packets, are used below.  With X, Y and Z
independent and uniform on [-A, A], |D| = |X - Y|, and loss does not
change this, because loss and jitter draws are independent:

- E|X - Y| = 2A/3, and Var|X - Y| = E(X - Y)^2 - (2A/3)^2
  = 2A^2/3 - 4A^2/9 = 2A^2/9 = 10A^2/45.
- Consecutive |D| share one packet.  Given Y, E_X|X - Y| = (A^2 + Y^2)/(2A),
  so E[|X - Y| |Y - Z|] = E[(A^2 + Y^2)^2]/(4A^2) = 7A^2/15, and
  Cov(|X - Y|, |Y - Z|) = 7A^2/15 - 4A^2/9 = A^2/45.  Values of |D| two or
  more apart share no packet and are independent.
"""
import math

import numpy as np
import pytest

from qoekit.trace import (
    ImpairmentSpec,
    generate,
    jitter_mean_abs,
    jitter_rfc3550,
    loss_rate,
    mean_delay,
    windows,
)

#: Standard deviations a statistic may lie from its expectation.  For a
#: normal statistic, |z| > 4 has probability 6e-5.
Z = 4.0
#: Variance of |D| and covariance of consecutive |D|, in units of A^2.
VAR_D, COV_D = 10 / 45, 1 / 45
#: The CI and benchmark spec: 1 h of 20 ms voice, base 80 ms, A = 10 ms.
BASE_MS, A_MS, HOUR_S, INTERVAL_MS = 80.0, 10.0, 3600.0, 20.0


def spec(model: str, loss_prob: float, seed: int, duration_s: float = HOUR_S):
    return ImpairmentSpec(
        loss_prob, BASE_MS, duration_s, INTERVAL_MS, seed, model,
        A_MS if model == "uniform" else 0.0,
    )


def mean_abs_variance(pairs: int) -> float:
    """Var of the mean of ``pairs`` consecutive |D|, in units of A^2:
    (pairs * Var + 2 (pairs - 1) Cov) / pairs^2."""
    return (pairs * VAR_D + 2 * (pairs - 1) * COV_D) / pairs**2


@pytest.mark.parametrize(
    "model, loss_prob, seed", [("none", 0.1, 2), ("uniform", 0.02, 1)]
)
def test_whole_trace_loss_is_p(model, loss_prob, seed):
    # The lost count is Binomial(n, p), so the loss fraction has
    # standard deviation sqrt(p (1 - p) / n).
    trace = generate(spec(model, loss_prob, seed))
    n = len(trace.seq)
    sd = math.sqrt(loss_prob * (1 - loss_prob) / n)
    assert abs(loss_rate(trace) / 100 - loss_prob) <= Z * sd


def test_without_jitter_delay_is_base_and_jitter_zero():
    trace = generate(spec("none", 0.02, 1))
    assert mean_delay(trace) == BASE_MS
    assert jitter_mean_abs(trace) == jitter_rfc3550(trace) == 0.0


def test_mean_delay_is_base():
    # Each received delay is the base plus a uniform draw on [-A, A], of
    # variance A^2/3, so the mean over m received packets has standard
    # deviation A / sqrt(3 m).
    trace = generate(spec("uniform", 0.02, 1))
    received = int(np.count_nonzero(~np.isnan(trace.recv)))
    sd = A_MS / math.sqrt(3 * received)
    assert abs(mean_delay(trace) - BASE_MS) <= Z * sd


def test_whole_trace_mean_abs_jitter_is_two_thirds_a():
    # The estimator is the mean of the m = received - 1 consecutive |D|,
    # whose variance is mean_abs_variance(m) A^2.
    trace = generate(spec("uniform", 0.02, 1))
    pairs = int(np.count_nonzero(~np.isnan(trace.recv))) - 1
    sd = A_MS * math.sqrt(mean_abs_variance(pairs))
    assert abs(jitter_mean_abs(trace) - 2 * A_MS / 3) <= Z * sd


def test_mean_of_window_mean_abs_jitter_is_two_thirds_a():
    # A window's estimate is the mean of its received - 1 consecutive |D|,
    # of variance mean_abs_variance(received - 1) A^2.  No |D| spans two
    # windows, so windows are independent, and the mean of W estimates has
    # variance sum_j Var_j / W^2.  Windows with fewer than 2 received
    # packets have no estimate and are left out.
    trace = generate(spec("uniform", 0.02, 1))
    measured = [
        (w.sample.jitter_ms, w.received_count - 1)
        for w in windows(trace, 0.2, "mean-abs")
        if w.sample.jitter_ms is not None
    ]
    estimates = [jitter for jitter, _ in measured]
    variance = sum(mean_abs_variance(pairs) for _, pairs in measured)
    sd = A_MS * math.sqrt(variance) / len(measured)
    assert abs(sum(estimates) / len(estimates) - 2 * A_MS / 3) <= Z * sd


#: Seeded traces averaged for the RFC 3550 check, and their duration.
RFC3550_TRACES, RFC3550_DURATION_S = 400, 8.0


def test_mean_of_whole_trace_rfc3550_jitter_is_two_thirds_a():
    # From J = 0, J += (|D| - J)/16 ends at J = sum_k w_k |D_k| with
    # w_k = g (1 - g)^(m - k), g = 1/16.  Over m pairs E[J] = (2A/3)
    # (1 - (1 - g)^m), and (1 - g)^m < 1e-10 for the about 390 pairs of
    # an 8 s trace.  Summing the weights as m grows,
    # sum w_k^2 = g/(2 - g) = 1/31 and sum w_k w_(k+1) = (1 - g)/31, so
    # Var J = (VAR_D + 2 (1 - g) COV_D) A^2 / 31: one J averages only about
    # 31 values of |D|, so the check takes the mean of many traces, each
    # from its own seed, whose standard deviation is sqrt(Var J / N).
    g = 1 / 16
    estimates = [
        jitter_rfc3550(generate(spec("uniform", 0.02, seed, RFC3550_DURATION_S)))
        for seed in range(RFC3550_TRACES)
    ]
    variance = (VAR_D + 2 * (1 - g) * COV_D) * A_MS**2 / 31
    sd = math.sqrt(variance / RFC3550_TRACES)
    assert abs(sum(estimates) / RFC3550_TRACES - 2 * A_MS / 3) <= Z * sd


#: Scale of the Pareto (Lomax) jitter draws, in ms.
PARETO_SCALE_MS = 5.0


def pareto_jitter(alpha: float, seed: int) -> np.ndarray:
    """The jitter draws of 1 h of 20 ms packets with Lomax jitter of tail
    index ``alpha``: no loss and no base delay, so each delay is a draw."""
    trace = generate(ImpairmentSpec(
        0.0, 0.0, HOUR_S, INTERVAL_MS, seed, "pareto",
        pareto_shape=alpha, pareto_scale_ms=PARETO_SCALE_MS,
    ))
    return trace.recv - trace.send


def test_pareto_jitter_median_is_lomax_median():
    # The Lomax CDF is 1 - (1 + x/scale)^(-alpha), so the median is
    # scale (2^(1/alpha) - 1).  Each of the n draws lies at or below it with
    # probability 1/2, so that fraction is Binomial(n, 1/2)/n, of standard
    # deviation 1/(2 sqrt(n)); this holds at alpha = 1.5, whose variance is
    # infinite.
    alpha = 1.5
    jitter = pareto_jitter(alpha, 3)
    median = PARETO_SCALE_MS * (2 ** (1 / alpha) - 1)
    sd = 0.5 / math.sqrt(len(jitter))
    assert abs(np.count_nonzero(jitter <= median) / len(jitter) - 0.5) <= Z * sd


def test_pareto_jitter_mean_is_lomax_mean():
    # The Lomax mean scale/(alpha - 1) is finite for alpha > 1, and the
    # variance scale^2 alpha / ((alpha - 1)^2 (alpha - 2)) for alpha > 2,
    # so the mean is checked at alpha = 3, where the variance is
    # 3 scale^2 / 4 and the mean of n draws has standard deviation
    # scale sqrt(3 / (4 n)).  The third moment is infinite at alpha = 3, so
    # the mean nears normal slowly; Chebyshev alone bounds |z| > Z by
    # 1/Z^2 for any law of finite variance.
    alpha = 3.0
    jitter = pareto_jitter(alpha, 4)
    variance = PARETO_SCALE_MS**2 * alpha / ((alpha - 1) ** 2 * (alpha - 2))
    sd = math.sqrt(variance / len(jitter))
    assert abs(jitter.mean() - PARETO_SCALE_MS / (alpha - 1)) <= Z * sd
