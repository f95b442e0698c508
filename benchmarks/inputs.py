"""Seeded input builders for the benchmark workloads.

Everything here uses numpy's generator only, never ``qoekit``: a change
to qoekit's own RNG or file writers must not change what the analyze and
weights workloads measure.  The trace CSV mirrors qoekit's format
(``repr`` floats, ``\\r\\n`` rows, empty ``recv_ts_ms`` for a lost
packet), and the builders return the ground truth the oracle checks
reports against.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRACE_PACKETS = 180_000  # 1 h of voice at a 20 ms cadence
INTERVAL_MS = 20.0
BASE_DELAY_MS = 80.0
JITTER_AMPLITUDE_MS = 10.0  # uniform, below half the cadence: no reordering
LOSS_PROB = 0.02
OUTAGES = 5
OUTAGE_PACKETS = 100  # 2 s at 20 ms

JUDGMENT_SETS = 40
CRITERIA = tuple(f"c{i}" for i in range(8))
SAATY_STEPS = 9


@dataclass(frozen=True)
class PacketTruth:
    """Generated packets: ``recv`` is NaN for a lost packet."""

    seq: np.ndarray
    send: np.ndarray
    recv: np.ndarray


def make_trace(seed: int, packets: int = TRACE_PACKETS) -> PacketTruth:
    """Fixed cadence, uniform jitter, iid loss plus a few 2 s outages."""
    rng = np.random.default_rng([seed, 1])
    i = np.arange(packets)
    send = i * INTERVAL_MS
    delay = BASE_DELAY_MS + rng.uniform(
        -JITTER_AMPLITUDE_MS, JITTER_AMPLITUDE_MS, packets
    )
    lost = rng.random(packets) < LOSS_PROB
    starts = rng.integers(0, packets - OUTAGE_PACKETS, OUTAGES)
    for s in starts:
        lost[s : s + OUTAGE_PACKETS] = True
    recv = np.where(lost, np.nan, send + delay)
    return PacketTruth(seq=i + 1, send=send, recv=recv)


def trace_csv_text(truth: PacketTruth) -> str:
    rows = ["seq,send_ts_ms,recv_ts_ms"]
    for seq, send, recv in zip(
        truth.seq.tolist(), truth.send.tolist(), truth.recv.tolist()
    ):
        rows.append(f"{seq},{send!r},{'' if recv != recv else repr(recv)}")
    return "\r\n".join(rows) + "\r\n"


def gen_spec(seed: int, packets: int = TRACE_PACKETS) -> dict:
    """Generator spec for ``trace gen``: the same shape as the analyze trace."""
    return {
        "loss_prob": LOSS_PROB,
        "base_delay_ms": BASE_DELAY_MS,
        "duration_s": packets * INTERVAL_MS / 1000.0,
        "packet_interval_ms": INTERVAL_MS,
        "rng_seed": seed,
        "jitter": {"model": "uniform", "amplitude_ms": JITTER_AMPLITUDE_MS},
    }


def _saaty(ratio: np.ndarray) -> np.ndarray:
    """Snap positive ratios to the 9-level scale: 1..9 or 1/2..1/9."""
    up = np.clip(np.rint(ratio), 1, SAATY_STEPS)
    down = 1.0 / np.clip(np.rint(1.0 / ratio), 1, SAATY_STEPS)
    return np.where(ratio >= 1.0, up, down)


def make_judgments(seed: int, sets: int = JUDGMENT_SETS) -> list[dict]:
    """Judgment documents of evaluators who agree on noisy true weights."""
    rng = np.random.default_rng([seed, 2])
    n = len(CRITERIA)
    true_w = rng.uniform(1.0, 9.0, n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    docs = []
    for k in range(sets):
        ratio = np.array([true_w[a] / true_w[b] for a, b in pairs])
        values = _saaty(ratio * rng.lognormal(0.0, 0.4, len(pairs)))
        docs.append(
            {
                "evaluator_id": f"e{k:02d}",
                "criteria": list(CRITERIA),
                "judgments": [
                    {"a": CRITERIA[a], "b": CRITERIA[b], "value": float(v)}
                    for (a, b), v in zip(pairs, values)
                ],
            }
        )
    return docs


def write_text(path: Path, text: str) -> Path:
    path.write_bytes(text.encode("utf-8"))
    return path


def write_judgment_files(directory: Path, docs: list[dict]) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    return [
        write_text(directory / f"{d['evaluator_id']}.json", json.dumps(d, indent=2))
        for d in docs
    ]
