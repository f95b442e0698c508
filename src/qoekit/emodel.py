"""Simplified E-model: impairment factors and the R-to-MOS conversion.

A transmission rating R on the 100-point scale starts at a codec baseline
and is reduced by independent impairment terms for one-way delay, packet
loss and jitter.  R is then mapped to the 5-point MOS scale; objective
models cap at 4.5 and floor at 1.0.

All functions here are pure and reentrant.  Codec constants live in a
:class:`CodecProfile`; a G.729 profile ships as the default.
"""
from __future__ import annotations

import functools
import io
import json
import math
import sys
from dataclasses import dataclass, fields
from numbers import Integral
from pathlib import Path

MOS_MIN = 1.0
MOS_MAX = 4.5

# One-way delay beyond this point incurs an extra 0.11/ms rating penalty.
DELAY_KNEE_MS = 177.3

PARETO_H_MIN = 0.55
PARETO_H_MAX = 0.9


def json_number(value, field: str, integer: bool = False) -> float | int:
    """The one number rule, for JSON input and values built in code: a finite
    int or float as float (with ``integer``, any integral number, numpy's
    too, as int), else a ValueError naming ``field``: bools and None fail."""
    kind, types = (("an integer", (int, Integral)) if integer  # int first: the ABC is slow
                   else ("a finite number", (float, int)))
    if isinstance(value, types) and not isinstance(value, bool):
        if integer or abs(value) <= sys.float_info.max:  # NaN compares false
            return int(value) if integer else float(value)
    raise ValueError(f"{field} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class CodecProfile:
    """Constant set specializing the rating model to one codec.

    ``loss_a``/``loss_b``/``loss_c`` parameterize the loss term,
    ``jitter_c1``..``jitter_c4`` the jitter polynomial, ``pareto_h`` the
    heavy-tail shape of the jitter distribution (valid range 0.55-0.9),
    ``jitter_t_ms`` the de-jitter buffer size and ``jitter_k`` the decay
    constant of the buffer term.  Every term is a penalty (ITU-T G.107):
    it grows with its impairment, and a larger buffer lowers the jitter
    term.  So a negative ``loss_a``, ``loss_b`` or ``jitter_c4``, a
    ``loss_c`` at or below 0 and a negative jitter baseline
    ``jitter_c1*h**2 + jitter_c2*h + jitter_c3`` are rejected.  First, in
    field order, each constant must pass :func:`json_number`, however built.
    """

    name: str
    r0: float
    loss_a: float
    loss_b: float
    loss_c: float
    jitter_c1: float
    jitter_c2: float
    jitter_c3: float
    jitter_c4: float
    pareto_h: float = 0.6
    jitter_t_ms: float = 40.0
    jitter_k: float = 30.0

    def __post_init__(self) -> None:
        for f in fields(self)[1:]:  # every field but the name
            object.__setattr__(self, f.name, json_number(getattr(self, f.name), f.name))
        h = self.pareto_h
        base = self.jitter_c1 * h * h + self.jitter_c2 * h + self.jitter_c3
        for ok, message in (
            (0.0 < self.r0 <= 100.0, f"r0 must be within (0, 100], got {self.r0}"),
            (PARETO_H_MIN <= h <= PARETO_H_MAX,
             f"pareto_h must be within [{PARETO_H_MIN}, {PARETO_H_MAX}], got {h}"),
            (self.jitter_t_ms >= 0, f"jitter_t_ms must be >= 0, got {self.jitter_t_ms}"),
            (self.jitter_k > 0, f"jitter_k must be > 0, got {self.jitter_k}"),
            (self.loss_a >= 0, f"loss_a must be >= 0, got {self.loss_a}"),
            (self.loss_b >= 0, f"loss_b must be >= 0, got {self.loss_b}"),
            (self.jitter_c4 >= 0, f"jitter_c4 must be >= 0, got {self.jitter_c4}"),
            (self.loss_c > 0, f"loss_c must be > 0, got {self.loss_c}"),
            (base >= 0, "jitter_c1*pareto_h**2 + jitter_c2*pareto_h + jitter_c3 "
             f"must be >= 0, got {base}"),
        ):
            if not ok:
                raise ValueError(message)

    @functools.cached_property
    def in_buffer_jitter(self) -> tuple[float, float]:
        """The jitter R and MOS of any jitter within the ``jitter_t_ms``
        buffer, ``r0 - jitter_impairment(self)`` and its MOS, computed once
        per profile."""
        r = self.r0 - jitter_impairment(self)
        return r, mos_from_r(r)


#: Built-in narrowband G.729 profile, the library default.
G729 = CodecProfile(
    name="G.729",
    r0=93.2,
    loss_a=11.0,
    loss_b=40.0,
    loss_c=10.0,
    jitter_c1=-15.5,
    jitter_c2=33.5,
    jitter_c3=4.4,
    jitter_c4=13.6,
    pareto_h=0.6,
    jitter_t_ms=40.0,
    jitter_k=30.0,
)


def delay_impairment(delay_ms: float) -> float:
    """Rating penalty for one-way delay in milliseconds.

    Linear at 0.024/ms, with an extra 0.11/ms beyond the 177.3 ms knee.
    """
    if not 0.0 <= delay_ms < math.inf:  # NaN fails every comparison
        raise ValueError(f"delay_ms must be finite and >= 0, got {delay_ms}")
    excess = delay_ms - DELAY_KNEE_MS
    return 0.024 * delay_ms + 0.11 * (excess if excess > 0.0 else 0.0)


def loss_impairment(loss_pct: float, profile: CodecProfile = G729) -> float:
    """Combined codec and packet-loss penalty for a loss percentage.

    Equals ``loss_a`` at zero loss (the codec's intrinsic penalty) and
    grows logarithmically with the loss fraction.
    """
    if not 0.0 <= loss_pct <= 100.0:
        raise ValueError(f"loss_pct must be within [0, 100], got {loss_pct}")
    return profile.loss_a + profile.loss_b * math.log(
        1.0 + profile.loss_c * loss_pct / 100.0
    )


def jitter_impairment(profile: CodecProfile = G729, t_ms: float | None = None) -> float:
    """Jitter penalty for a profile's heavy-tail shape and a buffer size.

    Quadratic in ``pareto_h`` plus an exponentially decaying buffer term;
    a larger buffer ``t_ms`` (default: the profile's ``jitter_t_ms``)
    absorbs more jitter and lowers the penalty.
    """
    h = profile.pareto_h
    if t_ms is None:
        t_ms = profile.jitter_t_ms
    elif not 0.0 <= t_ms < math.inf:
        raise ValueError(f"t_ms must be finite and >= 0, got {t_ms}")
    return (
        profile.jitter_c1 * h * h
        + profile.jitter_c2 * h
        + profile.jitter_c3
        + profile.jitter_c4 * math.exp(-t_ms / profile.jitter_k)
    )


def mos_from_r(r: float) -> float:
    """Convert a 100-point transmission rating to the 5-point MOS scale.

    Ratings at or above 100 map to 4.5, at or below 0 to 1.0.  In between
    a cubic interpolation applies, clamped to [1.0, 4.5]; the clamp also
    floors a small dip of the raw cubic below 1.0 near R = 3.  A NaN or
    infinite rating raises ValueError.
    """
    if not 0.0 < r < 100.0:
        if not abs(r) < math.inf:  # NaN fails every comparison
            raise ValueError(f"r must be finite, got {r}")
        return MOS_MAX if r >= 100.0 else MOS_MIN
    raw = 1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6
    # the clamp as comparisons: min(MOS_MAX, max(MOS_MIN, raw)), bit for bit
    raw = raw if raw > MOS_MIN else MOS_MIN
    return raw if raw < MOS_MAX else MOS_MAX


def names_file(read):
    """Decorate an input reader ``read(path, ...)`` so that each ValueError
    it raises, a bad UTF-8 byte's UnicodeDecodeError too, starts with the
    file's ``path: ``: every reader names its file in one place."""

    @functools.wraps(read)
    def reader(path, *args):
        try:
            return read(path, *args)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    return reader


def open_text(path: str | Path, data: bytes | None = None, newline: str | None = None):
    """The input file at ``path`` opened as UTF-8 text, or ``data``, the
    bytes a caller has read from it, decoded the same way, so that an error
    gives the same line, column and position either way."""
    if data is None:
        return open(path, encoding="utf-8", newline=newline)
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline)


def read_json(path: str | Path, what: str, data: bytes | None = None):
    """The parsed JSON document of an input file, or of ``data``, the bytes
    a caller has read from it; a syntax error becomes a ValueError naming
    ``what`` the file holds."""
    with open_text(path, data) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid {what} JSON: {exc}") from exc


def json_string(value, field: str, many: bool = False) -> str | tuple[str, ...]:
    """A JSON string (a tuple of them from a JSON list or a tuple, with
    ``many``), else a ValueError naming ``field``: numbers, null and a lone
    string for a list fail."""
    kind, cls = ("a list of strings", (list, tuple)) if many else ("a string", str)
    if not isinstance(value, cls) or many and not all(isinstance(v, str) for v in value):
        raise ValueError(f"{field} must be {kind}, got {value!r}")
    return tuple(value) if many else value


def json_object(value, field: str) -> dict:
    """``value`` if it is a JSON object, else a ValueError naming ``field``."""
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be a JSON object, got {type(value).__name__}")
    return value


def profile_from_dict(data: dict) -> CodecProfile:
    """Build a profile from the JSON layout {name, r0, loss:{...}, jitter:{...}};
    :class:`CodecProfile` checks the numbers."""
    json_object(data, "profile")
    try:
        loss = json_object(data["loss"], "profile field loss")
        jitter = json_object(data["jitter"], "profile field jitter")
        constants = {
            "r0": data["r0"],
            "loss_a": loss["a"],
            "loss_b": loss["b"],
            "loss_c": loss["c"],
            "jitter_c1": jitter["c1"],
            "jitter_c2": jitter["c2"],
            "jitter_c3": jitter["c3"],
            "jitter_c4": jitter["c4"],
            "pareto_h": jitter.get("h", G729.pareto_h),
            "jitter_t_ms": jitter.get("t_ms", G729.jitter_t_ms),
            "jitter_k": jitter.get("k", G729.jitter_k),
        }
        name = json_string(data["name"], "profile field name")
    except KeyError as exc:
        raise ValueError(f"profile is missing required field {exc}") from exc
    profile = CodecProfile(name, **constants)
    # Finite coefficients can still overflow a term to a non-finite rating.
    # The loss term grows with loss_pct and the jitter term falls with t_ms,
    # so one that overflows anywhere does so at 100% loss or at the
    # jitter_t_ms buffer floor.
    ends = {
        "jitter_c1 to jitter_c4": jitter_impairment(profile),
        "loss_a, loss_b and loss_c": loss_impairment(100.0, profile),
    }
    for fields_named, value in ends.items():
        if not abs(value) < math.inf:  # NaN fails every comparison
            raise ValueError(f"{fields_named} give a non-finite impairment, got {value}")
    return profile


@names_file
def load_profile(path: str | Path) -> CodecProfile:
    """Load a codec profile from a JSON file; an error names the file."""
    return profile_from_dict(read_json(path, "profile"))
