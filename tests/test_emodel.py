import copy
import json
import math
from dataclasses import fields, replace

import pytest

from qoekit import (
    G729,
    CodecProfile,
    WeightVector,
    delay_impairment,
    jitter_impairment,
    load_profile,
    loss_impairment,
    mos_from_r,
)
from qoekit.emodel import DELAY_KNEE_MS, profile_from_dict
from qoekit.trace import spec_from_dict


#: G.729 in the profile JSON layout, with every optional jitter field given.
G729_DOCUMENT = {
    "name": "G.729",
    "r0": 93.2,
    "loss": {"a": 11.0, "b": 40.0, "c": 10.0},
    "jitter": {
        "c1": -15.5, "c2": 33.5, "c3": 4.4, "c4": 13.6,
        "h": 0.6, "t_ms": 40.0, "k": 30.0,
    },
}


#: Where each CodecProfile number sits in the profile JSON layout.
PROFILE_PATHS = {
    "r0": ("r0",), "loss_a": ("loss", "a"), "loss_b": ("loss", "b"),
    "loss_c": ("loss", "c"), "jitter_c1": ("jitter", "c1"),
    "jitter_c2": ("jitter", "c2"), "jitter_c3": ("jitter", "c3"),
    "jitter_c4": ("jitter", "c4"), "pareto_h": ("jitter", "h"),
    "jitter_t_ms": ("jitter", "t_ms"), "jitter_k": ("jitter", "k"),
}

#: A Pareto generator spec in its JSON layout, every field given, and where
#: each ImpairmentSpec number sits in it.
SPEC_DOCUMENT = {
    "loss_prob": 0.0, "base_delay_ms": 80.0, "duration_s": 1.0,
    "packet_interval_ms": 20.0, "rng_seed": 3,
    "jitter": {"model": "pareto", "amplitude_ms": 0.0, "shape": 1.5, "scale_ms": 5.0},
}
SPEC_PATHS = {
    "loss_prob": ("loss_prob",), "base_delay_ms": ("base_delay_ms",),
    "duration_s": ("duration_s",), "packet_interval_ms": ("packet_interval_ms",),
    "rng_seed": ("rng_seed",), "jitter_amplitude_ms": ("jitter", "amplitude_ms"),
    "pareto_shape": ("jitter", "shape"), "pareto_scale_ms": ("jitter", "scale_ms"),
}


def refusal(build) -> str:
    with pytest.raises(ValueError) as exc:
        build()
    return str(exc.value)


def zeroed_jitter_profile(**overrides):
    fields = dict(
        name="zeroed",
        r0=93.2,
        loss_a=11.0,
        loss_b=40.0,
        loss_c=10.0,
        jitter_c1=0.0,
        jitter_c2=0.0,
        jitter_c3=0.0,
        jitter_c4=0.0,
    )
    fields.update(overrides)
    return CodecProfile(**fields)


def test_delay_impairment_points():
    assert delay_impairment(0.0) == 0.0
    assert delay_impairment(100.0) == pytest.approx(2.4, abs=1e-9)
    # 0.024*200 + 0.11*22.7, recomputed by hand
    assert delay_impairment(200.0) == pytest.approx(7.297, abs=1e-3)


def test_delay_impairment_rejects_negative():
    with pytest.raises(ValueError, match=">= 0"):
        delay_impairment(-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
def test_point_functions_reject_non_finite_input(value):
    # each names its argument, as loss_impairment does; NaN fails every
    # comparison, so without the checks it came out as nan, inf or a MOS of 1.0
    with pytest.raises(ValueError, match=f"delay_ms must be finite and >= 0, got {value}"):
        delay_impairment(value)
    with pytest.raises(ValueError, match=f"t_ms must be finite and >= 0, got {value}"):
        jitter_impairment(G729, value)
    with pytest.raises(ValueError, match=r"loss_pct must be within \[0, 100\]"):
        loss_impairment(value)
    if value != -1.0:  # a negative rating is a valid input: MOS 1.0
        with pytest.raises(ValueError, match=f"r must be finite, got {value}"):
            mos_from_r(value)


def test_point_functions_keep_their_edge_values():
    assert delay_impairment(0.0) == delay_impairment(-0.0) == 0.0
    assert jitter_impairment(G729, 0.0) == jitter_impairment(G729, -0.0)
    assert jitter_impairment(G729, G729.jitter_t_ms) == jitter_impairment(G729)
    assert mos_from_r(-1e308) == mos_from_r(-0.0) == 1.0
    assert mos_from_r(1e308) == 4.5


def test_delay_impairment_continuous_at_knee():
    below = delay_impairment(DELAY_KNEE_MS - 1e-9)
    at = delay_impairment(DELAY_KNEE_MS)
    above = delay_impairment(DELAY_KNEE_MS + 1e-9)
    assert at == pytest.approx(0.024 * DELAY_KNEE_MS, abs=1e-12)
    assert abs(above - below) < 1e-9
    assert abs(at - below) < 1e-10


def test_delay_impairment_monotone():
    grid = [i * 0.5 for i in range(0, 1000)]
    values = [delay_impairment(d) for d in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(v >= 0 for v in values)


def test_loss_impairment_points():
    assert loss_impairment(0.0) == 11.0
    assert loss_impairment(10.0) == pytest.approx(11 + 40 * math.log(2), abs=1e-9)
    assert loss_impairment(10.0) == pytest.approx(38.726, abs=1e-3)
    assert loss_impairment(100.0) == pytest.approx(11 + 40 * math.log(11), abs=1e-9)


def test_loss_impairment_range_checked():
    with pytest.raises(ValueError, match=r"\[0, 100\]"):
        loss_impairment(-0.1)
    with pytest.raises(ValueError, match=r"\[0, 100\]"):
        loss_impairment(100.1)


def test_loss_impairment_strictly_increasing():
    values = [loss_impairment(p) for p in range(0, 101)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_jitter_impairment_g729_default():
    # -15.5*0.36 + 33.5*0.6 + 4.4 + 13.6*exp(-4/3), recomputed by hand
    assert jitter_impairment(G729) == pytest.approx(22.505, abs=1e-3)


def test_jitter_impairment_buffer_limit():
    profile = CodecProfile(
        name="big-buffer",
        r0=93.2,
        loss_a=11,
        loss_b=40,
        loss_c=10,
        jitter_c1=-15.5,
        jitter_c2=33.5,
        jitter_c3=4.4,
        jitter_c4=13.6,
        jitter_t_ms=1e9,
    )
    assert jitter_impairment(profile) == pytest.approx(18.92, abs=1e-9)


def test_jitter_impairment_zeroed_constants():
    assert jitter_impairment(zeroed_jitter_profile()) == 0.0


def test_mos_from_r_points():
    assert mos_from_r(93.2) == pytest.approx(4.409, abs=1e-3)
    assert mos_from_r(100.0) == 4.5
    assert mos_from_r(150.0) == 4.5
    assert mos_from_r(0.0) == 1.0
    assert mos_from_r(-5.0) == 1.0


def test_mos_from_r_clamps_low_rating_dip():
    raw = 1 + 0.035 * 3 + 3 * (3 - 60) * (100 - 3) * 7e-6
    assert raw < 1.0  # the raw cubic dips below the scale floor near R=3
    assert mos_from_r(3.0) == 1.0


def test_mos_from_r_bounds():
    for r in range(-50, 160):
        assert 1.0 <= mos_from_r(float(r)) <= 4.5


def test_mos_from_r_deterministic():
    assert mos_from_r(93.2) == mos_from_r(93.2)


def test_profile_validation():
    with pytest.raises(ValueError, match="pareto_h"):
        zeroed_jitter_profile(pareto_h=0.95)
    with pytest.raises(ValueError, match="pareto_h"):
        zeroed_jitter_profile(pareto_h=0.5)
    with pytest.raises(ValueError, match="r0"):
        zeroed_jitter_profile(r0=0.0)
    with pytest.raises(ValueError, match="r0"):
        zeroed_jitter_profile(r0=100.5)
    with pytest.raises(ValueError, match="jitter_t_ms"):
        zeroed_jitter_profile(jitter_t_ms=-1.0)
    with pytest.raises(ValueError, match="jitter_k"):
        zeroed_jitter_profile(jitter_k=0.0)
    # every numeric field must be finite; NaN passes a one-sided range check
    for field, value in (
        ("jitter_t_ms", math.nan), ("jitter_t_ms", math.inf),
        ("jitter_k", math.nan), ("jitter_k", math.inf), ("loss_b", -math.inf),
    ):
        with pytest.raises(ValueError, match=f"{field} must be a finite number, got {value}"):
            zeroed_jitter_profile(**{field: value})


def with_value(document: dict, path: tuple[str, ...], value) -> dict:
    """A deep copy of ``document`` with ``value`` at ``path``."""
    document = copy.deepcopy(document)
    *blocks, key = path
    inner = document
    for block in blocks:
        inner = inner[block]
    inner[key] = value
    return document


@pytest.mark.parametrize(
    "value", [True, False, None, "1", math.nan, math.inf, -math.inf]
)
def test_numeric_fields_refuse_a_non_number_however_built(value):
    # one rule, json_number, for a value built in code and one read from JSON
    assert [f.name for f in fields(CodecProfile)][1:] == list(PROFILE_PATHS)
    for name, path in PROFILE_PATHS.items():
        message = f"{name} must be a finite number, got {value!r}"
        assert refusal(lambda: replace(G729, **{name: value})) == message
        document = with_value(G729_DOCUMENT, path, value)
        assert refusal(lambda: profile_from_dict(document)) == message
    spec = spec_from_dict(SPEC_DOCUMENT)
    assert {f.name for f in fields(spec)} - set(SPEC_PATHS) == {"jitter_model"}
    for name, path in SPEC_PATHS.items():
        kind = "an integer" if name == "rng_seed" else "a finite number"
        message = f"{name} must be {kind}, got {value!r}"
        assert refusal(lambda: replace(spec, **{name: value})) == message
        document = with_value(SPEC_DOCUMENT, path, value)
        assert refusal(lambda: spec_from_dict(document)) == message
    message = f"weight must be a finite number, got {value!r}"
    for values in ((value, 0.5), (0.5, value)):
        assert refusal(lambda: WeightVector(("a", "b"), values)) == message


def test_profile_json_roundtrip(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(G729_DOCUMENT))
    assert load_profile(path) == G729


def test_profile_json_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "r0": 90, "loss": {"a": 1, "b": 2, "c": 3}}')
    with pytest.raises(ValueError, match="missing required field"):
        load_profile(path)
    # a block or the document of the wrong JSON type is named, not a TypeError
    for doc, message in (
        ({**G729_DOCUMENT, "loss": [11, 40, 10]}, "profile field loss must be a JSON"),
        ({**G729_DOCUMENT, "jitter": 0.6}, "profile field jitter must be a JSON"),
        ([G729_DOCUMENT], "profile must be a JSON object, got list"),
        ({**G729_DOCUMENT, "name": 729}, "profile field name must be a string, got 729"),
    ):
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_profile(path)


def test_profile_dict_defaults():
    data = copy.deepcopy(G729_DOCUMENT)
    for key in ("h", "t_ms", "k"):
        del data["jitter"][key]
    data["name"] = "defaults"
    assert profile_from_dict(data) == replace(G729, name="defaults")
