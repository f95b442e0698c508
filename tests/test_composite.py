import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scalar_scoring as reference
from qoekit import (
    G729,
    PRESETS,
    CodecProfile,
    CompositeModel,
    PairwiseMatrix,
    QosSample,
    WeightVector,
    column_average_weights,
    combine,
    component_mos,
    delay_impairment,
    get_model,
    jitter_impairment,
    load_models,
    make_model,
    mos_from_r,
    score,
)
from qoekit.emodel import DELAY_KNEE_MS, PARETO_H_MAX, PARETO_H_MIN
from conftest import CRITERIA, REFERENCE_MATRIX

ZEROED = CodecProfile(
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

PAPER = get_model("paper-5g-ahp")

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)


def test_qos_sample_validation():
    # a sample is a plain record; component_mos, and so score, checks it
    assert QosSample(101.0, 0.0, 0.0).loss_pct == 101.0
    cases = [
        (QosSample(101.0, 0.0, 0.0), "loss_pct must be within [0, 100], got 101.0"),
        (QosSample(0.0, -1.0, 0.0), "delay_ms must be finite and >= 0, got -1.0"),
        (QosSample(0.0, 0.0, -1.0), "jitter_ms must be finite and >= 0, got -1.0"),
    ]
    for k, field in enumerate(QosSample._fields):  # the number rule, in each field
        for bad in (True, False, "1", np.float32("nan"), np.longdouble("1e400")):
            values = [0.0, 0.0, 0.0]
            values[k] = bad
            cases.append((QosSample(*values), f"{field} must be a finite number, got {bad!r}"))
    for sample, message in cases:
        with pytest.raises(ValueError) as caught:
            component_mos(sample, G729)
        assert str(caught.value) == message
        with pytest.raises(ValueError, match=re.escape(message)):
            score(sample, PAPER, G729)
    # None marks an unavailable measurement, not an error
    component_mos(QosSample(100.0, None, None), G729)


@pytest.mark.parametrize("field", QosSample._fields)
def test_component_mos_takes_numpy_numbers_in_a_sample(field):
    # a numpy number passes json_number as the float of its value
    def sample(value):
        values = {"loss_pct": 1.0, "delay_ms": 80.0, "jitter_ms": 10.0, field: value}
        return QosSample(**values)

    for given_value, value in ((np.float32(0.5), 0.5), (np.int64(3), 3.0)):
        assert component_mos(sample(given_value), G729) == component_mos(sample(value), G729)


# ---------------------------------------------------------------------------
# combine

def test_combine_weighted_sum():
    got = combine(PAPER, {"loss": 2.0, "delay": 4.0, "jitter": 4.0})
    assert got == pytest.approx(2.90, abs=1e-12)


def test_combine_convex_identity():
    assert combine(PAPER, {c: 3.3 for c in CRITERIA}) == pytest.approx(3.3, abs=1e-12)
    video = get_model("video-network")
    assert combine(video, {c: 0.7 for c in video.criteria}) == pytest.approx(
        0.7, abs=1e-12
    )


def test_combine_bounded_by_components():
    rng = np.random.default_rng(3)
    for _ in range(200):
        comps = {c: float(rng.uniform(1.0, 4.5)) for c in CRITERIA}
        got = combine(PAPER, comps)
        assert min(comps.values()) - 1e-12 <= got <= max(comps.values()) + 1e-12


@PROPERTY_SETTINGS
@given(
    st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(1.0, 4.5)), min_size=1, max_size=8
    ).filter(lambda pairs: sum(w for w, _ in pairs) > 0)
)
def test_combine_within_component_range_for_random_weights(pairs):
    raw = [w for w, _ in pairs]
    criteria = tuple(f"c{i}" for i in range(len(pairs)))
    weights = WeightVector(criteria, [w / sum(raw) for w in raw])
    components = {c: v for c, (_, v) in zip(criteria, pairs)}
    got = combine(CompositeModel("random", weights), components)
    slack = 1e-12 * max(components.values())
    assert min(components.values()) - slack <= got <= max(components.values()) + slack


def test_combine_permutation_invariant():
    comps = {"loss": 2.0, "delay": 4.0, "jitter": 3.0}
    reordered = {"jitter": 3.0, "loss": 2.0, "delay": 4.0}
    assert combine(PAPER, comps) == combine(PAPER, reordered)


def test_combine_invariant_under_simultaneous_reordering():
    # reorder the model's weights together with the components
    shuffled = make_model(
        "shuffled", (0.20, 0.55, 0.25), ("jitter", "loss", "delay")
    )
    comps = {"loss": 2.0, "delay": 4.0, "jitter": 3.0}
    assert combine(shuffled, comps) == pytest.approx(combine(PAPER, comps), abs=1e-12)


def test_combine_criteria_mismatch():
    with pytest.raises(ValueError, match="missing components"):
        combine(PAPER, {"loss": 2.0, "delay": 4.0})
    with pytest.raises(ValueError, match="do not belong"):
        combine(PAPER, {"loss": 2.0, "delay": 4.0, "jitter": 3.0, "ars": 0.5})
    with pytest.raises(ValueError, match="missing components"):
        combine(get_model("video-network"), {"loss": 0.2, "delay": 0.1, "jitter": 0.3})


def test_weight_sums_run_left_to_right():
    # From Python 3.12 on, sum() compensates, and misses both values by an
    # ulp; adding left to right from 0.0 gives them on every version.
    assert score(QosSample(0.0, 60.0, 60.0), PAPER, G729) == 4.094175520901936
    weights = (0.01, 0.29, 0.69)  # 0.99 left to right, 0.9899999999999999 by 3.12's sum()
    with pytest.warns(UserWarning, match="renormalizing"):
        model = make_model("x", weights, CRITERIA)
    assert model.weights.values == tuple(w / 0.99 for w in weights)


# ---------------------------------------------------------------------------
# component scoring

def test_component_mos_ideal_sample_zeroed_jitter():
    mos, r_factors = component_mos(QosSample(0.0, 0.0, 0.0), ZEROED)
    # frozen from hand evaluation: loss keeps the codec floor (R=82.2),
    # delay and jitter sit at the clean baseline (R=93.2)
    assert mos["loss"] == pytest.approx(4.104375064, abs=1e-9)
    assert mos["delay"] == pytest.approx(4.409285824, abs=1e-9)
    assert mos["jitter"] == pytest.approx(4.409285824, abs=1e-9)
    assert r_factors == pytest.approx({"loss": 82.2, "delay": 93.2, "jitter": 93.2})


def test_component_mos_total_loss_floors():
    mos, r_factors = component_mos(QosSample(100.0, 0.0, 0.0), ZEROED)
    assert mos["loss"] == 1.0
    assert r_factors["loss"] == pytest.approx(-13.716, abs=1e-3)


def test_component_mos_monotone_in_loss():
    at0 = component_mos(QosSample(0.0, 0.0, 0.0), G729)[0]["loss"]
    at10 = component_mos(QosSample(10.0, 0.0, 0.0), G729)[0]["loss"]
    assert at10 < at0


@st.composite
def accepted_profiles(draw):
    """A profile that ``CodecProfile`` accepts, drawn from coefficients of
    either sign.  Each sign is drawn on its own, negative one time in five,
    so that most drawn profiles are accepted and some rejected ones would
    be caught if the rules let them through."""

    def coefficient():
        magnitude = draw(st.floats(0.0, 100.0))
        return -magnitude if draw(st.integers(0, 4)) == 0 else magnitude

    try:
        return CodecProfile(
            "drawn",
            r0=draw(st.floats(1.0, 100.0)),
            **{name: coefficient() for name in (
                "loss_a", "loss_b", "loss_c",
                "jitter_c1", "jitter_c2", "jitter_c3", "jitter_c4",
            )},
            pareto_h=draw(st.floats(PARETO_H_MIN, PARETO_H_MAX)),
        )
    except ValueError:
        assume(False)


@PROPERTY_SETTINGS
@given(
    loss=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)).map(sorted),
    delay=st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 1e4)).map(sorted),
    jitter=st.floats(0.0, 500.0),
    profile=st.one_of(st.just(G729), accepted_profiles()),
)
def test_component_mos_non_increasing_in_loss_and_delay(loss, delay, jitter, profile):
    # jitter is left out on purpose: the buffer-floor mapping raises the
    # jitter component beyond the buffer (test_jitter_mapping_buffer_floor)
    low, _ = component_mos(QosSample(loss[0], delay[0], jitter), profile)
    high, _ = component_mos(QosSample(loss[1], delay[1], jitter), profile)
    assert high["loss"] <= low["loss"]
    assert high["delay"] <= low["delay"]


def test_component_mos_unavailable_measurements_floor():
    mos, r_factors = component_mos(QosSample(100.0, None, None), G729)
    assert mos["loss"] == 1.0
    assert mos["delay"] == 1.0
    assert mos["jitter"] == 1.0
    assert r_factors["delay"] is None
    assert r_factors["jitter"] is None


def test_jitter_mapping_buffer_floor():
    # within the buffer the jitter term is the profile's own
    within = component_mos(QosSample(0.0, 0.0, 10.0), G729)[1]["jitter"]
    assert within == G729.r0 - jitter_impairment(G729)
    # beyond it the buffer parameter rises to the measured jitter
    beyond = component_mos(QosSample(0.0, 0.0, 200.0), G729)[1]["jitter"]
    heavier = replace(G729, jitter_t_ms=200.0)
    assert beyond == G729.r0 - jitter_impairment(heavier)
    # documented orientation: a larger buffer parameter lowers the jitter
    # penalty, so this mapping raises the jitter component beyond the buffer
    assert jitter_impairment(heavier) < jitter_impairment(G729)
    assert beyond > within


# ---------------------------------------------------------------------------
# end-to-end score

def test_score_ideal_sample():
    got = score(QosSample(0.0, 0.0, 0.0), PAPER, ZEROED)
    # 0.55*4.104375064 + 0.25*4.409285824 + 0.20*4.409285824, frozen
    assert got == pytest.approx(4.241584906, abs=1e-9)


def test_score_fully_lost_window_floors_to_one():
    assert score(QosSample(100.0, None, None), PAPER, G729) == 1.0


def test_score_stays_on_mos_scale():
    rng = np.random.default_rng(17)
    for _ in range(300):
        sample = QosSample(
            float(rng.uniform(0, 100)),
            float(rng.uniform(0, 500)),
            float(rng.uniform(0, 200)),
        )
        assert 1.0 <= score(sample, PAPER, G729) <= 4.5


def test_score_monotone_in_loss_and_delay():
    rng = np.random.default_rng(29)
    for _ in range(500):
        loss = float(rng.uniform(0, 90))
        delay = float(rng.uniform(0, 400))
        jitter = float(rng.uniform(0, 100))
        base = score(QosSample(loss, delay, jitter), PAPER, G729)
        worse_loss = score(
            QosSample(loss + float(rng.uniform(0.1, 10)), delay, jitter), PAPER, G729
        )
        worse_delay = score(
            QosSample(loss, delay + float(rng.uniform(0.1, 50)), jitter), PAPER, G729
        )
        assert worse_loss <= base + 1e-12
        assert worse_delay <= base + 1e-12


def test_score_requires_voice_criteria():
    too_few = CompositeModel("ld", WeightVector(("loss", "delay"), (0.5, 0.5)))
    too_many = CompositeModel(
        "ldjx", WeightVector((*CRITERIA, "x"), (0.25, 0.25, 0.25, 0.25))
    )
    for model in (get_model("video-network"), too_few, too_many):
        with pytest.raises(ValueError, match="criteria"):
            score(QosSample(0.0, 0.0, 0.0), model, G729)


# ---------------------------------------------------------------------------
# models

def test_builtin_presets_sum_exactly_to_one():
    assert sum(PAPER.weights.values) == 1.0
    assert PAPER.weights.values == (0.55, 0.25, 0.20)
    video_net = get_model("video-network")
    assert sum(video_net.weights.values) == 1.0
    assert video_net.weights.values == (0.26, 0.55, 0.07, 0.12)
    video_app = get_model("video-application")
    assert sum(video_app.weights.values) == 1.0
    assert video_app.weights.values == (0.26, 0.63, 0.11)


def test_register_accepts_exact_weights():
    model = make_model("exact", (0.55, 0.25, 0.20), CRITERIA)
    assert model.weights.values == (0.55, 0.25, 0.20)


def test_register_renormalizes_table_rounding():
    # two-decimal table rounding, and a sum just beyond the exact tolerance
    for name, first in (("rounded", 0.56), ("near", 0.5500005)):
        with pytest.warns(UserWarning, match="renormalizing"):
            model = make_model(name, (first, 0.25, 0.20), CRITERIA)
        assert (model.name, model.criteria) == (name, CRITERIA)
        assert sum(model.weights.values) == pytest.approx(1.0, abs=1e-12)
        total = first + 0.25 + 0.20
        assert model.weights.values[0] == pytest.approx(first / total, abs=1e-12)


def test_register_rejects_bad_sum():
    with pytest.raises(ValueError, match="away from 1"):
        make_model("bad", (0.5, 0.25, 0.20), CRITERIA)


def test_register_weights_from_reference_matrix():
    weights, _ = column_average_weights(PairwiseMatrix(CRITERIA, REFERENCE_MATRIX))
    model = make_model("derived", weights.values, weights.criteria)
    for criterion in CRITERIA:
        assert model.weights.as_dict()[criterion] == pytest.approx(
            PAPER.weights.as_dict()[criterion], abs=0.005
        )


def test_derived_weights_match_voice_preset_within_half_percent():
    weights, _ = column_average_weights(PairwiseMatrix(CRITERIA, REFERENCE_MATRIX))
    for criterion in CRITERIA:
        assert weights.as_dict()[criterion] == pytest.approx(
            PAPER.weights.as_dict()[criterion], abs=0.005
        )


def test_get_model_unknown():
    with pytest.raises(ValueError, match="unknown model"):
        get_model("nope")


CUSTOM_JITTER = CodecProfile(
    name="custom-jitter",
    r0=90.0,
    loss_a=5.0,
    loss_b=30.0,
    loss_c=15.0,
    jitter_c1=-12.0,
    jitter_c2=30.0,
    jitter_c3=2.0,
    jitter_c4=20.0,
    pareto_h=0.8,
    jitter_t_ms=25.0,
    jitter_k=12.0,
)


@pytest.mark.parametrize("profile", [G729, CUSTOM_JITTER], ids=lambda p: p.name)
@pytest.mark.parametrize("offset", [-17.3, 0.0, 61.9], ids=["below", "at", "above"])
def test_jitter_term_matches_profile_with_raised_buffer(profile, offset):
    # the jitter term equals scoring a profile copy whose buffer is raised
    # to the measured jitter, bit for bit
    jitter = profile.jitter_t_ms + offset
    raised = replace(profile, jitter_t_ms=max(profile.jitter_t_ms, jitter))
    r_want = raised.r0 - jitter_impairment(raised)
    mos, r_factors = component_mos(QosSample(0.0, 0.0, jitter), profile)
    assert r_factors["jitter"] == r_want
    assert mos["jitter"] == mos_from_r(r_want)
    assert jitter_impairment(profile, jitter) == jitter_impairment(
        replace(profile, jitter_t_ms=jitter)
    )


def test_in_buffer_jitter_constant_is_each_profiles_own():
    # the constant is cached per profile instance: copies made after G.729's
    # constant is cached score their own, as the reference recomputes it
    g729_r, g729_mos = G729.in_buffer_jitter
    assert g729_r == G729.r0 - jitter_impairment(G729)
    for profile in (replace(G729, jitter_t_ms=10.0), replace(CUSTOM_JITTER, name="copy")):
        for jitter in (0.0, profile.jitter_t_ms):
            sample = QosSample(1.0, 50.0, jitter)
            got = component_mos(sample, profile)
            assert repr(got) == repr(reference.component_mos(sample, profile))
            assert repr(combine(PAPER, got[0])) == repr(
                reference.score_row(sample, PAPER, profile)[0]["overall"]
            )
            assert (got[1]["jitter"], got[0]["jitter"]) == profile.in_buffer_jitter
            assert got[1]["jitter"] != g729_r and got[0]["jitter"] != g729_mos
    assert G729.in_buffer_jitter == (g729_r, g729_mos)


def around(point: float, spread: float):
    """None, +-0.0, floats on both sides of ``point``, the point itself and
    its neighbours."""
    return st.one_of(
        st.none(),
        st.sampled_from([0.0, -0.0, point]),
        st.floats(max(0.0, point - spread), point),
        st.floats(point, point + spread),
        st.sampled_from([math.nextafter(point, 0.0), math.nextafter(point, math.inf)]),
    )


#: A model over the voice criteria in another order than the components'.
JITTER_FIRST = make_model("jld", (0.3, 0.3, 0.4), ("jitter", "loss", "delay"))


@settings(max_examples=500, deadline=None)
@given(
    loss=st.one_of(st.floats(0.0, 100.0), st.sampled_from([0.0, 100.0])),
    delay=st.one_of(around(DELAY_KNEE_MS, 200.0), st.floats(0.0, 1e5)),
    data=st.data(),
    profile=st.sampled_from([G729, CUSTOM_JITTER]),
    model=st.sampled_from([PAPER, JITTER_FIRST]),
)
def test_score_row_equals_reference_bit_for_bit(loss, delay, data, profile, model):
    jitter = data.draw(around(profile.jitter_t_ms, 100.0))
    sample = QosSample(loss, delay, jitter)
    mos, r_factors = component_mos(sample, profile)
    assert repr((mos, r_factors)) == repr(reference.component_mos(sample, profile))
    overall = reference.score_row(sample, model, profile)[0]["overall"]
    assert repr(combine(model, mos)) == repr(score(sample, model, profile)) == repr(overall)
    if delay is not None:
        assert repr(delay_impairment(delay)) == repr(reference.delay_impairment(delay))


# R = 0 and 100, either side of them, +-0.0, and the cubic's dip below 1.0 near R = 3
MOS_EDGE_RATINGS = [
    0.0, -0.0, 100.0, math.nextafter(0.0, 1.0), math.nextafter(100.0, 0.0),
    math.nextafter(0.0, -1.0), math.nextafter(100.0, 200.0), -1e308, 1e308,
    *(k / 8 for k in range(1, 64)),
]


def test_mos_from_r_clamp_equals_min_max():
    for r in MOS_EDGE_RATINGS:
        assert repr(mos_from_r(r)) == repr(reference.mos_from_r(r)), r
        if 0.0 < r < 100.0:
            raw = 1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6
            assert repr(mos_from_r(r)) == repr(min(4.5, max(1.0, raw))), r


@PROPERTY_SETTINGS
@given(r=st.floats(-1e3, 1e3))
def test_mos_from_r_equals_reference(r):
    assert repr(mos_from_r(r)) == repr(reference.mos_from_r(r))


def test_presets_table():
    assert list(PRESETS) == ["paper-5g-ahp", "video-network", "video-application"]
    assert all(name == model.name for name, model in PRESETS.items())
    with pytest.raises(TypeError):
        PRESETS["x"] = PAPER
    assert load_models(None) == dict(PRESETS)


def test_model_name_refuses_a_non_string_however_built(tmp_path):
    # one rule, CompositeModel's, for a model built in code and read from JSON
    weights = PRESETS["paper-5g-ahp"].weights
    config = tmp_path / "models.json"
    config.write_text('{"name": 5, "criteria": ["loss", "delay", "jitter"],'
                      ' "weights": [0.55, 0.25, 0.2]}')
    message = "name must be a string, got 5"
    for build, expected in [
        (lambda: CompositeModel(5, weights), message),
        (lambda: make_model(5, weights.values, weights.criteria), f"model 5: {message}"),
        (lambda: load_models(config), f"{config}: model 5: {message}"),
        (lambda: CompositeModel("", weights), "model name must be non-empty"),
    ]:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == expected


def test_load_models_config(tmp_path):
    config = tmp_path / "models.json"
    config.write_text(
        '{"models": [{"name": "custom", "criteria": ["loss", "delay", "jitter"],'
        ' "weights": [0.5, 0.3, 0.2], "scale": "mos-5pt"}]}'
    )
    models = load_models(config)
    assert list(models) == [*PRESETS, "custom"]
    assert get_model("custom", models).weights.values == (0.5, 0.3, 0.2)
    assert "custom" not in PRESETS


@pytest.mark.parametrize(
    "entries, message",
    [
        ('{"name": "paper-5g-ahp", %s}', "model 'paper-5g-ahp' is already registered"),
        ('[{"name": "x", %s}, {"name": "x", %s}]', "model 'x' is already registered"),
        # the entry's fields are read before its name is checked
        (
            '[{"name": "x", %s}, {"name": "x", "criteria": []}]',
            "malformed model entry: 'weights'",
        ),
    ],
    ids=["preset", "within-file", "no-weights"],
)
def test_load_models_rejects_duplicate(tmp_path, entries, message):
    fields = '"criteria": ["loss", "delay", "jitter"], "weights": [0.55, 0.25, 0.2]'
    config = tmp_path / "models.json"
    config.write_text(entries.replace("%s", fields))
    with pytest.raises(ValueError, match=message):
        load_models(config)


def test_load_models_config_malformed(tmp_path):
    config = tmp_path / "models.json"
    config.write_text('[{"name": "x", "weights": [1.0]}]')
    with pytest.raises(ValueError, match="malformed model entry"):
        load_models(config)
    # weights are JSON numbers: true is not 1 and "0.5" is not 0.5
    for weights, got in (
        ("[true, false, false]", "True"),
        ('["0.5", "0.3", "0.2"]', "'0.5'"),
    ):
        config.write_text(
            '[{"name": "x", "criteria": ["loss", "delay", "jitter"],'
            f' "weights": {weights}}}]'
        )
        message = f"model 'x' weight must be a finite number, got {got}"
        with pytest.raises(ValueError, match=message):
            load_models(config)
    assert "x" not in load_models(None)


def test_readme_library_example_prints_its_comments(capsys):
    # the README's "Library example" imports from the package, as users do;
    # each value in a print line's comment must match the output at its precision
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [ln.split("#", 1)[1] for ln in code.splitlines() if ln.startswith("print(")]
    assert len(printed) == len(comments)
    number = re.compile(r"-?\d+\.(\d+)")
    checked = []
    for out, comment in zip(printed, comments):
        shown = [(float(m[0]), len(m[1])) for m in number.finditer(comment)]
        if shown:
            values = [float(m[0]) for m in number.finditer(out)]
            assert len(values) == len(shown), out
            assert [round(v, dp) for v, (_, dp) in zip(values, shown)] == [
                value for value, _ in shown
            ], out
            checked += [value for value, _ in shown]
    assert checked == [3.747, 4.347, 3.629, 3.873, 3.903]
