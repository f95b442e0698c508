from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    get_model,
    jitter_impairment,
    load_models,
    make_model,
    mos_from_r,
    score,
)
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
    with pytest.raises(ValueError, match="loss_pct"):
        QosSample(101.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="delay_ms"):
        QosSample(0.0, -1.0, 0.0)
    with pytest.raises(ValueError, match="jitter_ms"):
        QosSample(0.0, 0.0, -1.0)
    # None marks an unavailable measurement, not an error
    QosSample(100.0, None, None)


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


@PROPERTY_SETTINGS
@given(
    loss=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)).map(sorted),
    delay=st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 1e4)).map(sorted),
    jitter=st.floats(0.0, 500.0),
)
def test_component_mos_non_increasing_in_loss_and_delay(loss, delay, jitter):
    # jitter is left out on purpose: the buffer-floor mapping raises the
    # jitter component beyond the buffer (test_jitter_mapping_buffer_floor)
    low, _ = component_mos(QosSample(loss[0], delay[0], jitter), G729)
    high, _ = component_mos(QosSample(loss[1], delay[1], jitter), G729)
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
        assert model.weights[criterion] == pytest.approx(
            PAPER.weights[criterion], abs=0.005
        )


def test_derived_weights_match_voice_preset_within_half_percent():
    weights, _ = column_average_weights(PairwiseMatrix(CRITERIA, REFERENCE_MATRIX))
    for criterion in CRITERIA:
        assert weights[criterion] == pytest.approx(
            PAPER.weights[criterion], abs=0.005
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


def test_presets_table():
    assert list(PRESETS) == ["paper-5g-ahp", "video-network", "video-application"]
    assert all(name == model.name for name, model in PRESETS.items())
    with pytest.raises(TypeError):
        PRESETS["x"] = PAPER
    assert load_models(None) == dict(PRESETS)


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
