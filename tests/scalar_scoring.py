"""Reference for the scoring path: the component scoring, the weighted
combination and the R-to-MOS conversion as written with ``min``/``max``
and dict comprehensions.

``qoekit.composite`` and ``qoekit.emodel`` now build the component dicts
from locals and clamp by comparison; this copy is kept only as an oracle
for the property tests, which require every value to be equal by
``repr``.  The loss and jitter impairment terms are unchanged, so they
are taken from ``qoekit.emodel``.
"""
from __future__ import annotations

from qoekit.emodel import (
    DELAY_KNEE_MS,
    MOS_MAX,
    MOS_MIN,
    jitter_impairment,
    loss_impairment,
)


def delay_impairment(delay_ms: float) -> float:
    excess = delay_ms - DELAY_KNEE_MS
    return 0.024 * delay_ms + 0.11 * max(excess, 0.0)


def mos_from_r(r: float) -> float:
    if r >= 100.0:
        return MOS_MAX
    if r <= 0.0:
        return MOS_MIN
    raw = 1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6
    return min(MOS_MAX, max(MOS_MIN, raw))


def component_mos(sample, profile):
    terms = {
        "loss": loss_impairment(sample.loss_pct, profile),
        "delay": None if sample.delay_ms is None else delay_impairment(sample.delay_ms),
        "jitter": None if sample.jitter_ms is None else jitter_impairment(
            profile, max(profile.jitter_t_ms, sample.jitter_ms)
        ),
    }
    r_factors = {c: None if t is None else profile.r0 - t for c, t in terms.items()}
    mos = {c: MOS_MIN if r is None else mos_from_r(r) for c, r in r_factors.items()}
    return mos, r_factors


def combine(model, components) -> float:
    criteria = model.criteria
    if components.keys() != set(criteria):
        raise ValueError(f"components {sorted(components)} do not match {criteria}")
    total = 0.0  # left to right: sum() compensates from Python 3.12 on
    for w, c in zip(model.weights.values, criteria):
        total += w * float(components[c])
    return total


def score_row(sample, model, profile):
    components, r_factors = component_mos(sample, profile)
    overall = combine(model, components)
    mos = {c: components[c] for c in model.criteria}
    mos["overall"] = overall
    return mos, r_factors
