"""Composite QoE scoring from per-impairment MOS components.

A :class:`CompositeModel` is a named, normalized weight vector over
criteria.  For the voice pipeline each criterion of a measured
(loss, delay, jitter) sample is scored in isolation: the rating baseline
is reduced by that impairment alone and converted to MOS, so components
stay independent before the weighted combination.
"""
from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

from .ahp import WEIGHT_SUM_TOL, WeightVector
from .emodel import (
    G729,
    MOS_MIN,
    CodecProfile,
    delay_impairment,
    jitter_impairment,
    json_number,
    json_object,
    json_string,
    loss_impairment,
    mos_from_r,
    names_file,
    read_json,
)

#: Criteria of the voice scoring pipeline, in canonical order.
VOICE_CRITERIA = ("loss", "delay", "jitter")

MODEL_SCALES = ("mos-5pt", "normalized-score")

#: |sum(weights) - 1| beyond ``WEIGHT_SUM_TOL`` and up to this is renormalized.
WEIGHT_SUM_RENORM = 0.02


@dataclass(frozen=True, slots=True)
class QosSample:
    """Measured loss/delay/jitter for one observation window.

    ``delay_ms`` or ``jitter_ms`` may be None when a window had too few
    received packets to measure them; scoring then floors those
    components at the worst MOS instead of erroring.
    """

    loss_pct: float
    delay_ms: float | None
    jitter_ms: float | None

    def __post_init__(self) -> None:
        # the valid case in one chain; NaN fails every comparison
        delay, jitter = self.delay_ms, self.jitter_ms
        if delay is not None and jitter is not None and (
            0.0 <= delay < math.inf > jitter >= 0.0 <= self.loss_pct <= 100.0
        ):
            return
        if not 0.0 <= self.loss_pct <= 100.0:
            raise ValueError(f"loss_pct must be within [0, 100], got {self.loss_pct}")
        # NaN fails every comparison, so test for the valid range
        for name in ("delay_ms", "jitter_ms"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class CompositeModel:
    """Named weighted-sum model over a fixed criteria set."""

    name: str
    weights: WeightVector
    scale: str = "mos-5pt"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("model name must be non-empty")
        if self.scale not in MODEL_SCALES:
            raise ValueError(f"scale must be one of {MODEL_SCALES}, got {self.scale!r}")

    @property
    def criteria(self) -> tuple[str, ...]:
        return self.weights.criteria

    @functools.cached_property
    def _weight_of(self) -> dict[str, float]:
        """Criterion -> weight in criteria order, built once per model for
        :func:`combine`; not to be modified."""
        return self.weights.as_dict()


def make_model(
    name: str, weights, criteria: tuple[str, ...], scale: str = "mos-5pt"
) -> CompositeModel:
    """A named model, validating that its weights sum to 1.

    ``weights`` is a sequence paired with ``criteria``.  A sum within
    ``WEIGHT_SUM_TOL`` of 1 is accepted as given; a sum off by up to 0.02
    (two-decimal table rounding) is renormalized with a warning; anything
    further off is rejected.
    """
    values = tuple(json_number(v, f"model {name!r} weight") for v in weights)
    total = 0.0
    for v in values:  # left to right, as in combine
        total += v
    if not abs(total - 1.0) <= WEIGHT_SUM_RENORM:  # NaN fails too
        raise ValueError(
            f"model {name!r}: weights sum to {total:.6f}, "
            f"more than {WEIGHT_SUM_RENORM} away from 1"
        )
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        warnings.warn(
            f"model {name!r}: weights sum to {total:.6f}; renormalizing",
            stacklevel=2,
        )
        values = tuple(v / total for v in values)
    try:
        return CompositeModel(name, WeightVector(tuple(criteria), values), scale)
    except ValueError as exc:  # name the model, as the checks above do
        raise ValueError(f"model {name!r}: {exc}") from exc


#: Built-in models by name, read-only.  The voice model carries the
#: elicited impairment weights; the two video presets are weights over
#: caller-supplied normalized component scores, not full pipelines.
PRESETS: Mapping[str, CompositeModel] = MappingProxyType({m.name: m for m in (
    make_model("paper-5g-ahp", (0.55, 0.25, 0.20), VOICE_CRITERIA),
    make_model("video-network", (0.26, 0.55, 0.07, 0.12),
               ("loss", "jitter", "throughput", "ars"), "normalized-score"),
    make_model("video-application", (0.26, 0.63, 0.11),
               ("bit_rate", "frame_rate", "resolution"), "normalized-score"),
)})


def get_model(
    name: str, models: Mapping[str, CompositeModel] = PRESETS
) -> CompositeModel:
    """The model called ``name`` in ``models``; a ValueError lists the names."""
    try:
        return models[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; known: {sorted(models)}") from None


def combine(model: CompositeModel, components: Mapping[str, float]) -> float:
    """Weighted sum of component scores under a model.

    Component criteria must match the model's exactly.  The result is a
    convex combination, so it lies within [min component, max component].
    The terms are added left to right from 0.0 in criteria order, as
    ``sum()`` adds floats through Python 3.11 (it compensates from 3.12
    on), so the result does not depend on the Python version.
    """
    weight_of = model._weight_of
    if components.keys() != weight_of.keys():
        criteria = model.criteria
        missing = set(criteria) - set(components)
        if missing:
            raise ValueError(f"missing components for criteria {sorted(missing)}")
        raise ValueError(
            f"components {sorted(set(components) - set(criteria))} do not belong "
            f"to model {model.name!r} (criteria {list(criteria)})"
        )
    total = 0.0
    for criterion, weight in weight_of.items():
        total += weight * float(components[criterion])
    return total


def component_mos(
    sample: QosSample, profile: CodecProfile = G729
) -> tuple[dict[str, float], dict[str, float | None]]:
    """Score each impairment of a sample in isolation.

    Each component reduces the shared rating baseline by its own
    impairment only, then converts to MOS.  Returns the MOS and the
    transmission rating R per criterion.  Components whose measurement
    is unavailable (None delay/jitter from a degenerate window) floor at
    MOS 1.0, with R None, so windowed timelines stay contiguous.

    The jitter term takes no measured-jitter input of its own.  Measured
    jitter raises the buffer parameter, ``t_ms = max(t_ms, jitter_ms)``
    ("buffer-floor"): jitter within the buffer leaves the penalty at its
    profile baseline, and since a larger buffer lowers the penalty,
    jitter beyond the buffer raises the jitter component.
    """
    r0 = profile.r0
    loss = r0 - loss_impairment(sample.loss_pct, profile)
    delay, jitter = sample.delay_ms, sample.jitter_ms
    if delay is not None:
        delay = r0 - delay_impairment(delay)
    if jitter is None:
        m_jitter = MOS_MIN
    elif jitter > profile.jitter_t_ms:  # the buffer-floor max(t_ms, jitter_ms)
        jitter = r0 - jitter_impairment(profile, jitter)
        m_jitter = mos_from_r(jitter)
    else:
        jitter, m_jitter = profile.in_buffer_jitter
    r_factors = {"loss": loss, "delay": delay, "jitter": jitter}
    mos = {
        "loss": mos_from_r(loss),
        "delay": MOS_MIN if delay is None else mos_from_r(delay),
        "jitter": m_jitter,
    }
    return mos, r_factors


def score_row(
    sample: QosSample, model: CompositeModel, profile: CodecProfile = G729
) -> tuple[dict[str, float], dict[str, float | None]]:
    """Measured sample -> per-criterion MOS, in model order, plus "overall",
    and the R per criterion behind them.

    The one scoring path: ``qoekit mos``, each ``trace analyze`` window and
    :func:`score` all go through it, so a window and the point score of
    its sample agree exactly.
    """
    components, r_factors = component_mos(sample, profile)
    overall = combine(model, components)
    mos = {c: components[c] for c in model.criteria}
    mos["overall"] = overall
    return mos, r_factors


def score(
    sample: QosSample,
    model: CompositeModel,
    profile: CodecProfile = G729,
) -> float:
    """End-to-end pipeline: measured sample -> components -> overall MOS."""
    return score_row(sample, model, profile)[0]["overall"]


@names_file
def load_models(path: str | Path | None) -> dict[str, CompositeModel]:
    """A new dict of the presets plus the models of a JSON config, by name;
    of the presets alone when ``path`` is None.

    Accepts one model object {name, criteria: [...], weights: [...]} or a
    list of them (optionally under a top-level "models" key).
    """
    models = dict(PRESETS)
    if not path:
        return models
    data = read_json(path, "model config")
    field = "model config"
    if isinstance(data, dict) and "models" in data:
        data, field = data["models"], "model config field models"
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError(
            f"{field} must be a model object or a list of them, got {type(data).__name__}"
        )
    for entry in data:
        try:
            json_object(entry, "model entry")
            criteria = json_string(entry["criteria"], "model field criteria", many=True)
            name, weights = json_string(entry["name"], "model field name"), entry["weights"]
            if name in models:
                raise ValueError(f"model {name!r} is already registered")
            scale = json_string(entry.get("scale", "mos-5pt"), "model field scale")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                models[name] = make_model(name, weights, criteria, scale)
            for warning in caught:  # name the file, not a line of this module
                warnings.warn(f"{path}: {warning.message}", warning.category, stacklevel=2)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed model entry: {exc}") from exc
    return models
