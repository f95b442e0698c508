"""Composite QoE scoring from per-impairment MOS components.

A :class:`CompositeModel` is a named, normalized weight vector over
criteria.  For the voice pipeline each criterion of a measured
(loss, delay, jitter) sample is scored in isolation: the rating baseline
is reduced by that impairment alone and converted to MOS, so components
stay independent before the weighted combination.

The model registry is read-mostly: presets register at import, callers
may add models at startup, and scoring afterwards is pure and safe for
concurrent use.
"""
from __future__ import annotations

import json
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, replace
from pathlib import Path

from .ahp import WeightVector
from .emodel import (
    G729,
    MOS_MIN,
    CodecProfile,
    delay_impairment,
    jitter_impairment,
    loss_impairment,
    mos_from_r,
)

#: Criteria of the voice scoring pipeline, in canonical order.
VOICE_CRITERIA = ("loss", "delay", "jitter")

MODEL_SCALES = ("mos-5pt", "normalized-score")

#: |sum(weights) - 1| above this is accepted with renormalization ...
WEIGHT_SUM_RENORM = 0.02
#: ... and below this is accepted as-is.
WEIGHT_SUM_EXACT = 1e-6


@dataclass(frozen=True)
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


_REGISTRY: dict[str, CompositeModel] = {}


def register_model(
    name: str,
    weights,
    criteria: tuple[str, ...],
    scale: str = "mos-5pt",
) -> CompositeModel:
    """Register a named model, validating that its weights sum to 1.

    ``weights`` is a sequence paired with ``criteria``.  A sum within 1e-6
    of 1 is accepted as given; a sum off by up to 0.02 (two-decimal table
    rounding) is renormalized with a warning; anything further off is
    rejected.
    """
    if name in _REGISTRY:
        raise ValueError(f"model {name!r} is already registered")
    values = tuple(float(v) for v in weights)
    total = sum(values)
    if abs(total - 1.0) <= WEIGHT_SUM_EXACT:
        pass
    elif abs(total - 1.0) <= WEIGHT_SUM_RENORM:
        warnings.warn(
            f"model {name!r}: weights sum to {total:.6f}; renormalizing",
            stacklevel=2,
        )
        values = tuple(v / total for v in values)
    else:
        raise ValueError(
            f"model {name!r}: weights sum to {total:.6f}, "
            f"more than {WEIGHT_SUM_RENORM} away from 1"
        )
    weights = WeightVector(tuple(criteria), values)
    model = CompositeModel(name=name, weights=weights, scale=scale)
    _REGISTRY[name] = model
    return model


def get_model(name: str) -> CompositeModel:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def list_models() -> list[CompositeModel]:
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


# Built-in presets.  The voice model carries the elicited impairment
# weights; the two video presets are weight registries over caller-supplied
# normalized component scores, not full pipelines.
register_model("paper-5g-ahp", (0.55, 0.25, 0.20), VOICE_CRITERIA, scale="mos-5pt")
register_model(
    "video-network",
    (0.26, 0.55, 0.07, 0.12),
    ("loss", "jitter", "throughput", "ars"),
    scale="normalized-score",
)
register_model(
    "video-application",
    (0.26, 0.63, 0.11),
    ("bit_rate", "frame_rate", "resolution"),
    scale="normalized-score",
)


def combine(model: CompositeModel, components: Mapping[str, float]) -> float:
    """Weighted sum of component scores under a model.

    Component criteria must match the model's exactly.  The result is a
    convex combination, so it lies within [min component, max component].
    """
    missing = set(model.criteria) - set(components)
    if missing:
        raise ValueError(f"missing components for criteria {sorted(missing)}")
    extra = set(components) - set(model.criteria)
    if extra:
        raise ValueError(
            f"components {sorted(extra)} do not belong to model {model.name!r} "
            f"(criteria {list(model.criteria)})"
        )
    return sum(model.weights[c] * float(components[c]) for c in model.criteria)


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
    mos: dict[str, float] = {}
    r_factors: dict[str, float | None] = {}

    r_loss = profile.r0 - loss_impairment(sample.loss_pct, profile)
    mos["loss"] = mos_from_r(r_loss)
    r_factors["loss"] = r_loss

    if sample.delay_ms is None:
        mos["delay"] = MOS_MIN
        r_factors["delay"] = None
    else:
        r_delay = profile.r0 - delay_impairment(sample.delay_ms)
        mos["delay"] = mos_from_r(r_delay)
        r_factors["delay"] = r_delay

    if sample.jitter_ms is None:
        mos["jitter"] = MOS_MIN
        r_factors["jitter"] = None
    else:
        t_ms = max(profile.jitter_t_ms, sample.jitter_ms)
        r_jitter = profile.r0 - jitter_impairment(replace(profile, jitter_t_ms=t_ms))
        mos["jitter"] = mos_from_r(r_jitter)
        r_factors["jitter"] = r_jitter

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
    if set(model.criteria) != set(VOICE_CRITERIA):
        raise ValueError(
            f"model {model.name!r} is over criteria {list(model.criteria)}; "
            f"sample scoring needs exactly {list(VOICE_CRITERIA)}"
        )
    return score_row(sample, model, profile)[0]["overall"]


def load_models(path: str | Path) -> list[CompositeModel]:
    """Register models from a JSON config.

    Accepts one model object {name, criteria: [...], weights: [...]} or a
    list of them (optionally under a top-level "models" key).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid model config JSON: {exc}") from exc
    if isinstance(data, dict) and "models" in data:
        data = data["models"]
    if isinstance(data, dict):
        data = [data]
    registered = []
    for entry in data:
        try:
            registered.append(
                register_model(
                    str(entry["name"]),
                    entry["weights"],
                    tuple(entry["criteria"]),
                    scale=str(entry.get("scale", "mos-5pt")),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed model entry: {exc}") from exc
    return registered
