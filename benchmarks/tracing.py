"""In-memory spans around calls into qoekit's modules.

The benchmark replaces public functions at the module attributes through
which ``cli`` and ``composite`` call them, so a span covers exactly one
call from one layer into another.  Each span records its name, start,
end, parent span and op id.  A span's self time is its duration minus
the time of its direct children; the self times of one op add up to the
op's root span.
"""
from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

# (module, attribute, span name).  The emodel functions are wrapped in
# composite's namespace because composite imports them by name.
TARGETS = (
    ("cli", "stamp", "cli.stamp"),
    ("cli", "atomic_write_text", "cli.atomic_write_text"),
    ("trace", "read_trace", "trace.read_trace"),
    ("trace", "windows", "trace.windows"),
    ("trace", "generate", "trace.generate"),
    ("trace", "trace_to_csv_text", "trace.trace_to_csv_text"),
    ("trace", "loss_rate", "trace.loss_rate"),
    ("trace", "mean_delay", "trace.mean_delay"),
    ("trace", "jitter_rfc3550", "trace.jitter_rfc3550"),
    ("composite", "component_mos", "composite.component_mos"),
    ("composite", "combine", "composite.combine"),
    ("composite", "loss_impairment", "emodel.loss_impairment"),
    ("composite", "delay_impairment", "emodel.delay_impairment"),
    ("composite", "jitter_impairment", "emodel.jitter_impairment"),
    ("composite", "mos_from_r", "emodel.mos_from_r"),
    ("ahp", "read_judgments", "ahp.read_judgments"),
    ("ahp", "aggregate_judgments", "ahp.aggregate_judgments"),
    ("ahp", "column_average_weights", "ahp.column_average_weights"),
    ("ahp", "eigenvector_weights", "ahp.eigenvector_weights"),
    ("ahp", "consistency", "ahp.consistency"),
)

ROOT_SPAN = "cli.main"

# Per-layer metric -> the span names whose self time or calls it sums.
SELF_GROUPS = {
    "trace.read_trace": ("trace.read_trace",),
    "trace.windows": ("trace.windows",),
    "trace.generate": ("trace.generate",),
    "trace.trace_to_csv_text": ("trace.trace_to_csv_text",),
    "trace.whole_metrics": (
        "trace.loss_rate", "trace.mean_delay", "trace.jitter_rfc3550",
    ),
    "composite.component_mos": ("composite.component_mos",),
    "composite.combine": ("composite.combine",),
    "emodel": (
        "emodel.loss_impairment", "emodel.delay_impairment",
        "emodel.jitter_impairment", "emodel.mos_from_r",
    ),
    "cli.main": (ROOT_SPAN,),
    "cli.stamp": ("cli.stamp",),
    "cli.atomic_write_text": ("cli.atomic_write_text",),
    "ahp.read_judgments": ("ahp.read_judgments",),
    "ahp.aggregate_judgments": ("ahp.aggregate_judgments",),
    "ahp.column_average_weights": ("ahp.column_average_weights",),
    "ahp.eigenvector_weights": ("ahp.eigenvector_weights",),
    "ahp.consistency": ("ahp.consistency",),
}
CALL_GROUPS = (
    "trace.read_trace", "trace.windows",
    "composite.component_mos", "composite.combine", "emodel",
)


COUNTED = frozenset({"trace.read_trace", "trace.windows", "cli.atomic_write_text"})


def _count(name: str, args: tuple, result) -> dict[str, int]:
    """Work counts of one call, taken after the op so they cost no span time."""
    if name == "trace.read_trace":
        return {"trace.packets": len(result.packets)}
    if name == "trace.windows":
        floored = sum(
            1 for w in result
            if w.sample.delay_ms is None or w.sample.jitter_ms is None
        )
        return {"trace.windows.count": len(result), "trace.windows.floored": floored}
    if name == "cli.atomic_write_text":
        return {"cli.bytes_written": len(args[1].encode("utf-8"))}
    return {}


class Tracer:
    """Records spans of one op at a time; wrappers are installed per op."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.spans: list = []
        self.calls: list = []
        self.op_id = 0
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, name: str, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter
        counted = name in COUNTED

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if counted:
                calls.append((name, args, result))
            return result

        return traced

    def install(self) -> None:
        for mod, attr, name in TARGETS:
            module = self.modules[mod]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def begin_op(self, op_id: int) -> None:
        self.spans.clear()
        self.calls.clear()
        self.op_id = op_id

    def counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for name, args, result in self.calls:
            for key, value in _count(name, args, result).items():
                totals[key] = totals.get(key, 0) + value
        self.calls.clear()  # drop references to the op's results
        return totals

    def dump(self, path: Path) -> None:
        """Write the spans of the last op, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list) -> dict[str, tuple[float, int]]:
    """Span name -> (total self seconds, calls)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, tuple[float, int]] = {}
    for (name, *_), s in zip(spans, own):
        t, n = totals.get(name, (0.0, 0))
        totals[name] = (t + s, n + 1)
    return totals


def op_layer_metrics(spans: list, counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced op."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for group, names in SELF_GROUPS.items():
        out[f"{group}.self_ms"] = 1000.0 * sum(own.get(n, (0.0, 0))[0] for n in names)
    for group in CALL_GROUPS:
        out[f"{group}.calls"] = sum(own.get(n, (0.0, 0))[1] for n in SELF_GROUPS[group])
    for key in ("trace.packets", "trace.windows.count", "trace.windows.floored",
                "cli.bytes_written"):
        out[key] = counts.get(key, 0)
    packets, nwin = out["trace.packets"], out["trace.windows.count"]
    out["trace.read_trace.us_per_packet"] = (
        1000.0 * out["trace.read_trace.self_ms"] / packets if packets else 0.0
    )
    out["trace.windows.us_per_window"] = (
        1000.0 * out["trace.windows.self_ms"] / nwin if nwin else 0.0
    )
    root = [end - start for name, start, end, parent, _ in spans if parent < 0]
    out["op.traced_ms"] = 1000.0 * sum(root)
    return out


def per_op_metrics(per_op: list[tuple[int, dict[str, float]]]) -> dict[str, float]:
    """Median over the traced ops of each variant, averaged over variants."""
    by_variant: dict[int, list[dict[str, float]]] = {}
    for variant, metrics in per_op:
        by_variant.setdefault(variant, []).append(metrics)
    medians = [
        {k: statistics.median(op[k] for op in ops) for k in ops[0]}
        for ops in by_variant.values()
    ]
    return {k: statistics.fmean(m[k] for m in medians) for k in medians[0]}
