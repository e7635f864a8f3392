"""Spans recorded by the benchmark around its own calls into roughmix.

A span has a name (``<layer>.<function>`` for a library call, ``op`` for a
whole operation), start and end times from ``time.perf_counter``, the id of
the op span that caused it, the op index, counts attached by the caller, the
number of ``RuntimeWarning``s raised inside it, and whether it raised.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import time
import warnings
from collections import defaultdict

LAYERS = ("gmfbm", "tensor", "lift", "signature", "rde", "estimate", "cli")


class _Span:
    __slots__ = ("record", "_caught", "_seen")

    def __init__(self, record):
        self.record = record

    def count(self, key: str, n) -> None:
        counts = self.record["counts"]
        counts[key] = counts.get(key, 0) + n

    def __enter__(self):
        self._caught = warnings.catch_warnings(record=True)
        self._seen = self._caught.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        rec = self.record
        rec["end"] = time.perf_counter()
        self._caught.__exit__(None, None, None)
        rec["warnings"] = sum(
            issubclass(w.category, RuntimeWarning) for w in self._seen
        )
        rec["error"] = exc_type is not None
        return False


class _NullSpan:
    """Stand-in used when tracing is off; records nothing."""

    def count(self, key: str, n) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL = _NullSpan()


class NullTracer:
    def span(self, name: str, **counts):
        return _NULL

    def op(self, index: int):
        return _NULL


class Tracer:
    """Collects spans in memory; ``op`` opens the parent span of one operation."""

    def __init__(self):
        self.spans: list[dict] = []
        self._op_id: int | None = None
        self._op_index: int | None = None

    def _new(self, name: str, parent, counts) -> _Span:
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "op": self._op_index, "counts": dict(counts)}
        self.spans.append(rec)
        return _Span(rec)

    def op(self, index: int):
        self._op_index = index
        span = self._new("op", None, {})
        self._op_id = span.record["id"]
        return span

    def span(self, name: str, **counts):
        return self._new(name, self._op_id, counts)


def _duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def summarize(spans: list[dict]) -> dict:
    """Per-call and per-layer aggregates of the recorded spans.

    ``per_call`` maps a call name to its busy time, call count, captured
    warnings, span durations and summed counts; a name never called reads
    as zeros.

    A span's self time is its duration minus the time its child spans cover.
    Call spans have no children here, so their self time is their duration;
    an op's self time is the glue between the calls (argument and seed
    derivation, correctness checks).
    """
    ops = [s for s in spans if s["name"] == "op"]
    calls = [s for s in spans if s["name"] != "op"]

    per_call: dict[str, dict] = defaultdict(
        lambda: {"busy_s": 0.0, "calls": 0, "warnings": 0, "durations": [], "counts": {}}
    )
    for s in calls:
        agg = per_call[s["name"]]
        agg["busy_s"] += _duration(s)
        agg["calls"] += 1
        agg["warnings"] += s["warnings"]
        agg["durations"].append(_duration(s))
        for k, v in s["counts"].items():
            agg["counts"][k] = agg["counts"].get(k, 0) + v

    layer_busy = {layer: 0.0 for layer in LAYERS}
    layer_errors = {layer: 0 for layer in LAYERS}
    for s in calls:
        layer = s["name"].split(".", 1)[0]
        layer_busy[layer] += _duration(s)
        layer_errors[layer] += int(s["error"])

    # every call span is a child of an op span
    glue = sum(map(_duration, ops)) - sum(map(_duration, calls))
    return {
        "per_call": per_call,
        "layer_busy": layer_busy,
        "layer_errors": layer_errors,
        "glue_s": glue,
    }
