"""Spans around every public function of the trimac modules, from outside.

`install` wraps each public module-level function of the layers below and
rebinds the wrapper in every trimac module namespace that holds the
original, so calls through `from ... import` bindings (for example
`trimac.cli.eval_macfb` or `trimac.macfb.transmit`) are traced too.

Spans are kept in memory.  The span stack is per thread; a span opened on
a pool thread with an empty stack takes as parent the span open on the main
thread, which is the call that submitted the work (`monte_carlo_error`).
Self time is a span's duration minus the union of its children's
intervals, so concurrent pool spans do not push it below zero.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import threading
import time

LAYERS = ("probcore", "regions", "coding", "sources", "channels", "macfb", "gfcore",
          "commonparts", "cli")

_DECODE_REASONS = {None: "ok", "tie": "tie", "zero-likelihood": "zero_likelihood"}


def _cells_in(args, kwargs, result):
    return {"cells_in": int(args[0].probs.size)}


def _decode(result) -> dict:
    return {"decode.attempts": 1, f"decode.{_DECODE_REASONS.get(result.failure, 'other')}": 1}


def _ml_decode(args, kwargs, result):
    scheme, y = args[1], args[2]
    support = int((scheme.source.joint.probs > 0.0).sum())
    return {"candidates": support ** len(y), **_decode(result)}


def _ml_decode_pair(args, kwargs, result):
    # two users, each scores all 2^n binary words
    return {"candidates": 2 * 2 ** len(args[2]), **_decode(result)}


def _eval_macfb(args, kwargs, result):
    return {
        "terms_computed": len(result.entropy_terms),
        "terms_requested": sum(len(groups) for groups in result.mi_groups.values()),
    }


# counts taken at the call boundary: (args, kwargs, result) -> {counter: int}
COUNTERS = {
    "probcore.marginalize": _cells_in,
    "probcore.entropy": _cells_in,
    "probcore.chain": lambda a, k, r: {"cells_out": int(r.probs.size)},
    "coding.ml_decode": _ml_decode,
    "coding.ml_decode_additive_pair": _ml_decode_pair,
    "channels.transmit": lambda a, k, r: {"symbols": int(len(r))},
    "macfb.sumset": lambda a, k, r: {"pairs": r.size_a * r.size_b},
    "regions.eval_macfb": _eval_macfb,
}
FIELDS = {"calls", "busy_s", "self_s", "cells_in", "cells_out", "candidates", "symbols", "pairs",
          "terms_computed", "terms_requested"}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        # each span: [name, parent span or None, start, end, counts or None]
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list[list] = []

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            span = [name, parent, time.perf_counter(), 0.0, None]
            spans.append(span)  # list.append is atomic under the GIL
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> int:
    """Wrap every public function of LAYERS; returns the number wrapped."""
    import trimac

    modules = [trimac] + [importlib.import_module(f"trimac.{layer}") for layer in LAYERS]
    wrapped = {}
    for layer, mod in zip(LAYERS, modules[1:]):
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapped[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
    return len(wrapped)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[list]) -> dict:
    """Per function: calls, busy_s, self_s and summed counters."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, start, end, _ in spans:
        if parent is not None:
            children.setdefault(id(parent), []).append((start, end))
    table: dict[str, dict] = {}
    for span in spans:
        name, _, start, end, counts = span
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += end - start - _covered(children.get(id(span), []), start, end)
        for key, value in (counts or {}).items():
            row[key] = row.get(key, 0) + value
    return table


def dump(spans: list[list], path) -> None:
    """Write spans as gzipped JSON rows [name, parent row or -1, start, end, counts]."""
    row_of = {id(span): i for i, span in enumerate(spans)}
    rows = [[name, -1 if parent is None else row_of[id(parent)], start, end, counts]
            for name, parent, start, end, counts in spans]
    with gzip.open(path, "wt") as fh:
        json.dump(rows, fh)
