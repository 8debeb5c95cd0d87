"""Spans recorded from outside the program, and the arithmetic over them.

The benchmark may not edit ``src/``, so a layer's time is measured by
replacing its public callables with recording wrappers for the length
of one traced run (:func:`patched` puts the originals back).  A span is
``(name, run, parent, start, end)``; its id is its index in
``SpanRecorder.spans``, ``parent`` is the id of the span that was open
when it started (-1 for a root) and ``run`` is whatever the benchmark
set ``SpanRecorder.run`` to — one id per simulated trace or service
drain, so the spans of one run share an identifier.

Everything here is single-threaded by design: the traced regions are
one thread, so sibling spans never overlap and a span's children lie
inside it.  That is what makes *self time = duration - sum of direct
children* exact.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import json
import math
import sys
import time
from typing import Callable, Iterable, Iterator, Sequence

Span = tuple  # (name, run, parent, start, end)


class SpanRecorder:
    """Keeps every span of one traced run in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._open = -1  # id of the innermost span still open

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` with one span named ``name`` recorded around each call."""
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = self._open
            span_id = len(spans)
            spans.append(())  # reserve the id: children must see it as parent
            self._open = span_id
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                spans[span_id] = (name, self.run, parent, start, clock())
                self._open = parent

        traced.__wrapped__ = func
        return traced


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per span: its duration minus the part its direct children cover."""
    own = [end - start for _name, _run, _parent, start, end in spans]
    for _name, _run, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarise(spans: Sequence[Span]) -> dict[str, dict]:
    """``{name: {"calls", "total_s", "self_s"}}`` over ``spans``.

    ``total_s`` is inclusive, ``self_s`` exclusive; summing ``self_s``
    over every name gives the root spans' duration exactly, which is
    why the layer table adds up instead of double-counting.  A name
    with no span reads as an all-zero row.
    """
    table: dict[str, dict] = collections.defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        name, _run, _parent, start, end = span
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return table


def on_clock(spans: Sequence[Span], to_reference: Callable[[float], float]) -> list[Span]:
    """``spans`` with both timestamps mapped through ``to_reference``."""
    return [
        (name, run, parent, to_reference(start), to_reference(end))
        for name, run, parent, start, end in spans
    ]


@contextlib.contextmanager
def patched(patches: Iterable[tuple[object, str, Callable]]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)``; restore on the way out.

    ``patches`` is ``(owner, attr, make)`` triples, ``owner`` a class or
    a module.  Originals go back in reverse order on normal exit and on
    an exception alike, so two patches of one attribute nest correctly.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for owner, attr, make in patches:
            original = vars(owner)[attr]
            setattr(owner, attr, make(original))
            undo.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def span_patches(recorder: SpanRecorder, targets: dict[str, str]) -> tuple[list, int]:
    """Patches recording a span per call of each ``{span name: target}``.

    Returns them with the number of targets the program no longer has.
    """
    patches: list = []
    missing = 0
    for name, target in targets.items():
        owners = owners_of(target)
        missing += not owners
        for owner, attr in owners:
            patches.append((owner, attr, lambda f, n=name: recorder.wrap(n, f)))
    return patches, missing


def owners_of(target: str) -> list[tuple[object, str]]:
    """Every ``(owner, attr)`` binding of ``"pkg.mod:Class.method"`` or ``"pkg.mod:func"``.

    A method has one owner, its class.  A module-level function is also
    bound in every loaded module of the same package that imported it
    by name (``from m import f``); a caller there would bypass a patch
    of the defining module alone, so all of them are returned.  A
    target the program no longer has resolves to ``[]`` — the caller
    counts it instead of failing, because a later change may rename a
    callable but may not edit this benchmark.
    """
    module_name, _, path = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    *holders, attr = path.split(".")
    owner: object = module
    for holder in holders:
        owner = getattr(owner, holder, None)
    if owner is None or attr not in vars(owner):
        return []
    if holders:
        return [(owner, attr)]
    func = vars(module)[attr]
    package = module_name.partition(".")[0]
    return [
        (other, attr)
        for name, other in sorted(sys.modules.items())
        if other is not None
        and name.partition(".")[0] == package
        and vars(other).get(attr) is func
    ]


def trace_overhead(wall_s: float, span_count: int) -> float:
    """``wall_s`` over what it would have been without the spans.

    The cost of one span is measured here and now, on an empty
    function; it is a lower bound (a wrapped method also pays a deeper
    call stack), which is the honest direction for a diagnostic.
    """
    recorder = SpanRecorder()

    def nothing() -> None:
        pass

    traced = recorder.wrap("cost", nothing)
    calls = 20000
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        nothing()
    bare = clock() - start
    start = clock()
    for _ in range(calls):
        traced()
    span_s = max(0.0, clock() - start - bare) / calls
    return wall_s / max(wall_s - span_count * span_s, 1e-9)


def nearest_rank(sorted_values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``0 < q <= 1``)."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * quantile)) - 1]


def write_jsonl(path, spans: Sequence[Span], runs: dict[int, str]) -> None:
    """One ``run`` line per run label, then one line per span."""
    with open(path, "w", encoding="utf-8") as fh:
        for run, label in sorted(runs.items()):
            fh.write(json.dumps({"kind": "run", "run": run, "label": label}) + "\n")
        for span_id, (name, run, parent, start, end) in enumerate(spans):
            fh.write(
                json.dumps(
                    {
                        "kind": "span",
                        "id": span_id,
                        "parent": parent,
                        "run": run,
                        "name": name,
                        "start": start,
                        "end": end,
                    }
                )
                + "\n"
            )
