"""Span recording from the benchmark's side of each layer boundary.

A span is ``{id, name, layer, start, end, parent, op}``: ``parent`` is the
span that caused it (possibly on another thread or in another process),
``op`` the root of its parent chain — the operation it belongs to, filled
in by :func:`load_spans` once the dumps of all processes are merged.  Spans
stay in memory and are written once, when a process exports them.  Clocks are
``time.perf_counter`` — ``CLOCK_MONOTONIC`` on Linux, so spans recorded in
the generator, the primary and the replica share one time axis.

Attribution (:func:`exclusive_times`) is per operation: every instant of the
root span's interval is split equally among the operation's *leaf* spans —
active spans with no active child — so a thread blocked on another thread's
work hands its time to that work, two refreshes interleaved under the GIL
share the interval, and the per-name times of one operation always sum to
exactly its wall time.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Request header carrying the client's span id to the server.
TRACE_HEADER = "X-Suite-Trace"

clock = time.perf_counter


class Tracer:
    """Per-process span recorder with one stack per thread."""

    def __init__(self, proc: str) -> None:
        self.proc = proc
        # [id, name, start, end, parent]; ids local to this process are ints
        # until export() prefixes them with ``proc``.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stacks: List[list] = []  # every thread's stack, for export()
        self._count_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def new_id(self) -> int:
        return next(self._ids)

    def current(self) -> Optional[list]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def parent_here(self) -> Any:
        """The parent a span started on this thread right now would get."""
        top = self.current()
        if top is not None:
            return top[0]
        return getattr(self._local, "ambient", None)

    def set_ambient(self, parent: Any) -> None:
        """Parent for spans started on this thread while its stack is empty
        (how pool threads inherit the span that dispatched their task)."""
        self._local.ambient = parent

    def begin(self, name: str, parent: Any = None, span_id: Optional[int] = None) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks.append(stack)
        if parent is None:
            parent = stack[-1][0] if stack else getattr(self._local, "ambient", None)
        span = [next(self._ids) if span_id is None else span_id, name, clock(), None, parent]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = clock()
        self._local.stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def discard(self, span: list) -> None:
        """Close a span without recording it."""
        self._local.stack.pop()

    def record(self, name: str, start: float, end: float, parent: Any) -> None:
        """Append a span measured elsewhere (e.g. a queue wait)."""
        self.spans.append([next(self._ids), name, start, end, parent])

    def count(self, name: str, amount: float = 1) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def gid(self, local: Any) -> Any:
        return f"{self.proc}.{local}" if isinstance(local, int) else local

    # ------------------------------------------------------------------ #
    def export(self, layer_of: Callable[[str], str]) -> Dict[str, Any]:
        """Everything recorded so far.  Spans still open (a long poll parked
        when a dump is requested just before a SIGKILL) are closed at "now",
        so the spans under them keep a parent."""
        gid = self.gid
        now = clock()
        still_open = [
            span[:3] + [now] + span[4:] for stack in list(self._stacks) for span in list(stack)
        ]
        spans = [
            {
                "id": gid(s[0]),
                "name": s[1],
                "layer": layer_of(s[1]),
                "start": s[2],
                "end": s[3],
                "parent": gid(s[4]),
            }
            for s in list(self.spans) + still_open
        ]
        return {"proc": self.proc, "spans": spans, "counts": dict(self.counts)}


class NullTracer:
    """Stands in for :class:`Tracer` on untraced runs."""

    def span(self, name: str):
        return contextlib.nullcontext()


def traced(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Wrap ``fn`` in a span called ``name``.

    Not re-entrant on purpose: a call made while the innermost span already
    carries this name (``unshred_bag`` recursing per inner bag,
    ``apply_stream`` delegating to ``apply``) runs inside that span.
    """
    begin, end, current = tracer.begin, tracer.end, tracer.current

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        top = current()
        if top is not None and top[1] == name:
            return fn(*args, **kwargs)
        span = begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            end(span)

    return wrapper


def bind_ambient(tracer: Tracer, fn: Callable, parent: Any) -> Callable:
    """``fn`` for another thread, with ``parent`` as that thread's ambient."""

    def bound(*args: Any, **kwargs: Any) -> Any:
        tracer.set_ambient(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.set_ambient(None)

    return bound


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #
def load_spans(paths: Iterable[str]) -> List[dict]:
    """Merge span dumps and give every span its ``op``: the id of the root
    of its parent chain, followed across threads and processes.  A span
    whose parent was never recorded (cut off by a kill) roots its own
    operation."""
    spans: List[dict] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            spans.extend(json.load(handle)["spans"])
    parent_of = {span["id"]: span["parent"] for span in spans}
    root_of: Dict[str, str] = {}
    for span in spans:
        chain = []
        node = span["id"]
        while node not in root_of and parent_of.get(node) in parent_of:
            chain.append(node)
            node = parent_of[node]
        root = root_of.get(node, node)
        for visited in chain:
            root_of[visited] = root
        root_of[node] = root
        span["op"] = root_of[span["id"]]
    return spans


def group_ops(spans: Iterable[dict]) -> Dict[str, List[dict]]:
    ops: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        ops[span["op"]].append(span)
    return ops


def exclusive_times(op_spans: List[dict]) -> Optional[Tuple[dict, Dict[str, float]]]:
    """Split one operation's wall time among its leaf spans.

    Returns ``(root, {span name: seconds})`` whose values sum to the root's
    duration, or ``None`` when the root span itself was never recorded (an
    operation cut off by a kill).
    """
    root = next((s for s in op_spans if s["id"] == s["op"]), None)
    if root is None:
        return None
    lo, hi = root["start"], root["end"]
    events: List[Tuple[float, int, int]] = []
    clipped: List[dict] = []
    name_of: Dict[str, str] = {}
    for span in op_spans:
        start, end = max(span["start"], lo), min(span["end"], hi)
        if end <= start and span is not root:
            continue
        index = len(clipped)
        clipped.append(span)
        name_of[span["id"]] = span["name"]
        # Ends sort before starts at equal times: a child that begins the
        # instant its sibling ends never overlaps it.
        events.append((start, 1, index))
        events.append((end, 0, index))
    events.sort()
    active: Dict[str, int] = {}  # span id -> number of active children
    leaves: Dict[str, str] = {}  # span id -> span name
    # A span recorded after the fact (a queue wait) can start before the
    # parent it hangs under; it waits here until the parent starts.
    early: Dict[str, set] = defaultdict(set)  # parent id -> active early children
    counted = set()  # spans currently counted in active[parent]
    totals: Dict[str, float] = defaultdict(float)
    previous = lo
    for when, is_start, index in events:
        if when > previous and leaves:
            share = (when - previous) / len(leaves)
            for name in leaves.values():
                totals[name] += share
        previous = when
        span = clipped[index]
        span_id, parent = span["id"], span["parent"]
        if is_start:
            children = early.pop(span_id, ())
            counted.update(children)
            active[span_id] = len(children)
            if not children:
                leaves[span_id] = span["name"]
            if parent in active:
                counted.add(span_id)
                active[parent] += 1
                leaves.pop(parent, None)
            elif parent is not None:
                early[parent].add(span_id)
        else:
            del active[span_id]
            leaves.pop(span_id, None)
            if span_id in counted:
                counted.discard(span_id)
                if parent in active:
                    active[parent] -= 1
                    if active[parent] == 0:
                        leaves[parent] = name_of[parent]
            elif parent is not None:
                early[parent].discard(span_id)
    return root, dict(totals)
