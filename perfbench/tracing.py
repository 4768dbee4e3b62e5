"""In-memory span tracing from outside the program.

A :class:`Tracer` replaces a public function or method of the program with
a wrapper that records one span per call: name, start, end, parent span
and request id.  Spans stay in memory until the run ends.  Nothing in the
program is edited; the wrappers are installed on the attribute the caller
looks the name up through, and removed again by :meth:`Tracer.unwrap_all`.

:func:`self_times` turns a span list into self time per span, and
:func:`layer_rows` into per-name rows that, with the root span's share
(the unattributed remainder), sum exactly to the root span's duration.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrappers around the program's public functions.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with an empty stack (the router's submit threads) takes the
    innermost span open on the thread that created the tracer as parent.
    A call nested inside an open span of the same name is not recorded
    again, so recursive or re-entrant calls count once.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.request: int | None = None
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[tuple[int, str]]) -> int | None:
        if stack:
            return stack[-1][0]
        if self._main_stack:
            return self._main_stack[-1][0]
        return None

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span named *name*."""
        stack = self._stack()
        if any(open_name == name for _, open_name in stack):
            yield
            return
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = self._parent(stack)
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent,
                                       self.request))

    def current(self) -> int | None:
        """The innermost span open on this thread (or the main thread)."""
        return self._parent(self._stack())

    def add_span(self, name: str, start: float, end: float,
                 parent: int | None) -> int:
        """Append an already-timed span (e.g. one a child process recorded)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self.spans.append(Span(span_id, name, start, end, parent,
                                   self.request))
        return span_id

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n

    # -- wrappers --------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span *name*.

        *on_result*, if given, is called with the wrapped call's return
        value so the caller can count outcomes (hits, fast-path runs).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Span arithmetic


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    Computed as a partition of the time line: every instant is credited
    to the open spans that have no open child.  For spans that nest
    without overlapping siblings this is exactly "duration minus the
    union of the children's intervals".  Where sibling spans overlap
    (concurrent threads) the overlapped instant is split equally among
    them, so the self times of one tree always sum to its root's
    duration.
    """
    out = {s.id: 0.0 for s in spans}
    # Ends sort before starts at the same instant; ties are zero-length.
    events = sorted([(s.start, 1, s.id) for s in spans]
                    + [(s.end, 0, s.id) for s in spans])
    by_id = {s.id: s for s in spans}
    active: set[int] = set()
    open_children: dict[int, int] = defaultdict(int)
    now = events[0][0] if events else 0.0
    for when, is_start, span_id in events:
        if when > now and active:
            exposed = [i for i in active if not open_children[i]]
            share = (when - now) / len(exposed)
            for i in exposed:
                out[i] += share
        now = when
        parent = by_id[span_id].parent
        if is_start:
            active.add(span_id)
            if parent in active:
                open_children[parent] += 1
        else:
            active.discard(span_id)
            if parent in active:
                open_children[parent] -= 1
    return out


def inclusive_totals(spans: list[Span]) -> dict[str, float]:
    """Summed duration per span name.

    Same-name nesting is never recorded (see :meth:`Tracer.span`), so a
    name's sum never counts one interval twice.
    """
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += s.duration
    return dict(totals)


def call_counts(spans: list[Span]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for s in spans:
        counts[s.name] += 1
    return dict(counts)


def layer_rows(spans: list[Span], root_name: str) -> tuple[dict[str, float], float, float]:
    """Self time summed per span name, the root remainder, and the wall.

    Returns ``(rows, unattributed, wall)`` where *rows* excludes the
    root spans named *root_name*, *unattributed* is the root spans' own
    self time and *wall* their summed duration; ``sum(rows) +
    unattributed == wall`` up to float rounding.
    """
    own = self_times(spans)
    rows: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    wall = 0.0
    for s in spans:
        if s.name == root_name:
            unattributed += own[s.id]
            wall += s.duration
        else:
            rows[s.name] += own[s.id]
    return dict(rows), unattributed, wall
