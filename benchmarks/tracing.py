"""Outside-in spans around a library's public functions.

A ``Tracer`` replaces named attributes (module functions or class methods)
with wrappers that record one ``Span`` per call: name, start, end, the
enclosing span and the current iteration id, plus optional attributes taken
from the call's arguments and result. Spans stay in memory until the caller
reads them. The wrappers exist only between ``install`` and ``uninstall``
(or inside ``with tracer:``); afterwards every attribute is the original
object again.

With ``track_memory`` set, each span also records the peak number of bytes
``tracemalloc`` saw allocated above the level at its entry. The caller
starts and stops ``tracemalloc``; timings taken in that mode are inflated
and should be discarded.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

#: extracts span attributes from (args, kwargs, result)
Describe = Callable[[tuple, dict, Any], dict]


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` recorded under ``name``."""

    owner: Any
    attr: str
    name: str
    describe: Describe | None = None


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    iteration: int = -1
    attrs: dict = field(default_factory=dict)
    peak_bytes: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, targets: Sequence[Target], *, track_memory: bool = False):
        self.targets = tuple(targets)
        self.track_memory = track_memory
        self.spans: list[Span] = []
        self.iteration = -1
        self._stack: list[int] = []
        # running peak of each open span, maintained across reset_peak calls
        self._peaks: list[int] = []
        self._bases: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for t in self.targets:
            original = vars(t.owner)[t.attr]
            self._saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(original, t.name, t.describe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        if self.track_memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._peaks:
                self._peaks[-1] = max(self._peaks[-1], peak)
            tracemalloc.reset_peak()
            self._bases.append(current)
            self._peaks.append(current)
        self.spans.append(
            Span(name, time.perf_counter(), parent=parent, iteration=self.iteration)
        )
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if self.track_memory:
            peak = max(self._peaks.pop(), tracemalloc.get_traced_memory()[1])
            span.peak_bytes = peak - self._bases.pop()
            if self._peaks:
                self._peaks[-1] = max(self._peaks[-1], peak)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record a span around the caller's own block."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _wrap(self, fn: Callable, name: str, describe: Describe | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if describe is not None:
                self.spans[idx].attrs = describe(args, kwargs, result)
            return result

        return wrapper


# --- derived views ----------------------------------------------------------

def children(spans: Sequence[Span]) -> dict[int, list[int]]:
    """Child span indices of every span index."""
    out: dict[int, list[int]] = {i: [] for i in range(len(spans))}
    for i, s in enumerate(spans):
        if s.parent is not None:
            out[s.parent].append(i)
    return out


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def descendants(spans: Sequence[Span], root: int) -> list[int]:
    """Indices of every span below ``root`` (not including it)."""
    kids = children(spans)
    out: list[int] = []
    todo = list(kids[root])
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids[i])
    return out
