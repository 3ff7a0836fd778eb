"""Spans and counters recorded around calls into g1helicoid.

A span is ``(id, name, start, end, parent)``: one call of one wrapped
function, timed with ``time.perf_counter``.  Spans stay in memory while the
program runs and are written out once at the end.  The wrappers are
installed from outside the package, at every module attribute that is bound
to a traced function, because callers look functions up where they imported
them (``period_solver.integrate`` and ``verify.integrate`` are both
``quadrature.integrate``).  Nothing in the package itself is changed.

This module uses the standard library only, so the benchmark process can
aggregate spans without importing numpy.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

Span = Tuple[int, str, float, float, Optional[int]]
Hook = Callable[["Recorder", tuple, dict, object], None]


class Recorder:
    """Collects spans and named counters from wrapped functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.peaks: Dict[str, float] = {}
        self._clock = clock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._main_thread = threading.main_thread()
        self._main_stack: List[Tuple[int, str]] = []
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, str]]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.peaks[key] = max(self.peaks.get(key, value), value)

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        """Return ``fn`` wrapped so that each call records a span ``name``.

        A call made while a span of the same name is open on the same thread
        (recursion) runs unwrapped: the outer span already covers it.  A pool
        worker thread with no open span of its own takes the innermost span
        open on the main thread as parent, which is the span that is waiting
        for the pool.  ``hook(recorder, args, kwargs, result)`` runs after a
        successful call, outside the span, to update counters.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if any(open_name == name for _, open_name in stack):
                return fn(*args, **kwargs)
            if stack:
                parent: Optional[int] = stack[-1][0]
            elif self._main_stack:
                parent = self._main_stack[-1][0]
            else:
                parent = None
            sid = next(self._ids)
            stack.append((sid, name))
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._clock()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced


@contextlib.contextmanager
def installed(
    recorder: Recorder,
    targets: Mapping[str, Optional[Hook]],
    modules: Mapping[str, object],
) -> Iterator[None]:
    """Wrap each target ``"module.function"`` wherever a module binds it.

    ``modules`` maps short module names to module objects; the target's
    module is looked up there, and every module in it is scanned for
    attributes that are the target function.  All attributes are restored
    on exit, also when the body raises.
    """
    patched: List[Tuple[object, str, object]] = []
    try:
        for qualname, hook in targets.items():
            module_name, attr = qualname.rsplit(".", 1)
            original = getattr(modules[module_name], attr)
            wrapper = recorder.wrap(qualname, original, hook)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        yield
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of each span id: its duration minus the part of its
    interval that its child spans cover.

    Children that overlap, such as checks running on two pool threads under
    one parent, are counted once; the parts of a child outside its parent's
    interval are ignored.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: Dict[int, float] = {}
    for sid, _, start, end, _ in spans:
        clipped = ((max(s, start), min(e, end)) for s, e in children.get(sid, ()))
        out[sid] = (end - start) - _covered(clipped)
    return out


def totals_by_name(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """``{name: (calls, summed self time)}``."""
    own = self_times(spans)
    out: Dict[str, Tuple[int, float]] = {}
    for sid, name, _, _, _ in spans:
        calls, seconds = out.get(name, (0, 0.0))
        out[name] = (calls + 1, seconds + own[sid])
    return out


def count_within(spans: Sequence[Span], name: str, ancestor: str) -> int:
    """Number of spans called ``name`` that have a span ``ancestor`` above them."""
    by_id = {sid: (n, parent) for sid, n, _, _, parent in spans}
    count = 0
    for _, n, _, _, parent in spans:
        if n != name:
            continue
        while parent is not None and parent in by_id:
            parent_name, parent = by_id[parent]
            if parent_name == ancestor:
                count += 1
                break
    return count
