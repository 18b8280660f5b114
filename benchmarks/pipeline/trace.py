"""In-memory span tracer and the patching helpers that install it.

The benchmark owns its tracing: wrappers are put around ``repro``'s
public entry points from here, spans are kept in memory with parent
links, and self times are computed after the timed region has ended.
Nothing under ``src/`` knows about this module.
"""

from __future__ import annotations

import itertools
import sys
import threading
import weakref
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Optional, Union

#: (id, name, parent id or None, start, end) — perf_counter seconds.
Span = tuple[int, str, Optional[int], float, float]
#: A span name, or a function of the call's positional args giving one.
Namer = Union[str, Callable[[tuple], str]]


class Tracer:
    """Records spans while a :meth:`root` section is open.

    Each thread keeps its own stack of open span ids.  A span opened on
    a thread whose stack is empty (a pool worker) is parented to the
    innermost span open on the thread that opened the root, so work a
    dispatch loop hands to workers shows up as that loop's children.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Quantities measured at span boundaries (e.g. bytes hashed).
        self.counters: Counter[str] = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        #: The root thread's stack while a root section is open.
        self._root_stack: Optional[list[int]] = None

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """One span around the block (recorded only under a root)."""
        root_stack = self._root_stack
        if root_stack is None:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else root_stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, name, parent, start, end))

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Open the root span of one timed section; recording is on
        only inside it."""
        stack = self._stack()
        span_id = next(self._ids)
        stack.append(span_id)
        self._root_stack = stack
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._root_stack = None
            stack.pop()
            self.spans.append((span_id, name, None, start, end))

    # -- wrappers ----------------------------------------------------------

    def wrap(
        self,
        name: Namer,
        fn: Callable,
        measure: Optional[Callable[[tuple, Any], dict[str, float]]] = None,
    ) -> Callable:
        """``fn`` with a span around each call made while recording.

        A callable ``name`` is evaluated on every call, recording or
        not, so namers that track first-use state see set-up calls too.
        ``measure(args, result)`` adds to :attr:`counters`.
        """
        fixed = name if isinstance(name, str) else None
        local, ids, spans = self._local, self._ids, self.spans

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            # The span bookkeeping is inlined: this runs a few hundred
            # thousand times in a traced repetition.
            span_name = fixed if fixed is not None else name(args)
            root_stack = self._root_stack
            if root_stack is None:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else root_stack[-1]
            span_id = next(ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, span_name, parent, start, end))
            if measure is not None:
                self.counters.update(measure(args, result))
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def wrap_context(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap` for a method returning a context manager:
        the span runs from ``__enter__`` to ``__exit__``."""

        @contextmanager
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            with self.span(name), fn(*args, **kwargs) as value:
                yield value

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper


def first_call(first: str, later: str) -> Callable[[tuple], str]:
    """Namer: ``first`` on an instance's first call, ``later`` after."""
    seen: weakref.WeakSet = weakref.WeakSet()

    def namer(args: tuple) -> str:
        instance = args[0]
        if instance in seen:
            return later
        seen.add(instance)
        return first

    return namer


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Iterable[Span]) -> dict[str, tuple[float, int]]:
    """Per span name: (summed self time, call count).

    A span's self time is its duration minus the part of that interval
    its child spans cover — the union, so overlapping children (pool
    workers) are not subtracted twice and self time is never negative.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for _id, _name, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, list] = {}
    for span_id, name, _parent, start, end in spans:
        busy = (end - start) - covered(children.get(span_id, ()), start, end)
        acc = totals.setdefault(name, [0.0, 0])
        acc[0] += busy
        acc[1] += 1
    return {name: (busy, calls) for name, (busy, calls) in totals.items()}


# -- patching ----------------------------------------------------------------

#: Undo record of one patch: (object, attribute, original value).
Patch = tuple[Any, str, Any]


def patch_method(
    owner: type, attr: str, make: Callable[[Callable], Callable]
) -> list[Patch]:
    """Replace ``owner.attr`` by ``make(original)``; a classmethod
    stays one."""
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        patched: Any = classmethod(make(raw.__func__))
    else:
        patched = make(raw)
    setattr(owner, attr, patched)
    return [(owner, attr, raw)]


def patch_function(
    func: Callable, make: Callable[[Callable], Callable]
) -> list[Patch]:
    """Rebind every ``repro`` module global that is ``func``.

    ``from x import f`` copies the binding into the importing module,
    so the defining module alone is not enough.
    """
    patched = make(func)
    undo: list[Patch] = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                setattr(module, attr, patched)
                undo.append((module, attr, func))
    return undo


def unpatch(undo: Iterable[Patch]) -> None:
    for owner, attr, original in undo:
        setattr(owner, attr, original)
