"""In-memory span recorder for the traced op of each workload.

The benchmark measures layers *from outside*: :meth:`SpanRecorder.wrap`
replaces a public function (or method) of the program with a timing
wrapper for the duration of one traced op, and :meth:`SpanRecorder.span`
brackets the benchmark's own calls.  Nothing under ``src/`` knows about
this module.

Three wrapper modes, chosen by call frequency:

``span``
    one :class:`Span` per call (name, layer, start, end, parent, op) --
    for calls made a handful of times per op;
``count``
    one ``(calls, seconds)`` accumulator per label and no span objects --
    for hot leaves called 10^3..10^5 times per op (spool ``emit``, codec
    ``encode_frame``), where a span per call would be the overhead.
    Counted targets must be called from the op's own thread;
``generator``
    one span per generator whose *busy* time is the time spent inside
    ``next()`` -- so a streaming parser is charged for parsing and its
    consumer for consuming, although the two interleave.

A span's self time is its busy time minus the busy time of its direct
children (child spans and counted calls alike), so the self times of all
spans of an op partition the covered part of its wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: ``(target, layer, label, mode)`` -- see :meth:`SpanRecorder.wrap`.
Target = Tuple[str, str, str, str]


class Span:
    __slots__ = (
        "id", "name", "layer", "op", "parent", "start", "end", "busy",
        "child", "calls",
    )

    def __init__(
        self, id: int, name: str, layer: str, op: Optional[int],
        parent: Optional["Span"], start: float,
    ) -> None:
        self.id = id
        self.name = name
        self.layer = layer
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        #: Seconds this span's own code path was running (== duration
        #: except for generator spans).
        self.busy = 0.0
        #: Busy seconds of direct children.
        self.child = 0.0
        #: Items yielded (generator spans only).
        self.calls = 0

    @property
    def self_time(self) -> float:
        return max(0.0, self.busy - self.child)


class _Counter:
    __slots__ = ("layer", "calls", "seconds", "depth")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0


class SpanRecorder:
    """Spans and counters of one traced op (create in the op's thread)."""

    def __init__(self, op_id: Optional[int] = None) -> None:
        self.op_id = op_id
        self.spans: List[Span] = []
        self.counters: Dict[str, _Counter] = {}
        #: Wrap targets that no longer resolve (a later refactor moved
        #: or merged the layer); their metrics read null, nothing fails.
        self.unresolved: List[str] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: List[Span] = []

    # -- span bookkeeping ----------------------------------------------
    def _stack(self) -> List[Span]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        if stack:
            parent: Optional[Span] = stack[-1]
        elif stack is not self._owner_stack and self._owner_stack:
            # First span of a helper thread (an HTTP handler): its cause
            # is whatever the op's thread is blocked in right now.
            parent = self._owner_stack[-1]
        else:
            parent = None
        with self._lock:
            span = Span(
                len(self.spans), name, layer, self.op_id, parent,
                perf_counter(),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span, busy: Optional[float] = None) -> None:
        span.end = perf_counter()
        span.busy = span.end - span.start if busy is None else busy
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if span.parent is not None:
            span.parent.child += span.busy

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        """Bracket a benchmark-owned call into ``layer``."""
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    # -- wrappers ------------------------------------------------------
    def _span_wrapper(self, original: Callable, name: str, layer: str) -> Callable:
        @functools.wraps(original)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name, layer)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(span)

        return spanned

    def _count_wrapper(self, original: Callable, name: str, layer: str) -> Callable:
        counter = self.counters.setdefault(name, _Counter(layer))
        owner_stack = self._owner_stack

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            if counter.depth:
                # Nested under a call with the same label (draw_into ->
                # delivered): the outer call already owns this time.
                return original(*args, **kwargs)
            counter.depth = 1
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                counter.depth = 0
                counter.calls += 1
                counter.seconds += elapsed
                if owner_stack:
                    owner_stack[-1].child += elapsed

        return counted

    def _generator_wrapper(self, original: Callable, name: str, layer: str) -> Callable:
        @functools.wraps(original)
        def generating(*args: Any, **kwargs: Any) -> Iterator[Any]:
            span = self._open(name, layer)
            # The consumer runs between our yields; it must not see this
            # span as its parent.
            self._stack().pop()
            busy = 0.0
            inner = original(*args, **kwargs)
            try:
                while True:
                    started = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += perf_counter() - started
                        return
                    busy += perf_counter() - started
                    span.calls += 1
                    yield item
            finally:
                inner.close()
                self._close(span, busy=busy)

        return generating

    def wrap(self, target: str, layer: str, name: str, mode: str = "span") -> None:
        """Patch ``"pkg.mod:attr"`` (or ``"pkg.mod:Class.method"``).

        A module-level function is replaced on *every* loaded ``repro``
        module that holds the very same object, because ``from x import
        f`` binds ``f`` in the importer at import time.  A method is
        replaced on its class.  Unresolvable targets are recorded in
        :attr:`unresolved` and otherwise ignored.
        """
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.unresolved.append(target)
            return
        make = {
            "span": self._span_wrapper,
            "count": self._count_wrapper,
            "generator": self._generator_wrapper,
        }[mode]
        wrapper = make(original, name, layer)
        if isinstance(owner, type):
            holders = [(owner, attr)]
        else:
            holders = [
                (module, key)
                for mod_name, module in list(sys.modules.items())
                if module is not None
                and (mod_name == "repro" or mod_name.startswith("repro."))
                for key, value in list(vars(module).items())
                if value is original
            ]
        for holder, key in holders:
            self._patches.append((holder, key, original))
            setattr(holder, key, wrapper)

    @contextmanager
    def installed(self, targets: Iterable[Target]) -> Iterator["SpanRecorder"]:
        """Wrap ``targets`` for the duration of the block only."""
        try:
            for target, layer, name, mode in targets:
                self.wrap(target, layer, name, mode)
            yield self
        finally:
            while self._patches:
                holder, key, original = self._patches.pop()
                setattr(holder, key, original)

    # -- reading -------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_time(self, *names: str) -> float:
        """Summed self time of spans, plus seconds of counters, so named."""
        total = sum(s.self_time for s in self.spans if s.name in names)
        total += sum(
            self.counters[n].seconds for n in names if n in self.counters
        )
        return total

    def busy_time(self, *names: str) -> float:
        """Summed inclusive busy time of the spans so named."""
        return sum(s.busy for s in self.spans if s.name in names)

    def calls(self, name: str) -> int:
        if name in self.counters:
            return self.counters[name].calls
        return len(self.named(name))

    def coverage(self, root: Span) -> float:
        """Share of ``root``'s wall time inside its direct children."""
        return root.child / root.busy if root.busy else 0.0

    def dump(self, epoch: float) -> Dict[str, Any]:
        """JSON-ready spans and counters; times are seconds since ``epoch``."""
        return {
            "op": self.op_id,
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "layer": s.layer,
                    "op": s.op,
                    "parent": s.parent.id if s.parent is not None else None,
                    "start": s.start - epoch,
                    "end": s.end - epoch,
                    "busy_s": s.busy,
                    "self_s": s.self_time,
                    **({"items": s.calls} if s.calls else {}),
                }
                for s in self.spans
            ],
            "counters": {
                name: {"layer": c.layer, "calls": c.calls, "seconds": c.seconds}
                for name, c in sorted(self.counters.items())
            },
            "unresolved": list(self.unresolved),
        }
