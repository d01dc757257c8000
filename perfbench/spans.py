"""In-memory span recorder and the traced subclasses that feed it.

Spans are taken from outside the program: the benchmark wraps each call
into a layer (``QueryEngine.search_batch``, ``CoalescingWindow.push`` /
``flush``, ``ExmaAccelerator.replay_flush``) in a subclass that times the
call and records a span.  No file under ``src/`` knows it is traced.

A span has a name, start and end (``time.perf_counter`` seconds), the id
of the span that caused it (``parent``) and a request id shared by every
span of one request (a batch, a flush or a served query).  Spans stay in
memory and are written once, as JSON lines, when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.accel.exma_accelerator import ExmaAccelerator
from repro.engine.engine import QueryEngine
from repro.engine.window import CoalescingWindow

clock = time.perf_counter


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    request_id: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Append-only span store, safe to share with the serving batcher thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._next_id = 0

    def new_id(self) -> int:
        """Reserve a span id (so children can name a parent still open)."""
        with self._lock:
            span_id, self._next_id = self._next_id, self._next_id + 1
        return span_id

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        request_id: int | None = None,
        span_id: int | None = None,
    ) -> int:
        """Store one finished span and return its id."""
        if span_id is None:
            span_id = self.new_id()
        with self._lock:
            self._spans.append(Span(span_id, name, start, end, parent, request_id))
        return span_id

    @contextmanager
    def span(self, name: str, parent: int | None = None, request_id: int | None = None):
        """Time the ``with`` body as one span; yields the span's id."""
        span_id = self.new_id()
        start = clock()
        try:
            yield span_id
        finally:
            self.record(name, start, clock(), parent, request_id, span_id)

    def named(self, name: str, since: int = 0, until: int | None = None) -> list[Span]:
        """Spans called *name*, recorded between the marks *since* and *until*."""
        with self._lock:
            return [span for span in self._spans[since:until] if span.name == name]

    def mark(self) -> int:
        """Position of the next span (a bound for :meth:`named`)."""
        with self._lock:
            return len(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        with self._lock:
            spans = list(self._spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in spans:
                handle.write(json.dumps(asdict(span)) + "\n")


class TracedEngine(QueryEngine):
    """A :class:`QueryEngine` whose batch searches are recorded as
    ``engine.search`` spans, numbered in call order, with each batch's
    counters kept alongside (``batch_stats``)."""

    def __init__(self, backend, recorder: SpanRecorder, **kwargs) -> None:
        super().__init__(backend, **kwargs)
        self.recorder = recorder
        #: Span id the caller sets as the parent of the next searches.
        self.parent: int | None = None
        self.batch_stats = []
        self._calls = 0

    def search_batch(self, queries):
        request_id, self._calls = self._calls, self._calls + 1
        with self.recorder.span("engine.search", self.parent, request_id):
            result = super().search_batch(queries)
        self.batch_stats.append(result.stats)
        return result

    def clone(self) -> "TracedEngine":
        return TracedEngine(
            self.backend, self.recorder, shards=self._shards, executor=self._executor
        )


class TracedWindow(CoalescingWindow):
    """A :class:`CoalescingWindow` whose push/flush calls are recorded as
    ``engine.window`` spans (a flush triggered inside a push is part of
    the push's span, not a second one)."""

    def __init__(self, capacity: int, recorder: SpanRecorder) -> None:
        super().__init__(capacity)
        self.recorder = recorder
        self.parent: int | None = None
        self._inside = False

    def _traced(self, call, *args):
        if self._inside:
            return call(*args)
        self._inside = True
        try:
            with self.recorder.span("engine.window", self.parent):
                return call(*args)
        finally:
            self._inside = False

    def push(self, requests):
        return self._traced(super().push, requests)

    def flush(self):
        return self._traced(super().flush)


class TracedAccelerator(ExmaAccelerator):
    """An :class:`ExmaAccelerator` whose flush replays are recorded as
    ``accel.replay`` spans, numbered in call order."""

    def __init__(self, table, index, config, recorder: SpanRecorder) -> None:
        super().__init__(table, index, config)
        self.recorder = recorder
        self.parent: int | None = None
        self._calls = 0

    def replay_flush(self, flushed, name: str = "EXMA"):
        request_id, self._calls = self._calls, self._calls + 1
        with self.recorder.span("accel.replay", self.parent, request_id):
            return super().replay_flush(flushed, name=name)
