"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: its name, start and end on the
``perf_counter`` clock, the index of the span that was open when it
started (its parent, -1 for a root), and the operation it belongs to
(one size, one h point or one evolution).  Spans are only appended to a
list while the run is going; ``write_csv`` puts them on disk once it
has ended.
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: str
    cpu: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    """Context manager for one span; a class, not a generator, to keep it cheap."""

    __slots__ = ("tracer", "name", "cpu", "index", "cpu0", "start")

    def __init__(self, tracer: "Tracer", name: str, cpu: bool):
        self.tracer = tracer
        self.name = name
        self.cpu = cpu

    def __enter__(self) -> None:
        tracer = self.tracer
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer.stack.append(self.index)
        self.cpu0 = time.process_time() if self.cpu else 0.0
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        used = time.process_time() - self.cpu0 if self.cpu else None
        tracer = self.tracer
        tracer.stack.pop()
        parent = tracer.stack[-1] if tracer.stack else -1
        # a plain tuple here; Span objects are built once the run is over
        tracer.spans[self.index] = (self.name, self.start, end, parent, tracer.op_id, used)


class Tracer:
    """Records nested spans from one thread."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op_id = ""

    def span(self, name: str, cpu: bool = False) -> _OpenSpan:
        """Time the body as one span; with ``cpu`` also its process CPU time."""
        return _OpenSpan(self, name, cpu)

    @contextmanager
    def op(self, op_id: str) -> Iterator[None]:
        """A root-level ``op`` span; spans opened inside carry ``op_id``."""
        outer = self.op_id
        self.op_id = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self.op_id = outer

    def finished(self) -> list[Span]:
        if self.stack:
            raise RuntimeError("spans are still open")
        return [Span(*fields) for fields in self.spans]


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the durations of its children.

    The tracer nests spans strictly, so children never overlap one
    another and never reach outside their parent.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - inner for span, inner in zip(spans, covered)]


def summarize(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time, self time and CPU time."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own
        row["cpu_s"] += span.cpu or 0.0
    return table


def write_csv(spans: Sequence[Span], path: str) -> None:
    """One line per span: index, name, start, end, parent, op, cpu."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "name", "start", "end", "parent", "op", "cpu"])
        for index, span in enumerate(spans):
            cpu = "" if span.cpu is None else repr(span.cpu)
            writer.writerow(
                [index, span.name, repr(span.start), repr(span.end), span.parent, span.op, cpu]
            )
