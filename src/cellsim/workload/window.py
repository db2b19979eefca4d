"""Windowed collection of events from multiple parsers.

Each parser keeps a read-ahead buffer.  ``collect_window`` reads each parser
on until its buffer holds an event at or past the window's end (or one
million events, which are taken before reading on), then merges the buffered
events falling inside the window into one sorted batch.  An event
stamped before its window is late: it is dropped and reported as an anomaly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from . import events as ev
from .anomalies import AnomalyKind, AnomalySink

BUFFER_MAX_EVENTS = 1_000_000


class BufferedEventSource:
    """Read-ahead wrapper around one event iterator."""

    def __init__(self, source: Iterable[ev.WorkloadEvent],
                 max_events: int = BUFFER_MAX_EVENTS):
        self._iter: Iterator[ev.WorkloadEvent] = iter(source)
        self._buffer: list[ev.WorkloadEvent] = []
        self._exhausted = False
        self.max_events = max_events

    @property
    def exhausted(self) -> bool:
        return self._exhausted and not self._buffer

    def fill(self, horizon_us: int) -> None:
        """Read until buffered past the horizon or buffer/stream limits hit."""
        while not self._exhausted:
            if self._buffer and self._buffer[-1].timestamp >= horizon_us:
                break
            if len(self._buffer) >= self.max_events:
                break
            try:
                self._buffer.append(next(self._iter))
            except StopIteration:
                self._exhausted = True

    def take_until(self, end_us: int) -> list[ev.WorkloadEvent]:
        taken: list[ev.WorkloadEvent] = []
        while True:
            self.fill(end_us)
            keep: list[ev.WorkloadEvent] = []
            for event in self._buffer:
                (taken if event.timestamp < end_us else keep).append(event)
            self._buffer = keep
            # The buffer cap may have stopped the fill mid-window; loop until
            # the stream is exhausted or buffered past the window end.
            if self._exhausted or (self._buffer and self._buffer[-1].timestamp >= end_us):
                return taken


class WindowCollector:
    """Merges per-parser streams into timestamp-sorted window batches."""

    def __init__(self, sources: Iterable[Iterable[ev.WorkloadEvent]],
                 sink: Optional[AnomalySink] = None,
                 max_events: int = BUFFER_MAX_EVENTS):
        self.sink = sink if sink is not None else AnomalySink()
        self.sources = [
            src if isinstance(src, BufferedEventSource)
            else BufferedEventSource(src, max_events)
            for src in sources
        ]

    @property
    def exhausted(self) -> bool:
        return all(src.exhausted for src in self.sources)

    def collect_window(self, window_start: int, window_end: int) -> ev.EventBatch:
        """The sorted events of ``[window_start, window_end)``.

        Windows are collected in order, so an event stamped before
        ``window_start`` arrived after its own window was applied.  It is
        dropped, not applied out of order, and reported to the sink as a
        LATE_EVENT naming its timestamp and this window.
        """
        if window_end < window_start:
            raise ValueError("window_end must be >= window_start")
        merged: list[ev.WorkloadEvent] = []
        for source in self.sources:
            for event in source.take_until(window_end):
                if event.timestamp >= window_start:
                    merged.append(event)
                else:
                    self.sink.report(
                        AnomalyKind.LATE_EVENT,
                        f"{event.kind.value} at {event.timestamp} before window "
                        f"[{window_start},{window_end}); dropped")
        return ev.EventBatch(window_start, window_end, tuple(ev.sort_events(merged)))
