"""Windowed collection of events from multiple parsers.

The collector reads each source one event ahead: it keeps the first event
not yet taken, which after a window is the first one stamped at or past that
window's end.  ``collect_window`` takes each source's events up to the
window's end and merges those falling inside the window into one sorted
batch.  No source is read before the first window, so a lazy source does
its work when a window asks for it.  An event stamped before its window is
late: it is dropped and reported as an anomaly.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import events as ev
from .anomalies import AnomalyKind, AnomalySink

#: A source's next event before the source is first read.
_UNREAD = object()


class WindowCollector:
    """Merges per-parser streams into timestamp-sorted window batches."""

    def __init__(self, sources: Iterable[Iterable[ev.WorkloadEvent]],
                 sink: Optional[AnomalySink] = None):
        self.sink = sink if sink is not None else AnomalySink()
        self.sources = [iter(source) for source in sources]
        #: each source's next event; None once the source is exhausted
        self._next: list = [_UNREAD] * len(self.sources)

    @property
    def exhausted(self) -> bool:
        return all(event is None for event in self._next)

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
        for index, source in enumerate(self.sources):
            event = self._next[index]
            if event is _UNREAD:
                event = next(source, None)
            while event is not None and event.timestamp < window_end:
                if event.timestamp >= window_start:
                    merged.append(event)
                else:
                    self.sink.report(
                        AnomalyKind.LATE_EVENT,
                        f"{event.kind.value} at {event.timestamp} before window "
                        f"[{window_start},{window_end}); dropped")
                event = next(source, None)
            self._next[index] = event
        return ev.EventBatch(window_start, window_end, tuple(ev.sort_events(merged)))
