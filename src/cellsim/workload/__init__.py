"""Workload ingestion: trace parsing, events, constraints, anomaly handling,
the cell fold and synthetic generation."""

from .anomalies import AnomalyKind, AnomalyReport, AnomalySink, filter_anomalies
from .constraints import (
    ConstraintOperator,
    TaskConstraint,
    check_constraint,
    matches_attributes,
)
from .events import EventBatch, EventKind, WorkloadEvent, sort_events
from .parsers import open_trace_directory
from .state import CellState
from .synth import SynthConfig, synth_generate
from .window import WindowCollector

__all__ = [
    "AnomalyKind", "AnomalyReport", "AnomalySink", "filter_anomalies",
    "ConstraintOperator", "TaskConstraint", "check_constraint",
    "matches_attributes",
    "EventBatch", "EventKind", "WorkloadEvent", "sort_events",
    "open_trace_directory",
    "CellState",
    "SynthConfig", "synth_generate",
    "WindowCollector",
]
