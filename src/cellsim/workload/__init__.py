"""Workload ingestion: trace parsing, events, constraints, anomaly handling,
the cell fold and synthetic generation."""

from .anomalies import AnomalyKind, AnomalyReport, AnomalySink, filter_anomalies
from .constraints import (
    ConstraintOperator,
    TaskConstraint,
    check_constraint,
    matches_attributes,
    matches_node,
)
from .events import EventBatch, EventKind, WorkloadEvent, sort_events
from .parsers import ColumnLayout, ParserConfig, map_task_action, open_trace_directory, parse_trace_file
from .state import CellState
from .synth import SynthConfig, synth_generate
from .window import BufferedEventSource, WindowCollector

__all__ = [
    "AnomalyKind", "AnomalyReport", "AnomalySink", "filter_anomalies",
    "ConstraintOperator", "TaskConstraint", "check_constraint",
    "matches_attributes", "matches_node",
    "EventBatch", "EventKind", "WorkloadEvent", "sort_events",
    "ColumnLayout", "ParserConfig", "map_task_action",
    "open_trace_directory", "parse_trace_file",
    "CellState",
    "SynthConfig", "synth_generate",
    "BufferedEventSource", "WindowCollector",
]
