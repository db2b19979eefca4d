"""Run artifacts: tick CSVs, usage dumps, logs, anomaly records.

Everything written is byte-deterministic for a given (config, seed): floats
are formatted with fixed precision and rows follow the simulation order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Optional

from ..agents.engine import AuditRecord, TickMetrics

TICKS_HEADER = [
    "tick", "idle", "sta", "ta", "pa", "da", "overloaded",
    "migrations_attempted", "migrations_completed", "collisions",
    "cpu_used_ratio", "mem_used_ratio", "cpu_req_ratio", "mem_req_ratio",
    "stc_mb",
    # appended after the first fifteen, so readers of those keep working
    "placements", "unschedulable", "scs_runs", "rus_spikes", "san_restarts", "pending",
]
AUDIT_HEADER = [f.name for f in fields(AuditRecord)]


def _audit_value(value) -> str:
    """0/1 for a flag, three decimals for the cost, nothing for no source."""
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, bool):
        return str(int(value))
    return "" if value is None else str(value)


@dataclass
class TickRecord:
    """One ``ticks.csv`` row: the engine's metrics for the tick, and the
    cell at its end (node classes, cell-wide load ratios, pending tasks)."""

    tick: int
    metrics: TickMetrics
    #: nodes per allocation class, by the class's value (``asr_metrics``' counts)
    classes: dict[str, int]
    #: the cell's cpu and memory used, then required, over its capacity
    ratios: tuple[float, float, float, float]
    #: tasks waiting for a node at the end of the tick
    pending: int

    def row(self) -> list[str]:
        m = self.metrics
        return [
            str(self.tick), *(str(self.classes[name]) for name in TICKS_HEADER[1:7]),
            str(m.migrations_attempted), str(m.migrations_completed), str(m.collisions),
            *(f"{ratio:.6f}" for ratio in self.ratios),
            f"{m.stc_mb:.3f}",
            str(m.placements), str(m.unschedulable), str(m.scs_runs),
            str(m.rus_spikes), str(m.san_restarts), str(self.pending),
        ]


class RunOutputs:
    """Owns the output tree: logs/<run>.log, logs/<run>-error.log,
    logs/<run>-ticks.csv, usage/<run>-<tick>.csv dumps and, when a run asks
    for them, logs/<run>-messages.log and logs/<run>-audit.csv."""

    def __init__(self, output_dir: Path, run_name: str):
        self.output_dir = Path(output_dir)
        self.run_name = run_name
        self.logs_dir = self.output_dir / "logs"
        self.usage_dir = self.output_dir / "usage"
        self.logs_dir.mkdir(parents=True, exist_ok=True)
        self.usage_dir.mkdir(parents=True, exist_ok=True)
        self._log = open(self.logs_dir / f"{run_name}.log", "w", encoding="utf-8")
        self._error_log = open(self.logs_dir / f"{run_name}-error.log", "w", encoding="utf-8")
        self._ticks_file = open(self.logs_dir / f"{run_name}-ticks.csv", "w",
                                encoding="utf-8", newline="")
        self._ticks = csv.writer(self._ticks_file)
        self._ticks.writerow(TICKS_HEADER)
        self._lazy_files = []

    def log(self, line: str) -> None:
        self._log.write(line + "\n")

    def error(self, line: str) -> None:
        self._error_log.write(line + "\n")

    def line_writer(self, suffix: str, header: Optional[str] = None) -> Callable[[str], None]:
        """Line writer for logs/<run><suffix>, created (header first) on the
        first line, so an engine that writes none leaves no file."""
        handle = None

        def write(line: str) -> None:
            nonlocal handle
            if handle is None:
                handle = open(self.logs_dir / f"{self.run_name}{suffix}", "w", encoding="utf-8")
                self._lazy_files.append(handle)
                if header is not None:
                    handle.write(header + "\n")
            handle.write(line + "\n")
        return write

    def audit_writer(self) -> Callable[[AuditRecord], None]:
        """Record writer for logs/<run>-audit.csv: booleans as 0/1 and the
        cost in fixed point, so the file is byte-deterministic."""
        write = self.line_writer("-audit.csv", ",".join(AUDIT_HEADER))
        return lambda record: write(",".join(_audit_value(getattr(record, name))
                                             for name in AUDIT_HEADER))

    def write_tick(self, record: TickRecord) -> None:
        self._ticks.writerow(record.row())

    def dump_usage(self, tick: int, rows: list[tuple]) -> None:
        """Per-node dump: node id, class, then used/required per resource."""
        path = self.usage_dir / f"{self.run_name}-{tick}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node", "class", "cpu_used", "mem_used",
                             "cpu_required", "mem_required"])
            for row in rows:
                writer.writerow([row[0], row[1]] + [f"{v:.6f}" for v in row[2:]])

    def close(self) -> None:
        for handle in (self._log, self._error_log, self._ticks_file, *self._lazy_files):
            handle.close()

    def __enter__(self) -> "RunOutputs":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
