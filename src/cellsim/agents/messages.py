"""Agent-to-agent message types.

All communication is point-to-point request/response; every response carries
its request's correlation id.  Status reports are the monitoring channel
from node agents to brokers and sit outside the negotiation protocol.
Resource vectors travel as float64 arrays: the cell's own read-only ones,
and fresh arrays for a node's load (the cell updates its load sums in
place), so a message keeps its values whatever the cell does next.  A
broker's quote is one record for all its candidate nodes, not one object
per node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np


class MessageKind(enum.Enum):
    GET_CANDIDATE_NODES_REQUEST = "GetCandidateNodesRequest"
    GET_CANDIDATE_NODES_RESPONSE = "GetCandidateNodesResponse"
    TASK_MIGRATION_REQUEST = "TaskMigrationRequest"
    TASK_MIGRATION_ACCEPTANCE_RESPONSE = "TaskMigrationAcceptanceResponse"
    TASK_MIGRATION_REJECTION_RESPONSE = "TaskMigrationRejectionResponse"
    TASK_MIGRATION_PROCESS_REQUEST = "TaskMigrationProcessRequest"
    TASK_MIGRATION_PROCESS_CONFIRMATION_RESPONSE = "TaskMigrationProcessConfirmationResponse"
    TASK_MIGRATION_PROCESS_ERROR_RESPONSE = "TaskMigrationProcessErrorResponse"
    STATUS_REPORT = "StatusReport"


@dataclass(slots=True)
class Quote:
    """A broker's candidate nodes for one task, best first: entry ``i`` is
    ``node_ids[i]``, its fitness and its room (row ``i`` of ``available``:
    total less used, as the broker's cache showed it).  The first
    ``regular`` entries had room.  The rest are forced: nodes with the total
    capacity but not the room, which skip the availability check and are
    tried only after every regular entry has failed.
    """

    node_ids: list
    fitness: list
    available: np.ndarray
    regular: int
    created_at: int

    def expired(self, now_us: int, ttl_us: int) -> bool:
        return now_us - self.created_at > ttl_us

    def log_format(self, i: int) -> str:
        avail = ",".join(f"{v:.10f}" for v in self.available[i])
        return (f"CandidateNodeRecommendation[nodeId={self.node_ids[i]},"
                f"nodeAvailableResources=[{avail}],"
                f"fitnessValue={self.fitness[i]:.12f},"
                f"forceMigration={str(i >= self.regular).lower()}]")


FORCED_FITNESS = 1e-12
#: Matching nodes with room but no positive score pad the quote before any
#: forced entry; their sentinel stays distinguishable from the forced one.
ZERO_SCORE_FITNESS = 1e-9


@dataclass(slots=True)
class TaskSnapshot:
    """Enough task state for a remote agent to evaluate a migration."""

    task_id: str
    required: np.ndarray
    used: np.ndarray
    production: bool
    constraints: tuple
    migration_cost_mb: float


@dataclass(slots=True)
class NodeStats:
    """Fresh node-side numbers: the totals and the one load its reader
    uses.  A status report carries a copy of the node's used sum; an
    acceptance response carries the used sum plus the loads of the
    transfers the node accepted this round, which complete at the next
    round's start."""

    node_id: str
    total: np.ndarray
    load: np.ndarray


@dataclass(slots=True)
class Message:
    kind: MessageKind
    sender: str
    recipient: str
    correlation_id: int
    task: Optional[TaskSnapshot] = None
    #: For quote responses: None when no cached node matches the task.
    quote: Optional[Quote] = None
    node_stats: Optional[NodeStats] = None
    forced: bool = False
    #: For process requests: True when placing a new task.
    initial: bool = False
    #: For process requests: the age of the quote acted on.
    rec_age_us: int = 0

    def trace_line(self, now_us: int) -> str:
        return (f"{now_us}\t{self.kind.value}\t{self.sender}\t{self.recipient}"
                f"\t{self.correlation_id}")
