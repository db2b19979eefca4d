"""Decentralized agent-based load balancing."""

from .engine import (
    AgentConfig,
    AgentEngine,
    AuditRecord,
    BrokerAgent,
    NodeAgent,
    TickMetrics,
)
from .messages import (
    FORCED_FITNESS,
    Message,
    MessageKind,
    NodeStats,
    Quote,
    TaskSnapshot,
)
from .scoring import (
    INITIAL_PARAMS,
    REALLOC_PARAMS,
    STA_CUTOFF,
    AllocationClass,
    ScoringParams,
    allocation_score_vec,
    asr_metrics,
    classify_vec,
    rus_fits,
)
from .selection import SelectionResult, select_candidate_services

__all__ = [
    "AgentConfig", "AgentEngine", "AuditRecord", "BrokerAgent",
    "NodeAgent", "TickMetrics",
    "FORCED_FITNESS", "Message", "MessageKind", "NodeStats", "Quote", "TaskSnapshot",
    "INITIAL_PARAMS", "REALLOC_PARAMS", "STA_CUTOFF", "AllocationClass",
    "ScoringParams", "allocation_score_vec", "asr_metrics", "classify_vec", "rus_fits",
    "SelectionResult", "select_candidate_services",
]
