"""Decentralized load balancing: node agents, broker agents, negotiation.

Every node runs an agent that keeps the node stable; brokers cache reported
node state and quote candidate targets.  An overloaded node picks tasks to
shed, asks a broker for up to fifteen scored candidate nodes, negotiates
acceptance directly with their agents, and commits the migration against a
final suitability check at the target.  Forced recommendations bypass the
availability check (never the constraint or total-capacity checks) so a
task with restrictive constraints cannot starve.

Execution is deterministic: a seeded single-threaded scheduler splits each
tick into rounds, delivering messages sent in one round at the start of the
next, and processing agents in sorted-id order.  A transfer takes one round.
Wall-clock never enters the simulation.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from ..workload.constraints import matches_attributes
from ..workload.state import CellState, NodeRuntime
from ..workload import events as ev
from .messages import (
    FORCED_FITNESS,
    ZERO_SCORE_FITNESS,
    CandidateNodeRecommendation,
    Message,
    MessageKind,
    NodeStats,
    TaskSnapshot,
)
from .scoring import rus_fits, score
from .selection import RemovalCandidate, select_candidate_services

MINUTE_US = 60 * 1_000_000
#: Candidate nodes per broker quote.
RECOMMENDATION_COUNT = 15
#: Cached nodes a broker scans per quote: initial placements, re-allocations.
INITIAL_SCAN_LIMIT = 200
REALLOC_SCAN_LIMIT = 2000
RECOMMENDATION_TTL_US = 3 * MINUTE_US
CACHE_ENTRY_TTL_US = 5 * MINUTE_US
#: Rounds a negotiation waits for a reply (a quote takes two; 3 rounds = 30 s at 6 a tick).
ACCEPTANCE_WAIT_ROUNDS = 3
#: Queued placements a broker serves per round.
PLACEMENTS_PER_ROUND = 50_000
#: A usage jump above this share of the node's total counts as a RUS spike.
RUS_SPIKE_THRESHOLD = 0.10
#: The run log gets the 1st, (N+1)th, ... decision record of each kind.
SAMPLE_RATES = {"selection": 50, "quote": 5000, "target": 5000}


@dataclass
class AgentConfig:
    """What a run chooses (``RunConfig.agent_config``); the protocol's fixed
    parameters are the constants above and in ``selection``."""

    tick_length_us: int = MINUTE_US
    rounds_per_tick: int = 6
    broker_count: int = 1
    #: Names in ``scoring.SCORERS``: initial sias(_gain), realloc sras(_gain).
    initial_scorer: str = "sias_gain"
    realloc_scorer: str = "sras"
    audit: bool = False


@dataclass(slots=True)
class BrokerCacheEntry:
    """A node's last reported availability (the cell holds the rest)."""

    available: tuple
    last_update: int


@dataclass(slots=True)
class InMigration:
    snapshot: TaskSnapshot
    source: Optional[str]
    forced: bool
    rec_age_us: int
    #: What the admission check established; audited against these because
    #: task attributes may legitimately change while the transfer runs.
    constraints_ok: bool = True
    capacity_ok: bool = True


@dataclass(slots=True)
class Negotiation:
    task_id: str
    state: str                      # quote | accepts | confirm
    recommendations: list = field(default_factory=list)
    accepted: dict = field(default_factory=dict)    # node_id -> NodeStats
    rejected: set = field(default_factory=set)
    attempted: set = field(default_factory=set)
    deadline_us: int = 0
    quote_corr: int = -1


@dataclass(slots=True)
class PlacementFlow:
    task_id: str
    recommendations: list
    next_index: int = 0


@dataclass
class TickMetrics:
    migrations_attempted: int = 0
    migrations_completed: int = 0
    collisions: int = 0
    stc_mb: float = 0.0
    placements: int = 0
    unschedulable: int = 0
    scs_runs: int = 0
    rus_spikes: int = 0
    san_restarts: int = 0


class Engine:
    """What the simulation runner drives, whatever the mode.

    Each tick the runner hands the window's events to ``apply_events`` and
    lets the engine act in ``run_tick``; every engine keeps its placements in
    the ``CellState`` it was given, so per-node loads are read from the cell
    (``CellState.node_table``), not from the engine.  ``log`` and
    ``message_trace`` are the run's line writers, set by the runner;
    snapshots leave them out, since they write to files open in this process
    only.
    """

    log: Optional[Callable[[str], None]] = None
    message_trace: Optional[Callable[[str], None]] = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("log", None)
        state.pop("message_trace", None)
        return state

    def apply_events(self, events: Iterable) -> None:
        raise NotImplementedError

    def run_tick(self) -> TickMetrics:
        raise NotImplementedError


def _stable_seed(*parts) -> int:
    return zlib.crc32(":".join(str(p) for p in parts).encode())


class NodeAgent:
    """Keeps one node stable; negotiates migrations for overloading tasks.

    The node's totals, attributes, residents and load sums live in the cell
    (``self.node``); the agent keeps only its reservations, negotiations and
    random stream.  A negotiation is only ever open for a task that sits on
    this node.
    """

    def __init__(self, node_id: str, engine: "AgentEngine"):
        self.id = node_id
        self.engine = engine
        dim = engine.dimension
        self.in_migrations: dict[str, InMigration] = {}
        self.incoming_used = np.zeros(dim)
        self.incoming_prod_req = np.zeros(dim)
        self.negotiations: dict[str, Negotiation] = {}
        self.rng = random.Random(_stable_seed(engine.seed, "na", node_id))

    # -- node-side accounting ---------------------------------------------------

    @property
    def node(self) -> NodeRuntime:
        return self.engine.cell.nodes[self.id]

    @property
    def total(self) -> np.ndarray:
        return np.asarray(self.node.total, dtype=np.float64)

    def overloaded(self) -> bool:
        return bool(np.any(self.node.used > self.total))

    def task_left(self, task_id: str) -> None:
        """A task on this node finished or migrated away: stop moving it."""
        self.negotiations.pop(task_id, None)

    def reserve(self, snapshot: TaskSnapshot, source: Optional[str], forced: bool,
                rec_age_us: int) -> None:
        self.in_migrations[snapshot.task_id] = InMigration(
            snapshot=snapshot, source=source, forced=forced, rec_age_us=rec_age_us,
            constraints_ok=matches_attributes(snapshot.constraints, self.node.attributes),
            capacity_ok=bool(np.all(np.asarray(snapshot.required) <= self.total)))
        self.engine.reservation_target[snapshot.task_id] = self.id
        self.incoming_used += np.asarray(snapshot.used)
        if snapshot.production:
            self.incoming_prod_req += np.asarray(snapshot.required)

    def release_reservation(self, task_id: str) -> Optional[InMigration]:
        reservation = self.in_migrations.pop(task_id, None)
        if reservation is not None:
            if self.engine.reservation_target.get(task_id) == self.id:
                self.engine.reservation_target.pop(task_id, None)
            self.incoming_used -= np.asarray(reservation.snapshot.used)
            if reservation.snapshot.production:
                self.incoming_prod_req -= np.asarray(reservation.snapshot.required)
        return reservation

    # -- admission checks ---------------------------------------------------------

    def projected_used(self, extra: np.ndarray) -> np.ndarray:
        return self.node.used + self.incoming_used + extra

    def admission_ok(self, snapshot: TaskSnapshot, forced: bool) -> bool:
        if not matches_attributes(snapshot.constraints, self.node.attributes):
            return False
        total = self.total
        if np.any(np.asarray(snapshot.required) > total):
            return False  # total capacity must suffice even when forced
        if forced:
            return True
        projected = self.projected_used(np.asarray(snapshot.used))
        if np.any(projected > total):
            return False
        prod = self.node.prod_required + self.incoming_prod_req
        if snapshot.production:
            prod = prod + np.asarray(snapshot.required)
        return rus_fits(total, prod)

    def stats(self) -> NodeStats:
        used = self.node.used
        return NodeStats(
            node_id=self.id,
            total=tuple(self.total),
            used=tuple(used),
            projected_used=tuple(used + self.incoming_used),
        )

    # -- protocol ------------------------------------------------------------------

    def handle(self, message: Message) -> None:
        kind = message.kind
        if kind is MessageKind.TASK_MIGRATION_REQUEST:
            self._handle_migration_request(message)
        elif kind is MessageKind.TASK_MIGRATION_PROCESS_REQUEST:
            self._handle_process_request(message)
        elif kind is MessageKind.GET_CANDIDATE_NODES_RESPONSE:
            self._handle_quote_response(message)
        elif kind in (MessageKind.TASK_MIGRATION_ACCEPTANCE_RESPONSE,
                      MessageKind.TASK_MIGRATION_REJECTION_RESPONSE):
            self._handle_accept_reject(message)
        elif kind is MessageKind.TASK_MIGRATION_PROCESS_ERROR_RESPONSE:
            self._handle_process_error(message)

    def _handle_migration_request(self, message: Message) -> None:
        # Acceptance only signals readiness; nothing is reserved yet.
        snapshot = message.task
        if self.admission_ok(snapshot, forced=False):
            kind = MessageKind.TASK_MIGRATION_ACCEPTANCE_RESPONSE
        else:
            kind = MessageKind.TASK_MIGRATION_REJECTION_RESPONSE
        self.engine.send(Message(
            kind=kind, sender=self.id, recipient=message.sender,
            correlation_id=message.correlation_id, task=snapshot,
            node_stats=self.stats()))

    def _handle_process_request(self, message: Message) -> None:
        snapshot = message.task
        engine = self.engine
        rec_age = engine.pending_rec_age.pop(message.correlation_id, 0)
        task = engine.cell.tasks.get(snapshot.task_id)
        duplicate = (snapshot.task_id in self.in_migrations
                     or snapshot.task_id in self.node.residents)
        if task is None or duplicate or not self.admission_ok(snapshot, message.forced):
            engine.send(Message(
                kind=MessageKind.TASK_MIGRATION_PROCESS_ERROR_RESPONSE,
                sender=self.id, recipient=message.sender,
                correlation_id=message.correlation_id, task=snapshot))
            return
        # Final check passed: resources are reserved and the transfer starts.
        source = None if message.initial else message.sender
        self.reserve(snapshot, source=source, forced=message.forced, rec_age_us=rec_age)
        if source is not None:
            # an initial placement commits when its broker gets the confirmation
            engine.transfers.append((self.id, snapshot.task_id))
        engine.send(Message(
            kind=MessageKind.TASK_MIGRATION_PROCESS_CONFIRMATION_RESPONSE,
            sender=self.id, recipient=message.sender,
            correlation_id=message.correlation_id, task=snapshot))

    def _handle_quote_response(self, message: Message) -> None:
        task_id = message.task.task_id if message.task else None
        negotiation = self.negotiations.get(task_id)
        if negotiation is None or negotiation.quote_corr != message.correlation_id:
            return
        negotiation.recommendations = list(message.recommendations)
        negotiation.state = "accepts"
        negotiation.deadline_us = self.engine.now_us + ACCEPTANCE_WAIT_ROUNDS * self.engine.round_us
        live = [r for r in negotiation.recommendations if not r.force_migration]
        if not live:
            self._select_target(negotiation)
            return
        for rec in live:
            corr = self.engine.next_correlation()
            self.engine.send(Message(
                kind=MessageKind.TASK_MIGRATION_REQUEST, sender=self.id,
                recipient=rec.node_id, correlation_id=corr, task=message.task))

    def _handle_accept_reject(self, message: Message) -> None:
        task_id = message.task.task_id if message.task else None
        negotiation = self.negotiations.get(task_id)
        if negotiation is None or negotiation.state != "accepts":
            return
        if message.kind is MessageKind.TASK_MIGRATION_ACCEPTANCE_RESPONSE:
            negotiation.accepted[message.sender] = message.node_stats
        else:
            negotiation.rejected.add(message.sender)
        expected = sum(1 for r in negotiation.recommendations if not r.force_migration)
        if len(negotiation.accepted) + len(negotiation.rejected) >= expected:
            self._select_target(negotiation)

    def _rescore(self, stats: NodeStats, snapshot: TaskSnapshot) -> float:
        before = np.asarray(stats.projected_used)[None, :]
        return float(score(self.engine.config.realloc_scorer, np.asarray(stats.total)[None, :],
                           before, before + np.asarray(snapshot.used))[0])

    def _select_target(self, negotiation: Negotiation) -> None:
        engine = self.engine
        task = engine.cell.tasks.get(negotiation.task_id)
        if task is None:
            self.negotiations.pop(negotiation.task_id, None)
            return
        snapshot = engine.snapshot_task(negotiation.task_id)
        now = engine.now_us
        live = [r for r in negotiation.recommendations
                if not r.expired(now, RECOMMENDATION_TTL_US) and r.node_id not in negotiation.attempted]
        regular = [r for r in live if not r.force_migration and r.node_id in negotiation.accepted]
        forced = [r for r in live if r.force_migration]

        choice: Optional[CandidateNodeRecommendation] = None
        if regular:
            weights = [self._rescore(negotiation.accepted[r.node_id], snapshot)
                       for r in regular]
            positive = [(r, w) for r, w in zip(regular, weights) if w > 0]
            if positive:
                recs, ws = zip(*positive)
                choice = self.rng.choices(recs, weights=ws, k=1)[0]
            else:
                choice = self.rng.choice(regular)
        elif forced:
            # forced candidates only once every regular attempt failed
            choice = self.rng.choice(forced)
        if choice is None:
            # Nothing left: negotiation dies; the overload check next tick
            # restarts the whole selection from scratch.
            self.negotiations.pop(negotiation.task_id, None)
            engine.metrics.san_restarts += 1
            return
        negotiation.attempted.add(choice.node_id)
        negotiation.state = "confirm"
        negotiation.deadline_us = now + ACCEPTANCE_WAIT_ROUNDS * engine.round_us
        corr = engine.next_correlation()
        engine.pending_rec_age[corr] = now - choice.created_at
        engine.metrics.migrations_attempted += 1
        engine.sample_target_selection(self, negotiation, snapshot, live, choice)
        engine.send(Message(
            kind=MessageKind.TASK_MIGRATION_PROCESS_REQUEST, sender=self.id,
            recipient=choice.node_id, correlation_id=corr, task=snapshot,
            forced=choice.force_migration))

    def _handle_process_error(self, message: Message) -> None:
        task_id = message.task.task_id
        negotiation = self.negotiations.get(task_id)
        self.engine.metrics.collisions += 1
        if negotiation is None or negotiation.state != "confirm":
            return
        negotiation.state = "accepts"
        self._select_target(negotiation)

    # -- per-round behavior ---------------------------------------------------------

    def on_round(self, round_index: int) -> None:
        engine = self.engine
        if round_index == 0:
            self._report_status()
            self._run_selection_if_needed()
        if round_index > 0 and self.negotiations:
            for negotiation in list(self.negotiations.values()):
                if engine.now_us < negotiation.deadline_us:
                    continue
                if negotiation.state == "accepts":
                    self._select_target(negotiation)
                else:
                    # quote or confirm never answered: give up, the next
                    # overload check restarts the whole flow
                    self.negotiations.pop(negotiation.task_id, None)
                    engine.metrics.san_restarts += 1

    def _report_status(self) -> None:
        engine = self.engine
        broker = engine.broker_for(self.rng)
        engine.send(Message(
            kind=MessageKind.STATUS_REPORT, sender=self.id, recipient=broker,
            correlation_id=engine.next_correlation(), node_stats=self.stats()))

    def _compulsory_tasks(self) -> list[str]:
        out = []
        total = self.total
        for task_id in self.node.residents:
            task = self.engine.cell.tasks[task_id]
            if task.constraints and not matches_attributes(task.constraints, self.node.attributes):
                out.append(task_id)
            elif np.any(np.asarray(task.required) > total):
                out.append(task_id)
        return sorted(out)

    def _run_selection_if_needed(self) -> None:
        engine = self.engine
        if self.negotiations:
            return  # let in-flight departures resolve before selecting more
        compulsory = self._compulsory_tasks()
        if not self.overloaded() and not compulsory:
            return
        movable = sorted(self.node.residents)
        removable = []
        for task_id in movable:
            task = engine.cell.tasks[task_id]
            removable.append(RemovalCandidate(
                task_id=task_id,
                used=np.asarray(task.used, dtype=np.float64),
                migration_cost_mb=task.migration_cost_mb,
                production=task.production,
            ))
        if not removable:
            return
        result = select_candidate_services(
            total=self.total,
            used=self.node.used,
            removable=removable,
            compulsory_ids=compulsory,
            rng=self.rng,
        )
        engine.metrics.scs_runs += 1
        if result.alert and engine.log is not None:
            engine.log(f"ALERT node {self.id}: no removable subset de-overloads")
        engine.sample_selection(self, result, removable)
        for task_id in result.task_ids:
            self._start_negotiation(task_id)

    def _start_negotiation(self, task_id: str) -> None:
        if task_id in self.negotiations:
            return
        engine = self.engine
        corr = engine.next_correlation()
        negotiation = Negotiation(
            task_id=task_id, state="quote", quote_corr=corr,
            deadline_us=engine.now_us + ACCEPTANCE_WAIT_ROUNDS * engine.round_us)
        self.negotiations[task_id] = negotiation
        broker = engine.broker_for(self.rng)
        engine.send(Message(
            kind=MessageKind.GET_CANDIDATE_NODES_REQUEST, sender=self.id,
            recipient=broker, correlation_id=corr,
            task=engine.snapshot_task(task_id), initial=False))


class BrokerAgent:
    """Caches reported node state; quotes candidates; places new tasks."""

    def __init__(self, broker_id: str, engine: "AgentEngine"):
        self.id = broker_id
        self.engine = engine
        self.cache: dict[str, BrokerCacheEntry] = {}
        self.pending: deque[str] = deque()
        #: failed placements wait here until the next tick, so one stuck task
        #: cannot spin the whole per-round budget on itself
        self.retry_queue: list[str] = []
        self.in_flight: dict[int, PlacementFlow] = {}
        self.rng = random.Random(_stable_seed(engine.seed, "ba", broker_id))
        self.np_rng = np.random.Generator(np.random.PCG64(_stable_seed(engine.seed, "ba-np", broker_id)))
        self._index_dirty = True
        self._index: Optional[tuple] = None
        self._matches: dict[tuple, np.ndarray] = {}  # constraints -> index entries matching

    # -- cache ------------------------------------------------------------------

    def update_cache(self, stats: NodeStats, now: int) -> None:
        if stats.node_id not in self.engine.cell.nodes:
            return  # a report delivered after its node left the cell
        self.cache[stats.node_id] = BrokerCacheEntry(
            available=tuple(t - u for t, u in zip(stats.total, stats.used)),
            last_update=now)
        self._index_dirty = True

    def evict_stale(self, now: int) -> None:
        self._matches.clear()  # events between ticks may change node attributes
        for node_id, entry in list(self.cache.items()):
            if now - entry.last_update > CACHE_ENTRY_TTL_US or node_id not in self.engine.cell.nodes:
                del self.cache[node_id]
                self._index_dirty = True

    def _rebuild_index(self) -> None:
        entries = sorted(self.cache.items())
        ids = [node_id for node_id, _ in entries]
        nodes = [self.engine.cell.nodes[node_id] for node_id in ids]
        dim = self.engine.dimension
        totals = np.array([node.total for node in nodes]).reshape(-1, dim)
        avail = np.array([entry.available for _, entry in entries]).reshape(-1, dim)
        attrs = [node.attributes for node in nodes]
        id_pos = {node_id: i for i, node_id in enumerate(ids)}
        self._index = (ids, totals, np.maximum(totals - avail, 0.0), attrs, id_pos)
        self._matches.clear()
        self._index_dirty = False

    # -- quoting -----------------------------------------------------------------

    def compute_recommendations(self, snapshot: TaskSnapshot, initial: bool,
                                exclude: Optional[str]) -> Optional[list]:
        """Up to ``RECOMMENDATION_COUNT`` candidates for the task, in three
        bands: nodes drawn by score from the scanned pool, zero-score pool
        nodes with room, then forced nodes with the total capacity (pool
        nodes without the room, then unscanned ones).  None if no cached
        node other than ``exclude`` matches the task's constraints."""
        engine = self.engine
        if self._index_dirty:
            self._rebuild_index()
        ids, totals, used, attrs, id_pos = self._index
        if not ids:
            return None
        eligible = self.np_rng.permutation(len(ids))  # fresh shuffle per request
        if exclude in id_pos:
            eligible = eligible[eligible != id_pos[exclude]]
        if snapshot.constraints:
            match = self._matches.get(snapshot.constraints)
            if match is None:
                match = self._matches[snapshot.constraints] = np.array(
                    [matches_attributes(snapshot.constraints, a) for a in attrs], dtype=bool)
            eligible = eligible[match[eligible]]
        pool = eligible[:INITIAL_SCAN_LIMIT if initial else REALLOC_SCAN_LIMIT]
        if not len(pool):
            return None

        required = np.asarray(snapshot.required)
        task_vec = required if initial else np.asarray(snapshot.used)
        pool_totals, pool_used = totals[pool], used[pool]
        scorer = engine.config.initial_scorer if initial else engine.config.realloc_scorer
        scores = score(scorer, pool_totals, pool_used, pool_used + task_vec)
        positive = scores > 0.0
        scored, fitness = pool[positive], scores[positive]
        picks: list[tuple] = []  # (index, fitness, forced)
        if len(scored):
            drawn = self.np_rng.choice(len(scored), size=min(RECOMMENDATION_COUNT, len(scored)),
                                       replace=False, p=fitness / fitness.sum())
            picks = [(scored[i], float(fitness[i]), False)
                     for i in sorted(drawn, key=lambda i: (-fitness[i], ids[scored[i]]))]
        if len(picks) < RECOMMENDATION_COUNT:
            # zero-score nodes with room still beat any forced entry: a flat
            # score never justifies skipping availability checks
            room = np.all(pool_totals - pool_used >= task_vec, axis=1)
            picks += [(i, ZERO_SCORE_FITNESS, False)
                      for i in pool[~positive & room][:RECOMMENDATION_COUNT]]
            if len(picks) < RECOMMENDATION_COUNT:
                # last resort: the pool nodes left, then the unscanned
                # eligible ones, that have the total capacity for the task
                rest = np.concatenate((pool[~positive & ~room], eligible[len(pool):]))
                capable = rest[np.all(required <= totals[rest], axis=1)]
                picks += [(i, FORCED_FITNESS, True) for i in capable[:RECOMMENDATION_COUNT]]
        return [CandidateNodeRecommendation(
                    node_id=ids[i], node_available_resources=tuple(totals[i] - used[i]),
                    fitness_value=fit, force_migration=forced, created_at=engine.now_us)
                for i, fit, forced in picks[:RECOMMENDATION_COUNT]]

    # -- protocol ------------------------------------------------------------------

    def handle(self, message: Message) -> None:
        kind = message.kind
        if kind is MessageKind.STATUS_REPORT:
            self.update_cache(message.node_stats, self.engine.now_us)
        elif kind is MessageKind.GET_CANDIDATE_NODES_REQUEST:
            recommendations = self.compute_recommendations(
                message.task, initial=message.initial, exclude=message.sender)
            self.engine.sample_quote(self, message, recommendations)
            if recommendations is None:
                self.engine.report_unschedulable(message.task.task_id)
                recommendations = []
            self.engine.send(Message(
                kind=MessageKind.GET_CANDIDATE_NODES_RESPONSE, sender=self.id,
                recipient=message.sender, correlation_id=message.correlation_id,
                task=message.task, recommendations=tuple(recommendations)))
        elif kind is MessageKind.TASK_MIGRATION_PROCESS_CONFIRMATION_RESPONSE:
            flow = self.in_flight.pop(message.correlation_id, None)
            if flow is not None:
                self.engine.commit_initial_placement(flow.task_id, message.sender)
        elif kind is MessageKind.TASK_MIGRATION_PROCESS_ERROR_RESPONSE:
            flow = self.in_flight.pop(message.correlation_id, None)
            if flow is not None:
                self.engine.metrics.collisions += 1
                flow.next_index += 1
                self._try_placement(flow)

    def enqueue_placement(self, task_id: str) -> None:
        self.pending.append(task_id)

    def flush_retries(self) -> None:
        self.pending.extend(self.retry_queue)
        self.retry_queue.clear()

    def on_round(self, round_index: int) -> None:
        served = 0
        while self.pending and served < PLACEMENTS_PER_ROUND:
            task_id = self.pending.popleft()
            served += 1
            if task_id not in self.engine.cell.tasks:
                continue
            if task_id in self.engine.cell.placement:
                continue
            snapshot = self.engine.snapshot_task(task_id)
            recommendations = self.compute_recommendations(snapshot, initial=True, exclude=None)
            if recommendations is None:
                self.engine.report_unschedulable(task_id)
            if not recommendations:
                self.engine.retry_placement(task_id, self.rng)
                continue
            flow = PlacementFlow(task_id=task_id, recommendations=recommendations)
            self._try_placement(flow)

    def _try_placement(self, flow: PlacementFlow) -> None:
        engine = self.engine
        while flow.next_index < len(flow.recommendations):
            rec = flow.recommendations[flow.next_index]
            if rec.expired(engine.now_us, RECOMMENDATION_TTL_US):
                flow.next_index += 1
                continue
            corr = engine.next_correlation()
            self.in_flight[corr] = flow
            engine.pending_rec_age[corr] = engine.now_us - rec.created_at
            engine.send(Message(
                kind=MessageKind.TASK_MIGRATION_PROCESS_REQUEST, sender=self.id,
                recipient=rec.node_id, correlation_id=corr,
                task=engine.snapshot_task(flow.task_id),
                forced=rec.force_migration, initial=True))
            return
        # every candidate failed: back to the pending queue for fresh quotes
        engine.retry_placement(flow.task_id, self.rng)


@dataclass(slots=True)
class AuditRecord:
    task_id: str
    source: Optional[str]
    target: str
    forced: bool
    initial: bool
    constraints_ok: bool
    capacity_ok: bool
    stable_after: bool
    rus_after: bool
    rec_age_us: int
    ttl_us: int
    cost_mb: float = 0.0


class AgentEngine(Engine):
    """Deterministic round-based scheduler for the agent network."""

    def __init__(self, cell: CellState, config: AgentConfig, seed: int,
                 start_us: int = 0):
        self.cell = cell
        self.config = config
        self.seed = seed
        self.dimension = cell.catalog.dimension
        self.now_us = start_us
        self.round_us = config.tick_length_us // config.rounds_per_tick
        self.rng = random.Random(_stable_seed(seed, "engine"))
        self.agents: dict[str, NodeAgent] = {}
        self.brokers: dict[str, BrokerAgent] = {}
        for index in range(config.broker_count):
            broker_id = f"broker-{index:03d}"
            self.brokers[broker_id] = BrokerAgent(broker_id, self)
        self._broker_ids = sorted(self.brokers)
        self._inbox: dict[str, deque] = {}
        self._outbox: list[Message] = []
        self._correlation = 0
        #: (target, task) of the transfers started this round.  A transfer
        #: completes at the next round's start (the last round's at the tick's
        #: end), so ``task_left`` closes the source's negotiation before the
        #: source hears of it, and no transfer is open between ticks.
        self.transfers: list[tuple[str, str]] = []
        self.metrics = TickMetrics()
        self.pending_rec_age: dict[int, int] = {}
        self.audit_log: list[AuditRecord] = []
        self.unschedulable: set[str] = set()
        self._sample_counters = dict.fromkeys(SAMPLE_RATES, 0)
        #: task -> the node holding its reservation, so task removal is O(1)
        self.reservation_target: dict[str, str] = {}
        self._agent_order: Optional[list[str]] = None
        for node_id in sorted(cell.nodes):
            self.agents[node_id] = NodeAgent(node_id, self)
            self._report_to_brokers(node_id)

    def agent_order(self) -> list[str]:
        if self._agent_order is None:
            self._agent_order = sorted(self.agents)
        return self._agent_order

    def _report_to_brokers(self, node_id: str) -> None:
        # A joining node (or a direct placement) reaches the broker caches
        # right away, not with the node's next periodic status report.
        agent = self.agents[node_id]
        for broker in self.brokers.values():
            broker.update_cache(agent.stats(), self.now_us)

    # -- plumbing ---------------------------------------------------------------

    def next_correlation(self) -> int:
        self._correlation += 1
        return self._correlation

    def broker_for(self, rng) -> str:
        if len(self._broker_ids) == 1:
            return self._broker_ids[0]
        return rng.choice(self._broker_ids)

    def send(self, message: Message) -> None:
        self._outbox.append(message)
        if self.message_trace is not None:
            self.message_trace(message.trace_line(self.now_us))

    def snapshot_task(self, task_id: str) -> TaskSnapshot:
        task = self.cell.tasks[task_id]
        return TaskSnapshot(
            task_id=task_id,
            required=tuple(task.required),
            used=tuple(task.used) if not task.unstarted else tuple([0.0] * self.dimension),
            production=task.production,
            unstarted=task.unstarted,
            constraints=task.constraints,
            migration_cost_mb=task.migration_cost_mb,
        )

    def report_unschedulable(self, task_id: str) -> None:
        if task_id not in self.unschedulable:
            self.unschedulable.add(task_id)
            self.metrics.unschedulable += 1
            if self.log is not None:
                self.log(f"ERROR task {task_id} unschedulable: no matching node in cache")

    def retry_placement(self, task_id: str, rng) -> None:
        broker = self.brokers[self.broker_for(rng)]
        broker.retry_queue.append(task_id)

    # -- state transitions -------------------------------------------------------

    def place_directly(self, task_id: str, node_id: str) -> None:
        """Replay-style placement bypassing negotiation (scenario setup);
        broker caches learn the new load immediately."""
        self.cell.place(task_id, node_id)
        self._report_to_brokers(node_id)

    def commit_initial_placement(self, task_id: str, node_id: str) -> None:
        agent = self.agents.get(node_id)
        if agent is None or task_id not in self.cell.tasks:
            return
        reservation = agent.release_reservation(task_id)
        self.cell.place(task_id, node_id)
        self.metrics.placements += 1
        if self.config.audit:
            self._audit(task_id, None, agent, reservation, initial=True)

    def _complete_transfers(self) -> None:
        transfers, self.transfers = sorted(self.transfers), []
        for node_id, task_id in transfers:
            # nodes, tasks and reservations only leave between ticks
            target = self.agents[node_id]
            reservation = target.release_reservation(task_id)
            source = self.agents.get(reservation.source)
            if source is not None and task_id in source.node.residents:
                source.task_left(task_id)
            self.cell.place(task_id, node_id)
            task = self.cell.tasks[task_id]
            self.metrics.migrations_completed += 1
            self.metrics.stc_mb += task.migration_cost_mb
            if self.config.audit:
                self._audit(task_id, reservation.source, target, reservation, initial=False)

    def _audit(self, task_id: str, source: Optional[str], target: NodeAgent,
               reservation: Optional[InMigration], initial: bool) -> None:
        forced = reservation.forced if reservation is not None else False
        self.audit_log.append(AuditRecord(
            task_id=task_id,
            source=source,
            target=target.id,
            forced=forced,
            initial=initial,
            constraints_ok=reservation.constraints_ok if reservation is not None else True,
            capacity_ok=reservation.capacity_ok if reservation is not None else True,
            stable_after=not target.overloaded(),
            rus_after=rus_fits(target.total, target.node.prod_required),
            rec_age_us=reservation.rec_age_us if reservation is not None else 0,
            ttl_us=RECOMMENDATION_TTL_US,
            cost_mb=0.0 if initial else self.cell.tasks[task_id].migration_cost_mb,
        ))

    # -- workload events -----------------------------------------------------------

    def apply_events(self, batch) -> None:
        for event in batch:
            self._apply_event(event)

    def _apply_event(self, event) -> None:
        cell = self.cell
        kind = event.kind
        if kind is ev.EventKind.ADD_NODE:
            cell.apply(event)
            # a node added again keeps its agent, and so its reservations
            if event.node_id not in self.agents:
                self.agents[event.node_id] = NodeAgent(event.node_id, self)
                self._agent_order = None
            self._report_to_brokers(event.node_id)
        elif kind is ev.EventKind.REMOVE_NODE:
            self._remove_node(event)
        elif kind is ev.EventKind.ADD_TASK:
            cell.apply(event)
            broker = self.brokers[self.broker_for(self.rng)]
            broker.enqueue_placement(event.task_id)
        elif kind is ev.EventKind.REMOVE_TASK:
            task_id = event.task_id
            # its negotiation, if any, is open on the node it sits on
            owner = self.agents.get(cell.placement.get(task_id))
            if owner is not None:
                owner.task_left(task_id)
            target = self.agents.get(self.reservation_target.get(task_id))
            if target is not None:
                target.release_reservation(task_id)
            cell.apply(event)
        elif kind is ev.EventKind.UPDATE_TASK_USED:
            task = cell.tasks.get(event.task_id)
            before = task.used if task is not None else None
            cell.apply(event)
            agent = self.agents.get(cell.placement.get(event.task_id))
            if before is not None and agent is not None:
                # a usage jump above the threshold share of the node is a RUS spike
                delta = np.asarray(task.used) - np.asarray(before)
                total = agent.total
                jump = np.divide(delta, total, out=np.zeros_like(delta), where=total > 0)
                if np.any(jump > RUS_SPIKE_THRESHOLD):
                    self.metrics.rus_spikes += 1
        else:
            cell.apply(event)

    def _remove_node(self, event) -> None:
        cell = self.cell
        agent = self.agents.pop(event.node_id, None)
        self._agent_order = None
        displaced: list[str] = []
        if agent is not None:
            displaced = sorted(agent.node.residents)
            # inbound reservations die with the node; their sources retry
            for task_id in list(agent.in_migrations):
                reservation = agent.release_reservation(task_id)
                if reservation and reservation.source in self.agents:
                    self.agents[reservation.source].task_left(task_id)
        cell.apply(event)
        for broker in self.brokers.values():
            if broker.cache.pop(event.node_id, None) is not None:
                broker._index_dirty = True
        # displaced tasks re-enter scheduling unless already mid-migration
        for task_id in displaced:
            if task_id in cell.tasks and task_id not in self.reservation_target:
                self.brokers[self.broker_for(self.rng)].enqueue_placement(task_id)

    # -- scheduler -------------------------------------------------------------------

    def run_tick(self) -> TickMetrics:
        """Advance one tick (events must have been applied by the caller)."""
        self.metrics = TickMetrics()
        for broker in self.brokers.values():
            broker.evict_stale(self.now_us)
            broker.flush_retries()
        self._gossip()
        for round_index in range(self.config.rounds_per_tick):
            self._run_round(round_index)
            self.now_us += self.round_us
        self._complete_transfers()
        return self.metrics

    def _gossip(self) -> None:
        if len(self.brokers) < 2:
            return
        merged: dict[str, BrokerCacheEntry] = {}
        for broker in self.brokers.values():
            for node_id, entry in broker.cache.items():
                current = merged.get(node_id)
                if current is None or entry.last_update > current.last_update:
                    merged[node_id] = entry
        for broker in self.brokers.values():
            for node_id, entry in merged.items():
                broker.cache[node_id] = entry
            broker._index_dirty = True

    def _run_round(self, round_index: int) -> None:
        self._complete_transfers()
        # deliver everything sent last round
        for message in self._outbox:
            self._inbox.setdefault(message.recipient, deque()).append(message)
        self._outbox = []
        for recipient in sorted(self._inbox):
            queue = self._inbox[recipient]
            agent = self.brokers.get(recipient) or self.agents.get(recipient)
            if agent is None:
                continue
            # monitoring data is absorbed before any request is answered;
            # per-sender relative order is preserved (stable partition)
            status = [m for m in queue if m.kind is MessageKind.STATUS_REPORT]
            rest = [m for m in queue if m.kind is not MessageKind.STATUS_REPORT]
            for message in status:
                agent.handle(message)
            for message in rest:
                agent.handle(message)
        self._inbox = {}
        for broker_id in self._broker_ids:
            self.brokers[broker_id].on_round(round_index)
        for node_id in self.agent_order():
            agent = self.agents.get(node_id)
            if agent is not None:
                agent.on_round(round_index)

    # -- metrics -----------------------------------------------------------------------

    def overloaded_count(self) -> int:
        return sum(1 for agent in self.agents.values() if agent.overloaded())

    def reservation_invariant_holds(self) -> bool:
        """Every reserved task is reserved on exactly one target."""
        reserved: dict[str, int] = {}
        for agent in self.agents.values():
            for task_id in agent.in_migrations:
                reserved[task_id] = reserved.get(task_id, 0) + 1
        return all(count == 1 for count in reserved.values())

    # -- decision sampling ----------------------------------------------------------

    def _sampled(self, kind: str) -> bool:
        """Count one decision of this kind; True if its record is logged."""
        if self.log is None:
            return False
        self._sample_counters[kind] += 1
        rate = SAMPLE_RATES[kind]
        return self._sample_counters[kind] % rate == 1 % rate

    def sample_selection(self, agent: NodeAgent, result, removable) -> None:
        if not self._sampled("selection"):
            return
        lines = [f"SAMPLE: selected overloading tasks for node [{agent.id}]",
                 f"Node total resources = [{', '.join(f'{v:.10f}' for v in agent.total)}]",
                 f"Node used resources (all tasks) = [{', '.join(f'{v:.10f}' for v in agent.node.used)}]"]
        selected = set(result.task_ids)
        for candidate in removable:
            task = self.cell.tasks.get(candidate.task_id)
            if task is None:
                continue
            star = "* " if candidate.task_id in selected else ""
            flags = " (PROD)" if task.production else ""
            lines.append(
                f"{star}Task [{candidate.task_id}]{flags} Priority={task.priority} "
                f"Required resources=[{', '.join(f'{v:.10f}' for v in task.required)}] "
                f"Used resources=[{', '.join(f'{v:.10f}' for v in task.used)}] "
                f"Migration cost = {task.migration_cost_mb:.2f} [MB]")
        cost = sum(self.cell.tasks[t].migration_cost_mb for t in result.task_ids
                   if t in self.cell.tasks)
        lines.append(f"Total migration cost (selected tasks) = {cost} [MB]")
        self.log("\n".join(lines))

    def sample_quote(self, broker: BrokerAgent, message: Message, recommendations) -> None:
        if not self._sampled("quote"):
            return
        lines = [f"SAMPLE: candidate nodes recommendations for migration-out of task:",
                 f"Task [{message.task.task_id}] Required resources="
                 f"[{', '.join(f'{v:.10f}' for v in message.task.required)}] "
                 f"Migration cost = {message.task.migration_cost_mb:.2f} [MB]",
                 f"Source node: [{message.sender}]"]
        for rec in recommendations or ():
            lines.append(rec.log_format())
        self.log("\n".join(lines))

    def sample_target_selection(self, agent: NodeAgent, negotiation, snapshot,
                                live, choice) -> None:
        if not self._sampled("target"):
            return
        lines = [f"SAMPLE: accepted recommendations for migration-out of task:",
                 f"Task [{snapshot.task_id}] Migration cost = {snapshot.migration_cost_mb:.2f} [MB]",
                 f"Source node: [{agent.id}]",
                 "All non-expired recommendations (* selected):"]
        for rec in live:
            star = "* " if rec is choice else ""
            lines.append(star + rec.log_format())
        self.log("\n".join(lines))
