"""Decentralized load balancing: node agents, broker agents, negotiation.

Every node runs an agent that keeps the node stable; brokers cache reported
node state and quote candidate targets.  An overloaded node picks tasks to
shed, asks a broker for up to fifteen scored candidate nodes, negotiates
acceptance directly with their agents, and commits the migration against a
final suitability check at the target.  A quote's forced entries bypass
the availability check (never the constraint or total-capacity checks) so
a task with restrictive constraints cannot starve.  Which nodes a
constraint set admits is the cell's to say: brokers read its rows
(``CellState.eligible``), node agents ask about one node (``admits``).

Execution is deterministic: a seeded single-threaded scheduler splits each
tick into rounds, delivering messages sent in one round at the start of the
next, and processing agents in sorted-id order.  Each message goes into its
recipient's mailbox as it is sent; a round delivers the mailboxes in
recipient-id order, each in send order, and mail to a node that leaves the
cell is dropped with its mailbox.  A broker applies all of a round's status
reports before it answers any request: it answers the round's quote
requests as one batch, from the cache the reports have just fixed, and
replies in request order.  A transfer takes one round, an initial
placement's as a migration's: each commits at the next round's start (the
last round's at the tick's end), so no reservation outlives its tick.
Wall-clock never enters the simulation.  Node and task vectors are the
cell's float64 arrays, used without conversion.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass, field
from operator import add, gt, le
from typing import Callable, Iterable, Optional

import numpy as np

from ..workload.anomalies import AnomalySink
from ..workload.state import CellState, NodeRuntime
from ..workload import events as ev
from .messages import (
    FORCED_FITNESS,
    ZERO_SCORE_FITNESS,
    Message,
    MessageKind,
    NodeStats,
    Quote,
    TaskSnapshot,
)
from .scoring import own_scores, rus_fits, score
from .selection import select_candidate_services

#: Candidate nodes per broker quote.
RECOMMENDATION_COUNT = 15
#: Cached nodes a broker scans per quote: initial placements, re-allocations.
INITIAL_SCAN_LIMIT = 200
REALLOC_SCAN_LIMIT = 2000
#: Pool rows a broker scores in one batch: a round's quotes are drawn,
#: scored and cut together, this many rows at a time.
QUOTE_BATCH_ROWS = 16_384
#: Ticks a broker quote stays valid (a regular target is chosen three rounds on).
RECOMMENDATION_TTL_TICKS = 3
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

    tick_length_us: int = ev.MINUTE_US
    rounds_per_tick: int = 6
    broker_count: int = 1
    #: Names in ``scoring.SCORERS``: initial sias(_gain), realloc sras(_gain).
    initial_scorer: str = "sias_gain"
    realloc_scorer: str = "sras"


@dataclass(slots=True)
class InMigration:
    snapshot: TaskSnapshot
    source: Optional[str]
    forced: bool
    rec_age_us: int


@dataclass(slots=True)
class Negotiation:
    task_id: str
    state: str                      # quote | accepts | confirm
    quote: Optional[Quote] = None
    accepted: dict = field(default_factory=dict)    # node_id -> NodeStats
    rejected: set = field(default_factory=set)
    attempted: set = field(default_factory=set)
    deadline_us: int = 0
    quote_corr: int = -1


@dataclass(slots=True)
class PlacementFlow:
    task_id: str
    quote: Quote
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
    ``message_trace`` are the run's line writers, ``audit`` its record
    writer and ``sink`` its anomaly sink, set by the runner; snapshots leave
    them out, since they write to files open in this process only (the
    runner keeps the sink's counts).
    """

    log: Optional[Callable[[str], None]] = None
    message_trace: Optional[Callable[[str], None]] = None
    audit: Optional[Callable[[AuditRecord], None]] = None
    sink: Optional[AnomalySink] = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for writer in ("log", "message_trace", "audit", "sink"):
            state.pop(writer, None)
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
    random stream.  The stream is seeded on the agent's first draw, since
    most agents never draw: an agent draws only to shed tasks or to pick
    among several brokers.  A negotiation is only ever open for a task that
    sits on this node.
    """

    def __init__(self, node_id: str, engine: "AgentEngine"):
        self.id = node_id
        self.engine = engine
        dim = engine.dimension
        self.in_migrations: dict[str, InMigration] = {}
        self.incoming_used = np.zeros(dim)
        self.incoming_prod_req = np.zeros(dim)
        self.negotiations: dict[str, Negotiation] = {}
        self._rng: Optional[random.Random] = None

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(_stable_seed(self.engine.seed, "na", self.id))
        return self._rng

    def broker(self) -> str:
        """The broker this agent writes to; a lone broker takes no draw."""
        ids = self.engine._broker_ids
        return ids[0] if len(ids) == 1 else self.engine.broker_for(self.rng)

    # -- node-side accounting ---------------------------------------------------

    @property
    def node(self) -> NodeRuntime:
        return self.engine.cell.nodes[self.id]

    def overloaded(self) -> bool:
        node = self.node
        return any(used > cap for used, cap in zip(node.used.tolist(), node.total.tolist()))

    def task_left(self, task_id: str) -> None:
        """A task on this node finished or migrated away: stop moving it."""
        self.negotiations.pop(task_id, None)

    def reserve(self, snapshot: TaskSnapshot, source: Optional[str], forced: bool,
                rec_age_us: int) -> None:
        self.in_migrations[snapshot.task_id] = InMigration(
            snapshot=snapshot, source=source, forced=forced, rec_age_us=rec_age_us)
        self.incoming_used += snapshot.used
        if snapshot.production:
            self.incoming_prod_req += snapshot.required

    def release_reservation(self, task_id: str) -> InMigration:
        reservation = self.in_migrations.pop(task_id)
        self.incoming_used -= reservation.snapshot.used
        if reservation.snapshot.production:
            self.incoming_prod_req -= reservation.snapshot.required
        return reservation

    # -- admission checks ---------------------------------------------------------

    def admission_ok(self, snapshot: TaskSnapshot, forced: bool) -> bool:
        # element by element on Python floats: numpy's per-call cost dwarfs
        # a few comparisons.  Loads add up as (used + incoming) + task, and
        # the RUS test is ``rus_fits``'s ``all(<=)``, NaN outcomes included.
        node = self.node
        if snapshot.constraints and not self.engine.cell.admits(snapshot.constraints, self.id):
            return False
        total = node.total.tolist()
        required = snapshot.required.tolist()
        if any(map(gt, required, total)):
            return False  # total capacity must suffice even when forced
        if forced:
            return True
        load = map(add, map(add, node.used.tolist(), self.incoming_used.tolist()),
                   snapshot.used.tolist())
        if any(map(gt, load, total)):
            return False
        prod = map(add, node.prod_required.tolist(), self.incoming_prod_req.tolist())
        if snapshot.production:
            prod = map(add, prod, required)
        return all(map(le, prod, total))

    def stats(self, projected: bool = False) -> NodeStats:
        """The node's totals and one load: its used sum (a copy, as the fold
        updates the sum in place), or when ``projected`` the used sum plus
        the reservations of the transfers coming in."""
        node = self.node
        load = node.used + self.incoming_used if projected else node.used.copy()
        return NodeStats(node_id=self.id, total=node.total, load=load)

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
            kind, stats = MessageKind.TASK_MIGRATION_ACCEPTANCE_RESPONSE, self.stats(projected=True)
        else:
            kind, stats = MessageKind.TASK_MIGRATION_REJECTION_RESPONSE, None
        self.engine.send(Message(
            kind=kind, sender=self.id, recipient=message.sender,
            correlation_id=message.correlation_id, task=snapshot, node_stats=stats))

    def _handle_process_request(self, message: Message) -> None:
        snapshot = message.task
        engine = self.engine
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
        self.reserve(snapshot, source=source, forced=message.forced, rec_age_us=message.rec_age_us)
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
        quote = negotiation.quote = message.quote
        negotiation.state = "accepts"
        negotiation.deadline_us = self.engine.now_us + ACCEPTANCE_WAIT_ROUNDS * self.engine.round_us
        if quote is None or not quote.regular:
            self._select_target(negotiation)
            return
        for node_id in quote.node_ids[:quote.regular]:
            corr = self.engine.next_correlation()
            self.engine.send(Message(
                kind=MessageKind.TASK_MIGRATION_REQUEST, sender=self.id,
                recipient=node_id, correlation_id=corr, task=message.task))

    def _handle_accept_reject(self, message: Message) -> None:
        task_id = message.task.task_id if message.task else None
        negotiation = self.negotiations.get(task_id)
        if negotiation is None or negotiation.state != "accepts":
            return
        if message.kind is MessageKind.TASK_MIGRATION_ACCEPTANCE_RESPONSE:
            negotiation.accepted[message.sender] = message.node_stats
        else:
            negotiation.rejected.add(message.sender)
        if len(negotiation.accepted) + len(negotiation.rejected) >= negotiation.quote.regular:
            self._select_target(negotiation)

    def _select_target(self, negotiation: Negotiation) -> None:
        engine = self.engine
        task = engine.cell.tasks.get(negotiation.task_id)
        if task is None:
            self.negotiations.pop(negotiation.task_id, None)
            return
        snapshot = engine.snapshot_task(negotiation.task_id)
        now = engine.now_us
        # entry indices into the quote, in quote order
        quote = negotiation.quote
        live = [] if quote is None or quote.expired(now, engine.quote_ttl_us) else [
            i for i, node_id in enumerate(quote.node_ids) if node_id not in negotiation.attempted]
        regular = [i for i in live if i < quote.regular and quote.node_ids[i] in negotiation.accepted]
        forced = [i for i in live if i >= quote.regular]

        choice: Optional[int] = None
        if regular:
            stats = [negotiation.accepted[quote.node_ids[i]] for i in regular]
            # np.array, not np.stack: the same rows at a third of the cost
            before = np.array([s.load for s in stats])
            weights = score(engine.config.realloc_scorer, np.array([s.total for s in stats]),
                            before, before + snapshot.used).tolist()
            positive = [(i, w) for i, w in zip(regular, weights) if w > 0]
            if positive:
                entries, ws = zip(*positive)
                choice = self.rng.choices(entries, weights=ws, k=1)[0]
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
        target = quote.node_ids[choice]
        negotiation.attempted.add(target)
        negotiation.state = "confirm"
        negotiation.deadline_us = now + ACCEPTANCE_WAIT_ROUNDS * engine.round_us
        engine.metrics.migrations_attempted += 1
        engine.sample_target_selection(self, snapshot, quote, live, choice)
        engine.send(Message(
            kind=MessageKind.TASK_MIGRATION_PROCESS_REQUEST, sender=self.id,
            recipient=target, correlation_id=engine.next_correlation(), task=snapshot,
            forced=choice >= quote.regular, rec_age_us=now - quote.created_at))

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
        engine.send(Message(
            kind=MessageKind.STATUS_REPORT, sender=self.id, recipient=self.broker(),
            correlation_id=engine.next_correlation(), node_stats=self.stats()))

    def _compulsory_tasks(self) -> list[str]:
        out = []
        cell = self.engine.cell
        node = self.node
        total = node.total.tolist()
        for task_id in node.residents:
            task = cell.tasks[task_id]
            if task.constraints and not cell.admits(task.constraints, self.id):
                out.append(task_id)
            elif any(req > cap for req, cap in zip(task.required.tolist(), total)):
                out.append(task_id)
        return sorted(out)

    def _run_selection_if_needed(self) -> None:
        engine = self.engine
        if self.negotiations:
            return  # let in-flight departures resolve before selecting more
        compulsory = self._compulsory_tasks()
        if not self.overloaded() and not compulsory:
            return
        removable = [engine.cell.tasks[task_id] for task_id in sorted(self.node.residents)]
        if not removable:
            return
        result = select_candidate_services(
            total=self.node.total,
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
        engine.send(Message(
            kind=MessageKind.GET_CANDIDATE_NODES_REQUEST, sender=self.id,
            recipient=self.broker(), correlation_id=corr,
            task=engine.snapshot_task(task_id)))


def draw_pools(rng: np.random.Generator, counts: np.ndarray, limit: int) -> tuple:
    """Each quote's pool as positions among its eligible nodes: row ``i``
    holds ``min(limit, counts[i])`` distinct positions in ``[0, counts[i])``,
    then zeros that ``valid`` masks out, a uniform sample without
    replacement.  A count at or below the limit takes every position and
    draws nothing.  From twice the limit up, the positions are drawn with
    replacement, and every repeat of an earlier position in its row is
    drawn again until the row is distinct (no step favours one position
    over another).  In between, where repeats would be drawn again for
    long, a row takes the positions of its ``limit`` smallest uniform keys."""
    sizes = np.minimum(counts, limit)
    columns = np.arange(int(sizes.max()))
    valid = columns < sizes[:, None]
    positions = np.where(valid, columns, 0)
    sparse = np.flatnonzero(counts >= 2 * limit)
    if len(sparse):
        highs = counts[sparse]
        # one bound for the whole draw when it can (numpy's faster path)
        high = highs[0] if (highs == highs[0]).all() else highs[:, None]
        sample = rng.integers(0, high, size=(len(sparse), limit))
        column = np.arange(limit)
        redo = np.arange(len(sparse))
        while len(redo):
            # distinct keys, sorted by position, then column: a repeat sorts
            # right after the position's earlier occurrence
            keys = np.sort(sample[redo] * limit + column, axis=1)
            value = keys // limit
            repeat_row, repeat_at = np.nonzero(value[:, 1:] == value[:, :-1])
            if not len(repeat_row):
                break
            rows = redo[repeat_row]
            sample[rows, keys[repeat_row, repeat_at + 1] % limit] = rng.integers(0, highs[rows])
            again = np.zeros(len(redo), dtype=bool)
            again[repeat_row] = True
            redo = redo[again]
        positions[sparse] = sample
    dense = np.flatnonzero((counts > limit) & (counts < 2 * limit))
    if len(dense):
        keys = rng.random((len(dense), int(counts[dense].max())))
        keys[np.arange(keys.shape[1]) >= counts[dense, None]] = np.inf
        positions[dense] = keys.argpartition(limit - 1, axis=1)[:, :limit]
    return positions, valid


def _smallest(keys: np.ndarray, count: int) -> np.ndarray:
    """The columns of each row's ``count`` smallest keys (all of a narrower
    row), in no particular order."""
    if keys.shape[1] <= count:
        return np.broadcast_to(np.arange(keys.shape[1]), keys.shape)
    return keys.argpartition(count - 1, axis=1)[:, :count]


class BrokerAgent:
    """Caches reported node state; quotes candidates; places new tasks.

    The cache is a set of arrays over a stable row per node: a report
    writes its node's row in place, and a departing node's row takes the
    last row's node.  Every broker adds and drops nodes at the same moments,
    in the same order, so all brokers' rows name the same nodes."""

    def __init__(self, broker_id: str, engine: "AgentEngine"):
        self.id = broker_id
        self.engine = engine
        dim = engine.dimension
        #: node id -> cache row, and row -> node id
        self.cache: dict[str, int] = {}
        self.node_ids: list[str] = []
        #: each row's last reported total, availability and report time
        self.totals = np.zeros((0, dim))
        self.available = np.zeros((0, dim))
        self.last_update = np.zeros(0, dtype=np.int64)
        self._used: Optional[np.ndarray] = None  # the rows' loads, derived when quoting
        #: scorer -> each row's own score (``own_scores``), derived with ``_used``
        self._own: dict[str, Optional[np.ndarray]] = {}
        self.pending: deque[str] = deque()
        #: failed placements wait here until the next tick, so one stuck task
        #: cannot spin the whole per-round budget on itself
        self.retry_queue: list[str] = []
        self.in_flight: dict[int, PlacementFlow] = {}
        self.rng = random.Random(_stable_seed(engine.seed, "ba", broker_id))
        self.np_rng = np.random.Generator(np.random.PCG64(_stable_seed(engine.seed, "ba-np", broker_id)))
        #: each row's position in ``CellState.node_index``, until a row is added or dropped
        self._cell_pos: Optional[np.ndarray] = None

    # -- cache ------------------------------------------------------------------

    def update_cache(self, stats: NodeStats, now: int) -> None:
        row = self.cache.get(stats.node_id)
        if row is None:
            if stats.node_id not in self.engine.cell.nodes:
                return  # a report delivered after its node left the cell
            row = self._add_row(stats.node_id)
        self.totals[row] = stats.total
        self.available[row] = stats.total - stats.load
        self.last_update[row] = now
        self._used = None

    def _add_row(self, node_id: str) -> int:
        row = len(self.node_ids)
        if row == len(self.last_update):
            grown = max(16, 2 * row)
            self.totals = np.resize(self.totals, (grown, self.totals.shape[1]))
            self.available = np.resize(self.available, (grown, self.available.shape[1]))
            self.last_update = np.resize(self.last_update, grown)
        self.node_ids.append(node_id)
        self.cache[node_id] = row
        self._cell_pos = None
        return row

    def drop_node(self, node_id: str) -> None:
        row = self.cache.pop(node_id, None)
        if row is None:
            return
        last = len(self.node_ids) - 1
        if row != last:
            moved = self.node_ids[row] = self.node_ids[last]
            self.cache[moved] = row
            for values in (self.totals, self.available, self.last_update):
                values[row] = values[last]
        self.node_ids.pop()
        self._used = self._cell_pos = None

    def eligible_rows(self, constraints: tuple) -> np.ndarray:
        """The constraint set's eligible cache rows, ascending: the cell's
        row for the set, taken at each cache row's position in the cell.
        Every cached node is in the cell, so the empty set takes every row."""
        if not constraints:
            return np.arange(len(self.node_ids), dtype=np.intp)
        if self._cell_pos is None:
            index = self.engine.cell.node_index()
            self._cell_pos = np.array([index[node_id] for node_id in self.node_ids], dtype=np.intp)
        return np.flatnonzero(self.engine.cell.eligible(constraints).take(self._cell_pos))

    # -- quoting -----------------------------------------------------------------

    def quote(self, requests: list, initial: bool) -> list:
        """A quote (or None) per ``(snapshot, requester)`` request, in
        request order, computed in batches of at most ``QUOTE_BATCH_ROWS``
        pool rows."""
        limit = INITIAL_SCAN_LIMIT if initial else REALLOC_SCAN_LIMIT
        per_batch = max(1, QUOTE_BATCH_ROWS // max(1, min(limit, len(self.node_ids))))
        quotes = []
        for start in range(0, len(requests), per_batch):
            quotes += self.compute_recommendations(requests[start:start + per_batch], initial)
        return quotes

    def compute_recommendations(self, requests: list, initial: bool) -> list:
        """One batch of quotes: for each ``(snapshot, requester)`` request, up
        to ``RECOMMENDATION_COUNT`` candidates for the task in three bands,
        or None if no cached node other than the requester matches the
        task's constraints.  The bands are nodes drawn by score from the
        scanned pool, zero-score pool nodes with room (the quote's regular
        entries), then forced nodes with the total capacity (pool nodes
        without the room, then unscanned ones).

        A quote's pool is a uniform sample without replacement of the scan
        limit's size from its eligible nodes (the constraint set's cached
        matches, every cached node for no constraints, less the requester),
        drawn as positions by ``draw_pools``.  The batch then draws one
        exponential per pool row, scores every row in one call and cuts
        every scored band at once: a weighted sample without replacement,
        the rows with the smallest exponential-over-fitness keys, listed by
        falling fitness, then cache row.  Zero-score and leftover pool rows
        follow in the order of their draws, so pool order never matters.
        Only the forced band reaches the unscanned eligible nodes, shuffled
        when it does."""
        engine = self.engine
        n = len(self.node_ids)
        totals = self.totals[:n]
        if self._used is None:
            self._used = np.maximum(totals - self.available[:n], 0.0)
            self._own = {}
        used = self._used
        quotes: list[Optional[Quote]] = [None] * len(requests)
        # per quote: its index in the batch, eligible rows, count and the
        # requester's position among them (the count when it is not one)
        live, eligibles, counts, gaps = [], [], [], []
        by_set: dict[tuple, np.ndarray] = {}  # one eligible array per constraint set
        for i, (snapshot, requester) in enumerate(requests):
            eligible = by_set.get(snapshot.constraints)
            if eligible is None:
                eligible = by_set[snapshot.constraints] = self.eligible_rows(snapshot.constraints)
            count = gap = len(eligible)
            row = self.cache.get(requester)
            if row is not None:
                at = int(np.searchsorted(eligible, row))
                if at < count and eligible[at] == row:
                    count, gap = count - 1, at
            if count > 0:
                live.append(i)
                eligibles.append(eligible)
                counts.append(count)
                gaps.append(gap)
        if not live:
            return quotes

        limit = INITIAL_SCAN_LIMIT if initial else REALLOC_SCAN_LIMIT
        counts = np.array(counts)
        positions, valid = draw_pools(self.np_rng, counts, limit)
        draws = self.np_rng.standard_exponential(positions.shape)
        # positions -> cache rows, through the batch's distinct eligible sets
        # laid end to end, each position past the requester's moved up by one
        distinct = {id(eligible): eligible for eligible in eligibles}
        starts = dict(zip(distinct, np.cumsum([0] + [len(e) for e in distinct.values()]).tolist()))
        offsets = np.array([starts[id(eligible)] for eligible in eligibles])
        shifted = positions + (positions >= np.array(gaps)[:, None]) + offsets[:, None]
        rows = np.concatenate(list(distinct.values())).take(shifted)

        snapshots = [requests[i][0] for i in live]
        task_vecs = np.array([s.required if initial else s.used for s in snapshots])
        dim = totals.shape[1]
        # ndarray.take, not fancy indexing: the same gather at a fraction of the cost
        pool_totals, pool_used = totals.take(rows, axis=0), used.take(rows, axis=0)
        scorer = engine.config.initial_scorer if initial else engine.config.realloc_scorer
        # a gain scorer's before-scores: each cached node's own score, scored
        # once per cache refresh, not once per pool it lands in
        if scorer not in self._own:
            self._own[scorer] = own_scores(scorer, totals, used)
        own = self._own[scorer]
        before = pool_used.reshape(-1, dim) if own is None else own.take(rows.ravel())
        scores = score(scorer, pool_totals.reshape(-1, dim), before,
                       (pool_used + task_vecs[:, None, :]).reshape(-1, dim)).reshape(rows.shape)
        scores[~valid] = 0.0  # padding
        positive = scores > 0.0
        # the scored band: the smallest draw-over-fitness keys, by falling
        # fitness, then row (positive rows come first in every band)
        keys = np.divide(draws, scores, out=np.full(rows.shape, np.inf), where=positive)
        top = _smallest(keys, RECOMMENDATION_COUNT)
        batch = np.arange(len(live))[:, None]
        band_fit, band_rows = scores[batch, top], rows[batch, top]
        order = np.lexsort((band_rows, -band_fit), axis=1)
        band_fit, picked = band_fit[batch, order], band_rows[batch, order]
        scored = positive.sum(axis=1)
        in_band = np.minimum(scored, RECOMMENDATION_COUNT)
        regular = in_band.copy()
        short = np.flatnonzero(scored < RECOMMENDATION_COUNT)
        if len(short):
            # zero-score pool nodes with room follow, by their draws: a flat
            # score never justifies skipping availability checks
            room = (pool_totals[short] - pool_used[short] >= task_vecs[short, None, :]).all(axis=2)
            pad_keys = np.where(valid[short] & ~positive[short] & room, draws[short], np.inf)
            sub = batch[:len(short)]
            pad_top = _smallest(pad_keys, RECOMMENDATION_COUNT)
            pad_top = pad_top[sub, pad_keys[sub, pad_top].argsort(axis=1, kind="stable")]
            past = np.arange(picked.shape[1]) - scored[short, None]
            picked[short] = np.where(past < 0, picked[short],
                                     rows[short][sub, pad_top[sub, np.maximum(past, 0)]])
            regular[short] = np.minimum(scored[short] + np.isfinite(pad_keys).sum(axis=1),
                                        picked.shape[1])
        available = totals.take(picked, axis=0) - used.take(picked, axis=0)

        ids, now = self.node_ids, engine.now_us
        fit_lists, picked_lists = band_fit.tolist(), picked.tolist()
        for j, (i, count_regular, count_scored) in enumerate(zip(live, regular.tolist(),
                                                                 in_band.tolist())):
            node_rows = picked_lists[j][:count_regular]
            fitness = (fit_lists[j][:count_scored]
                       + [ZERO_SCORE_FITNESS] * (count_regular - count_scored))
            if count_regular == RECOMMENDATION_COUNT:
                quotes[i] = Quote(node_ids=[ids[r] for r in node_rows], fitness=fitness,
                                  available=available[j], regular=count_regular, created_at=now)
                continue
            # last resort, rare: the pool nodes left, then the unscanned
            # eligible ones, that have the total capacity for the task
            has_room = (pool_totals[j] - pool_used[j] >= task_vecs[j]).all(axis=1)
            by_draw = draws[j].argsort(kind="stable")
            rest = rows[j][by_draw[(valid[j] & ~positive[j] & ~has_room)[by_draw]]]
            if counts[j] > limit:
                unscanned = np.ones(counts[j], dtype=bool)
                unscanned[positions[j]] = False
                unscanned = np.flatnonzero(unscanned)
                self.np_rng.shuffle(unscanned)
                rest = np.concatenate((rest, eligibles[j][unscanned + (unscanned >= gaps[j])]))
            capable = rest[(snapshots[j].required <= totals.take(rest, axis=0)).all(axis=1)]
            node_rows += capable[:RECOMMENDATION_COUNT - count_regular].tolist()
            quotes[i] = Quote(node_ids=[ids[r] for r in node_rows],
                              fitness=fitness + [FORCED_FITNESS] * (len(node_rows) - count_regular),
                              available=totals.take(node_rows, axis=0) - used.take(node_rows, axis=0),
                              regular=count_regular, created_at=now)
        return quotes

    # -- protocol ------------------------------------------------------------------

    def deliver(self, mail: list) -> None:
        """One round's messages to this broker, in send order.  The status
        reports fix the cache before any request is answered, so the
        round's quote requests are answered together, from one batch; every
        reply still goes out in the order of its request."""
        engine = self.engine
        requests = []
        for message in mail:
            if message.kind is MessageKind.STATUS_REPORT:
                self.update_cache(message.node_stats, engine.now_us)
            elif message.kind is MessageKind.GET_CANDIDATE_NODES_REQUEST:
                requests.append((message.task, message.sender))
        quotes = iter(self.quote(requests, initial=False))
        for message in mail:
            kind = message.kind
            if kind is MessageKind.GET_CANDIDATE_NODES_REQUEST:
                quote = next(quotes)
                engine.sample_quote(message, quote)
                if quote is None:
                    engine.report_unschedulable(message.task.task_id)
                engine.send(Message(
                    kind=MessageKind.GET_CANDIDATE_NODES_RESPONSE, sender=self.id,
                    recipient=message.sender, correlation_id=message.correlation_id,
                    task=message.task, quote=quote))
            elif kind is MessageKind.TASK_MIGRATION_PROCESS_CONFIRMATION_RESPONSE:
                # the placement has committed with its transfer
                self.in_flight.pop(message.correlation_id, None)
            elif kind is MessageKind.TASK_MIGRATION_PROCESS_ERROR_RESPONSE:
                flow = self.in_flight.pop(message.correlation_id, None)
                if flow is not None:
                    engine.metrics.collisions += 1
                    flow.next_index += 1
                    self._try_placement(flow)

    def enqueue_placement(self, task_id: str) -> None:
        self.pending.append(task_id)

    def flush_retries(self) -> None:
        self.pending.extend(self.retry_queue)
        self.retry_queue.clear()

    def on_round(self, round_index: int) -> None:
        """Quote this round's share of the queue in one go, then start a
        placement flow for each quoted task."""
        engine = self.engine
        cell = engine.cell
        tasks = []
        for _ in range(min(len(self.pending), PLACEMENTS_PER_ROUND)):
            task_id = self.pending.popleft()
            if task_id in cell.tasks and task_id not in cell.placement:
                tasks.append(task_id)
        snapshots = [engine.snapshot_task(task_id) for task_id in tasks]
        quotes = self.quote([(snapshot, None) for snapshot in snapshots], initial=True)
        for snapshot, quote in zip(snapshots, quotes):
            if quote is None:
                engine.report_unschedulable(snapshot.task_id)
                engine.retry_placement(snapshot.task_id, self.rng)
                continue
            # the first request carries the quote's snapshot: nothing has
            # changed the task since
            self._try_placement(PlacementFlow(task_id=snapshot.task_id, quote=quote), snapshot)

    def _try_placement(self, flow: PlacementFlow,
                       snapshot: Optional[TaskSnapshot] = None) -> None:
        """Ask the flow's next live candidate to take the task, sending
        ``snapshot`` if given (a retry snapshots the task afresh)."""
        engine = self.engine
        if flow.task_id not in engine.cell.tasks:
            return  # the task ended while a request for it was in flight
        quote = flow.quote
        # skip a stale quote and a node that has left since the quote
        node_ids = () if quote.expired(engine.now_us, engine.quote_ttl_us) else quote.node_ids
        while flow.next_index < len(node_ids):
            node_id = node_ids[flow.next_index]
            if node_id not in engine.agents:
                flow.next_index += 1
                continue
            corr = engine.next_correlation()
            self.in_flight[corr] = flow
            engine.send(Message(
                kind=MessageKind.TASK_MIGRATION_PROCESS_REQUEST, sender=self.id,
                recipient=node_id, correlation_id=corr,
                task=snapshot or engine.snapshot_task(flow.task_id),
                forced=flow.next_index >= quote.regular,
                initial=True, rec_age_us=engine.now_us - quote.created_at))
            return
        # every candidate failed: back to the pending queue for fresh quotes
        engine.retry_placement(flow.task_id, self.rng)


@dataclass(slots=True)
class AuditRecord:
    """One committed placement or completed migration, with the protocol's
    safety checks read from the cell at the commit (``--audit`` writes it
    to ``<run>-audit.csv``)."""

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

    def __init__(self, cell: CellState, config: AgentConfig, seed: int):
        self.cell = cell
        self.config = config
        self.seed = seed
        self.dimension = cell.catalog.dimension
        self.now_us = 0
        self.round_us = config.tick_length_us // config.rounds_per_tick
        self.quote_ttl_us = RECOMMENDATION_TTL_TICKS * config.tick_length_us
        self.rng = random.Random(_stable_seed(seed, "engine"))
        self.agents: dict[str, NodeAgent] = {}
        self.brokers: dict[str, BrokerAgent] = {}
        for index in range(config.broker_count):
            broker_id = f"broker-{index:03d}"
            self.brokers[broker_id] = BrokerAgent(broker_id, self)
        self._broker_ids = sorted(self.brokers)
        #: recipient -> the mail sent to it this round, in send order
        self._mailboxes: dict[str, list[Message]] = {}
        self._correlation = 0
        #: (target, task) of the transfers started this round, initial
        #: placements among them.  A transfer completes at the next round's
        #: start (the last round's at the tick's end), so ``task_left`` closes
        #: the source's negotiation before the source hears of it, and no
        #: transfer or reservation is open between ticks.
        self.transfers: list[tuple[str, str]] = []
        self.metrics = TickMetrics()
        #: live tasks reported unschedulable, so each gets one ERROR line
        self.unschedulable: set[str] = set()
        self._sample_counters = dict.fromkeys(SAMPLE_RATES, 0)
        for node_id in cell.node_index():
            self.agents[node_id] = NodeAgent(node_id, self)
            self._report_to_brokers(node_id)

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
        self._mailboxes.setdefault(message.recipient, []).append(message)
        if self.message_trace is not None:
            self.message_trace(message.trace_line(self.now_us))

    def snapshot_task(self, task_id: str) -> TaskSnapshot:
        task = self.cell.tasks[task_id]
        return TaskSnapshot(
            task_id=task_id,
            required=task.required,
            used=task.used,  # zero until the task's first usage event
            production=task.production,
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

    def _complete_transfers(self) -> None:
        transfers, self.transfers = sorted(self.transfers), []
        for node_id, task_id in transfers:
            # nodes and tasks only leave between ticks, when no transfer is open
            target = self.agents[node_id]
            reservation = target.release_reservation(task_id)
            source = self.agents.get(reservation.source)
            if source is not None and task_id in source.node.residents:
                source.task_left(task_id)
            self.cell.place(task_id, node_id)
            if reservation.source is None:
                self.metrics.placements += 1
            else:
                self.metrics.migrations_completed += 1
                self.metrics.stc_mb += self.cell.tasks[task_id].migration_cost_mb
            if self.audit is not None:
                self._audit(task_id, target, reservation)

    def _audit(self, task_id: str, target: NodeAgent, reservation: InMigration) -> None:
        task = self.cell.tasks[task_id]
        total = target.node.total
        initial = reservation.source is None
        self.audit(AuditRecord(
            task_id=task_id,
            source=reservation.source,
            target=target.id,
            forced=reservation.forced,
            initial=initial,
            constraints_ok=self.cell.admits(task.constraints, target.id),
            capacity_ok=all(map(le, task.required.tolist(), total.tolist())),
            stable_after=not target.overloaded(),
            rus_after=rus_fits(total, target.node.prod_required),
            rec_age_us=reservation.rec_age_us,
            ttl_us=self.quote_ttl_us,
            cost_mb=0.0 if initial else task.migration_cost_mb,
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
            # a node added again keeps its agent, and the cell its residents
            if event.node_id not in self.agents:
                self.agents[event.node_id] = NodeAgent(event.node_id, self)
            self._report_to_brokers(event.node_id)
        elif kind is ev.EventKind.REMOVE_NODE:
            self._remove_node(event)
        elif kind is ev.EventKind.ADD_TASK:
            cell.apply(event)
            broker = self.brokers[self.broker_for(self.rng)]
            broker.enqueue_placement(event.task_id)
        elif kind is ev.EventKind.REMOVE_TASK:
            task_id = event.task_id
            self.unschedulable.discard(task_id)
            # its negotiation, if any, is open on the node it sits on
            owner = self.agents.get(cell.placement.get(task_id))
            if owner is not None:
                owner.task_left(task_id)
            cell.apply(event)
        elif kind is ev.EventKind.UPDATE_TASK_USED:
            task = cell.tasks.get(event.task_id)
            before = task.used if task is not None else None
            cell.apply(event)
            agent = self.agents.get(cell.placement.get(event.task_id))
            if before is not None and agent is not None:
                # a usage jump above the threshold share of the node is a RUS spike
                if any(cap > 0 and (new - old) / cap > RUS_SPIKE_THRESHOLD
                       for new, old, cap in zip(task.used.tolist(), before.tolist(),
                                                agent.node.total.tolist())):
                    self.metrics.rus_spikes += 1
        else:
            cell.apply(event)

    def _remove_node(self, event) -> None:
        cell = self.cell
        agent = self.agents.pop(event.node_id, None)
        displaced = set(agent.node.residents) if agent is not None else set()
        cell.apply(event)
        # mail to the node is lost with it, even if a node of its id comes back
        self._mailboxes.pop(event.node_id, None)
        for broker in self.brokers.values():
            broker.drop_node(event.node_id)
            # a placement requested of the node gets no answer: quote it
            # afresh, unless it committed at the tick's end and its task is
            # one of the node's, which come back below
            for corr, flow in list(broker.in_flight.items()):
                if flow.quote.node_ids[flow.next_index] == event.node_id:
                    del broker.in_flight[corr]
                    if flow.task_id not in displaced:
                        broker.retry_queue.append(flow.task_id)
        # the node's tasks re-enter scheduling
        for task_id in sorted(displaced):
            self.brokers[self.broker_for(self.rng)].enqueue_placement(task_id)

    # -- scheduler -------------------------------------------------------------------

    def run_tick(self) -> TickMetrics:
        """Advance one tick (events must have been applied by the caller)."""
        self.metrics = TickMetrics()
        for broker in self.brokers.values():
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
        # every broker's rows name the same nodes: keep each row's newest report
        first, *others = self.brokers.values()
        n = len(first.node_ids)
        stamp, totals, available = first.last_update[:n], first.totals[:n], first.available[:n]
        for broker in others:
            newer = broker.last_update[:n] > stamp
            stamp = np.where(newer, broker.last_update[:n], stamp)
            totals = np.where(newer[:, None], broker.totals[:n], totals)
            available = np.where(newer[:, None], broker.available[:n], available)
        for broker in self.brokers.values():
            broker.last_update[:n], broker.totals[:n], broker.available[:n] = stamp, totals, available
            broker._used = None

    def _run_round(self, round_index: int) -> None:
        self._complete_transfers()
        # deliver everything sent last round: by recipient, each mailbox in
        # send order
        mailboxes, self._mailboxes = self._mailboxes, {}
        for recipient in sorted(mailboxes):
            mail = mailboxes[recipient]
            broker = self.brokers.get(recipient)
            if broker is not None:
                broker.deliver(mail)
                continue
            agent = self.agents.get(recipient)
            if agent is not None:
                for message in mail:
                    agent.handle(message)
        for broker_id in self._broker_ids:
            self.brokers[broker_id].on_round(round_index)
        # every node of the cell has its agent: run them in the cell's node order
        for node_id in self.cell.node_index():
            agent = self.agents.get(node_id)
            if agent is not None:
                agent.on_round(round_index)

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
                 f"Node total resources = [{', '.join(f'{v:.10f}' for v in agent.node.total)}]",
                 f"Node used resources (all tasks) = [{', '.join(f'{v:.10f}' for v in agent.node.used)}]"]
        selected = set(result.task_ids)
        for task in removable:
            star = "* " if task.task_id in selected else ""
            flags = " (PROD)" if task.production else ""
            lines.append(
                f"{star}Task [{task.task_id}]{flags} Priority={task.priority} "
                f"Required resources=[{', '.join(f'{v:.10f}' for v in task.required)}] "
                f"Used resources=[{', '.join(f'{v:.10f}' for v in task.used)}] "
                f"Migration cost = {task.migration_cost_mb:.2f} [MB]")
        cost = sum(self.cell.tasks[t].migration_cost_mb for t in result.task_ids
                   if t in self.cell.tasks)
        lines.append(f"Total migration cost (selected tasks) = {cost} [MB]")
        self.log("\n".join(lines))

    def sample_quote(self, message: Message, quote: Optional[Quote]) -> None:
        if not self._sampled("quote"):
            return
        lines = [f"SAMPLE: candidate nodes recommendations for migration-out of task:",
                 f"Task [{message.task.task_id}] Required resources="
                 f"[{', '.join(f'{v:.10f}' for v in message.task.required)}] "
                 f"Migration cost = {message.task.migration_cost_mb:.2f} [MB]",
                 f"Source node: [{message.sender}]"]
        for i in range(0 if quote is None else len(quote.node_ids)):
            lines.append(quote.log_format(i))
        self.log("\n".join(lines))

    def sample_target_selection(self, agent: NodeAgent, snapshot: TaskSnapshot,
                                quote: Quote, live: list, choice: int) -> None:
        if not self._sampled("target"):
            return
        lines = [f"SAMPLE: accepted recommendations for migration-out of task:",
                 f"Task [{snapshot.task_id}] Migration cost = {snapshot.migration_cost_mb:.2f} [MB]",
                 f"Source node: [{agent.id}]",
                 "All non-expired recommendations (* selected):"]
        for i in live:
            star = "* " if i == choice else ""
            lines.append(star + quote.log_format(i))
        self.log("\n".join(lines))
