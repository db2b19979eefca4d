"""Agent protocol behavior: quoting, admission, negotiation, safety."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cell_oracle import assert_loads_match
from cellsim.agents import (
    REALLOC_PARAMS,
    AgentConfig,
    AgentEngine,
    FORCED_FITNESS,
    MessageKind,
    NodeAgent,
    RemovalCandidate,
    TaskSnapshot,
    select_candidate_services,
)
from cellsim.agents.engine import RECOMMENDATION_COUNT
from cellsim.agents.messages import ZERO_SCORE_FITNESS
from cellsim.agents.scoring import SCORERS
from cellsim.model import ResourceTypeCatalog
from cellsim.workload import CellState, ConstraintOperator as Op, TaskConstraint
from cellsim.workload.constraints import matches_attributes
from cellsim.workload import events as ev
from scoring_oracle import allocation_score

CAT2 = ResourceTypeCatalog(("cpu", "memory"))
MIN_US = 60 * 1_000_000


def build_engine(node_totals, seed=1, config=None, attrs=None):
    cell = CellState(CAT2)
    engine = AgentEngine(cell, config or AgentConfig(audit=True), seed=seed)
    for index, total in enumerate(node_totals):
        engine.apply_events([ev.AddNodeEvent(
            timestamp=0, node_id=f"n{index:03d}", total=total,
            attributes=tuple((attrs or {}).get(index, ())))])
    return engine


def add_task(engine, task_id, required, used=None, production=False,
             constraints=(), cost=100.0, node=None):
    engine.apply_events([ev.AddTaskEvent(
        timestamp=0, task_id=task_id, required=required,
        production=production, constraints=tuple(constraints))])
    if used is not None:
        engine.apply_events([ev.UpdateTaskUsedEvent(timestamp=0, task_id=task_id, used=used)])
        engine.cell.tasks[task_id].migration_cost_mb = cost
    if node is not None:
        # pull it out of the broker placement queue: scenario places directly
        for broker in engine.brokers.values():
            try:
                broker.pending.remove(task_id)
            except ValueError:
                pass
        engine.place_directly(task_id, node)


class TestSelection:
    def _candidates(self, spec):
        return [RemovalCandidate(task_id=f"t{i}", used=np.array(u, dtype=float),
                                 migration_cost_mb=c, production=p)
                for i, (u, c, p) in enumerate(spec)]

    def test_not_overloaded_returns_empty(self):
        result = select_candidate_services(
            total=(1.0, 1.0), used=(0.5, 0.5),
            removable=self._candidates([((0.2, 0.2), 10.0, False)]),
            compulsory_ids=[], rng=random.Random(0))
        assert result.task_ids == []
        assert result.feasible

    def test_removal_de_overloads(self):
        candidates = self._candidates([
            ((0.30, 0.05), 50.0, False),
            ((0.25, 0.10), 20.0, False),
            ((0.20, 0.05), 500.0, True),
            ((0.10, 0.02), 10.0, False),
        ])
        used = (1.2, 0.4)
        result = select_candidate_services(
            total=(1.0, 1.0), used=used,
            removable=candidates, compulsory_ids=[], rng=random.Random(1))
        assert result.feasible and not result.alert
        removed = np.sum([c.used for c in candidates if c.task_id in set(result.task_ids)], axis=0)
        assert np.all(np.asarray(used) - removed <= (1.0, 1.0))

    def test_compulsory_always_included(self):
        candidates = self._candidates([((0.1, 0.1), 10.0, False),
                                       ((0.1, 0.1), 10.0, False)])
        result = select_candidate_services(
            total=(1.0, 1.0), used=(0.3, 0.3),
            removable=candidates, compulsory_ids=["t1"], rng=random.Random(2))
        assert "t1" in result.task_ids

    def test_impossible_overload_alerts(self):
        candidates = self._candidates([((0.1, 0.1), 10.0, False),
                                       ((0.1, 0.1), 10.0, True)])
        result = select_candidate_services(
            total=(1.0, 1.0), used=(2.0, 0.5),
            removable=candidates, compulsory_ids=[], rng=random.Random(3))
        assert result.alert and not result.feasible
        assert result.task_ids == ["t0"]  # production tasks stay pinned

    def test_prefers_cheap_migrations(self):
        # shedding either task lands the node in the tight region with the
        # same score, so the cheaper migration must win
        candidates = self._candidates([((0.4, 0.4), 1000.0, False),
                                       ((0.4, 0.4), 10.0, False)])
        for seed in range(10):
            result = select_candidate_services(
                total=(1.0, 1.0), used=(1.1, 1.1),
                removable=candidates, compulsory_ids=[],
                rng=random.Random(seed))
            assert result.task_ids == ["t1"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_selection_fitness_matches_scalar_oracle(data):
    """On a random overloaded node the chosen subset de-overloads it, and the
    reported fitness is the scalar re-allocation score of the node's load
    after removal divided by the subset's migration cost."""
    unit = st.floats(0.0, 0.6, allow_nan=False)
    total = np.array(data.draw(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0))))
    count = data.draw(st.integers(2, 8))
    candidates = [RemovalCandidate(
        task_id=f"t{i}", used=np.array(data.draw(st.tuples(unit, unit))),
        migration_cost_mb=data.draw(st.floats(1.0, 1000.0)),
        production=data.draw(st.booleans())) for i in range(count)]
    used_sum = np.sum([c.used for c in candidates], axis=0)
    assume(np.any(used_sum > total))
    result = select_candidate_services(
        total=total, used=used_sum, removable=candidates,
        compulsory_ids=[], rng=random.Random(data.draw(st.integers(0, 2**32))))
    assert result.feasible and not result.alert
    chosen = [c for c in candidates if c.task_id in set(result.task_ids)]
    load = used_sum - np.sum([c.used for c in chosen], axis=0)
    assert np.all(load <= total)
    cost = sum(c.migration_cost_mb for c in chosen)
    expected = allocation_score(REALLOC_PARAMS, total, load) / cost
    assert result.fitness == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestBrokerQuotes:
    def test_single_matching_node(self):
        engine = build_engine([(1.0, 1.0), (1.0, 1.0)],
                              attrs={0: (("gpu", "yes"),)})
        snapshot = TaskSnapshot("t", (0.1, 0.1), (0.1, 0.1), False, False,
                                (TaskConstraint(Op.EQUAL, "gpu", "yes"),), 10.0)
        broker = engine.brokers["broker-000"]
        recs = broker.compute_recommendations(snapshot, initial=True, exclude=None)
        assert [r.node_id for r in recs] == ["n000"]

    def test_no_matching_node_is_unschedulable(self):
        engine = build_engine([(1.0, 1.0)] * 3)
        snapshot = TaskSnapshot("t", (0.1, 0.1), (0.1, 0.1), False, False,
                                (TaskConstraint(Op.EQUAL, "gpu", "yes"),), 10.0)
        broker = engine.brokers["broker-000"]
        assert broker.compute_recommendations(snapshot, initial=True, exclude=None) is None

    def test_quote_shape_scored_then_forced(self):
        # nodes almost full: some still score, others only fit by total capacity
        totals = [(1.0, 1.0)] * 20
        engine = build_engine(totals)
        for index in range(8):
            add_task(engine, f"busy{index}", required=(0.2, 0.2),
                     used=(0.88, 0.88), node=f"n{index:03d}")
        snapshot = TaskSnapshot("t", (0.2, 0.2), (0.1, 0.1), False, False, (), 10.0)
        broker = engine.brokers["broker-000"]
        recs = broker.compute_recommendations(snapshot, initial=True, exclude=None)
        assert len(recs) == 15
        regular = [r for r in recs if not r.force_migration]
        forced = [r for r in recs if r.force_migration]
        assert len(regular) == 12  # the 12 nodes with room come first
        assert len(forced) == 3   # busy-but-capable nodes pad the tail
        fits = [r.fitness_value for r in regular]
        assert fits == sorted(fits, reverse=True)
        assert all(r.fitness_value == FORCED_FITNESS for r in forced)
        assert recs[:len(regular)] == regular  # forced entries trail

    def test_deterministic_quotes(self):
        def run():
            engine = build_engine([(1.0, 1.0)] * 30, seed=77)
            snapshot = TaskSnapshot("t", (0.2, 0.2), (0.1, 0.1), False, False, (), 10.0)
            broker = engine.brokers["broker-000"]
            recs = broker.compute_recommendations(snapshot, initial=True, exclude=None)
            return [(r.node_id, r.fitness_value, r.force_migration) for r in recs]

        assert run() == run()

    def test_attribute_change_between_ticks_reaches_quotes(self):
        engine = build_engine([(1.0, 1.0)] * 2, attrs={0: (("gpu", "yes"),)})
        snapshot = TaskSnapshot("t", (0.1, 0.1), (0.1, 0.1), False, False,
                                (TaskConstraint(Op.EQUAL, "gpu", "yes"),), 10.0)
        broker = engine.brokers["broker-000"]

        def quote():
            recs = broker.compute_recommendations(snapshot, initial=True, exclude=None)
            return [r.node_id for r in recs]

        assert quote() == ["n000"]
        engine.apply_events([ev.RemoveNodeAttributesEvent(0, "n000", ("gpu",)),
                             ev.AddNodeAttributesEvent(0, "n001", (("gpu", "yes"),))])
        broker.evict_stale(engine.now_us)  # what every tick starts with
        assert quote() == ["n001"]

    def test_exclude_source(self):
        engine = build_engine([(1.0, 1.0)] * 2)
        snapshot = TaskSnapshot("t", (0.1, 0.1), (0.1, 0.1), False, False, (), 10.0)
        broker = engine.brokers["broker-000"]
        recs = broker.compute_recommendations(snapshot, initial=False, exclude="n000")
        assert [r.node_id for r in recs] == ["n001"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_quote_bands(data):
    """On a random cache below the scan limits (so every eligible node is
    scanned), a quote lists scored nodes by falling fitness, then zero-score
    nodes with room, then forced nodes with the total capacity but not the
    room; it never lists the requester or a node the constraints exclude,
    and it stops short of the count only when no eligible node is left out."""
    count = data.draw(st.integers(1, 40))
    share = st.floats(0.0, 1.3, allow_nan=False)
    totals = [data.draw(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)))
              for _ in range(count)]
    racks = {i: (("rack", rack),) for i in range(count)
             if (rack := data.draw(st.sampled_from(["a", "b", "c", None]))) is not None}
    scorers = sorted(SCORERS)
    config = AgentConfig(initial_scorer=data.draw(st.sampled_from(scorers)),
                         realloc_scorer=data.draw(st.sampled_from(scorers)))
    engine = build_engine(totals, seed=data.draw(st.integers(0, 2**16)), config=config,
                          attrs=racks)
    for i, total in enumerate(totals):
        load = tuple(t * data.draw(share) for t in total)
        add_task(engine, f"load{i}", required=load, used=load, node=f"n{i:03d}")
    required = data.draw(st.tuples(st.floats(0.01, 1.5), st.floats(0.01, 1.5)))
    used = tuple(r * data.draw(st.floats(0.0, 1.0)) for r in required)
    constraints = tuple(TaskConstraint(op, "rack", rack) for op, rack in data.draw(st.lists(
        st.tuples(st.sampled_from([Op.EQUAL, Op.NOT_EQUAL]), st.sampled_from("abc")),
        max_size=2)))
    initial = data.draw(st.booleans())
    requester = data.draw(st.one_of(st.none(), st.integers(0, count - 1).map("n{:03d}".format)))
    snapshot = TaskSnapshot("t", required, used, False, False, constraints, 10.0)
    recs = engine.brokers["broker-000"].compute_recommendations(
        snapshot, initial=initial, exclude=requester)

    nodes = engine.cell.nodes
    eligible = {node_id for node_id in nodes if node_id != requester
                and matches_attributes(constraints, nodes[node_id].attributes)}
    if not eligible:
        assert recs is None
        return
    task_vec = np.asarray(required if initial else used)
    ids = [r.node_id for r in recs]
    assert len(ids) == len(set(ids)) <= RECOMMENDATION_COUNT
    assert set(ids) <= eligible
    bands = []
    for rec in recs:
        room = np.all(np.asarray(rec.node_available_resources) >= task_vec)
        if rec.force_migration:
            assert rec.fitness_value == FORCED_FITNESS
            assert np.all(np.asarray(required) <= nodes[rec.node_id].total) and not room
            bands.append(2)
        elif rec.fitness_value == ZERO_SCORE_FITNESS:
            assert room
            bands.append(1)
        else:
            assert rec.fitness_value > 0.0
            bands.append(0)
    assert bands == sorted(bands)
    scored = [r.fitness_value for r in recs if not r.force_migration
              and r.fitness_value != ZERO_SCORE_FITNESS]
    assert scored == sorted(scored, reverse=True)
    if len(recs) < RECOMMENDATION_COUNT:
        capable = {n for n in eligible if np.all(np.asarray(required) <= nodes[n].total)}
        assert capable <= set(ids)


class TestAdmission:
    def test_empty_node_accepts_small_task(self):
        engine = build_engine([(1.0, 1.0)])
        agent = engine.agents["n000"]
        snapshot = TaskSnapshot("t", (0.2, 0.2), (0.1, 0.1), False, False, (), 10.0)
        assert agent.admission_ok(snapshot, forced=False)

    def test_projected_overflow_rejects(self):
        engine = build_engine([(1.0, 1.0)])
        agent = engine.agents["n000"]
        inflight = TaskSnapshot("a", (0.5, 0.5), (0.6, 0.6), False, False, (), 10.0)
        agent.reserve(inflight, source="elsewhere", forced=False, rec_age_us=0)
        snapshot = TaskSnapshot("t", (0.2, 0.2), (0.5, 0.5), False, False, (), 10.0)
        assert not agent.admission_ok(snapshot, forced=False)

    def test_constraint_mismatch_rejects_even_when_empty(self):
        engine = build_engine([(1.0, 1.0)])
        agent = engine.agents["n000"]
        snapshot = TaskSnapshot("t", (0.1, 0.1), (0.1, 0.1), False, False,
                                (TaskConstraint(Op.EQUAL, "zone", "eu"),), 10.0)
        assert not agent.admission_ok(snapshot, forced=False)
        assert not agent.admission_ok(snapshot, forced=True)  # survives forcing

    def test_rus_bound_rejects_production_overcommit(self):
        engine = build_engine([(0.5, 1.0)])
        agent = engine.agents["n000"]
        add_task(engine, "prod1", required=(0.3, 0.1), used=(0.05, 0.05),
                 production=True, node="n000")
        snapshot = TaskSnapshot("t", (0.25, 0.1), (0.01, 0.01), True, False, (), 10.0)
        assert not agent.admission_ok(snapshot, forced=False)  # 0.55 > 0.5
        non_prod = TaskSnapshot("t2", (0.25, 0.1), (0.01, 0.01), False, False, (), 10.0)
        assert agent.admission_ok(non_prod, forced=False)

    def test_forced_skips_availability_not_capacity(self):
        engine = build_engine([(1.0, 1.0)])
        agent = engine.agents["n000"]
        add_task(engine, "big", required=(0.2, 0.2), used=(0.95, 0.95), node="n000")
        fits_total = TaskSnapshot("t", (0.3, 0.3), (0.2, 0.2), False, False, (), 10.0)
        assert not agent.admission_ok(fits_total, forced=False)
        assert agent.admission_ok(fits_total, forced=True)
        too_big = TaskSnapshot("t2", (1.5, 0.1), (0.2, 0.2), False, False, (), 10.0)
        assert not agent.admission_ok(too_big, forced=True)


def run_ticks(engine, ticks):
    """Run the ticks; returns their metrics, one TickMetrics per tick."""
    return [engine.run_tick() for _ in range(ticks)]


class TestEndToEnd:
    def _overload_scenario(self, seed=5, rounds_per_tick=6):
        engine = build_engine([(1.0, 1.0)] * 10, seed=seed,
                              config=AgentConfig(rounds_per_tick=rounds_per_tick, audit=True))
        # overload n000 with six tasks, everything else idle
        for index in range(6):
            add_task(engine, f"t{index}", required=(0.25, 0.2),
                     used=(0.22, 0.18), cost=50.0 + index, node="n000")
        return engine

    def test_overload_converges(self):
        engine = self._overload_scenario()
        assert engine.overloaded_count() == 1
        metrics = run_ticks(engine, 5)
        assert engine.overloaded_count() == 0
        assert engine.cell.conservation_holds()
        assert engine.reservation_invariant_holds()
        assert sum(m.migrations_completed for m in metrics) > 0

    def test_overloaded_node_sheds_at_two_rounds_a_tick(self):
        # a quote answers two rounds after its request: at two 30 s rounds a
        # tick the negotiation must still be waiting for it
        engine = self._overload_scenario(rounds_per_tick=2)
        metrics = run_ticks(engine, 5)
        assert sum(m.migrations_completed for m in metrics) > 0
        assert len(engine.cell.nodes["n000"].residents) < 6
        assert engine.overloaded_count() == 0

    def test_non_forced_targets_stay_stable(self):
        engine = self._overload_scenario()
        run_ticks(engine, 5)
        for record in engine.audit_log:
            if not record.forced:
                assert record.stable_after
                assert record.rus_after
            assert record.constraints_ok
            assert record.capacity_ok
            assert record.rec_age_us <= record.ttl_us

    def test_deterministic_trace(self):
        def run():
            trace = []
            engine = build_engine([(1.0, 1.0)] * 10, seed=5)
            engine.message_trace = trace.append
            for index in range(6):
                add_task(engine, f"t{index}", required=(0.25, 0.2),
                         used=(0.22, 0.18), cost=50.0 + index, node="n000")
            run_ticks(engine, 3)
            placement = dict(engine.cell.placement)
            return trace, placement

        first, second = run(), run()
        assert first == second

    def test_initial_placement_flow(self):
        engine = build_engine([(1.0, 1.0)] * 5, seed=2)
        engine.apply_events([
            ev.AddTaskEvent(timestamp=0, task_id=f"new{i}", required=(0.1, 0.1))
            for i in range(8)
        ])
        run_ticks(engine, 2)
        assert len(engine.cell.placement) == 8
        assert list(engine.cell.pending) == []
        assert engine.cell.conservation_holds()

    def test_compulsory_constraint_task_moves_out(self):
        engine = build_engine([(1.0, 1.0)] * 3,
                              attrs={1: (("zone", "eu"),), 2: (("zone", "eu"),)})
        add_task(engine, "pinned", required=(0.1, 0.1), used=(0.1, 0.1),
                 constraints=[TaskConstraint(Op.EQUAL, "zone", "eu")], node="n000")
        assert engine.cell.placement["pinned"] == "n000"
        run_ticks(engine, 3)
        assert engine.cell.placement["pinned"] in ("n001", "n002")

    def test_task_removal_mid_negotiation_is_clean(self):
        engine = self._overload_scenario()
        engine.run_tick()
        engine.apply_events([ev.RemoveTaskEvent(timestamp=0, task_id="t0"),
                             ev.RemoveTaskEvent(timestamp=0, task_id="t1")])
        run_ticks(engine, 3)
        assert engine.cell.conservation_holds()
        assert engine.reservation_invariant_holds()
        assert "t0" not in engine.cell.tasks

    def test_node_removal_requeues_tasks(self):
        engine = build_engine([(1.0, 1.0)] * 4, seed=3)
        add_task(engine, "a", required=(0.1, 0.1), used=(0.1, 0.1), node="n000")
        add_task(engine, "b", required=(0.1, 0.1), used=(0.1, 0.1), node="n000")
        engine.apply_events([ev.RemoveNodeEvent(timestamp=0, node_id="n000")])
        assert set(engine.cell.pending) == {"a", "b"}
        run_ticks(engine, 3)
        assert list(engine.cell.pending) == []
        assert set(engine.cell.placement) == {"a", "b"}
        assert engine.cell.conservation_holds()

    def test_unschedulable_reported(self):
        engine = build_engine([(1.0, 1.0)])
        engine.apply_events([ev.AddTaskEvent(
            timestamp=0, task_id="nope", required=(0.1, 0.1),
            constraints=(TaskConstraint(Op.EQUAL, "missing", "x"),))])
        run_ticks(engine, 1)
        assert "nope" in engine.unschedulable


def test_status_messages_flow_every_tick():
    trace = []
    engine = build_engine([(1.0, 1.0)] * 3, seed=9)
    engine.message_trace = trace.append
    engine.run_tick()
    status_lines = [line for line in trace if MessageKind.STATUS_REPORT.value in line]
    assert len(status_lines) == 3  # one per node


def test_node_added_again_keeps_its_reservations():
    # with two rounds a tick, a placement reserved in the last round is
    # committed when the confirmation lands next tick
    engine = build_engine([(1.0, 1.0)] * 2, seed=4,
                          config=AgentConfig(rounds_per_tick=2, audit=True))
    add_task(engine, "big", required=(0.9, 0.9), used=(0.9, 0.9), node="n000")
    engine.apply_events([ev.AddTaskEvent(timestamp=0, task_id="t", required=(0.3, 0.3))])
    engine.run_tick()
    agent = engine.agents["n001"]
    assert "t" in agent.in_migrations and engine.reservation_target == {"t": "n001"}
    engine.apply_events([ev.AddNodeEvent(timestamp=0, node_id="n001", total=(1.0, 1.0))])
    assert engine.agents["n001"] is agent and "t" in agent.in_migrations
    engine.run_tick()
    assert engine.cell.placement["t"] == "n001"
    assert engine.reservation_target == {} and not agent.in_migrations
    # the node leaves: its task must be placed again, not wait for a
    # reservation that no agent holds
    engine.apply_events([ev.RemoveTaskEvent(timestamp=0, task_id="big"),
                         ev.RemoveNodeEvent(timestamp=0, node_id="n001")])
    run_ticks(engine, 3)
    assert engine.cell.placement == {"t": "n000"}
    assert engine.cell.conservation_holds()


def test_status_report_from_a_removed_node_is_ignored():
    # with one round a tick, the status reports sent in a tick reach the
    # brokers after the next window's events, which may remove the sender
    engine = build_engine([(1.0, 1.0)] * 3, seed=6,
                          config=AgentConfig(rounds_per_tick=1, audit=True))
    engine.run_tick()
    engine.apply_events([ev.RemoveNodeEvent(timestamp=0, node_id="n002"),
                         ev.AddTaskEvent(timestamp=0, task_id="t", required=(0.3, 0.3))])
    run_ticks(engine, 4)
    assert all("n002" not in broker.cache for broker in engine.brokers.values())
    assert engine.cell.placement["t"] in ("n000", "n001")


def check_agent_invariants(engine):
    """The facts the engine keeps outside the cell agree with the cell."""
    for node_id, agent in engine.agents.items():
        assert agent.node is engine.cell.nodes[node_id]
        # a negotiation is only open for a task on the agent's own node
        assert set(agent.negotiations) <= agent.node.residents, node_id
    assert engine.agents.keys() == engine.cell.nodes.keys()
    assert engine.reservation_invariant_holds()
    for task_id, node_id in engine.reservation_target.items():
        assert task_id in engine.agents[node_id].in_migrations, (task_id, node_id)
    assert engine.cell.conservation_holds()
    assert_loads_match(engine.cell)


@pytest.mark.parametrize("rounds", [2, 6])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_churn_keeps_agent_invariants(seed, rounds, monkeypatch):
    """Seeded random windows of task arrivals and removals, usage jumps,
    node total changes, node removals and node re-adds (of live and of
    removed nodes); the invariants hold after every tick.

    A source agent keeps no record of its departures: the migration has
    completed, and closed the source's negotiation, before the confirmation
    reaches it.  Each confirmation a node agent receives checks that."""
    confirmations = []
    handle = NodeAgent.handle

    def checked_handle(agent, message):
        if message.kind is MessageKind.TASK_MIGRATION_PROCESS_CONFIRMATION_RESPONSE:
            assert message.task.task_id not in agent.negotiations, (agent.id, message.task.task_id)
            confirmations.append(message.task.task_id)
        handle(agent, message)

    monkeypatch.setattr(NodeAgent, "handle", checked_handle)
    rng = random.Random(seed)
    engine = build_engine([(1.0, 1.0)] * 6, seed=seed,
                          config=AgentConfig(rounds_per_tick=rounds, audit=True))
    gone: dict[str, tuple] = {}
    next_task = 0
    for _ in range(30):
        batch = []
        for _ in range(rng.randrange(1, 8)):
            tasks, nodes = sorted(engine.cell.tasks), sorted(engine.cell.nodes)
            roll = rng.random()
            cost = None  # drawn for a usage event, set once it is applied
            if roll < 0.3 or not tasks:
                required = (rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3))
                batch.append(ev.AddTaskEvent(timestamp=0, task_id=f"t{next_task}",
                                             required=required))
                next_task += 1
            elif roll < 0.45:
                batch.append(ev.RemoveTaskEvent(timestamp=0, task_id=rng.choice(tasks)))
            elif roll < 0.7:
                used = (rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.6))
                batch.append(ev.UpdateTaskUsedEvent(timestamp=0, task_id=rng.choice(tasks),
                                                    used=used))
                cost = rng.uniform(1, 100)
            elif roll < 0.8:
                total = (rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5))
                batch.append(ev.UpdateNodeTotalEvent(timestamp=0, node_id=rng.choice(nodes),
                                                     total=total))
            elif roll < 0.9 and len(nodes) > 2:
                node_id = rng.choice(nodes)
                gone[node_id] = engine.cell.nodes[node_id].total
                batch.append(ev.RemoveNodeEvent(timestamp=0, node_id=node_id))
            else:
                node_id = rng.choice(sorted(gone) + nodes)
                total = gone.pop(node_id, None) or engine.cell.nodes[node_id].total
                batch.append(ev.AddNodeEvent(timestamp=0, node_id=node_id, total=total))
            # apply one at a time: the choices above read the cell as it stands
            engine.apply_events(batch[-1:])
            if cost is not None:
                engine.cell.tasks[batch[-1].task_id].migration_cost_mb = cost
        engine.run_tick()
        check_agent_invariants(engine)
    assert confirmations
