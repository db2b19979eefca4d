"""Agent protocol behavior: quoting, admission, negotiation, safety."""

import copy
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import admission_oracle
import quote_oracle
import selection_oracle
from cell_oracle import assert_loads_match
from support import overloaded_count, place_directly, transfers_settled
from cellsim.agents import (
    REALLOC_PARAMS,
    AgentConfig,
    AgentEngine,
    FORCED_FITNESS,
    Message,
    MessageKind,
    NodeAgent,
    NodeStats,
    TaskSnapshot,
    select_candidate_services,
)
from cellsim.agents import engine as engine_module
from cellsim.agents.engine import INITIAL_SCAN_LIMIT, RECOMMENDATION_COUNT
from cellsim.agents.messages import ZERO_SCORE_FITNESS
from cellsim.agents.scoring import SCORERS, score
from cellsim.harness.snapshot import load_snapshot, save_snapshot
from cellsim.model import ResourceTypeCatalog
from cellsim.workload import CellState, ConstraintOperator as Op, TaskConstraint
from cellsim.workload.constraints import matches_attributes
from cellsim.workload.state import TaskRuntime
from cellsim.workload import events as ev
from scoring_oracle import allocation_score

CAT2 = ResourceTypeCatalog(("cpu", "memory"))
MIN_US = 60 * 1_000_000


def snap(task_id, required, used, production=False, constraints=(), cost=10.0):
    """A task snapshot with float64 vectors, as ``AgentEngine.snapshot_task``
    builds them."""
    return TaskSnapshot(task_id, np.array(required, dtype=float), np.array(used, dtype=float),
                        production, tuple(constraints), cost)


def pending_mail(engine):
    """The messages queued for the next round, recipient by recipient."""
    return [message for mailbox in engine._mailboxes.values() for message in mailbox]


def build_engine(node_totals, seed=1, config=None, attrs=None, records=None):
    """An engine that audits every placement and migration, into ``records``
    if given."""
    cell = CellState(CAT2)
    engine = AgentEngine(cell, config or AgentConfig(), seed=seed)
    engine.audit = (records if records is not None else []).append
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
        place_directly(engine, task_id, node)


def quote_one(broker, snapshot, initial, exclude):
    """The broker's quote for one request: a batch of one."""
    return broker.quote([(snapshot, exclude)], initial)[0]


def resident(task_id, used, migration_cost_mb, production):
    """A resident task's row, of which the selection reads the id, usage,
    migration cost and production flag."""
    return TaskRuntime(task_id=task_id, required=used, used=used,
                       migration_cost_mb=migration_cost_mb, production=production)


class TestSelection:
    def _candidates(self, spec):
        return [resident(task_id=f"t{i}", used=np.array(u, dtype=float),
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
    candidates = [resident(
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


def assert_selection_matches_oracle(total, used, candidates, compulsory, seed,
                                    oracle=selection_oracle.select_candidate_services):
    """The search decides as the oracle: the same subset, fitness and flags,
    and the same random draws.  Returns the result and, per restart, whether
    it beat the best subset so far."""
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    result = select_candidate_services(
        total=total, used=used, removable=candidates, compulsory_ids=compulsory, rng=rng)
    improved = []
    expected = oracle(total=total, used=used, removable=candidates, compulsory_ids=compulsory,
                      rng=oracle_rng, improved=improved)
    assert result == expected, seed
    assert rng.getstate() == oracle_rng.getstate(), seed
    return result, improved


def reset_inside_a_wave(improved):
    """Whether a restart after a wave's first beat the best subset, so the
    stall count restarts inside the wave."""
    return any(any(wave[1:]) for wave in selection_oracle.waves(improved))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_selection_matches_from_scratch_oracle(data):
    """With usages in 64ths and whole-number costs every sum is exact, so
    the lockstep search that ranks probes from the current subset plus or
    minus one row decides as the one-restart-at-a-time search that sums
    every probe from scratch, up to 200 removable tasks."""
    count = data.draw(st.integers(2, 40) | st.integers(150, 200))
    sixty_fourths = st.integers(0, 63).map(lambda k: k / 64)
    candidates = [resident(
        task_id=f"t{i:03d}", used=np.array(data.draw(st.tuples(sixty_fourths, sixty_fourths))),
        migration_cost_mb=float(data.draw(st.integers(0, 1000))),
        production=data.draw(st.booleans())) for i in range(count)]
    compulsory = [c.task_id for c in candidates if data.draw(st.integers(0, 7)) == 0]
    total = np.array(data.draw(st.tuples(*[st.integers(16, 32 * count)] * 2))) / 64
    # load the node does not offer up: where it is large, nothing de-overloads
    pinned = np.array(data.draw(st.tuples(*[st.integers(0, 8 * count)] * 2))) / 64
    used = np.add.reduce([c.used for c in candidates]) + pinned
    _, improved = assert_selection_matches_oracle(total, used, candidates, compulsory,
                                                  data.draw(st.integers(0, 2**32)))
    waves = selection_oracle.waves(improved)
    event(f"waves: {min(len(waves), 3)}")
    event(f"reset inside a wave: {reset_inside_a_wave(improved)}")


def test_selection_accepts_on_exact_sums():
    """With usages in tenths and costs in sevenths the sums round, and a
    probe's load derived from the current subset's drifts from its own sum
    in the last bits: accepted on its own sum, each step still decides as
    the from-scratch oracle, and the lockstep waves decide bit for bit as
    the one-restart-at-a-time search.  The cases reach a third wave, restart
    the stall count inside a wave and hold up to 200 removable tasks."""
    draw = random.Random(11)
    many_waves = resets = large = 0
    for seed in range(260):
        count = draw.randint(2, 30) if seed < 200 else draw.randint(150, 200)
        candidates = [resident(
            task_id=f"t{i:03d}", used=np.array([draw.randint(1, 9) / 10, draw.randint(1, 9) / 10]),
            migration_cost_mb=draw.randint(1, 999) / 7, production=draw.random() < 0.3)
            for i in range(count)]
        compulsory = [c.task_id for c in candidates if draw.random() < 0.1]
        total = np.array([draw.uniform(0.5, count / 3), draw.uniform(0.5, count / 3)])
        used = np.add.reduce([c.used for c in candidates])
        if seed < 200:
            assert_selection_matches_oracle(total, used, candidates, compulsory, seed)
        result, improved = assert_selection_matches_oracle(
            total, used, candidates, compulsory, seed, oracle=selection_oracle.sequential)
        many_waves += len(selection_oracle.waves(improved)) >= 3
        resets += reset_inside_a_wave(improved)
        large += count >= 150 and len(result.task_ids) > 8
    assert many_waves and resets and large, (many_waves, resets, large)


def test_greedy_start_sheds_on_until_the_exact_sum_fits():
    """The greedy start stops on a running load.  Here that load, after four
    tasks, rounds to exactly the capacity while the four tasks' own sum
    leaves the node 1 ulp over it: the start must shed a fifth task, as the
    from-scratch oracle does, not hand the tabu steps an overloaded subset."""
    first = (0.6, 0.7, 0.9, 0.1, 0.6, 0.5, 0.9)
    second = (0.0, 0.3, 0.2, 0.2, 0.0, 0.2, 0.1)
    rank = {5: 0, 3: 1, 6: 2, 1: 3, 0: 4, 4: 5, 2: 6}  # costs fix the greedy order
    candidates = [resident(
        task_id=f"t{i}", used=np.array([first[i], second[i]]),
        migration_cost_mb=first[i] * 4.0 ** rank[i], production=False) for i in range(7)]
    used = np.add.reduce([c.used for c in candidates])
    total = np.array([2.0999999999999996, 1.5])
    result, _ = assert_selection_matches_oracle(total, used, candidates, [], 0)
    assert result.task_ids == ["t0", "t1", "t4", "t5", "t6"]
    assert_selection_matches_oracle(total, used, candidates, [], 0, oracle=selection_oracle.sequential)


class TestBrokerQuotes:
    def test_single_matching_node(self):
        engine = build_engine([(1.0, 1.0), (1.0, 1.0)],
                              attrs={0: (("gpu", "yes"),)})
        snapshot = TaskSnapshot("t", (0.1, 0.1), (0.1, 0.1), False,
                                (TaskConstraint(Op.EQUAL, "gpu", "yes"),), 10.0)
        broker = engine.brokers["broker-000"]
        quote = quote_one(broker, snapshot, True, None)
        assert quote.node_ids == ["n000"]

    def test_no_matching_node_is_unschedulable(self):
        engine = build_engine([(1.0, 1.0)] * 3)
        snapshot = TaskSnapshot("t", (0.1, 0.1), (0.1, 0.1), False,
                                (TaskConstraint(Op.EQUAL, "gpu", "yes"),), 10.0)
        broker = engine.brokers["broker-000"]
        assert quote_one(broker, snapshot, True, None) is None

    def test_quote_shape_scored_then_forced(self):
        # nodes almost full: some still score, others only fit by total capacity
        totals = [(1.0, 1.0)] * 20
        engine = build_engine(totals)
        for index in range(8):
            add_task(engine, f"busy{index}", required=(0.2, 0.2),
                     used=(0.88, 0.88), node=f"n{index:03d}")
        snapshot = TaskSnapshot("t", (0.2, 0.2), (0.1, 0.1), False, (), 10.0)
        broker = engine.brokers["broker-000"]
        quote = quote_one(broker, snapshot, True, None)
        assert len(quote.node_ids) == len(quote.fitness) == len(quote.available) == 15
        assert quote.regular == 12  # the 12 nodes with room come first
        regular, forced = quote.node_ids[:12], quote.node_ids[12:]
        assert set(regular) == {f"n{i:03d}" for i in range(8, 20)}
        assert set(forced) < {f"n{i:03d}" for i in range(8)}  # busy-but-capable nodes pad the tail
        fits = quote.fitness[:12]
        assert fits == sorted(fits, reverse=True)
        assert all(fit == FORCED_FITNESS for fit in quote.fitness[12:])
        room = np.all(quote.available >= 0.2, axis=1)
        assert room.tolist() == [True] * 12 + [False] * 3  # forced entries trail

    def test_deterministic_quotes(self):
        def run():
            engine = build_engine([(1.0, 1.0)] * 30, seed=77)
            snapshot = TaskSnapshot("t", (0.2, 0.2), (0.1, 0.1), False, (), 10.0)
            broker = engine.brokers["broker-000"]
            quote = quote_one(broker, snapshot, True, None)
            return quote.node_ids, quote.fitness, quote.regular, quote.available.tolist()

        assert run() == run()

    def test_attribute_change_between_ticks_reaches_quotes(self):
        engine = build_engine([(1.0, 1.0)] * 2, attrs={0: (("gpu", "yes"),)})
        snapshot = TaskSnapshot("t", (0.1, 0.1), (0.1, 0.1), False,
                                (TaskConstraint(Op.EQUAL, "gpu", "yes"),), 10.0)
        broker = engine.brokers["broker-000"]

        def quote():
            return quote_one(broker, snapshot, True, None).node_ids

        assert quote() == ["n000"]
        engine.apply_events([ev.RemoveNodeAttributesEvent(0, "n000", ("gpu",)),
                             ev.AddNodeAttributesEvent(0, "n001", (("gpu", "yes"),))])
        assert quote() == ["n001"]

    def test_exclude_source(self):
        engine = build_engine([(1.0, 1.0)] * 2)
        snapshot = TaskSnapshot("t", (0.1, 0.1), (0.1, 0.1), False, (), 10.0)
        broker = engine.brokers["broker-000"]
        quote = quote_one(broker, snapshot, False, "n000")
        assert quote.node_ids == ["n001"]


#: The table test's attributes: names, values (integers for the numeric
#: operators, a word they cannot parse, the empty string) and the numeric
#: operators' bounds.
ATTRIBUTE_NAMES = ("rack", "size", "zone")
ATTRIBUTE_VALUES = ("1", "3", "5", "x", "")
BOUNDS = ("2", "4")
#: Every one-constraint set: all four operators, on every name and value.
SINGLE_CONSTRAINTS = [(TaskConstraint(op, name, value),) for name in ATTRIBUTE_NAMES
                      for op, values in ((Op.EQUAL, ATTRIBUTE_VALUES), (Op.NOT_EQUAL, ATTRIBUTE_VALUES),
                                         (Op.LESS_THAN, BOUNDS), (Op.GREATER_THAN, BOUNDS))
                      for value in values]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_constraint_table_follows_node_events(data):
    """After every node event (nodes added, added again and removed,
    attributes added and removed, on nodes present or not) each of the
    cell's rows equals ``matches_attributes`` node by node, and every
    broker's eligible rows equal its cache rows' matches, ascending, and
    the general path's (the empty set takes a path of its own).  The
    sets are every one-constraint set (absent attributes and the empty
    ``EQUAL`` value among them), random conjunctions and the empty set."""
    names, values = st.sampled_from(ATTRIBUTE_NAMES), st.sampled_from(ATTRIBUTE_VALUES)
    attributes = st.lists(st.tuples(names, values), max_size=3).map(tuple)
    node_ids = st.integers(0, 4).map("n{:03d}".format)
    engine = build_engine([(1.0, 1.0)] * data.draw(st.integers(0, 4)),
                          config=AgentConfig(broker_count=data.draw(st.integers(1, 2))),
                          attrs={i: data.draw(attributes) for i in range(4)})
    conjunctions = st.lists(st.sampled_from(SINGLE_CONSTRAINTS), min_size=2, max_size=3).map(
        lambda sets: sum(sets, ()))
    sets = SINGLE_CONSTRAINTS + data.draw(st.lists(conjunctions, max_size=3)) + [()]
    events = st.one_of(
        st.builds(ev.AddNodeEvent, st.just(0), node_ids, st.just((1.0, 1.0)), attributes),
        st.builds(ev.RemoveNodeEvent, st.just(0), node_ids),
        st.builds(ev.AddNodeAttributesEvent, st.just(0), node_ids, attributes),
        st.builds(ev.RemoveNodeAttributesEvent, st.just(0), node_ids,
                  st.lists(names, min_size=1, max_size=2).map(tuple)))
    cell = engine.cell
    for event in [None] + data.draw(st.lists(events, max_size=12)):
        if event is not None:
            engine.apply_events([event])
        nodes = cell.nodes
        for constraints in sets:
            matches = [matches_attributes(constraints, nodes[node_id].attributes)
                       for node_id in sorted(nodes)]
            # one node's answer, before its row is built (after a node event) and after
            assert [cell.admits(constraints, node_id) for node_id in sorted(nodes)] == matches
            row = cell.eligible(constraints)
            assert row.tolist() == matches
            assert [cell.admits(constraints, node_id) for node_id in sorted(nodes)] == matches
            index = cell.node_index()
            for broker in engine.brokers.values():
                old = np.flatnonzero([matches_attributes(constraints, nodes[node_id].attributes)
                                      for node_id in broker.node_ids])
                # the general path, which the empty set skips: the set's row
                # at the cache rows' positions in the cell
                general = np.flatnonzero(row.take([index[node_id] for node_id in broker.node_ids]))
                eligible = broker.eligible_rows(constraints)
                assert eligible.dtype == old.dtype == general.dtype
                assert eligible.tolist() == old.tolist() == general.tolist()


def test_constraint_table_is_bounded():
    """Past ``ROW_CELLS`` booleans the rows are dropped, and rebuilt equal."""
    engine = build_engine([(1.0, 1.0)] * 4, attrs={i: (("rack", str(i)),) for i in range(4)})
    cell = engine.cell
    cell.ROW_CELLS = 8
    for rack in "0123" * 2:
        row = cell.eligible((TaskConstraint(Op.EQUAL, "rack", rack),))
        assert row.tolist() == [node_id == f"n00{rack}" for node_id in sorted(cell.nodes)]
        assert len(cell._rows) <= 2


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
    snapshot = TaskSnapshot("t", required, used, False, constraints, 10.0)
    quote = quote_one(engine.brokers["broker-000"], snapshot, initial, requester)

    nodes = engine.cell.nodes
    eligible = {node_id for node_id in nodes if node_id != requester
                and matches_attributes(constraints, nodes[node_id].attributes)}
    if not eligible:
        assert quote is None
        return
    task_vec = np.asarray(required if initial else used)
    ids = quote.node_ids
    assert len(ids) == len(set(ids)) <= RECOMMENDATION_COUNT
    assert len(quote.fitness) == len(quote.available) == len(ids)
    assert 0 <= quote.regular <= len(ids)
    assert set(ids) <= eligible
    bands = []
    for i, (node_id, fitness) in enumerate(zip(ids, quote.fitness)):
        room = np.all(quote.available[i] >= task_vec)
        if i >= quote.regular:
            assert fitness == FORCED_FITNESS
            assert np.all(np.asarray(required) <= nodes[node_id].total) and not room
            bands.append(2)
        elif fitness == ZERO_SCORE_FITNESS:
            assert room
            bands.append(1)
        else:
            assert fitness > 0.0 and fitness != FORCED_FITNESS
            bands.append(0)
    assert bands == sorted(bands)
    scored = [fit for fit in quote.fitness[:quote.regular] if fit != ZERO_SCORE_FITNESS]
    assert scored == sorted(scored, reverse=True)
    if len(ids) < RECOMMENDATION_COUNT:
        capable = {n for n in eligible if np.all(np.asarray(required) <= nodes[n].total)}
        assert capable <= set(ids)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_batched_quotes_equal_the_scalar_oracle(data):
    """Every quote of a batched round equals the scalar oracle's, fed the
    quote's pool positions and its row of draws: node ids, fitness, room and
    regular count.  The scan limit and the batch size are shrunk so that
    eligible counts fall on both sides of the limit and a round splits into
    several batches; loads up to 130% of a node give zero-score rows and
    forced bands.  Each batch draws distinct in-range positions."""
    count = data.draw(st.integers(1, 30))
    limit = data.draw(st.integers(1, 12))
    batch_rows = data.draw(st.integers(1, 40))
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
    initial = data.draw(st.booleans())
    requests = []
    for k in range(data.draw(st.integers(1, 8))):
        required = data.draw(st.tuples(st.floats(0.01, 1.5), st.floats(0.01, 1.5)))
        used = tuple(r * data.draw(st.floats(0.0, 1.0)) for r in required)
        constraints = tuple(TaskConstraint(op, "rack", rack) for op, rack in data.draw(st.lists(
            st.tuples(st.sampled_from([Op.EQUAL, Op.NOT_EQUAL]), st.sampled_from("abc")),
            max_size=2)))
        requester = data.draw(st.one_of(st.none(),
                                        st.integers(0, count - 1).map("n{:03d}".format)))
        requests.append((TaskSnapshot(f"t{k}", np.array(required), np.array(used), False,
                                      constraints, 10.0), requester))

    assert_quotes_match_oracle(engine.brokers["broker-000"], requests, initial, limit, batch_rows)


def assert_quotes_match_oracle(broker, requests, initial, limit, batch_rows):
    """Quote ``requests`` as one round with the scan limit and batch size
    given, and check every quote against the scalar oracle, fed its pool
    positions and its row of draws."""
    engine = broker.engine
    config = engine.config
    batches = []
    draw_pools = engine_module.draw_pools

    def recorded(rng, counts, scan_limit):
        positions, valid = draw_pools(rng, counts, scan_limit)
        batches.append((counts.copy(), positions.copy(), copy.deepcopy(rng)))
        return positions, valid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "draw_pools", recorded)
        patch.setattr(engine_module, "INITIAL_SCAN_LIMIT", limit)
        patch.setattr(engine_module, "REALLOC_SCAN_LIMIT", limit)
        patch.setattr(engine_module, "QUOTE_BATCH_ROWS", batch_rows)
        quotes = broker.quote(requests, initial)

    n = len(broker.node_ids)
    cache_totals = broker.totals[:n]
    cache_used = np.maximum(cache_totals - broker.available[:n], 0.0)
    nodes = engine.cell.nodes
    scorer = config.initial_scorer if initial else config.realloc_scorer
    per_batch = max(1, batch_rows // min(limit, n))
    recorded_batches = iter(batches)
    assert len(quotes) == len(requests)
    for start in range(0, len(requests), per_batch):
        eligibles = [[row for row, node_id in enumerate(broker.node_ids) if node_id != requester
                      and matches_attributes(snapshot.constraints, nodes[node_id].attributes)]
                     for snapshot, requester in requests[start:start + per_batch]]
        live = [j for j, eligible in enumerate(eligibles) if eligible]
        if not live:
            assert quotes[start:start + per_batch] == [None] * len(eligibles)
            continue
        counts, positions, rng = next(recorded_batches)
        assert counts.tolist() == [len(eligibles[j]) for j in live]
        assert positions.size <= max(batch_rows, min(limit, n))
        draws = rng.standard_exponential(positions.shape)
        for j, (snapshot, requester) in enumerate(requests[start:start + per_batch]):
            quote = quotes[start + j]
            if j not in live:
                assert quote is None
                continue
            row = live.index(j)
            eligible = eligibles[j]
            size = min(limit, len(eligible))
            pool = positions[row, :size].tolist()
            assert len(set(pool)) == size and all(0 <= p < len(eligible) for p in pool)
            rows, fitness, regular = quote_oracle.quote(
                scorer, cache_totals, cache_used, eligible, pool, draws[row, :size].tolist(),
                snapshot.required, snapshot.required if initial else snapshot.used, rng)
            assert quote.node_ids == [broker.node_ids[r] for r in rows]
            assert requester not in quote.node_ids
            assert quote.fitness == fitness
            assert quote.regular == regular
            assert np.array_equal(quote.available, cache_totals[rows] - cache_used[rows])
    assert next(recorded_batches, None) is None


@pytest.mark.parametrize("scorer", ["sias_gain", "sras_gain"])
def test_gain_quotes_follow_every_cache_change(scorer):
    """A gain scorer's before-scores come from a table of each cached node's
    own score, built once per cache refresh.  After each change to the cache
    (a status report, gossip, a node added, a node dropped) every quote
    still equals the scalar oracle, which scores each pool node's load
    afresh.  Every node is in every pool, so a stale row would show."""
    draw = random.Random(3)
    totals = [(draw.uniform(0.5, 2.0), draw.uniform(0.5, 2.0)) for _ in range(12)]
    engine = build_engine(totals, seed=5, config=AgentConfig(
        initial_scorer=scorer, realloc_scorer=scorer, broker_count=2))
    for i, total in enumerate(totals):
        load = tuple(t * draw.uniform(0.0, 0.9) for t in total)
        add_task(engine, f"load{i}", required=load, used=load, node=f"n{i:03d}")
    broker, other = engine.brokers.values()
    requests = [(snap(f"t{k}", (0.3, 0.2), (0.2, 0.1)), None) for k in range(6)]

    def check():
        for initial in (True, False):
            assert_quotes_match_oracle(broker, requests, initial, limit=20, batch_rows=40)

    check()
    broker.update_cache(NodeStats("n003", np.array(totals[3]), np.zeros(2)), 1)
    check()
    other.update_cache(NodeStats("n004", np.array(totals[4]), np.array(totals[4]) * 0.5), 2)
    engine._gossip()
    check()
    engine.apply_events([ev.AddNodeEvent(timestamp=0, node_id="n100", total=(1.5, 1.5))])
    check()
    engine.apply_events([ev.RemoveNodeEvent(timestamp=0, node_id="n002")])
    check()


def test_gossip_keeps_each_rows_newest_report():
    """With several brokers every cache ends the merge with the same rows,
    each holding the newest report any broker had of its node."""
    engine = build_engine([(1.0, 1.0)] * 3, config=AgentConfig(broker_count=3))
    first, second, third = engine.brokers.values()
    total = np.array([1.0, 1.0])

    def report(broker, node_id, load, now):
        broker.update_cache(NodeStats(node_id, total, np.array([load, load])), now)

    report(first, "n001", 0.5, 10)
    report(second, "n001", 0.7, 20)
    report(third, "n002", 0.3, 30)
    report(first, "n002", 0.9, 5)
    engine._gossip()
    for broker in engine.brokers.values():
        assert broker.node_ids == first.node_ids
        available = dict(zip(broker.node_ids, broker.available[:3, 0].tolist()))
        assert available == pytest.approx({"n000": 1.0, "n001": 0.3, "n002": 0.7})
        quote = quote_one(broker, TaskSnapshot("t", (0.8, 0.8), (0.0, 0.0), False, (), 1.0),
                          True, None)
        assert quote.node_ids[:quote.regular] == ["n000"]  # the one node with room


def big_cell(big_every=0):
    """500 nodes in four attribute groups, each with its own cpu total, so a
    row of scanned totals names its node; every ``big_every``-th node has
    twice the capacity."""
    totals = [(2.0 + i * 1e-3, 2.0) if big_every and i % big_every == 0 else (1.0 + i * 1e-3, 1.0)
              for i in range(500)]
    attrs = {i: (("group", str(i % 4)),) for i in range(500)}
    return build_engine(totals, seed=11, attrs=attrs)


def scanned_pools(monkeypatch):
    """Record, for every quote, the node ids of the pool it scored."""
    pools = []

    def spy(scorer, totals, before, after):
        cpu_base = np.where(totals[:, 1] > 1.5, 2.0, 1.0)
        pools.append([f"n{i:03d}" for i in np.rint((totals[:, 0] - cpu_base) * 1e3).astype(int)])
        return score(scorer, totals, before, after)

    monkeypatch.setattr(engine_module, "score", spy)
    return pools


@pytest.mark.parametrize("constraints,requester", [
    ((), "n007"),
    ((TaskConstraint(Op.NOT_EQUAL, "group", "1"),), "n008"),  # the requester matches
    ((TaskConstraint(Op.NOT_EQUAL, "group", "1"),), "n009"),  # the requester does not
])
def test_pool_above_scan_limit_samples_eligible_nodes(constraints, requester, monkeypatch):
    """Above the scan limit a quote scores a sample of the eligible nodes:
    the scan limit's count of distinct nodes, never the requester or a node
    the constraints exclude, and over a series of quotes every one of them."""
    engine = big_cell()
    pools = scanned_pools(monkeypatch)
    nodes = engine.cell.nodes
    eligible = {node_id for node_id in nodes if node_id != requester
                and matches_attributes(constraints, nodes[node_id].attributes)}
    assert len(eligible) > INITIAL_SCAN_LIMIT
    snapshot = TaskSnapshot("t", (0.1, 0.1), (0.0, 0.0), False, constraints, 10.0)
    broker = engine.brokers["broker-000"]
    for _ in range(40):
        quote_one(broker, snapshot, True, requester)
    assert len(pools) == 40
    for pool in pools:
        assert len(pool) == len(set(pool)) == INITIAL_SCAN_LIMIT
        assert set(pool) <= eligible
    assert set().union(*pools) == eligible


def test_forced_band_reaches_unscanned_nodes(monkeypatch):
    """On a full cell where few nodes have the capacity for the task, the
    forced band lists every capable node: first those the pool scanned,
    then ones it did not."""
    engine = big_cell(big_every=50)
    for i, node in enumerate(sorted(engine.cell.nodes)):
        load = tuple(0.95 * t for t in engine.cell.nodes[node].total)
        add_task(engine, f"load{i}", required=load, used=load, node=node)
    pools = scanned_pools(monkeypatch)
    snapshot = TaskSnapshot("t", (1.5, 1.5), (0.0, 0.0), False, (), 10.0)
    quote = quote_one(engine.brokers["broker-000"], snapshot, True, None)
    capable = {f"n{i:03d}" for i in range(0, 500, 50)}
    assert quote.regular == 0  # every entry is forced
    assert quote.fitness == [FORCED_FITNESS] * len(capable)
    assert set(quote.node_ids) == capable
    in_pool = [node_id in set(pools[0]) for node_id in quote.node_ids]
    assert in_pool == sorted(in_pool, reverse=True) and not all(in_pool)


QUOTE_ENTRIES = [
    "CandidateNodeRecommendation[nodeId=n003,nodeAvailableResources=[0.8000000000,0.7500000000],"
    "fitnessValue=0.332346651303,forceMigration=false]",
    "CandidateNodeRecommendation[nodeId=n002,nodeAvailableResources=[1.0000000000,1.0000000000],"
    "fitnessValue=0.200000000000,forceMigration=false]",
    "CandidateNodeRecommendation[nodeId=n001,nodeAvailableResources=[0.3000000000,0.4000000000],"
    "fitnessValue=0.000000000001,forceMigration=true]",
]


def test_sampled_quote_and_target_records():
    """The first sampled quote and target-selection records of a fixed run,
    text for text: two regular entries, then a forced one, and the star on
    the entry the source chose."""
    engine = build_engine([(1.0, 1.0)] * 4, seed=3)
    add_task(engine, "a", required=(0.7, 0.5), used=(0.6, 0.5), node="n000", cost=120.0)
    add_task(engine, "b", required=(0.6, 0.6), used=(0.5, 0.55), node="n000", cost=80.0)
    add_task(engine, "c", required=(0.7, 0.7), used=(0.7, 0.6), node="n001", cost=10.0)
    add_task(engine, "d", required=(0.3, 0.3), used=(0.2, 0.25), node="n003", cost=10.0)
    records = []
    engine.log = records.append
    run_ticks(engine, 2)
    quotes = [r for r in records if r.startswith("SAMPLE: candidate nodes")]
    targets = [r for r in records if r.startswith("SAMPLE: accepted")]
    assert quotes[0].split("\n") == [
        "SAMPLE: candidate nodes recommendations for migration-out of task:",
        "Task [b] Required resources=[0.6000000000, 0.6000000000] Migration cost = 80.00 [MB]",
        "Source node: [n000]",
        *QUOTE_ENTRIES,
    ]
    assert targets[0].split("\n") == [
        "SAMPLE: accepted recommendations for migration-out of task:",
        "Task [b] Migration cost = 80.00 [MB]",
        "Source node: [n000]",
        "All non-expired recommendations (* selected):",
        QUOTE_ENTRIES[0], "* " + QUOTE_ENTRIES[1], QUOTE_ENTRIES[2],
    ]


def test_unschedulable_quote_is_answered_with_none():
    engine = build_engine([(1.0, 1.0)] * 2, attrs={0: (("gpu", "yes"),)})
    snapshot = TaskSnapshot("t", np.array([0.1, 0.1]), np.array([0.1, 0.1]), False,
                            (TaskConstraint(Op.EQUAL, "gpu", "yes"),), 10.0)
    engine.brokers["broker-000"].deliver([Message(
        kind=MessageKind.GET_CANDIDATE_NODES_REQUEST, sender="n000", recipient="broker-000",
        correlation_id=7, task=snapshot)])
    (reply,) = [m for m in pending_mail(engine)
                if m.kind is MessageKind.GET_CANDIDATE_NODES_RESPONSE]
    assert (reply.recipient, reply.correlation_id, reply.quote) == ("n000", 7, None)
    assert engine.unschedulable == {"t"}


class TestAdmission:
    def test_empty_node_accepts_small_task(self):
        engine = build_engine([(1.0, 1.0)])
        agent = engine.agents["n000"]
        snapshot = snap("t", (0.2, 0.2), (0.1, 0.1))
        assert agent.admission_ok(snapshot, forced=False)

    def test_projected_overflow_rejects(self):
        engine = build_engine([(1.0, 1.0)])
        agent = engine.agents["n000"]
        inflight = snap("a", (0.5, 0.5), (0.6, 0.6))
        agent.reserve(inflight)
        snapshot = snap("t", (0.2, 0.2), (0.5, 0.5))
        assert not agent.admission_ok(snapshot, forced=False)

    def test_constraint_mismatch_rejects_even_when_empty(self):
        engine = build_engine([(1.0, 1.0)])
        agent = engine.agents["n000"]
        snapshot = snap("t", (0.1, 0.1), (0.1, 0.1),
                        constraints=(TaskConstraint(Op.EQUAL, "zone", "eu"),))
        assert not agent.admission_ok(snapshot, forced=False)
        assert not agent.admission_ok(snapshot, forced=True)  # survives forcing

    def test_rus_bound_rejects_production_overcommit(self):
        engine = build_engine([(0.5, 1.0)])
        agent = engine.agents["n000"]
        add_task(engine, "prod1", required=(0.3, 0.1), used=(0.05, 0.05),
                 production=True, node="n000")
        snapshot = snap("t", (0.25, 0.1), (0.01, 0.01), production=True)
        assert not agent.admission_ok(snapshot, forced=False)  # 0.55 > 0.5
        non_prod = snap("t2", (0.25, 0.1), (0.01, 0.01))
        assert agent.admission_ok(non_prod, forced=False)

    def test_forced_skips_availability_not_capacity(self):
        engine = build_engine([(1.0, 1.0)])
        agent = engine.agents["n000"]
        add_task(engine, "big", required=(0.2, 0.2), used=(0.95, 0.95), node="n000")
        fits_total = snap("t", (0.3, 0.3), (0.2, 0.2))
        assert not agent.admission_ok(fits_total, forced=False)
        assert agent.admission_ok(fits_total, forced=True)
        too_big = snap("t2", (1.5, 0.1), (0.2, 0.2))
        assert not agent.admission_ok(too_big, forced=True)


#: Admission inputs: tenths and quarters (whose sums land exactly on a
#: bound, or round past it), zero, NaN and infinity.
ADMISSION_VALUES = st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 0.75, 1.0,
                                    math.nan, math.inf])


def stub_agent(total, used, prod_required, incoming_used, incoming_prod_req, attributes=None):
    """What ``NodeAgent.admission_ok`` reads of an agent: its node, the one
    node of a cell, given these loads and attributes, and its reservations."""
    cell = CellState(ResourceTypeCatalog(tuple(f"r{i}" for i in range(len(total)))))
    cell.apply(ev.AddNodeEvent(0, "n", total, tuple((attributes or {}).items())))
    node = cell.nodes["n"]
    node.used, node.prod_required = used, prod_required
    return SimpleNamespace(id="n", node=node, engine=SimpleNamespace(cell=cell),
                           incoming_used=incoming_used, incoming_prod_req=incoming_prod_req)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_admission_matches_generator_oracle(data):
    dim = data.draw(st.integers(1, 3))

    def vector():
        return np.array(data.draw(st.lists(ADMISSION_VALUES, min_size=dim, max_size=dim)))

    zone = TaskConstraint(Op.EQUAL, "zone", "eu")
    agent = stub_agent(vector(), vector(), vector(), vector(), vector(),
                       data.draw(st.sampled_from([{}, {"zone": "eu"}])))
    snapshot = snap("t", vector(), vector(), production=data.draw(st.booleans()),
                    constraints=data.draw(st.sampled_from([(), (zone,)])))
    forced = data.draw(st.booleans())
    assert (NodeAgent.admission_ok(agent, snapshot, forced)
            is admission_oracle.admission_ok(agent, snapshot, forced))


@pytest.mark.parametrize("first, second, third, total", [
    (0.1, 0.2, 0.3, 0.6), (0.1, 0.1, 0.4, 0.6), (0.2, 0.4, 0.3, 0.9)])
def test_admission_adds_in_the_oracles_order(first, second, third, total):
    """``(first + second) + third`` rounds past the total where
    ``first + (second + third)`` does not: the node's load, then the
    incoming reservations, then the task, for both the used and the
    production-required sums."""
    assert (first + second) + third > total >= first + (second + third)
    one = np.array
    by_load = stub_agent(one([total]), one([first]), one([0.0]), one([second]), one([0.0]))
    by_rus = stub_agent(one([total]), one([0.0]), one([first]), one([0.0]), one([second]))
    for agent, snapshot in ((by_load, snap("t", [0.0], [third])),
                            (by_rus, snap("t", [third], [0.0], production=True))):
        assert not NodeAgent.admission_ok(agent, snapshot, False)
        assert not admission_oracle.admission_ok(agent, snapshot, False)


def test_mailboxes_deliver_in_send_order_and_drop_a_removed_nodes_mail():
    """Each recipient gets its round's mail in send order (a broker's
    status reports among its other mail); mail to a node that leaves the
    cell is lost, even when a node of its id comes back."""
    engine = build_engine([(1.0, 1.0)] * 3)
    broker = engine.brokers["broker-000"]
    delivered = []
    broker.deliver = lambda mail: delivered.extend((broker.id, m.correlation_id) for m in mail)
    for agent in engine.agents.values():
        agent.handle = lambda message, node_id=agent.id: delivered.append(
            (node_id, message.correlation_id))
    kinds = {"broker-000": [MessageKind.GET_CANDIDATE_NODES_REQUEST, MessageKind.STATUS_REPORT,
                            MessageKind.GET_CANDIDATE_NODES_REQUEST, MessageKind.STATUS_REPORT]}
    sends = ["n002", "broker-000", "n001", "n000", "broker-000", "n002", "n001",
             "broker-000", "n000", "broker-000", "n002"]
    for corr, recipient in enumerate(sends):
        kind = (kinds[recipient].pop(0) if recipient in kinds
                else MessageKind.TASK_MIGRATION_REQUEST)
        engine.send(Message(kind=kind, sender="n000", recipient=recipient, correlation_id=corr))
    engine.apply_events([ev.RemoveNodeEvent(timestamp=0, node_id="n001"),
                         ev.AddNodeEvent(timestamp=0, node_id="n001", total=(1.0, 1.0))])
    engine.agents["n001"].handle = lambda message: delivered.append(("n001", message))
    engine._run_round(1)
    expected = [(recipient, corr) for recipient in sorted(set(sends)) if recipient != "n001"
                for corr, to in enumerate(sends) if to == recipient]
    assert delivered == expected


def test_rus_spike_counts_jumps_above_a_tenth_of_capacity():
    """A usage update on a placed task is a RUS spike when it raises some
    resource by more than 10% of the node's capacity; a zero-capacity
    resource never counts."""
    engine = build_engine([(2.0, 0.0)])
    add_task(engine, "t", required=(0.1, 0.0), used=(0.1, 0.0), node="n000")
    spikes = []
    for used in ((0.3, 0.0), (0.5, 0.0), (0.5, 0.5), (0.71, 0.5), (0.2, 0.5)):
        engine.apply_events([ev.UpdateTaskUsedEvent(timestamp=0, task_id="t", used=used)])
        spikes.append(engine.metrics.rus_spikes)
    # a rise of 0.2 on a capacity of 2.0 is a tenth, not above it
    assert spikes == [0, 0, 0, 1, 1]


def run_ticks(engine, ticks):
    """Run the ticks; returns their metrics, one TickMetrics per tick."""
    return [engine.run_tick() for _ in range(ticks)]


class TestEndToEnd:
    def _overload_scenario(self, seed=5, rounds_per_tick=6, records=None):
        engine = build_engine([(1.0, 1.0)] * 10, seed=seed,
                              config=AgentConfig(rounds_per_tick=rounds_per_tick),
                              records=records)
        # overload n000 with six tasks, everything else idle
        for index in range(6):
            add_task(engine, f"t{index}", required=(0.25, 0.2),
                     used=(0.22, 0.18), cost=50.0 + index, node="n000")
        return engine

    def test_overload_converges(self):
        engine = self._overload_scenario()
        assert overloaded_count(engine) == 1
        metrics = run_ticks(engine, 5)
        assert overloaded_count(engine) == 0
        assert engine.cell.conservation_holds()
        assert transfers_settled(engine)
        assert sum(m.migrations_completed for m in metrics) > 0

    def test_overloaded_node_sheds_at_two_rounds_a_tick(self):
        # a quote answers two rounds after its request: at two 30 s rounds a
        # tick the negotiation must still be waiting for it
        engine = self._overload_scenario(rounds_per_tick=2)
        metrics = run_ticks(engine, 5)
        assert sum(m.migrations_completed for m in metrics) > 0
        assert len(engine.cell.nodes["n000"].residents) < 6
        assert overloaded_count(engine) == 0

    def test_non_forced_targets_stay_stable(self):
        records = []
        engine = self._overload_scenario(records=records)
        run_ticks(engine, 5)
        for record in records:
            if not record.forced:
                assert record.stable_after
                assert record.rus_after
            assert record.constraints_ok
            assert record.capacity_ok
            assert record.rec_age_us <= record.ttl_us

    def test_last_round_placement_commits_by_the_tick_end(self):
        """At one round a tick, a constrained placement is requested in one
        tick and admitted in the next, whose only round is its last: it is
        placed by that tick's end, and the audit reads its constraints as
        met.  The next window takes the node's attribute away, so the task
        must leave, and it migrates to the one node that admits it."""
        records = []
        gpu = (TaskConstraint(Op.EQUAL, "gpu", "yes"),)
        engine = build_engine([(1.0, 1.0)] * 2, config=AgentConfig(rounds_per_tick=1),
                              attrs={0: (("gpu", "yes"),)}, records=records)
        add_task(engine, "t", required=(0.1, 0.1), used=(0.1, 0.1), constraints=gpu)
        engine.run_tick()  # quoted, and the request sent
        assert records == [] and "t" not in engine.cell.placement
        engine.run_tick()  # admitted, reserved and committed
        assert engine.cell.placement == {"t": "n000"}
        (record,) = records
        assert (record.source, record.target, record.initial) == (None, "n000", True)
        assert record.constraints_ok and record.capacity_ok and record.cost_mb == 0.0
        check_agent_invariants(engine)
        engine.apply_events([ev.RemoveNodeAttributesEvent(0, "n000", ("gpu",)),
                             ev.AddNodeAttributesEvent(0, "n001", (("gpu", "yes"),))])
        run_ticks(engine, 8)
        assert engine.cell.placement == {"t": "n001"}
        moves = [(r.source, r.target, r.initial, r.constraints_ok) for r in records[1:]]
        assert moves == [("n000", "n001", False, True)]

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

    def test_resident_beyond_a_shrunk_total_is_shed_as_compulsory(self):
        # a node whose total drops below a resident's requirement cannot
        # host it even when forced: the resident leaves as compulsory,
        # though the node is not overloaded
        engine = build_engine([(1.0, 1.0)] * 2, seed=3)
        add_task(engine, "big", required=(0.5, 0.2), used=(0.1, 0.1), node="n000")
        add_task(engine, "small", required=(0.1, 0.1), used=(0.1, 0.1), node="n000")
        agent = engine.agents["n000"]
        assert agent._compulsory_tasks() == []
        engine.apply_events([ev.UpdateNodeTotalEvent(timestamp=0, node_id="n000",
                                                     total=(0.4, 1.0))])
        assert not agent.overloaded() and agent._compulsory_tasks() == ["big"]
        run_ticks(engine, 3)
        assert engine.cell.placement == {"big": "n001", "small": "n000"}
        check_agent_invariants(engine)

    def test_task_removal_mid_negotiation_is_clean(self):
        engine = self._overload_scenario()
        engine.run_tick()
        engine.apply_events([ev.RemoveTaskEvent(timestamp=0, task_id="t0"),
                             ev.RemoveTaskEvent(timestamp=0, task_id="t1")])
        run_ticks(engine, 3)
        assert engine.cell.conservation_holds()
        assert transfers_settled(engine)
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
        # once per task, and forgotten when the task ends
        lines = []
        engine = build_engine([(1.0, 1.0)])
        engine.log = lines.append
        engine.apply_events([ev.AddTaskEvent(
            timestamp=0, task_id=task_id, required=(0.1, 0.1),
            constraints=(TaskConstraint(Op.EQUAL, "missing", "x"),)) for task_id in ("nope", "gone")])
        run_ticks(engine, 3)
        assert engine.unschedulable == {"nope", "gone"}
        engine.apply_events([ev.RemoveTaskEvent(timestamp=0, task_id="gone")])
        run_ticks(engine, 3)
        assert engine.unschedulable == {"nope"}
        # a live task is quoted again every tick, but reported once
        assert [line for line in lines if line.startswith("ERROR")] == [
            f"ERROR task {task_id} unschedulable: no matching node in cache"
            for task_id in ("nope", "gone")]


def test_status_messages_flow_every_tick():
    trace = []
    engine = build_engine([(1.0, 1.0)] * 3, seed=9)
    engine.message_trace = trace.append
    engine.run_tick()
    status_lines = [line for line in trace if MessageKind.STATUS_REPORT.value in line]
    assert len(status_lines) == 3  # one per node


def test_node_added_again_keeps_its_agent_and_residents():
    # with two rounds a tick, a placement reserved in the last round commits
    # at the tick's end, so a window that adds the node again finds the task
    # on it and no reservation open
    engine = build_engine([(1.0, 1.0)] * 2, seed=4,
                          config=AgentConfig(rounds_per_tick=2))
    add_task(engine, "big", required=(0.9, 0.9), used=(0.9, 0.9), node="n000")
    engine.apply_events([ev.AddTaskEvent(timestamp=0, task_id="t", required=(0.3, 0.3))])
    engine.run_tick()
    agent = engine.agents["n001"]
    assert engine.cell.placement["t"] == "n001" and transfers_settled(engine)
    engine.apply_events([ev.AddNodeEvent(timestamp=0, node_id="n001", total=(1.0, 1.0))])
    assert engine.agents["n001"] is agent and agent.node.residents == {"t"}
    engine.run_tick()
    assert engine.cell.placement["t"] == "n001"
    check_agent_invariants(engine)
    # the node leaves: its task is placed again
    engine.apply_events([ev.RemoveTaskEvent(timestamp=0, task_id="big"),
                         ev.RemoveNodeEvent(timestamp=0, node_id="n001")])
    run_ticks(engine, 3)
    assert engine.cell.placement == {"t": "n000"}
    assert engine.cell.conservation_holds()


@pytest.mark.parametrize("seed", range(1, 6))
def test_placement_committed_on_a_departing_node_is_placed_once_more(seed):
    """At two rounds a tick, a placement admitted in the last round commits
    at the tick's end while its confirmation is still queued for the
    broker.  The next window removes the target: the task comes back as
    one of the node's, and its flow must not be retried as well, or the
    task is quoted twice and placed twice (the second a free move)."""
    records = []
    engine = build_engine([(1.0, 1.0)] * 4, seed=seed,
                          config=AgentConfig(rounds_per_tick=2), records=records)
    engine.apply_events([ev.AddTaskEvent(timestamp=0, task_id="t", required=(0.2, 0.2))])
    engine.run_tick()
    (broker,) = engine.brokers.values()
    (flow,) = broker.in_flight.values()
    target = flow.quote.node_ids[flow.next_index]
    assert engine.cell.placement == {"t": target}
    engine.apply_events([ev.RemoveNodeEvent(timestamp=0, node_id=target)])
    run_ticks(engine, 4)
    assert [(r.source, r.initial) for r in records] == [(None, True)] * 2
    assert records[0].target == target and engine.cell.placement == {"t": records[1].target}
    check_agent_invariants(engine)


def test_placement_refused_after_its_task_ended_is_dropped():
    # with two rounds a tick, a placement request sent in round 0 is refused
    # in round 1 and the refusal reaches the broker next tick, after the
    # window that ended the task; the broker must drop the flow, not send
    # the task to its next candidate
    engine = build_engine([(1.0, 1.0)] * 2, seed=1,
                          config=AgentConfig(rounds_per_tick=2))
    # three production tasks whose full requirements fit one to a node, so
    # at least one request is refused on the RUS bound
    engine.apply_events([ev.AddTaskEvent(timestamp=0, task_id=f"p{i}", required=(0.6, 0.6),
                                         production=True) for i in range(3)])
    engine.run_tick()
    broker = engine.brokers["broker-000"]
    refused = [m.task.task_id for m in pending_mail(engine)
               if m.kind is MessageKind.TASK_MIGRATION_PROCESS_ERROR_RESPONSE]
    assert refused
    engine.apply_events([ev.RemoveTaskEvent(timestamp=0, task_id=f"p{i}") for i in range(3)])
    sent = []
    engine.message_trace = sent.append
    engine.run_tick()
    assert not broker.in_flight and not broker.retry_queue
    assert not [line for line in sent
                if MessageKind.TASK_MIGRATION_PROCESS_REQUEST.value + "\t" in line]
    check_agent_invariants(engine)
    assert engine.cell.tasks == {}


def test_status_report_from_a_removed_node_is_ignored():
    # with one round a tick, the status reports sent in a tick reach the
    # brokers after the next window's events, which may remove the sender
    engine = build_engine([(1.0, 1.0)] * 3, seed=6,
                          config=AgentConfig(rounds_per_tick=1))
    engine.run_tick()
    engine.apply_events([ev.RemoveNodeEvent(timestamp=0, node_id="n002"),
                         ev.AddTaskEvent(timestamp=0, task_id="t", required=(0.3, 0.3))])
    run_ticks(engine, 4)
    assert all("n002" not in broker.cache for broker in engine.brokers.values())
    assert engine.cell.placement["t"] in ("n000", "n001")


@pytest.mark.parametrize("rounds, readd", [(1, False), (2, False), (1, True)],
                         ids=["request-queued", "confirmation-queued", "node-readded"])
def test_placement_in_flight_to_a_departing_node_is_retried(rounds, readd):
    # the tick ends with a placement request (one round a tick) or its
    # confirmation (two rounds a tick, the placement committed) still
    # queued, and the next window removes the target: the task must be
    # placed on the other node.  A node of the same id that comes back in
    # the window never sees the request.
    engine = build_engine([(1.0, 1.0)] * 2, seed=1,
                          config=AgentConfig(rounds_per_tick=rounds))
    engine.apply_events([ev.AddTaskEvent(timestamp=0, task_id="t", required=(0.2, 0.2))])
    engine.run_tick()
    (broker,) = engine.brokers.values()
    (flow,) = broker.in_flight.values()
    target = flow.quote.node_ids[flow.next_index]
    (other,) = set(engine.agents) - {target}
    events = [ev.RemoveNodeEvent(timestamp=0, node_id=target)]
    if readd:
        events.append(ev.AddNodeEvent(timestamp=0, node_id=target, total=(1.0, 1.0)))
    engine.apply_events(events)
    run_ticks(engine, 10)
    assert set(engine.cell.placement) == {"t"}
    if not readd:
        assert engine.cell.placement["t"] == other
    assert not broker.in_flight
    check_agent_invariants(engine)


def test_agent_stats_keep_their_values():
    engine = build_engine([(1.0, 1.0)])
    add_task(engine, "t", required=(0.3, 0.3), used=(0.2, 0.1), node="n000")
    agent = engine.agents["n000"]
    agent.reserve(snap("in", (0.1, 0.1), (0.25, 0.5)))
    report, reply = agent.stats(), agent.stats(projected=True)
    engine.apply_events([ev.UpdateTaskUsedEvent(timestamp=0, task_id="t", used=(0.5, 0.4))])
    agent.reserve(snap("more", (0.1, 0.1), (0.3, 0.3)))
    assert engine.cell.nodes["n000"].used.tolist() == [0.5, 0.4]
    assert report.load.tolist() == [0.2, 0.1]
    assert reply.load.tolist() == [0.45, 0.6]


def request_transfer(engine, task_id, target, correlation_id):
    """Hand ``target`` a broker's process request placing ``task_id``;
    returns the kind of the answer it queues."""
    engine.agents[target].handle(Message(
        kind=MessageKind.TASK_MIGRATION_PROCESS_REQUEST, sender="broker-000",
        recipient=target, correlation_id=correlation_id,
        task=engine.snapshot_task(task_id), initial=True))
    (answer,) = [m for m in pending_mail(engine) if m.correlation_id == correlation_id]
    return answer.kind


def test_a_round_of_transfers_leaves_no_incoming_residue():
    """One target takes three transfers in a round, reserved in the order
    c, b, a and completed in task order.  Subtracted in that order, the
    sums would end at 8.3e-17, not zero: completing the round's transfers
    must leave every incoming sum at exactly zero."""
    engine = build_engine([(1.0, 1.0)])
    for corr, (task_id, load) in enumerate((("c", 0.1), ("b", 0.2), ("a", 0.3)), start=1):
        add_task(engine, task_id, required=(load, load), used=(load, load), production=True)
        assert (request_transfer(engine, task_id, "n000", corr)
                is MessageKind.TASK_MIGRATION_PROCESS_CONFIRMATION_RESPONSE)
    agent = engine.agents["n000"]
    assert agent.incoming_used.tolist() == [0.1 + 0.2 + 0.3] * 2
    engine._complete_transfers()
    assert engine.cell.placement == dict.fromkeys("abc", "n000")
    assert not engine.transfers
    assert agent.incoming_used.tolist() == agent.incoming_prod_req.tolist() == [0.0, 0.0]


def test_a_second_request_for_a_transferring_task_is_refused():
    """A task has at most one transfer a round: once one target has taken
    it, any other target answers a request for it with a process error
    and reserves nothing."""
    engine = build_engine([(1.0, 1.0)] * 2)
    add_task(engine, "t", required=(0.2, 0.2), used=(0.1, 0.1))
    assert (request_transfer(engine, "t", "n000", 1)
            is MessageKind.TASK_MIGRATION_PROCESS_CONFIRMATION_RESPONSE)
    assert (request_transfer(engine, "t", "n001", 2)
            is MessageKind.TASK_MIGRATION_PROCESS_ERROR_RESPONSE)
    assert engine.agents["n001"].incoming_used.tolist() == [0.0, 0.0]
    engine._complete_transfers()
    assert engine.cell.placement == {"t": "n000"}


def test_task_snapshot_keeps_its_usage():
    engine = build_engine([(1.0, 1.0)])
    add_task(engine, "t", required=(0.3, 0.3), used=(0.2, 0.1), node="n000")
    snapshot = engine.snapshot_task("t")
    engine.apply_events([ev.UpdateTaskUsedEvent(timestamp=0, task_id="t", used=(0.5, 0.4))])
    assert engine.cell.tasks["t"].used.tolist() == [0.5, 0.4]
    assert snapshot.used.tolist() == [0.2, 0.1]


def test_agent_stream_is_seeded_on_its_first_draw(tmp_path):
    """An agent that never draws holds no generator: with one broker,
    reporting takes no draw.  An agent that draws gets the stream an eager
    generator of its seed gives, before and after a snapshot and resume."""
    engine = build_engine([(1.0, 1.0)] * 3, seed=5)
    add_task(engine, "t", required=(0.3, 0.3), used=(0.2, 0.2))
    run_ticks(engine, 2)
    assert engine.cell.placement and all(a._rng is None for a in engine.agents.values())

    def eager(node_id):
        return random.Random(engine_module._stable_seed(5, "na", node_id))

    agent, stream = engine.agents["n001"], eager("n001")
    assert [agent.rng.random() for _ in range(3)] == [stream.random() for _ in range(3)]
    path = tmp_path / "engine.snapshot"
    save_snapshot(path, engine)
    resumed = load_snapshot(path)
    assert resumed.agents["n000"]._rng is None
    assert resumed.agents["n000"].rng.random() == eager("n000").random()
    assert resumed.agents["n001"].rng.random() == agent.rng.random() == stream.random()


def test_initial_placement_sends_its_quote_snapshot(monkeypatch):
    """A task's first placement request carries the snapshot its quote was
    made from; only a request after a refusal snapshots the task again."""
    engine = build_engine([(1.0, 1.0)] * 2, seed=4)
    for k in range(4):
        add_task(engine, f"t{k}", required=(0.6, 0.6), used=(0.6, 0.6))
    snapshots, requests = [], []
    snapshot_task, send = engine.snapshot_task, engine.send

    def recording_snapshot(task_id):
        snapshots.append(snapshot_task(task_id))
        return snapshots[-1]

    def recording_send(message):
        if message.kind is MessageKind.TASK_MIGRATION_PROCESS_REQUEST and message.initial:
            requests.append(message.task)
        send(message)

    monkeypatch.setattr(engine, "snapshot_task", recording_snapshot)
    monkeypatch.setattr(engine, "send", recording_send)
    run_ticks(engine, 1)
    first = {}
    for task in requests:
        first.setdefault(task.task_id, task)
    retries = [task for task in requests if first[task.task_id] is not task]
    assert len(first) == 4 and retries  # two tasks fit, so two were refused
    # one snapshot per quote, whose first request sends it, one per retry
    assert len(snapshots) == 4 + len(retries)
    assert all(any(task is made for made in snapshots[:4]) for task in first.values())
    assert all(not any(task is made for made in snapshots[:4]) for task in retries)


def check_agent_invariants(engine):
    """The facts the engine keeps outside the cell agree with the cell."""
    for node_id, agent in engine.agents.items():
        assert agent.node is engine.cell.nodes[node_id]
        # a negotiation is only open for a task on the agent's own node
        assert set(agent.negotiations) <= agent.node.residents, node_id
    assert engine.agents.keys() == engine.cell.nodes.keys()
    # every transfer, a placement's too, completes within its tick, and
    # leaves every agent's incoming sums at exactly zero
    assert transfers_settled(engine)
    # between ticks every placement in flight awaits a queued request or answer
    queued = {message.correlation_id for message in pending_mail(engine)}
    for broker in engine.brokers.values():
        assert set(broker.in_flight) <= queued, broker.id
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
                          config=AgentConfig(rounds_per_tick=rounds))
    gone: dict[str, list] = {}
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
                gone[node_id] = engine.cell.nodes[node_id].total.tolist()
                batch.append(ev.RemoveNodeEvent(timestamp=0, node_id=node_id))
            else:
                node_id = rng.choice(sorted(gone) + nodes)
                total = (gone.pop(node_id) if node_id in gone
                         else engine.cell.nodes[node_id].total.tolist())
                batch.append(ev.AddNodeEvent(timestamp=0, node_id=node_id, total=total))
            # apply one at a time: the choices above read the cell as it stands
            engine.apply_events(batch[-1:])
            if cost is not None:
                engine.cell.tasks[batch[-1].task_id].migration_cost_mb = cost
        engine.run_tick()
        check_agent_invariants(engine)
    assert confirmations
