import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from cellsim.metaheuristics import PackedProblem
from cellsim.model import (
    NodeSpec,
    ResourceTypeCatalog,
    SystemState,
    TaskSpec,
    UnknownIdError,
    available_resources,
    is_node_stable,
    is_system_stable,
    migration_cost,
    transformation_cost,
)

CAT2 = ResourceTypeCatalog(("cpu", "memory"))


def task(tid, required, cost=10.0):
    return TaskSpec(id=tid, required=required, migration_cost_mb=cost)


def build_state(nodes, tasks, assignment, catalog=CAT2):
    return SystemState(catalog=catalog, nodes=tuple(nodes), tasks=tuple(tasks),
                       assignment=assignment)


def reassigned(state, moves):
    """The state with the listed (task, node) moves applied."""
    return dataclasses.replace(state, assignment={**state.assignment, **dict(moves)})


# The two-node swap scenario: node A holds tasks 1-3 and sits at (11, -2)
# available, node B holds tasks 4-5 and is stable; exchanging tasks 2 and 5
# stabilizes both sides at a 345 MB transfer.
def swap_scenario():
    nodes = [NodeSpec("A", (22.0, 8.0)), NodeSpec("B", (12.0, 9.0))]
    tasks = [
        task("t1", (5.0, 3.0), cost=50.0),
        task("t2", (2.0, 6.0), cost=105.0),
        task("t3", (4.0, 1.0), cost=70.0),
        task("t4", (3.0, 2.0), cost=80.0),
        task("t5", (6.0, 3.0), cost=240.0),
    ]
    assignment = {"t1": "A", "t2": "A", "t3": "A", "t4": "B", "t5": "B"}
    return build_state(nodes, tasks, assignment)


class TestAvailableResources:
    def test_worked_example_cpu_1_3(self):
        cat = ResourceTypeCatalog(("cpu",))
        state = build_state(
            [NodeSpec("n1", (2.0,))],
            [task("t1", (0.5,)), task("t2", (0.2,))],
            {"t1": "n1", "t2": "n1"},
            catalog=cat,
        )
        assert available_resources(state, "n1") == (1.3,)

    def test_empty_node_equals_capacity(self):
        state = build_state([NodeSpec("n1", (4.0, 8.0))], [], {})
        assert available_resources(state, "n1") == (4.0, 8.0)

    def test_can_go_negative(self):
        state = build_state(
            [NodeSpec("n1", (10.0, 10.0))],
            [task("a", (4.0, 3.0)), task("b", (7.0, 2.0))],
            {"a": "n1", "b": "n1"},
        )
        assert available_resources(state, "n1") == (-1.0, 5.0)

    def test_unknown_node_raises(self):
        state = build_state([NodeSpec("n1", (1.0, 1.0))], [], {})
        with pytest.raises(UnknownIdError):
            available_resources(state, "nope")

    def test_availability_counts_requirements(self):
        state = build_state([NodeSpec("n", (1.0, 1.0))], [task("t", (0.5, 0.5))], {"t": "n"})
        assert available_resources(state, "n") == (0.5, 0.5)


class TestStability:
    def test_boundary_zero_is_stable(self):
        state = build_state(
            [NodeSpec("n", (1.3, 1.0))],
            [task("t", (0.0, 1.0))],
            {"t": "n"},
        )
        assert available_resources(state, "n") == (1.3, 0.0)
        assert is_node_stable(state, "n")

    def test_negative_component_unstable(self):
        state = swap_scenario()
        assert available_resources(state, "A") == (11.0, -2.0)
        assert not is_node_stable(state, "A")
        assert is_node_stable(state, "B")
        assert not is_system_stable(state)

    def test_swap_stabilizes(self):
        state = swap_scenario()
        swapped = reassigned(state, [("t2", "B"), ("t5", "A")])
        assert is_system_stable(swapped)
        assert is_system_stable(state) is False  # original untouched

    def test_empty_node_stable(self):
        state = build_state([NodeSpec("n", (1.0, 1.0))], [], {})
        assert is_node_stable(state, "n")

    def test_zero_node_system_stable(self):
        state = build_state([], [], {})
        assert is_system_stable(state)


class TestTransformationCost:
    def test_unmoved_task_costs_zero(self):
        a = {"t": "x"}
        assert migration_cost(task("t", (1.0, 1.0), cost=105.0), a, a) == 0.0

    def test_moved_task_costs_full(self):
        t2 = task("t2", (1.0, 1.0), cost=105.0)
        t5 = task("t5", (1.0, 1.0), cost=240.0)
        before = {"t2": "A", "t5": "B"}
        after = {"t2": "B", "t5": "A"}
        assert migration_cost(t2, before, after) == 105.0
        assert migration_cost(t5, before, after) == 240.0

    def test_swap_total_345(self):
        state = swap_scenario()
        after = reassigned(state, [("t2", "B"), ("t5", "A")]).assignment
        assert transformation_cost(state.assignment, after, state.tasks) == 345.0

    def test_identity_zero(self):
        state = swap_scenario()
        assert transformation_cost(state.assignment, state.assignment, state.tasks) == 0.0

    def test_hand_sum(self):
        tasks = [task("a", (1.0, 1.0), cost=7.0), task("b", (1.0, 1.0), cost=11.0),
                 task("c", (1.0, 1.0), cost=99.0)]
        before = {"a": "x", "b": "x", "c": "y"}
        after = {"a": "y", "b": "z", "c": "y"}
        assert transformation_cost(before, after, tasks) == 18.0

    def test_missing_task_raises(self):
        with pytest.raises(UnknownIdError):
            migration_cost(task("t", (1.0,), cost=1.0), {}, {"t": "a"})


def random_state(rng, n_nodes, n_tasks, dim=2):
    nodes = [NodeSpec(f"n{i}", tuple(rng.uniform(1, 10) for _ in range(dim)))
             for i in range(n_nodes)]
    tasks = [task(f"t{i}", tuple(rng.uniform(0, 3) for _ in range(dim)),
                  cost=rng.uniform(1, 100)) for i in range(n_tasks)]
    assignment = {t.id: rng.choice(nodes).id for t in tasks}
    return build_state(nodes, tasks, assignment)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 20), n_tasks=st.integers(0, 100))
def test_incremental_matches_scratch(seed, n_nodes, n_tasks):
    """Availability of a state re-assigned by ``dataclasses.replace`` (as
    the benchmark checks a balancer's result) equals recomputation from
    scratch."""
    rng = random.Random(seed)
    state = random_state(rng, n_nodes, n_tasks)
    state.tasks_by_node  # cached on the original, and not carried over
    moves = [(t.id, rng.choice(state.nodes).id) for t in state.tasks if rng.random() < 0.3]
    moved = reassigned(state, moves)
    rebuilt = build_state(moved.nodes, moved.tasks, dict(moved.assignment))
    for node in moved.nodes:
        assert available_resources(moved, node.id) == available_resources(rebuilt, node.id)
    assert is_system_stable(moved) == all(
        all(v >= 0 for v in available_resources(moved, n.id)) for n in moved.nodes
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_transformation_cost_additive_over_disjoint_moves(seed):
    rng = random.Random(seed)
    state = random_state(rng, 5, 30)
    ids = [t.id for t in state.tasks]
    rng.shuffle(ids)
    half = len(ids) // 2
    set_a = [(tid, rng.choice(state.nodes).id) for tid in ids[:half]]
    set_b = [(tid, rng.choice(state.nodes).id) for tid in ids[half:]]
    both = reassigned(reassigned(state, set_a), set_b)
    only_a = reassigned(state, set_a)
    only_b = reassigned(state, set_b)
    cost_both = transformation_cost(state.assignment, both.assignment, state.tasks)
    cost_a = transformation_cost(state.assignment, only_a.assignment, state.tasks)
    cost_b = transformation_cost(state.assignment, only_b.assignment, state.tasks)
    assert cost_both == pytest.approx(cost_a + cost_b)
    assert cost_both >= 0


def test_offcell_origin_is_not_in_cell():
    state = build_state(
        [NodeSpec("A", (1.0, 1.0))],
        [task("t", (0.1, 0.1))],
        {"t": "GONE"},
    )
    problem = PackedProblem.from_state(state)
    assert problem.origin.tolist() == [-1]
    assert not problem.origin_in_cell()
    # Stability is about live nodes only; validity is a separate check.
    assert is_system_stable(state)


def test_validation_errors():
    with pytest.raises(ValueError):
        TaskSpec(id="t", required=(-1.0,), migration_cost_mb=1.0)
    with pytest.raises(ValueError):
        TaskSpec(id="t", required=(1.0,), migration_cost_mb=0.0)
    with pytest.raises(ValueError):
        NodeSpec(id="n", total=(-0.5,))
    with pytest.raises(ValueError):
        ResourceTypeCatalog(())
    with pytest.raises(ValueError):
        build_state([NodeSpec("n", (1.0, 1.0))], [task("t", (0.1, 0.1))], {})


def test_state_copies_its_assignment():
    mapping = {"t": "A"}
    state = build_state([NodeSpec("A", (1.0, 1.0)), NodeSpec("B", (1.0, 1.0))],
                        [task("t", (0.5, 0.5))], mapping)
    mapping["t"] = "B"
    assert state.assignment == {"t": "A"}
    assert state.assignment is not mapping
    assert available_resources(state, "A") == (0.5, 0.5)
