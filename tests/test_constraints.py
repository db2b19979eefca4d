"""Golden truth-table suite for constraint matching semantics.

Every row below is load-bearing: the matching rules have deliberate
asymmetries (absent attributes satisfy LESS_THAN but fail GREATER_THAN;
empty-valued EQUAL constraints are always satisfied) that the engines rely
on when deciding compulsory migrations.
"""

import random

import pytest

from cellsim.workload import (
    ConstraintOperator as Op,
    TaskConstraint,
    check_constraint,
    matches_attributes,
)

NONE = {}


def c(op, name="attribute 1", value=""):
    return TaskConstraint(op, name, value)


# The source truth table repeats two rows; they are kept verbatim so the
# golden suite mirrors it assertion-for-assertion.
EQUAL_ROWS = [
    (c(Op.EQUAL, "attribute 1", "value A"), {"attribute 1": "value A"}, True),
    (c(Op.EQUAL, "attribute 1", "value A"), {"attribute 1": "value B"}, False),
    (c(Op.EQUAL, "attribute 1", "value A"), {"attribute 1": ""}, False),
    (c(Op.EQUAL, "attribute 1", "value A"), NONE, False),
    (c(Op.EQUAL, "attribute 1", "value A"), {"attribute 1": ""}, False),
    (c(Op.EQUAL, "attribute 1", ""), NONE, True),
    (c(Op.EQUAL, "attribute 1", ""), {"attribute 1": ""}, True),
    (c(Op.EQUAL, "attribute 1", ""), {"attribute 2": "value A"}, True),
]

NOT_EQUAL_ROWS = [
    (c(Op.NOT_EQUAL, "attribute 1", "value A"), {"attribute 1": "value A"}, False),
    (c(Op.NOT_EQUAL, "attribute 1", "value A"), {"attribute 1": "value B"}, True),
    (c(Op.NOT_EQUAL, "attribute 1", "value A"), {"attribute 1": ""}, True),
    (c(Op.NOT_EQUAL, "attribute 1", "value A"), NONE, True),
    (c(Op.NOT_EQUAL, "attribute 1", "value A"), {"attribute 1": ""}, True),
    (c(Op.NOT_EQUAL, "attribute 1", ""), NONE, False),
    (c(Op.NOT_EQUAL, "attribute 1", ""), {"attribute 1": ""}, False),
]

LESS_THAN_ROWS = [
    (c(Op.LESS_THAN, "attribute 1", "10"), {"attribute 1": "10"}, False),
    (c(Op.LESS_THAN, "attribute 1", "10"), {"attribute 1": "9"}, True),
    (c(Op.LESS_THAN, "attribute 1", "10"), {"attribute 1": "99"}, False),
    (c(Op.LESS_THAN, "attribute 1", "10"), {"attribute 1": "11"}, False),
    (c(Op.LESS_THAN, "attribute 1", "10"), NONE, True),
]

GREATER_THAN_ROWS = [
    (c(Op.GREATER_THAN, "attribute 1", "10"), {"attribute 1": "10"}, False),
    (c(Op.GREATER_THAN, "attribute 1", "10"), {"attribute 1": "9"}, False),
    (c(Op.GREATER_THAN, "attribute 1", "10"), {"attribute 1": "99"}, True),
    (c(Op.GREATER_THAN, "attribute 1", "10"), {"attribute 1": "11"}, True),
    (c(Op.GREATER_THAN, "attribute 1", "10"), NONE, False),
]

GOLDEN_ROWS = EQUAL_ROWS + NOT_EQUAL_ROWS + LESS_THAN_ROWS + GREATER_THAN_ROWS


@pytest.mark.parametrize("constraint,attributes,expected", GOLDEN_ROWS)
def test_golden_rows(constraint, attributes, expected):
    assert check_constraint(constraint, attributes) is expected


def test_golden_suite_covers_all_rows():
    assert len(GOLDEN_ROWS) >= 24


def test_non_integer_attribute_under_numeric_operator_unsatisfied():
    assert check_constraint(c(Op.LESS_THAN, value="10"), {"attribute 1": "abc"}) is False
    assert check_constraint(c(Op.GREATER_THAN, value="10"), {"attribute 1": "abc"}) is False


def test_numeric_constraint_value_must_parse():
    with pytest.raises(ValueError):
        TaskConstraint(Op.LESS_THAN, "a", "not-a-number")
    with pytest.raises(ValueError):
        TaskConstraint(Op.GREATER_THAN, "a", "")


def test_matches_node_empty_conjunction():
    assert matches_attributes((), {"whatever": "x"})


def test_matches_node_requires_all():
    attrs = {"external-ip": "true"}
    ok = (c(Op.EQUAL, "external-ip", "true"),)
    missing = (c(Op.EQUAL, "external-ip", "true"), c(Op.EQUAL, "kernel", "3"))
    assert matches_attributes(ok, attrs)
    assert not matches_attributes(missing, attrs)


def test_matches_node_absent_attribute_fails_equal():
    assert not matches_attributes((c(Op.EQUAL, "external-ip", "true"),), NONE)


def test_matches_node_agrees_with_per_constraint_fold():
    rng = random.Random(42)
    operators = list(Op)
    for _ in range(200):
        attrs = {f"a{i}": str(rng.randrange(0, 20)) for i in range(rng.randrange(0, 4))}
        constraints = []
        for _ in range(rng.randrange(0, 4)):
            op = rng.choice(operators)
            value = str(rng.randrange(0, 20))
            constraints.append(TaskConstraint(op, f"a{rng.randrange(0, 4)}", value))
        expected = all(check_constraint(cc, attrs) for cc in constraints)
        assert matches_attributes(constraints, attrs) is expected
