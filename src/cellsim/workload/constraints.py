"""Task placement constraints evaluated against node attribute maps.

Numeric operators treat unparseable attribute values as unsatisfied rather
than raising: corrupt trace data must never crash the simulation.  Absent
attributes are asymmetric on purpose: LESS_THAN is vacuously true without the
attribute while GREATER_THAN fails, matching the trace semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping


class ConstraintOperator(enum.Enum):
    EQUAL = "EQUAL"
    NOT_EQUAL = "NOT_EQUAL"
    LESS_THAN = "LESS_THAN"
    GREATER_THAN = "GREATER_THAN"


def _parse_int(text: str) -> int | None:
    try:
        return int(text)
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True)
class TaskConstraint:
    operator: ConstraintOperator
    attribute_name: str
    value: str = ""

    def __post_init__(self) -> None:
        if self.operator in (ConstraintOperator.LESS_THAN, ConstraintOperator.GREATER_THAN):
            if _parse_int(self.value) is None:
                raise ValueError(
                    f"{self.operator.value} constraint on {self.attribute_name!r} "
                    f"needs an integer value, got {self.value!r}"
                )


def _check_equal(constraint: TaskConstraint, attributes: Mapping[str, str]) -> bool:
    # An empty constraint value is satisfied whether the attribute is absent,
    # empty or holds any value; a non-empty value requires an exact match.
    if constraint.value == "":
        return True
    return attributes.get(constraint.attribute_name) == constraint.value


def check_constraint(constraint: TaskConstraint, attributes: Mapping[str, str]) -> bool:
    op = constraint.operator
    if op is ConstraintOperator.EQUAL:
        return _check_equal(constraint, attributes)
    if op is ConstraintOperator.NOT_EQUAL:
        return not _check_equal(constraint, attributes)

    bound = _parse_int(constraint.value)
    if bound is None:
        return False
    present = constraint.attribute_name in attributes
    if op is ConstraintOperator.LESS_THAN:
        if not present:
            return True
        actual = _parse_int(attributes[constraint.attribute_name])
        return actual is not None and actual < bound
    if op is ConstraintOperator.GREATER_THAN:
        if not present:
            return False
        actual = _parse_int(attributes[constraint.attribute_name])
        return actual is not None and actual > bound
    raise ValueError(f"unhandled operator {op!r}")


def matches_attributes(constraints, attributes: Mapping[str, str]) -> bool:
    """Conjunction of all constraints against one attribute map."""
    return all(check_constraint(c, attributes) for c in constraints)
