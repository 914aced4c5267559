"""Pose enumeration shared by the exhaustive checks."""

from __future__ import annotations

from croprow.world import DOWN, UP, FieldSpec, RobotState, corridor_positions


def all_states(field: FieldSpec) -> list[RobotState]:
    """Every valid pose, corridor by corridor, then y from the south headland,
    then orientation."""
    return [
        RobotState(c, y, o)
        for c in corridor_positions(field)
        for y in range(-1, field.corridor_len + 1)
        for o in (UP, DOWN)
    ]
