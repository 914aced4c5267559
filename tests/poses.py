"""Pose enumeration and sampling shared by the exhaustive and random checks."""

from __future__ import annotations

import numpy as np

from croprow.world import DOWN, UP, FieldSpec, RobotState


def corridor_positions(field: FieldSpec) -> list[float]:
    """Centerline x of every corridor, west to east."""
    return [k + 0.5 for k in range(field.num_rows - 1)]


def all_states(field: FieldSpec) -> list[RobotState]:
    """Every valid pose, corridor by corridor, then y from the south headland,
    then orientation."""
    return [
        RobotState(c, y, o)
        for c in corridor_positions(field)
        for y in range(-1, field.corridor_len + 1)
        for o in (UP, DOWN)
    ]


def pose_id(field: FieldSpec, state: RobotState) -> int:
    """Integer pose id: corridor, y + 1 and orientation packed into one int, so
    that ``all_states`` lists the poses in id order."""
    corridor = int(state.corridor_x - 0.5)
    return ((corridor * (field.corridor_len + 2) + int(state.y) + 1) << 1) | int(state.orientation)


def sample_pose(field: FieldSpec, rng: np.random.Generator) -> RobotState:
    """Uniform random pose, headlands included: the corridor, y and
    orientation draws of ``world.sample_state``, in the same order."""
    corridor = 0.5 + int(rng.integers(field.num_rows - 1))
    y = int(rng.integers(-1, field.corridor_len + 1))
    return RobotState(corridor, y, int(rng.integers(2)))
