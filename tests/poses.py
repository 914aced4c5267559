"""Pose enumeration and sampling shared by the exhaustive and random checks."""

from __future__ import annotations

import numpy as np

from croprow.world import DOWN, UP, FieldSpec, GoalSpec, RobotState, goal_configs


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
    """Uniform random pose, headlands included: a corridor, then y, then
    an orientation, the order in which ``world.sample_instances`` draws a start."""
    corridor = 0.5 + int(rng.integers(field.num_rows - 1))
    y = int(rng.integers(-1, field.corridor_len + 1))
    return RobotState(corridor, y, int(rng.integers(2)))


def is_goal(field: FieldSpec, state: RobotState, goal: GoalSpec) -> bool:
    """Whether the pose services the goal: one of its ``goal_configs``."""
    return state in goal_configs(field, goal)


def sample_goal(field: FieldSpec, rng: np.random.Generator) -> GoalSpec:
    """Uniform random goal: a row, then a position along it."""
    return GoalSpec(int(rng.integers(field.num_rows)), int(rng.integers(field.corridor_len)))


def reference_instances(field: FieldSpec, rng: np.random.Generator, count: int) -> list[tuple[RobotState, GoalSpec]]:
    """``world.sample_instances`` one scalar draw at a time: per try the start corridor,
    y and heading, then the goal row and goal y, redrawn while the start is terminal."""
    out = []
    while len(out) < count:
        corridor = 0.5 + int(rng.integers(field.num_rows - 1))
        start = RobotState(corridor, int(rng.integers(field.corridor_len)), int(rng.integers(2)))
        goal = sample_goal(field, rng)
        if not is_goal(field, start, goal):
            out.append((start, goal))
    return out
