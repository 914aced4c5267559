"""Discrete world model for corridor navigation between crop rows.

The field has ``num_rows`` parallel rows one unit apart.  A robot drives in
the corridors between adjacent rows, so corridor centerlines sit at
half-integer x positions 0.5 .. num_rows - 1.5.  The y axis runs along the
corridors: integer positions 0 .. corridor_len - 1 are inside a corridor,
-1 and corridor_len are the open headlands where the robot may turn or
switch corridors.  A sampling target sits on a row and is serviced from an
adjacent corridor with the row on the robot's working side, which gives at
most two terminal configurations per target.

Rewards: -0.2 per vertical unit step, -0.2 per row crossed when switching
corridors, -1.5 for reorienting inside a corridor, -1.5 for reversing the
previous vertical displacement inside a corridor, +20.0 on arrival, +5.0
when arriving via the terminal corridor nearest the episode's initial
corridor (ties grant the bonus).
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from numbers import Integral
from typing import NamedTuple

import numpy as np

UP = 0
DOWN = 1
FORWARD = 0
BACKWARD = 1

STEP_PENALTY = -0.2
SWITCH_PENALTY_PER_ROW = -0.2
TURN_PENALTY = -1.5
OSCILLATION_PENALTY = -1.5
GOAL_REWARD = 20.0
CLOSER_CORRIDOR_BONUS = 5.0


class IllegalActionError(ValueError):
    """Raised when an action is illegal in the current state."""


@dataclass(frozen=True)
class FieldSpec:
    """Static description of one field instance."""

    num_rows: int
    corridor_len: int
    max_steps: int = dataclass_field(init=False)

    def __post_init__(self) -> None:
        if self.num_rows < 2:
            raise ValueError(f"num_rows must be >= 2, got {self.num_rows}")
        if self.corridor_len < 1:
            raise ValueError(f"corridor_len must be >= 1, got {self.corridor_len}")
        if not (isinstance(self.num_rows, Integral) and isinstance(self.corridor_len, Integral)):
            raise ValueError(f"field sizes must be integers, got {self.num_rows}, {self.corridor_len}")
        # step budget; the floor keeps any shortest path affordable on wide fields
        floor = 2 * (self.corridor_len + 2) + self.num_rows
        object.__setattr__(self, "max_steps", max(10 * (self.corridor_len + 2), floor))


class RobotState(NamedTuple):
    """Robot pose: corridor centerline x, discrete y, heading along the corridor;
    a named tuple, so ``RobotState(0.5, 2, 1) == (0.5, 2, 1)``, hashing alike."""

    corridor_x: float
    y: int
    orientation: int


class GoalSpec(NamedTuple):
    """Sampling target: row index and position along the row; a named tuple,
    so ``GoalSpec(0, 3) == Action(0, 3) == (0, 3)``."""

    row: int
    goal_y: int


class Action(NamedTuple):
    """[orientation, move]: move 0 forward, 1 backward, m >= 2 switch to corridor m - 1.5;
    a named tuple, so ``Action(0, 3) == GoalSpec(0, 3) == (0, 3)``."""

    orientation: int
    move: int


class RewardParts(NamedTuple):
    """Itemized reward terms; the step reward is their exact sum.  A named
    tuple with the repr of the frozen dataclass it replaced."""

    step_penalty: float = 0.0
    switch_penalty: float = 0.0
    turn_penalty: float = 0.0
    oscillation_penalty: float = 0.0
    goal_reward: float = 0.0
    closer_corridor_bonus: float = 0.0

    def total(self) -> float:
        return (
            self.step_penalty
            + self.switch_penalty
            + self.turn_penalty
            + self.oscillation_penalty
            + self.goal_reward
            + self.closer_corridor_bonus
        )


class StepOutcome(NamedTuple):
    """One step's result; a named tuple with the repr of the frozen dataclass
    it replaced."""

    next_state: RobotState
    reward: float
    done: bool
    reward_parts: RewardParts
    distance_delta: float


_UNIT_STEP = RewardParts(STEP_PENALTY)  # a unit step with no turn, oscillation or arrival


@dataclass(frozen=True)
class SimulationResult:
    success: bool
    total_distance: float
    total_reward: float
    final_state: RobotState
    steps: int
    failure_reason: str | None = None
    outcomes: tuple[StepOutcome, ...] = ()  # one per step taken, in order


def is_corridor(field: FieldSpec, x: float) -> bool:
    # is_integer() is False for inf and nan, where int() would raise
    return (x - 0.5).is_integer() and 0.5 <= x <= field.num_rows - 1.5


def at_headland(field: FieldSpec, y: int) -> bool:
    return y == -1 or y == field.corridor_len


def check_state(field: FieldSpec, state: RobotState) -> None:
    if not is_corridor(field, state.corridor_x):
        raise ValueError(f"not a corridor centerline: x={state.corridor_x}")
    if not -1 <= state.y <= field.corridor_len:
        raise ValueError(f"y out of range: {state.y}")
    if state.y != int(state.y):  # finite once in range
        raise ValueError(f"y is not an integer: {state.y}")
    if state.orientation not in (UP, DOWN):
        raise ValueError(f"bad orientation: {state.orientation}")


def check_goal(field: FieldSpec, goal: GoalSpec) -> None:
    if not 0 <= goal.row < field.num_rows:
        raise ValueError(f"goal row out of range: {goal.row}")
    if goal.row != int(goal.row):
        raise ValueError(f"goal row is not an integer: {goal.row}")
    if not 0 <= goal.goal_y < field.corridor_len:
        raise ValueError(f"goal_y out of range: {goal.goal_y}")
    if goal.goal_y != int(goal.goal_y):
        raise ValueError(f"goal_y is not an integer: {goal.goal_y}")


def check_action(field: FieldSpec, action: Action) -> None:
    if action.orientation not in (UP, DOWN):
        raise ValueError(f"bad orientation component: {action.orientation}")
    if not 0 <= action.move <= field.num_rows:
        raise ValueError(f"move component out of range: {action.move}")
    if action.move != int(action.move):
        raise ValueError(f"move component is not an integer: {action.move}")


def goal_configs(field: FieldSpec, goal: GoalSpec) -> tuple[RobotState, ...]:
    """Terminal configurations servicing the goal row from an adjacent corridor.

    Facing up in the east corridor, listed first, or facing down in the west
    corridor puts the goal row on the robot's working side; edge rows have one.
    """
    check_goal(field, goal)
    row, y = goal
    if row == 0:
        return (RobotState(row + 0.5, y, UP),)
    if row == field.num_rows - 1:
        return (RobotState(row - 0.5, y, DOWN),)
    return RobotState(row + 0.5, y, UP), RobotState(row - 0.5, y, DOWN)


def is_goal(field: FieldSpec, state: RobotState, goal: GoalSpec) -> bool:
    return state in goal_configs(field, goal)


def step(
    state: RobotState,
    action: Action,
    field: FieldSpec,
    goal: GoalSpec,
    prev_displacement: int | None = None,
    initial_corridor_x: float | None = None,
) -> StepOutcome:
    """Apply one action; pure function of its arguments.

    Checks the pose, the action and the goal, then applies the rule that
    :class:`Episode` applies.  The orientation component is applied first,
    so vertical motion uses the new heading.  ``prev_displacement`` is the
    previous step's signed vertical displacement (for oscillation
    detection); ``initial_corridor_x`` is the corridor the episode started
    in (for the arrival bonus) and defaults to the current corridor.
    """
    check_state(field, state)
    check_action(field, action)
    origin = state.corridor_x if initial_corridor_x is None else initial_corridor_x
    return _transition(field, state, action, goal_configs(field, goal), prev_displacement, origin)


def _transition(
    field: FieldSpec, state: RobotState, action: Action,
    configs: tuple[RobotState, ...], prev_displacement: int | None, origin: float,
) -> StepOutcome:
    """The step rule on a checked pose and action, given the goal's terminal set."""
    y = state.y
    orientation, move = action
    headland = y == -1 or y == field.corridor_len
    turn_penalty = TURN_PENALTY if orientation != state.orientation and not headland else 0.0
    if move >= 2:
        if not headland:
            raise IllegalActionError(f"corridor switch requires a headland, robot at y={y}")
        target_x = move - 1.5
        distance = abs(target_x - state.corridor_x)
        next_state = RobotState(target_x, y, orientation)
        done = next_state in configs
        step_penalty, switch_penalty, oscillation_penalty = 0.0, SWITCH_PENALTY_PER_ROW * distance, 0.0
    else:
        ny = y + 1 if (orientation == UP) == (move == FORWARD) else y - 1
        if ny <= -1:  # clamp at field bounds, still costs; a clamped y is the int bound
            ny = -1
        elif ny >= field.corridor_len:
            ny = field.corridor_len
        dy = ny - y
        distance = float(abs(dy))
        next_state = RobotState(state.corridor_x, ny, orientation)
        done = next_state in configs
        oscillating = not headland and dy != 0 and prev_displacement is not None and dy == -prev_displacement
        if not (turn_penalty or oscillating or done):  # -0.2 + 0.0 + ... == -0.2 exactly
            return StepOutcome(next_state, STEP_PENALTY, False, _UNIT_STEP, distance)
        step_penalty, switch_penalty = STEP_PENALTY, 0.0
        oscillation_penalty = OSCILLATION_PENALTY if oscillating else 0.0

    goal_reward = bonus = 0.0
    if done:
        goal_reward = GOAL_REWARD
        nearest = min(abs(c.corridor_x - origin) for c in configs)
        if abs(next_state.corridor_x - origin) <= nearest:
            bonus = CLOSER_CORRIDOR_BONUS

    parts = RewardParts(step_penalty, switch_penalty, turn_penalty, oscillation_penalty, goal_reward, bonus)
    return StepOutcome(next_state, parts.total(), done, parts, distance)


def observe(state: RobotState, goal: GoalSpec, field: FieldSpec) -> np.ndarray:
    """Normalized observation [corridor_x, y, orientation, goal_row, goal_y] in
    [0, 1], in float32, the dtype the Q-network reads."""
    return np.array(
        [
            state.corridor_x / field.num_rows,
            (state.y + 1) / (field.corridor_len + 1),
            float(state.orientation),
            goal.row / field.num_rows,
            goal.goal_y / field.corridor_len,
        ],
        dtype=np.float32,
    )


_UNREACHED = 2**31 - 1


def _pose_id(field: FieldSpec, state: RobotState) -> int:
    """Integer pose id: corridor, y + 1 and orientation packed into one int."""
    corridor = int(state.corridor_x - 0.5)
    return ((corridor * (field.corridor_len + 2) + int(state.y) + 1) << 1) | int(state.orientation)


@lru_cache(maxsize=1024)
def _distance_field(field: FieldSpec, goal: GoalSpec) -> array:
    """Exact distance from every pose id to the goal's terminal set.

    The motion graph has vertical unit moves anywhere, lateral unit steps and
    free reorientation only at headlands, and no in-corridor turns.  A round
    relaxes every vertical line of the (corridor, y + 1, heading) array, then
    the headlands' flips and lateral lines, each by two int64 prefix-minimum
    passes.  Vertical passes are idempotent, so once a headland pass changes
    nothing the array is the Bellman-Ford fixed point: the exact distance.
    """
    dist = np.full((field.num_rows - 1, field.corridor_len + 2, 2), _UNREACHED, np.int64)
    for config in goal_configs(field, goal):
        dist.flat[_pose_id(field, config)] = 0

    def relax(d, i, axis):  # min_j d[j] + |i - j| along axis, i the index there
        forward = np.minimum.accumulate(d - i, axis=axis) + i
        backward = np.flip(np.minimum.accumulate(np.flip(d + i, axis), axis=axis), axis) - i
        return np.minimum(forward, backward)

    while True:
        dist = relax(dist, np.arange(dist.shape[1])[:, None], 1)
        headlands = dist[:, [0, -1]]  # free flips, then the lateral steps
        dist[:, [0, -1]] = relax(headlands.min(axis=2), np.arange(len(dist))[:, None], 0)[..., None]
        if np.array_equal(dist[:, [0, -1]], headlands):
            return array("i", dist.astype(np.intc).tobytes())


def oracle_shortest(field: FieldSpec, start: RobotState, goal: GoalSpec) -> float:
    """Exact shortest travel distance from start to any terminal configuration.

    A lookup into the goal's distance field, built by numpy line relaxations
    (see :func:`_distance_field`) and LRU-memoized per (field, goal), at most
    1,024 fields at 4 bytes per pose: about 100 MB at 1,000 rows.
    Independent of the planners, used as ground truth for them.
    """
    check_state(field, start)
    d = _distance_field(field, goal)[_pose_id(field, start)]
    if d == _UNREACHED:  # every pose is connected, so only a damaged field
        raise RuntimeError("goal unreachable")
    return float(d)


class Episode:
    """Stateful episode under :func:`step`'s rule: start and goal checked once."""

    def __init__(self, field: FieldSpec, start: RobotState, goal: GoalSpec) -> None:
        check_state(field, start)
        self.goal_configs = goal_configs(field, goal)
        self.field = field
        self.goal = goal
        self.state = start
        self.initial_corridor_x = start.corridor_x
        self.prev_displacement: int | None = None
        self.steps = 0
        self.done = start in self.goal_configs
        self.total_reward = 0.0
        self.total_distance = 0.0

    def step(self, action: Action) -> StepOutcome:
        if self.done:
            raise RuntimeError("episode is over")
        check_action(self.field, action)
        out = _transition(
            self.field, self.state, action, self.goal_configs,
            self.prev_displacement, self.initial_corridor_x,
        )
        self.prev_displacement = out.next_state.y - self.state.y if action.move < 2 else 0
        self.state = out.next_state
        self.steps += 1
        self.done = out.done
        self.total_reward += out.reward
        self.total_distance += out.distance_delta
        return out


def simulate(
    field: FieldSpec,
    start: RobotState,
    goal: GoalSpec,
    actions: Sequence[Action],
) -> SimulationResult:
    """Replay unit actions from start; the only arbiter of plan success.

    The replay stops at the goal, at the step budget, or at the first illegal
    action; ``outcomes`` holds the step outcomes up to that point.
    """
    episode = Episode(field, start, goal)
    outcomes: list[StepOutcome] = []
    reason = "actions exhausted before reaching the goal"
    for i, action in enumerate(actions):
        if episode.done:
            break
        if episode.steps >= field.max_steps:
            reason = "step budget exhausted"
            break
        try:
            outcomes.append(episode.step(action))
        except ValueError as exc:  # IllegalActionError or a malformed action
            reason = f"illegal action at index {i}: {exc}"
            break
    return SimulationResult(
        episode.done,
        episode.total_distance,
        episode.total_reward,
        episode.state,
        episode.steps,
        None if episode.done else reason,
        tuple(outcomes),
    )


def sample_state(field: FieldSpec, rng: np.random.Generator) -> RobotState:
    """Uniform random start pose inside the corridors."""
    corridor = 0.5 + int(rng.integers(field.num_rows - 1))
    return RobotState(corridor, int(rng.integers(field.corridor_len)), int(rng.integers(2)))


def sample_goal(field: FieldSpec, rng: np.random.Generator) -> GoalSpec:
    return GoalSpec(int(rng.integers(field.num_rows)), int(rng.integers(field.corridor_len)))


def sample_instance(
    field: FieldSpec, rng: np.random.Generator
) -> tuple[RobotState, GoalSpec]:
    """Random start and goal, redrawn until the start is not already terminal."""
    while True:
        start = sample_state(field, rng)
        goal = sample_goal(field, rng)
        if not is_goal(field, start, goal):
            return start, goal

