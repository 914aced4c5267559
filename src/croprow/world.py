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
    tuple whose repr names every term: ``RewardParts(step_penalty=-0.2, ...)``."""

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
    """One step's result; a named tuple whose repr names every field, as
    ``StepOutcome(next_state=RobotState(...), reward=-0.2, ...)``."""

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
    # exact for every float: a whole x, past 2**52 too, leaves 0.0; inf and nan leave nan
    return x % 1 == 0.5 and 0.5 <= x <= field.num_rows - 1.5


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


def step(
    state: RobotState,
    action: Action,
    field: FieldSpec,
    goal: GoalSpec,
    prev_displacement: int | None = None,
    initial_corridor_x: float | None = None,
) -> StepOutcome:
    """One :meth:`Episode.step` from a given pose, terminal or not; pure function of its
    arguments.  ``prev_displacement`` is the previous step's signed vertical displacement
    (for oscillation); ``initial_corridor_x`` the episode's first corridor (for the arrival
    bonus), by default the current one."""
    episode = Episode(field, state, goal)
    episode.done, episode.prev_displacement = False, prev_displacement
    if initial_corridor_x is not None:
        episode.initial_corridor_x = initial_corridor_x
    return episode.step(action)


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


@lru_cache(maxsize=1024)
def _distance_field(field: FieldSpec, goal: GoalSpec) -> tuple[array, tuple[tuple[int, int], ...]]:
    """Exact distances from both ends of every corridor to the goal's terminal set, flat as
    (south ends, north ends), and the goal lines as (corridor, heading) pairs.  A flip is free
    on a headland, so both headings at a corridor end share one distance, held in an int64
    (end, corridor) array.  From the goal lines' ends it relaxes to the Bellman-Ford fixed
    point: the crossing, top = len + 1 between a line's ends, then the lateral steps as two
    prefix-minimum passes, until the ends are closed under the crossing.  A lateral pass is an
    L1 distance transform, so it is idempotent (Felzenszwalb & Huttenlocher, Theory of
    Computing 2012), and closure under the crossing is the fixed point."""
    top = field.corridor_len + 1
    lines = tuple((int(c.corridor_x - 0.5), c.orientation) for c in goal_configs(field, goal))
    ends = np.full((2, field.num_rows - 1), _UNREACHED, np.int64)
    ends[:, [c for c, _ in lines]] = [[goal.goal_y + 1], [top - goal.goal_y - 1]]
    i = np.arange(field.num_rows - 1)
    while True:
        crossed = np.minimum(ends, ends[::-1] + top)
        forward = np.minimum.accumulate(crossed - i, axis=1) + i
        ends = np.minimum(forward, np.minimum.accumulate((crossed + i)[:, ::-1], axis=1)[:, ::-1] - i)
        if (ends <= ends[::-1] + top).all():
            return array("q", ends.tobytes()), lines


def oracle_shortest(field: FieldSpec, start: RobotState, goal: GoalSpec) -> float:
    """Exact shortest travel distance from start to any terminal configuration.

    The goal's corridor ends (see :func:`_distance_field`) are LRU-memoized per
    (field, goal), at most 1,024 goals at 16 bytes per corridor: about 16 MB at
    1,000 rows.  A line is a path graph between its ends, so a pose takes
    min(south end + y + 1, north end + len - y), and a pose on a goal line
    |y - goal_y|: the exact L1 distances on a path.
    Independent of the planners, used as ground truth for them.
    """
    check_state(field, start)
    ends, lines = _distance_field(field, goal)
    corridor, y = int(start.corridor_x - 0.5), int(start.y)
    if (corridor, start.orientation) in lines:
        return float(abs(y - goal.goal_y))
    d = min(ends[corridor] + y + 1, ends[corridor + field.num_rows - 1] + field.corridor_len - y)
    if d >= _UNREACHED:  # every pose is connected, so only a damaged field
        raise RuntimeError("goal unreachable")
    return float(d)


class Episode:
    """Stateful episode: start and goal checked once; :meth:`step` is the step rule."""

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
        """Apply one action under the step rule, written only here; the heading turns first."""
        if self.done:
            raise RuntimeError("episode is over")
        field, state, configs = self.field, self.state, self.goal_configs
        check_action(field, action)
        y = state.y
        orientation, move = action
        headland = y == -1 or y == field.corridor_len
        turn_penalty = TURN_PENALTY if orientation != state.orientation and not headland else 0.0
        if move >= 2:
            if not headland:
                raise IllegalActionError(f"corridor switch requires a headland, robot at y={y}")
            target_x = move - 1.5
            dy, distance = 0, abs(target_x - state.corridor_x)
            next_state = RobotState(target_x, y, orientation)
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
            # reversing the previous vertical step inside a corridor; none after a switch or at the start
            oscillating = not headland and dy != 0 and dy == -(self.prev_displacement or 0)
            step_penalty, switch_penalty = STEP_PENALTY, 0.0
            oscillation_penalty = OSCILLATION_PENALTY if oscillating else 0.0
        done = next_state in configs
        if move < 2 and not (turn_penalty or oscillation_penalty or done):  # -0.2 + 0.0 + ... == -0.2 exactly
            out = StepOutcome(next_state, STEP_PENALTY, False, _UNIT_STEP, distance)
        else:
            goal_reward = bonus = 0.0
            if done:  # the bonus goes to the terminal corridor nearest the initial one, ties included
                goal_reward, origin = GOAL_REWARD, self.initial_corridor_x
                if abs(next_state.corridor_x - origin) <= min(abs(c.corridor_x - origin) for c in configs):
                    bonus = CLOSER_CORRIDOR_BONUS
            parts = RewardParts(step_penalty, switch_penalty, turn_penalty, oscillation_penalty, goal_reward, bonus)
            out = StepOutcome(next_state, parts.total(), done, parts, distance)
        self.state, self.done, self.prev_displacement = next_state, done, dy
        self.steps += 1
        self.total_reward += out.reward
        self.total_distance += distance
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


_BLOCK = 4096  # tries per draw, so a block's arrays stay smaller than the list of results


def sample_instances(field: FieldSpec, rng: np.random.Generator, count: int) -> list[tuple[RobotState, GoalSpec]]:
    """``count`` random (start, goal) pairs: per try, start corridor, y and heading, then goal row
    and goal y, redrawn while the start is terminal.  One ``rng.integers`` call on an array of
    bounds draws a block of tries, element by element as scalar calls would (Lemire, ACM TOMACS
    2019); a block holds no more tries than are missing, so ``rng`` ends where scalar calls would."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    bounds = (field.num_rows - 1, field.corridor_len, 2, field.num_rows, field.corridor_len)
    dtype = np.int64 if max(bounds) < 2**63 else object  # numpy range-checks object bounds as scalar ones
    out: list[tuple[RobotState, GoalSpec]] = []
    while len(out) < count:
        values = iter(rng.integers(np.array(bounds * min(count - len(out), _BLOCK), dtype)).tolist())
        for corridor, y, heading, row, goal_y in zip(values, values, values, values, values):
            if y != goal_y or corridor + heading != row:  # else in goal_configs: row = corridor + heading
                out.append((RobotState(corridor + 0.5, y, heading), GoalSpec(row, goal_y)))
    return out
