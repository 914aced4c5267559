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

import heapq
from dataclasses import dataclass

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
    max_steps: int | None = None

    def __post_init__(self) -> None:
        if self.num_rows < 2:
            raise ValueError(f"num_rows must be >= 2, got {self.num_rows}")
        if self.corridor_len < 1:
            raise ValueError(f"corridor_len must be >= 1, got {self.corridor_len}")
        floor = 2 * (self.corridor_len + 2) + self.num_rows
        if self.max_steps is None:
            # default budget; floor keeps any shortest path affordable on wide fields
            object.__setattr__(self, "max_steps", max(10 * (self.corridor_len + 2), floor))
        elif self.max_steps < floor:
            raise ValueError(f"max_steps must be >= {floor}, got {self.max_steps}")


@dataclass(frozen=True)
class RobotState:
    """Robot pose: corridor centerline x, discrete y, heading along the corridor."""

    corridor_x: float
    y: int
    orientation: int


@dataclass(frozen=True)
class GoalSpec:
    """Sampling target: row index and position along the row."""

    row: int
    goal_y: int


@dataclass(frozen=True)
class Action:
    """[orientation, move]: move 0 forward, 1 backward, m >= 2 switch to corridor m - 1.5."""

    orientation: int
    move: int


@dataclass(frozen=True)
class RewardParts:
    """Itemized reward terms; the step reward is their exact sum."""

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


@dataclass(frozen=True)
class StepOutcome:
    next_state: RobotState
    reward: float
    done: bool
    reward_parts: RewardParts
    distance_delta: float


@dataclass(frozen=True)
class SimulationResult:
    success: bool
    total_distance: float
    total_reward: float
    final_state: RobotState
    steps: int
    failure_reason: str | None = None
    outcomes: tuple[StepOutcome, ...] = ()  # one per step taken, in order


def corridor_positions(field: FieldSpec) -> list[float]:
    """Centerline x of every corridor, west to east."""
    return [k + 0.5 for k in range(field.num_rows - 1)]


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
    if state.orientation not in (UP, DOWN):
        raise ValueError(f"bad orientation: {state.orientation}")


def check_goal(field: FieldSpec, goal: GoalSpec) -> None:
    if not 0 <= goal.row < field.num_rows:
        raise ValueError(f"goal row out of range: {goal.row}")
    if not 0 <= goal.goal_y < field.corridor_len:
        raise ValueError(f"goal_y out of range: {goal.goal_y}")


def check_action(field: FieldSpec, action: Action) -> None:
    if action.orientation not in (UP, DOWN):
        raise ValueError(f"bad orientation component: {action.orientation}")
    if not 0 <= action.move <= field.num_rows:
        raise ValueError(f"move component out of range: {action.move}")


def goal_configs(field: FieldSpec, goal: GoalSpec) -> tuple[RobotState, ...]:
    """Terminal configurations servicing the goal row from an adjacent corridor.

    Facing up in the east corridor or facing down in the west corridor puts
    the goal row on the robot's working side; edge rows have only one.
    """
    check_goal(field, goal)
    configs = []
    east = goal.row + 0.5
    if is_corridor(field, east):
        configs.append(RobotState(east, goal.goal_y, UP))
    west = goal.row - 0.5
    if is_corridor(field, west):
        configs.append(RobotState(west, goal.goal_y, DOWN))
    return tuple(configs)


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

    The orientation component is applied first, so vertical motion uses the
    new heading.  ``prev_displacement`` is the previous step's signed vertical
    displacement (for oscillation detection); ``initial_corridor_x`` is the
    corridor the episode started in (for the arrival bonus) and defaults to
    the current corridor.
    """
    check_state(field, state)
    check_action(field, action)

    headland = at_headland(field, state.y)
    if action.move >= 2 and not headland:
        raise IllegalActionError(
            f"corridor switch requires a headland, robot at y={state.y}"
        )

    turn_penalty = 0.0
    if action.orientation != state.orientation and not headland:
        turn_penalty = TURN_PENALTY

    step_penalty = 0.0
    switch_penalty = 0.0
    dy = 0
    if action.move >= 2:
        target_x = action.move - 1.5
        lateral = abs(target_x - state.corridor_x)
        switch_penalty = SWITCH_PENALTY_PER_ROW * lateral
        distance = lateral
        next_state = RobotState(target_x, state.y, action.orientation)
    else:
        heading = 1 if action.orientation == UP else -1
        sign = 1 if action.move == FORWARD else -1
        ny = state.y + heading * sign
        ny = max(-1, min(field.corridor_len, ny))  # clamp at field bounds, still costs
        dy = ny - state.y
        step_penalty = STEP_PENALTY
        distance = float(abs(dy))
        next_state = RobotState(state.corridor_x, ny, action.orientation)

    oscillation_penalty = 0.0
    in_interior = not headland
    if (
        in_interior
        and dy != 0
        and prev_displacement is not None
        and dy == -prev_displacement
    ):
        oscillation_penalty = OSCILLATION_PENALTY

    goal_reward = 0.0
    bonus = 0.0
    done = is_goal(field, next_state, goal)
    if done:
        goal_reward = GOAL_REWARD
        origin = state.corridor_x if initial_corridor_x is None else initial_corridor_x
        nearest = min(abs(c.corridor_x - origin) for c in goal_configs(field, goal))
        if abs(next_state.corridor_x - origin) <= nearest:
            bonus = CLOSER_CORRIDOR_BONUS

    parts = RewardParts(
        step_penalty=step_penalty,
        switch_penalty=switch_penalty,
        turn_penalty=turn_penalty,
        oscillation_penalty=oscillation_penalty,
        goal_reward=goal_reward,
        closer_corridor_bonus=bonus,
    )
    return StepOutcome(
        next_state=next_state,
        reward=parts.total(),
        done=done,
        reward_parts=parts,
        distance_delta=distance,
    )


def observe(state: RobotState, goal: GoalSpec, field: FieldSpec) -> np.ndarray:
    """Normalized observation [corridor_x, y, orientation, goal_row, goal_y] in [0, 1]."""
    return np.array(
        [
            state.corridor_x / field.num_rows,
            (state.y + 1) / (field.corridor_len + 1),
            float(state.orientation),
            goal.row / field.num_rows,
            goal.goal_y / field.corridor_len,
        ],
        dtype=np.float64,
    )


def _oracle_edges(field: FieldSpec, state: RobotState):
    """Unit-cost motion edges: vertical moves anywhere, lateral steps and free
    reorientation only at headlands.  In-corridor turns are excluded."""
    for ny in (state.y - 1, state.y + 1):
        if -1 <= ny <= field.corridor_len:
            yield RobotState(state.corridor_x, ny, state.orientation), 1
    if at_headland(field, state.y):
        for nx in (state.corridor_x - 1.0, state.corridor_x + 1.0):
            if is_corridor(field, nx):
                yield RobotState(nx, state.y, state.orientation), 1
        yield RobotState(state.corridor_x, state.y, 1 - state.orientation), 0


def oracle_shortest(field: FieldSpec, start: RobotState, goal: GoalSpec) -> float:
    """Exact shortest travel distance from start to any terminal configuration.

    Uniform-cost search over the full discrete state graph; independent of the
    planners, used as ground truth for them.
    """
    check_state(field, start)
    targets = set(goal_configs(field, goal))
    if start in targets:
        return 0.0
    best: dict[RobotState, int] = {start: 0}
    frontier: list[tuple[int, int, RobotState]] = [(0, 0, start)]
    tick = 0
    while frontier:
        d, _, cur = heapq.heappop(frontier)
        if d > best.get(cur, d):
            continue
        if cur in targets:
            return float(d)
        for nxt, cost in _oracle_edges(field, cur):
            nd = d + cost
            if nd < best.get(nxt, nd + 1):
                best[nxt] = nd
                tick += 1
                heapq.heappush(frontier, (nd, tick, nxt))
    raise RuntimeError("goal unreachable")  # cannot happen on a connected field


class Episode:
    """Stateful wrapper around :func:`step` tracking episode context."""

    def __init__(self, field: FieldSpec, start: RobotState, goal: GoalSpec) -> None:
        check_state(field, start)
        check_goal(field, goal)
        self.field = field
        self.goal = goal
        self.state = start
        self.initial_corridor_x = start.corridor_x
        self.prev_displacement: int | None = None
        self.steps = 0
        self.done = is_goal(field, start, goal)
        self.total_reward = 0.0
        self.total_distance = 0.0

    def step(self, action: Action) -> StepOutcome:
        if self.done:
            raise RuntimeError("episode is over")
        out = step(
            self.state,
            action,
            self.field,
            self.goal,
            prev_displacement=self.prev_displacement,
            initial_corridor_x=self.initial_corridor_x,
        )
        dy = out.next_state.y - self.state.y
        self.prev_displacement = dy if action.move < 2 else 0
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
    actions: list[Action],
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


def sample_state(
    field: FieldSpec, rng: np.random.Generator, interior_only: bool = True
) -> RobotState:
    """Uniform random pose; start poses are drawn inside the corridors."""
    corridor = 0.5 + int(rng.integers(field.num_rows - 1))
    if interior_only:
        y = int(rng.integers(field.corridor_len))
    else:
        y = int(rng.integers(-1, field.corridor_len + 1))
    return RobotState(corridor, y, int(rng.integers(2)))


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


def all_states(field: FieldSpec) -> list[RobotState]:
    """Every valid pose, for exhaustive checks on small fields."""
    return [
        RobotState(c, y, o)
        for c in corridor_positions(field)
        for y in range(-1, field.corridor_len + 1)
        for o in (UP, DOWN)
    ]
