"""Deterministic planners over the corridor world.

Two planners produce provably shortest routes:

* :func:`plan_heuristic` decomposes the problem into at most three phases
  (exit the current corridor, switch along a headland, enter the approach
  corridor) and emits the move sequence directly, O(path length) with O(1)
  decision work.
* :func:`plan_astar` searches a compact implicit graph whose nodes are
  corridor/headland waypoints, with an admissible Manhattan-style heuristic.

Both return unit-step actions plus the deduplicated macro form used by the
deployment pipeline, where a vertical macro runs until a phase boundary.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

from croprow.world import (
    BACKWARD,
    DOWN,
    FORWARD,
    UP,
    Action,
    FieldSpec,
    GoalSpec,
    RobotState,
    at_headland,
    check_goal,
    check_state,
    goal_configs,
    is_corridor,
    is_goal,
    step,
)


class PlannerId(str, Enum):
    HEURISTIC = "heuristic"
    GRAPH_ASTAR = "astar"
    DQN = "dqn"


@dataclass(frozen=True)
class PlanRequest:
    field: FieldSpec
    start: RobotState
    goal: GoalSpec


@dataclass(frozen=True)
class PlanResult:
    raw_actions: tuple[Action, ...]
    macro_actions: tuple[Action, ...]
    path_length: float
    planner_id: PlannerId
    success: bool = True
    failure_reason: str | None = None


def dedup(actions: list[Action] | tuple[Action, ...]) -> tuple[Action, ...]:
    """Collapse consecutive repeats into macro actions."""
    out: list[Action] = []
    for action in actions:
        if not out or out[-1] != action:
            out.append(action)
    return tuple(out)


def path_length_of(field: FieldSpec, start: RobotState, actions) -> float:
    """Distance covered by an action sequence: 1 per vertical unit, rows
    crossed per switch.  Assumes no clamped moves."""
    total = 0.0
    x = start.corridor_x
    for action in actions:
        if action.move >= 2:
            target = action.move - 1.5
            total += abs(target - x)
            x = target
        else:
            total += 1.0
    return total


def expand_macro_legs(
    field: FieldSpec,
    start: RobotState,
    macros,
    goal: GoalSpec | None = None,
) -> tuple[list[Action], list[list[RobotState]]]:
    """Unit-step expansion of macro actions under deployment semantics,
    keeping the state trajectory of each macro as a separate leg.

    A vertical macro repeats until the route completes or the robot reaches a
    corridor end; a switch macro is a single action.  Without a goal the
    replay is purely geometric: vertical runs end only at corridor ends.
    Raises ValueError when a macro cannot make progress, naming it.
    """
    # Rewards are irrelevant here, but step() needs some goal to score against.
    scored_goal = goal if goal is not None else GoalSpec(0, 0)
    state = start
    raw: list[Action] = []
    legs: list[list[RobotState]] = []
    for i, macro in enumerate(macros):
        if goal is not None and is_goal(field, state, goal):
            raise ValueError(f"macro {i} {macro}: route already complete")
        leg = [state]
        try:
            if macro.move >= 2:
                state = step(state, macro, field, scored_goal).next_state
                raw.append(macro)
                leg.append(state)
            else:
                while True:
                    out = step(state, macro, field, scored_goal)
                    if out.distance_delta == 0:
                        raise ValueError("no progress at corridor bounds")
                    state = out.next_state
                    raw.append(macro)
                    leg.append(state)
                    if (goal is not None and out.done) or at_headland(field, state.y):
                        break
        except ValueError as exc:
            raise ValueError(f"macro {i} {macro}: {exc}") from exc
        legs.append(leg)
    return raw, legs


def _vertical_run(orientation: int, from_y: int, to_y: int) -> list[Action]:
    """Unit moves between two y positions without reorienting."""
    if to_y == from_y:
        return []
    going_up = to_y > from_y
    move = FORWARD if going_up == (orientation == UP) else BACKWARD
    return [Action(orientation, move)] * abs(to_y - from_y)


def _switch_action(target_x: float, orientation: int) -> Action:
    return Action(orientation, int(target_x + 1.5))


def _heuristic_actions(
    field: FieldSpec, start: RobotState, goal: GoalSpec
) -> list[Action]:
    configs = goal_configs(field, goal)
    if start in configs:
        return []

    # direct run: already in an approach corridor, heading usable as-is or
    # freely correctable on a headland
    for cfg in configs:
        if cfg.corridor_x == start.corridor_x and (
            cfg.orientation == start.orientation or at_headland(field, start.y)
        ):
            return _vertical_run(cfg.orientation, start.y, cfg.y)

    # exit headland: least extra travel, top preferred on ties
    edge = min(
        (field.corridor_len, -1),
        key=lambda e: abs(start.y - e) + abs(e - goal.goal_y),
    )

    # approach corridor nearest the start; corridor_x is never equal to row x
    if start.corridor_x < goal.row:
        target = RobotState(goal.row - 0.5, goal.goal_y, DOWN)
    else:
        target = RobotState(goal.row + 0.5, goal.goal_y, UP)
    assert target in configs

    actions = _vertical_run(start.orientation, start.y, edge)
    if target.corridor_x != start.corridor_x:
        actions.append(_switch_action(target.corridor_x, target.orientation))
    actions += _vertical_run(target.orientation, edge, target.y)
    return actions


def plan_heuristic(request: PlanRequest) -> PlanResult:
    check_state(request.field, request.start)
    check_goal(request.field, request.goal)
    raw = _heuristic_actions(request.field, request.start, request.goal)
    return PlanResult(
        raw_actions=tuple(raw),
        macro_actions=dedup(raw),
        path_length=path_length_of(request.field, request.start, raw),
        planner_id=PlannerId.HEURISTIC,
    )


def _astar_heuristic(
    node: RobotState, configs: tuple[RobotState, ...], edges: tuple[int, int]
) -> float:
    """Lower bound on remaining distance: lateral offset plus vertical travel,
    routed through a headland whenever the corridor or heading must change."""
    best = None
    for cfg in configs:
        if node.corridor_x == cfg.corridor_x and node.orientation == cfg.orientation:
            h = abs(node.y - cfg.y)
        else:
            via = min(abs(node.y - e) + abs(e - cfg.y) for e in edges)
            h = abs(node.corridor_x - cfg.corridor_x) + via
        if best is None or h < best:
            best = h
    return float(best)


def _astar_successors(
    field: FieldSpec, node: RobotState, by_corridor: dict[float, RobotState]
):
    top = field.corridor_len
    cfg = by_corridor.get(node.corridor_x)
    if not at_headland(field, node.y):
        for edge in (top, -1):
            yield RobotState(node.corridor_x, edge, node.orientation), abs(node.y - edge)
        if cfg is not None and cfg.orientation == node.orientation:
            yield cfg, abs(node.y - cfg.y)
    else:
        for nx in (node.corridor_x - 1.0, node.corridor_x + 1.0):
            if is_corridor(field, nx):
                yield RobotState(nx, node.y, node.orientation), 1
        yield RobotState(node.corridor_x, node.y, 1 - node.orientation), 0
        opposite = top if node.y == -1 else -1
        yield RobotState(node.corridor_x, opposite, node.orientation), top + 1
        if cfg is not None and cfg.orientation == node.orientation:
            yield cfg, abs(node.y - cfg.y)


def _astar_route(
    field: FieldSpec, start: RobotState, goal: GoalSpec
) -> list[RobotState]:
    configs = goal_configs(field, goal)
    targets = set(configs)
    if start in targets:
        return [start]
    by_corridor = {c.corridor_x: c for c in configs}
    edges = (field.corridor_len, -1)

    best_g: dict[RobotState, float] = {start: 0.0}
    parent: dict[RobotState, RobotState] = {}
    h0 = _astar_heuristic(start, configs, edges)
    frontier: list[tuple[float, int, float, RobotState]] = [(h0, 0, 0.0, start)]
    tick = 0  # insertion order; FIFO among equal f
    while frontier:
        f, _, g, node = heapq.heappop(frontier)
        if g > best_g.get(node, g):
            continue
        if node in targets:
            path = [node]
            while node != start:
                node = parent[node]
                path.append(node)
            return path[::-1]
        for succ, cost in _astar_successors(field, node, by_corridor):
            ng = g + cost
            if ng < best_g.get(succ, ng + 1):
                best_g[succ] = ng
                parent[succ] = node
                tick += 1
                nf = ng + _astar_heuristic(succ, configs, edges)
                heapq.heappush(frontier, (nf, tick, ng, succ))
    raise RuntimeError("search space exhausted without reaching the goal")


def _route_to_actions(path: list[RobotState]) -> list[Action]:
    """Turn a waypoint path into unit actions.  Headland activity between two
    vertical runs collapses into one switch action carrying the orientation
    the robot re-enters with; bare flips ride on the next move."""
    actions: list[Action] = []
    lateral_origin: float | None = None
    lateral_target: float | None = None

    def flush(orientation: int) -> None:
        nonlocal lateral_origin, lateral_target
        if lateral_target is not None and lateral_target != lateral_origin:
            actions.append(_switch_action(lateral_target, orientation))
        lateral_origin = lateral_target = None

    for prev, cur in zip(path, path[1:]):
        if cur.y != prev.y:
            flush(cur.orientation)
            actions.extend(_vertical_run(cur.orientation, prev.y, cur.y))
        elif cur.corridor_x != prev.corridor_x:
            if lateral_origin is None:
                lateral_origin = prev.corridor_x
            lateral_target = cur.corridor_x
        # orientation-only transitions carry no action of their own
    if path:
        flush(path[-1].orientation)
    return actions


def plan_astar(request: PlanRequest) -> PlanResult:
    check_state(request.field, request.start)
    check_goal(request.field, request.goal)
    route = _astar_route(request.field, request.start, request.goal)
    raw = _route_to_actions(route)
    return PlanResult(
        raw_actions=tuple(raw),
        macro_actions=dedup(raw),
        path_length=path_length_of(request.field, request.start, raw),
        planner_id=PlannerId.GRAPH_ASTAR,
    )
