"""Deterministic planners over the corridor world.

Two planners produce provably shortest routes:

* :func:`plan_heuristic` decomposes the problem into at most three phases
  (exit the current corridor, switch along a headland, enter the approach
  corridor) and writes its route down directly, O(path length) with O(1)
  decision work.
* :func:`plan_astar` searches a compact implicit graph whose nodes are
  corridor/headland waypoints, with an admissible Manhattan-style heuristic.

Both build a route of poses, which one function turns into unit-step actions,
the route's length, and the deduplicated macro form used by the deployment
pipeline, where a vertical macro runs until a phase boundary.
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
            while True:
                out = step(state, macro, field, scored_goal)
                if macro.move < 2 and out.distance_delta == 0:
                    raise ValueError("no progress at corridor bounds")
                state = out.next_state
                raw.append(macro)
                leg.append(state)
                if macro.move >= 2 or at_headland(field, state.y) or (
                    goal is not None and out.done
                ):
                    break
        except ValueError as exc:
            raise ValueError(f"macro {i} {macro}: {exc}") from exc
        legs.append(leg)
    return raw, legs


def _plan_from_route(route: list[RobotState], planner_id: PlannerId) -> PlanResult:
    """The plan along a pose route; its length is the sum of the hops.  A
    vertical hop becomes unit moves with the hop's heading, preceded by one
    switch action carrying that heading when it starts in another corridor
    than the last vertical run; headland steps and bare flips carry no action
    of their own."""
    raw: list[Action] = []
    length = 0.0
    corridor = route[0].corridor_x
    for prev, cur in zip(route, route[1:]):
        length += abs(cur.corridor_x - prev.corridor_x) + abs(cur.y - prev.y)
        if cur.y == prev.y:
            continue
        if cur.corridor_x != corridor:
            raw.append(Action(cur.orientation, int(cur.corridor_x + 1.5)))
            corridor = cur.corridor_x
        move = FORWARD if (cur.y > prev.y) == (cur.orientation == UP) else BACKWARD
        raw += [Action(cur.orientation, move)] * abs(cur.y - prev.y)
    return PlanResult(tuple(raw), dedup(raw), length, planner_id)


def _heuristic_route(
    field: FieldSpec, start: RobotState, goal: GoalSpec
) -> list[RobotState]:
    configs = goal_configs(field, goal)
    if start in configs:
        return [start]

    # direct run: already in an approach corridor, heading usable as-is or
    # freely correctable on a headland
    for cfg in configs:
        if cfg.corridor_x == start.corridor_x and (
            cfg.orientation == start.orientation or at_headland(field, start.y)
        ):
            return [start, cfg]

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
    return [
        start,
        RobotState(start.corridor_x, edge, start.orientation),
        RobotState(target.corridor_x, edge, target.orientation),
        target,
    ]


def plan_heuristic(request: PlanRequest) -> PlanResult:
    check_state(request.field, request.start)
    route = _heuristic_route(request.field, request.start, request.goal)
    return _plan_from_route(route, PlannerId.HEURISTIC)


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


def plan_astar(request: PlanRequest) -> PlanResult:
    check_state(request.field, request.start)
    route = _astar_route(request.field, request.start, request.goal)
    return _plan_from_route(route, PlannerId.GRAPH_ASTAR)
