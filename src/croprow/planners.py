"""Deterministic planners over the corridor world.

Two planners produce provably shortest routes:

* :func:`plan_heuristic` decomposes the problem into at most three phases
  (exit the current corridor, switch along a headland, enter the approach
  corridor) and writes its route down directly, O(path length) with O(1)
  decision work.
* :func:`plan_astar` searches a compact implicit graph whose nodes are
  corridor/headland waypoints, held as ``(corridor, y + 1, heading)``
  tuples, with a closed-form Manhattan-style bound and ties broken toward
  larger g, and counts the nodes it expands.

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
    FORWARD,
    UP,
    Action,
    FieldSpec,
    GoalSpec,
    RobotState,
    at_headland,
    _transition,
    check_action,
    check_state,
    goal_configs,
    step,  # noqa: F401 - not called here; perfbench/workloads.py traces planners.step
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
    nodes_expanded: int = 0  # A*'s non-stale heap pops, the goal pop included


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
    The start and then the goal are checked once, before the first macro and
    also when there is none; later states come from the transition rule.
    Raises ValueError when a macro cannot make progress, naming it.
    """
    check_state(field, start)
    configs = () if goal is None else goal_configs(field, goal)
    state = start
    raw: list[Action] = []
    legs: list[list[RobotState]] = []
    for i, macro in enumerate(macros):
        if state in configs:
            raise ValueError(f"macro {i} {macro}: route already complete")
        leg = [state]
        try:
            check_action(field, macro)
            while True:
                # rewards are not read here, so no previous move and any origin
                out = _transition(field, state, macro, configs, None, state.corridor_x)
                if macro.move < 2 and out.distance_delta == 0:
                    raise ValueError("no progress at corridor bounds")
                state = out.next_state
                raw.append(macro)
                leg.append(state)
                if macro.move >= 2 or at_headland(field, state.y) or out.done:
                    break
        except ValueError as exc:
            raise ValueError(f"macro {i} {macro}: {exc}") from exc
        legs.append(leg)
    return raw, legs


def _plan_from_route(
    route: list[RobotState], planner_id: PlannerId, nodes_expanded: int = 0
) -> PlanResult:
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
        raw += [Action(cur.orientation, move)] * int(abs(cur.y - prev.y))  # y may be 2.0
    return PlanResult(tuple(raw), dedup(raw), length, planner_id, nodes_expanded=nodes_expanded)


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
    target = min(configs, key=lambda c: abs(c.corridor_x - start.corridor_x))
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


def _astar_route(
    field: FieldSpec, start: RobotState, goal: GoalSpec
) -> tuple[list[RobotState], int]:
    """The route and the count of non-stale heap pops, the goal pop included.

    Nodes are ``(corridor, y + 1, heading)`` tuples.  An interior pose drives
    to both headlands; a headland pose steps to each neighbouring corridor,
    flips for free and crosses to the opposite headland; a pose in a goal
    corridor with the goal's heading also drives straight to the goal.  Every
    node pushed after the start is a headland or goal pose, whose distance
    bound is the corridors to the nearer goal corridor plus the rows to the
    goal's y.  Ties between equal f pop the larger g first, then the smaller
    node (Asai & Fukunaga, AAAI 2016)."""
    configs = goal_configs(field, goal)
    if start in configs:
        return [start], 0
    top, last, goal_y1 = field.corridor_len + 1, field.num_rows - 2, int(goal.goal_y) + 1
    legs = {(int(c.corridor_x - 0.5), c.orientation) for c in configs}
    lo, hi = min(legs)[0], max(legs)[0]
    origin = (int(start.corridor_x - 0.5), int(start.y) + 1, int(start.orientation))
    best_g, parent = {origin: 0}, {}
    frontier = [(0, 0, origin)]  # (f, -g, node); the start pops first whatever its f
    pops = 0
    heappush, heappop = heapq.heappush, heapq.heappop
    while frontier:
        _, neg_g, node = heappop(frontier)
        g = -neg_g
        if g > best_g[node]:
            continue
        pops += 1
        corridor, y1, heading = node
        leg = (corridor, heading) in legs
        if leg and y1 == goal_y1:
            path = []
            while node != origin:
                path.append(RobotState(node[0] + 0.5, node[1] - 1, node[2]))
                node = parent[node]
            return [start, *reversed(path)], pops
        if 0 < y1 < top:
            edges = [(corridor, top, heading, top - y1), (corridor, 0, heading, y1)]
        else:
            edges = [(corridor, y1, heading ^ 1, 0), (corridor, top - y1, heading, top)]
            if corridor > 0:
                edges.append((corridor - 1, y1, heading, 1))
            if corridor < last:
                edges.append((corridor + 1, y1, heading, 1))
        if leg:
            edges.append((corridor, goal_y1, heading, abs(y1 - goal_y1)))
        for c, y, o, cost in edges:
            ng = g + cost
            succ = (c, y, o)
            if ng < best_g.get(succ, ng + 1):
                best_g[succ] = ng
                parent[succ] = node
                f = ng + (lo - c if c < lo else c - hi if c > hi else 0) + abs(y - goal_y1)
                heappush(frontier, (f, -ng, succ))
    raise RuntimeError("search space exhausted without reaching the goal")


def plan_astar(request: PlanRequest) -> PlanResult:
    check_state(request.field, request.start)
    route, pops = _astar_route(request.field, request.start, request.goal)
    return _plan_from_route(route, PlannerId.GRAPH_ASTAR, pops)
