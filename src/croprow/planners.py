"""Deterministic planners over the corridor world.

Two planners produce provably shortest routes:

* :func:`plan_heuristic` decomposes the problem into at most three phases
  (exit the current corridor, switch along a headland, enter the approach
  corridor) and writes its route down directly, O(path length) with O(1)
  decision work.
* :func:`plan_astar` searches a compact implicit graph whose nodes are
  corridor/headland waypoints, held as integer ids that sort as their
  ``(corridor, y + 1, heading)`` tuples, on a heap of one-int keys, with a
  closed-form Manhattan-style bound and ties broken toward larger g, and
  counts the nodes it expands.

Both build a route of poses, which one function turns into unit-step actions,
the route's length, and the macro form used by the deployment pipeline, where
a vertical macro runs until a phase boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush

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
    field: FieldSpec, start: RobotState, macros, goal: GoalSpec | None = None
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


def _plan_from_route(route: list[RobotState], planner_id: PlannerId, nodes_expanded: int = 0) -> PlanResult:
    """The plan along a pose route; its length is the sum of the hops' |dx| +
    |dy|.  A vertical hop becomes unit moves with the hop's heading, preceded
    by one switch action carrying that heading when it starts in another
    corridor than the last vertical run; headland hops, which may span several
    corridors, carry no action of their own.  A macro is an action that
    differs from the one before it."""
    raw: list[Action] = []
    macros: list[Action] = []
    length = 0.0
    corridor = route[0].corridor_x
    for prev, cur in zip(route, route[1:]):
        length += abs(cur.corridor_x - prev.corridor_x) + abs(cur.y - prev.y)
        if cur.y == prev.y:
            continue
        if cur.corridor_x != corridor:
            raw.append(Action(cur.orientation, int(cur.corridor_x + 1.5)))
            macros.append(raw[-1])  # a switch, unlike any vertical action
            corridor = cur.corridor_x
        move = FORWARD if (cur.y > prev.y) == (cur.orientation == UP) else BACKWARD
        action = Action(cur.orientation, move)
        if not macros or macros[-1] != action:
            macros.append(action)
        raw += [action] * int(abs(cur.y - prev.y))  # y may be 2.0
    return PlanResult(tuple(raw), tuple(macros), length, planner_id, nodes_expanded=nodes_expanded)


def _heuristic_route(field: FieldSpec, start: RobotState, goal: GoalSpec) -> list[RobotState]:
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
    top, sy, gy = field.corridor_len, start.y, goal.goal_y
    edge = top if (top - sy) + (top - gy) <= (sy + 1) + (gy + 1) else -1
    # approach corridor nearest the start: west (the last config) when the
    # start is west of the goal row, whose x no corridor_x equals
    target = configs[-1] if start.corridor_x < goal.row else configs[0]
    exit_pose = RobotState(start.corridor_x, edge, start.orientation)
    return [start, exit_pose, RobotState(target.corridor_x, edge, target.orientation), target]


def plan_heuristic(request: PlanRequest) -> PlanResult:
    check_state(request.field, request.start)
    route = _heuristic_route(request.field, request.start, request.goal)
    return _plan_from_route(route, PlannerId.HEURISTIC)


def _astar_route(field: FieldSpec, start: RobotState, goal: GoalSpec) -> tuple[list[RobotState], int]:
    """The route and the count of non-stale heap pops, the goal pop included.

    A node is the int ``(corridor * (len + 2) + y + 1) * 2 + heading``, sorting
    as its ``(corridor, y + 1, heading)`` tuple.  An interior pose drives to both
    headlands; a headland pose steps to each neighbouring corridor, flips for free
    and crosses to the opposite headland; a pose in a goal corridor with the
    goal's heading also drives straight to the goal.  A node pushed after the
    start is a headland or goal pose, whose bound h is the corridors to the nearer
    goal corridor plus the rows to the goal's y.  A heap entry is the int
    ``(f * H + h) * N + node`` (h < H, node < N): equal f pops the larger g first,
    then the smaller node (Asai & Fukunaga, AAAI 2016).  The route keeps only the
    poses where y changes, so a headland run is one hop."""
    configs = goal_configs(field, goal)
    if start in configs:
        return [start], 0
    top, last, goal_y1 = field.corridor_len + 1, field.num_rows - 2, int(goal.goal_y) + 1
    width, span = 2 * top + 2, field.num_rows + field.corridor_len  # ids per corridor, H
    n = (last + 1) * width
    goals = {int(c.corridor_x - 0.5) * width + 2 * goal_y1 + c.orientation for c in configs}
    lo, hi = int(configs[-1].corridor_x - 0.5), int(configs[0].corridor_x - 0.5)
    corridor, y1 = int(start.corridor_x - 0.5), int(start.y) + 1
    origin = corridor * width + 2 * y1 + int(start.orientation)
    h = (lo - corridor if corridor < lo else corridor - hi if corridor > hi else 0) + abs(y1 - goal_y1)
    best_g, parent = {origin: 0}, {}  # only the nodes the search reaches, on any width
    frontier, pops = [(h * span + h) * n + origin], 0  # the start pops first, alone
    while frontier:
        fh, node = divmod(heappop(frontier), n)
        f, h = divmod(fh, span)
        g = f - h
        if g > best_g[node]:
            continue
        pops += 1
        if node in goals:
            path, y_next = [], -1
            while node != origin:
                prev = parent[node]
                y1 = node % width >> 1
                if y1 != y_next or y1 != prev % width >> 1:  # an end of a vertical hop
                    path.append(RobotState(node // width + 0.5, y1 - 1, node & 1))
                node, y_next = prev, y1
            return [start, *reversed(path)], pops
        corridor, y1 = node // width, node % width >> 1
        dy = abs(y1 - goal_y1)
        lat = h - dy  # corridors to the nearer goal corridor; a lateral step moves it by at most one
        if 0 < y1 < top:
            edges = [(node + 2 * (top - y1), top - y1, lat + top - goal_y1), (node - 2 * y1, y1, lat + goal_y1)]
        else:
            edges = [(node ^ 1, 0, h), (node + 2 * (top - 2 * y1), top, lat + top - dy)]
            if corridor > 0:
                edges.append((node - width, 1, h + (1 if corridor <= lo else -1 if corridor > hi else 0)))
            if corridor < last:
                edges.append((node + width, 1, h + (1 if corridor >= hi else -1 if corridor < lo else 0)))
        leg = node + 2 * (goal_y1 - y1)
        if leg in goals:
            edges.append((leg, dy, 0))
        for succ, cost, hs in edges:
            ng = g + cost
            if ng < best_g.get(succ, ng + 1):
                best_g[succ] = ng
                parent[succ] = node
                heappush(frontier, ((ng + hs) * span + hs) * n + succ)
    raise RuntimeError("search space exhausted without reaching the goal")


def plan_astar(request: PlanRequest) -> PlanResult:
    check_state(request.field, request.start)
    route, pops = _astar_route(request.field, request.start, request.goal)
    return _plan_from_route(route, PlannerId.GRAPH_ASTAR, pops)
