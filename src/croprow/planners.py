"""Deterministic planners over the corridor world.

Two planners produce provably shortest routes:

* :func:`plan_heuristic` decomposes the problem into at most three phases
  (exit the current corridor, switch along a headland, enter the approach
  corridor) and writes its route down directly, O(path length) with O(1)
  decision work.
* :func:`plan_astar` searches a compact implicit graph whose nodes are
  corridor/headland waypoints, held as integer ids that sort as their
  ``(corridor, y + 1, heading)`` tuples, on a heap of one-int keys, with a
  closed-form Manhattan-style bound and ties broken toward larger g.  The bound
  is exact after the start, so a headland pose generates only the successors
  that keep its f (as in Enhanced Partial Expansion A*), relaxes them inline and
  holds back the last one's key for the next pop, or walks a whole lateral run
  without the heap.  Each pose is reached once and keeps a parent; it counts pops.

Both build a route of poses, which one function turns into unit-step actions,
the route's length, and the macro form that :mod:`croprow.waypoints` expands
back into unit steps for export.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import heappush, heappushpop

from croprow.world import (
    BACKWARD,
    FORWARD,
    UP,
    Action,
    FieldSpec,
    GoalSpec,
    RobotState,
    at_headland,
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
    nodes_expanded: int = 0  # A*'s entries taken, the goal's included


def dedup(actions: list[Action] | tuple[Action, ...]) -> tuple[Action, ...]:
    """Collapse consecutive repeats into macro actions: a macro is an action that
    differs from the one before it, for every planner and for export."""
    out: list[Action] = []
    for action in actions:
        if not out or out[-1] != action:
            out.append(action)
    return tuple(out)


def _plan_from_route(route: list[RobotState], planner_id: PlannerId, nodes_expanded: int = 0) -> PlanResult:
    """The plan along a pose route; its length is the sum of the hops' |dx| +
    |dy|.  A vertical hop becomes unit moves with the hop's heading, preceded
    by one switch action carrying that heading when it starts in another
    corridor than the last vertical run; headland hops, which may span several
    corridors, carry no action of their own.  The macros are :func:`dedup`'s."""
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
    """The route and the count of entries taken, the goal's included.

    A node is the int ``(corridor * (len + 2) + y + 1) * 2 + heading``, ordered as its
    ``(corridor, y + 1, heading)``.  After the start only headland and goal poses are
    pushed, and their bound h, corridors to the nearer goal corridor plus rows to the
    goal's y, is exact.  An entry is the int ``(f * H + h) * N + node``: equal f pops
    the larger g, then the smaller node (Asai & Fukunaga, AAAI 2016).  Each successor
    relaxed inline pushes the held key and holds its own.  Keys are unique, so
    ``heappushpop(frontier, held)`` keeps the order, and positive, so 0 holds none.
    With the exact bound every entry after the start has f >= C*, and the goal pops with
    f = C* and h = 0, so an entry with f > C* is never taken (Hart, Nilsson & Raphael,
    IEEE TSSC 1968).  So a headland pose generates only the successors that keep its f,
    picked in closed form as in EPEA* (Felner et al., "Partial-Expansion A* with Selective
    Node Generation", AAAI 2012): outside the goal corridors the step toward them, inside
    one the free flip, and the goal leg.  The crossing raises f by 2 (top - dy) > 0 and a
    step away from the goal by 1 or 2, so EPEA*'s re-insertion of the parent is never
    needed.  Outside a goal corridor the flip twin has its parent's g, h and moves, and the
    lateral successor (h - 1) pops before it, so it never pops before the goal.  There the
    lateral run is walked at once, a parent and a pop per pose, holding the last one's key:
    f stays and h falls by one, so each key undercuts the frontier, and no run pose's goal
    leg is a goal (fast expansion: Sun, Yeoh, Chen & Koenig, AAMAS 2009).  Every pose
    keeps the start's heading until a flip in a goal corridor, so each is reached once, by
    a least-g path, and keeps only a parent.  The flip back to a pose's own parent is
    skipped: when the pose's goal leg misses, the parent's reached the goal, which pops
    first.  The route keeps the poses where y changes, so a headland run is one hop."""
    configs = goal_configs(field, goal)
    if start in configs:
        return [start], 0
    top, goal_y1 = field.corridor_len + 1, int(goal.goal_y) + 1
    width, span = 2 * top + 2, field.num_rows + field.corridor_len  # ids per corridor, H
    n = (field.num_rows - 1) * width
    goals = {int(c.corridor_x - 0.5) * width + 2 * goal_y1 + c.orientation for c in configs}
    lo, hi = int(configs[-1].corridor_x - 0.5), int(configs[0].corridor_x - 0.5)
    corridor, y1 = int(start.corridor_x - 0.5), int(start.y) + 1
    origin = corridor * width + 2 * y1 + int(start.orientation)
    h = (lo - corridor if corridor < lo else corridor - hi if corridor > hi else 0) + abs(y1 - goal_y1)
    parent, fn = {}, span * n  # the nodes the search reaches, on any width, each to its parent
    frontier, pops, held = [], 0, (h * span + h) * n + origin  # the start is taken first, alone
    while held:
        f, rest = divmod(heappushpop(frontier, held), fn)
        h, node = divmod(rest, n)
        g, held = f - h, 0
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
        if 0 < y1 < top:  # drive to the top headland, then to the bottom one
            succ, hs = node + 2 * (top - y1), lat + top - goal_y1
            parent[succ] = node
            heappush(frontier, ((g + top - y1 + hs) * span + hs) * n + succ)
            succ, ng, hs = node - 2 * y1, g + y1, lat + goal_y1
            parent[succ] = node
            held = ((ng + hs) * span + hs) * n + succ
        elif lat:  # the run to the nearer goal corridor, each pose a pop that undercuts the frontier
            step = -width if corridor > hi else width
            for succ in range(node + step, node + (lat + 1) * step, step):
                parent[succ], node = node, succ
            pops, held = pops + lat - 1, (f * span + h - lat) * n + node  # the last pose pops next
            continue
        elif parent.get(node) != node ^ 1:  # in a goal corridor the flip is free and the heading picks the goal
            parent[node ^ 1] = node
            held = (f * span + h) * n + (node ^ 1)
        succ, ng = node + 2 * (goal_y1 - y1), g + dy  # the goal leg, whose bound is 0
        if succ in goals:
            parent[succ] = node
            if held: heappush(frontier, held)
            held = ng * fn + succ
    raise RuntimeError("an expansion before the goal relaxed nothing")


def plan_astar(request: PlanRequest) -> PlanResult:
    check_state(request.field, request.start)
    route, pops = _astar_route(request.field, request.start, request.goal)
    return _plan_from_route(route, PlannerId.GRAPH_ASTAR, pops)
