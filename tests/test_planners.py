"""Planner tests: worked examples frozen to exact action sequences, plus
exhaustive and randomized optimality checks against the motion oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croprow.planners import (
    PlanRequest,
    PlannerId,
    dedup,
    expand_macro_legs,
    path_length_of,
    plan_astar,
    plan_heuristic,
)
from croprow.world import (
    DOWN,
    UP,
    Action,
    FieldSpec,
    GoalSpec,
    RobotState,
    all_states,
    at_headland,
    oracle_shortest,
    simulate,
)


def A(o: int, m: int) -> Action:
    return Action(o, m)


@st.composite
def plan_instances(draw, max_rows=12, max_len=12):
    field = FieldSpec(
        num_rows=draw(st.integers(2, max_rows)),
        corridor_len=draw(st.integers(1, max_len)),
    )
    start = RobotState(
        corridor_x=draw(st.integers(0, field.num_rows - 2)) + 0.5,
        y=draw(st.integers(-1, field.corridor_len)),
        orientation=draw(st.sampled_from((UP, DOWN))),
    )
    goal = GoalSpec(
        row=draw(st.integers(0, field.num_rows - 1)),
        goal_y=draw(st.integers(0, field.corridor_len - 1)),
    )
    return PlanRequest(field, start, goal)


def assert_no_forbidden_moves(request: PlanRequest, raw) -> None:
    """Raw actions never reorient inside a corridor and never switch off a
    headland."""
    state = request.start
    for action in raw:
        headland = at_headland(request.field, state.y)
        if action.orientation != state.orientation:
            assert headland, f"in-corridor turn at {state}"
        if action.move >= 2:
            assert headland, f"off-headland switch at {state}"
            state = RobotState(action.move - 1.5, state.y, action.orientation)
        else:
            heading = 1 if action.orientation == UP else -1
            sign = 1 if action.move == 0 else -1
            state = RobotState(
                state.corridor_x, state.y + heading * sign, action.orientation
            )


def check_plan(planner, request: PlanRequest):
    result = planner(request)
    want = oracle_shortest(request.field, request.start, request.goal)
    assert result.path_length == want, (
        f"{result.planner_id} length {result.path_length} != oracle {want} "
        f"for {request}"
    )
    replay = simulate(request.field, request.start, request.goal, list(result.raw_actions))
    assert replay.success, f"{result.planner_id} replay failed: {replay.failure_reason}"
    assert replay.total_distance == result.path_length
    assert result.macro_actions == dedup(result.raw_actions)
    assert_no_forbidden_moves(request, result.raw_actions)
    return result


class TestDedup:
    def test_collapses_consecutive_repeats(self):
        raw = [A(0, 0), A(1, 7), A(1, 7), A(1, 0)]
        assert dedup(raw) == (A(0, 0), A(1, 7), A(1, 0))

    def test_identity_on_alternating(self):
        raw = [A(0, 0), A(0, 1), A(0, 0)]
        assert dedup(raw) == tuple(raw)

    def test_empty(self):
        assert dedup([]) == ()


class TestHeuristicExamples:
    def test_same_corridor_flip_via_top(self):
        request = PlanRequest(FieldSpec(4, 5), RobotState(1.5, 2, UP), GoalSpec(2, 4))
        result = check_plan(plan_heuristic, request)
        assert result.path_length == 4.0
        assert result.macro_actions == (A(0, 0), A(1, 0))
        assert result.raw_actions == (A(0, 0), A(0, 0), A(0, 0), A(1, 0))

    def test_cross_field_through_bottom(self):
        request = PlanRequest(FieldSpec(4, 5), RobotState(0.5, 0, UP), GoalSpec(3, 0))
        result = check_plan(plan_heuristic, request)
        assert result.path_length == 4.0
        # exit backward, switch to corridor 2.5 carrying the entry heading,
        # then one backward step up into the goal row's west corridor
        assert result.macro_actions == (A(0, 1), A(1, 4), A(1, 1))

    def test_start_already_terminal(self):
        request = PlanRequest(FieldSpec(4, 5), RobotState(2.5, 2, DOWN), GoalSpec(3, 2))
        result = check_plan(plan_heuristic, request)
        assert result.raw_actions == ()
        assert result.path_length == 0.0

    def test_three_phase_macro_shape(self):
        request = PlanRequest(FieldSpec(10, 10), RobotState(0.5, 7, UP), GoalSpec(6, 8))
        result = check_plan(plan_heuristic, request)
        assert result.macro_actions == (A(0, 0), A(1, 7), A(1, 0))
        assert result.path_length == 10.0

    def test_west_approach_when_start_west_of_goal(self):
        request = PlanRequest(FieldSpec(10, 5), RobotState(2.5, 2, UP), GoalSpec(7, 1))
        result = check_plan(plan_heuristic, request)
        switches = [a for a in result.raw_actions if a.move >= 2]
        assert switches == [A(DOWN, 8)]  # corridor 6.5 = goal row 7 west side

    def test_east_approach_when_start_east_of_goal(self):
        request = PlanRequest(FieldSpec(10, 5), RobotState(7.5, 2, UP), GoalSpec(2, 1))
        result = check_plan(plan_heuristic, request)
        switches = [a for a in result.raw_actions if a.move >= 2]
        assert switches == [A(UP, 4)]  # corridor 2.5 = goal row 2 east side

    def test_edge_tie_prefers_top(self):
        # start y=1, goal_y=3, corridor_len 5: both edges cost 6; top wins
        request = PlanRequest(FieldSpec(4, 5), RobotState(0.5, 1, DOWN), GoalSpec(0, 3))
        result = check_plan(plan_heuristic, request)
        first = result.raw_actions[0]
        assert first == A(DOWN, 1)  # backward while facing down moves up


class TestAStar:
    def test_agrees_with_heuristic_examples(self):
        for request in [
            PlanRequest(FieldSpec(4, 5), RobotState(1.5, 2, UP), GoalSpec(2, 4)),
            PlanRequest(FieldSpec(4, 5), RobotState(0.5, 0, UP), GoalSpec(3, 0)),
            PlanRequest(FieldSpec(10, 10), RobotState(0.5, 7, UP), GoalSpec(6, 8)),
        ]:
            check_plan(plan_astar, request)

    def test_start_already_terminal(self):
        request = PlanRequest(FieldSpec(4, 5), RobotState(2.5, 2, DOWN), GoalSpec(3, 2))
        result = check_plan(plan_astar, request)
        assert result.raw_actions == ()

    def test_planner_id(self):
        request = PlanRequest(FieldSpec(4, 5), RobotState(1.5, 2, UP), GoalSpec(2, 4))
        assert plan_astar(request).planner_id is PlannerId.GRAPH_ASTAR
        assert plan_heuristic(request).planner_id is PlannerId.HEURISTIC


class TestOptimalityExhaustive:
    def test_all_instances_on_small_fields(self):
        for rows in (2, 3, 4):
            for length in (1, 2, 3):
                field = FieldSpec(rows, length)
                for start in all_states(field):
                    for row in range(rows):
                        for gy in range(length):
                            request = PlanRequest(field, start, GoalSpec(row, gy))
                            h = check_plan(plan_heuristic, request)
                            a = check_plan(plan_astar, request)
                            assert h.path_length == a.path_length


@given(plan_instances())
@settings(max_examples=150, deadline=None)
def test_optimality_random(request):
    h = check_plan(plan_heuristic, request)
    a = check_plan(plan_astar, request)
    assert h.path_length == a.path_length


@given(plan_instances())
@settings(max_examples=100, deadline=None)
def test_macro_fidelity(request):
    # replaying the macro form under run-to-limit semantics reproduces the
    # raw route exactly
    for planner in (plan_heuristic, plan_astar):
        result = planner(request)
        expanded = expand_macro_legs(
            request.field, request.start, result.macro_actions, goal=request.goal
        )[0]
        assert tuple(expanded) == result.raw_actions
        assert dedup(expanded) == result.macro_actions


@given(plan_instances())
@settings(max_examples=50, deadline=None)
def test_purity(request):
    first = plan_heuristic(request)
    second = plan_heuristic(request)
    assert first.raw_actions == second.raw_actions
    assert first.path_length == second.path_length
    assert plan_astar(request).raw_actions == plan_astar(request).raw_actions


def test_path_length_of_counts_rows_crossed():
    field = FieldSpec(10, 5)
    start = RobotState(0.5, -1, UP)
    assert path_length_of(field, start, [A(0, 9), A(0, 0)]) == 8.0
