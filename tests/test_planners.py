"""Planner tests: worked examples frozen to exact action sequences, plus
exhaustive and randomized optimality checks against the motion oracle."""

from __future__ import annotations

import hashlib
import inspect
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croprow import planners
from croprow.planners import (
    PlanRequest,
    PlannerId,
    dedup,
    plan_astar,
    plan_heuristic,
)
from croprow.waypoints import expand_macro_legs
from croprow.world import (
    DOWN,
    UP,
    Action,
    FieldSpec,
    GoalSpec,
    RobotState,
    at_headland,
    oracle_shortest,
    simulate,
)
from croprow.bench import generate_instances
from poses import all_states, sample_goal, sample_pose


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
        # 11,900 pose x goal requests; A* raises if an expansion before the
        # goal leaves no key held
        for rows in range(2, 7):
            for length in range(1, 6):
                field = FieldSpec(rows, length)
                for start in all_states(field):
                    for row in range(rows):
                        for gy in range(length):
                            request = PlanRequest(field, start, GoalSpec(row, gy))
                            h = check_plan(plan_heuristic, request)
                            a = check_plan(plan_astar, request)
                            assert h.path_length == a.path_length

    def test_every_pose_on_a_65_row_field(self):
        # every start pose (64 corridors x 12 y x 2 orientations) against 40
        # seeded goals; each oracle length is one lookup into the goal's
        # distance field, and a seeded subset goes through the simulator
        field = FieldSpec(65, 10)
        rng = np.random.default_rng(65)
        goals = [sample_goal(field, rng) for _ in range(40)]
        pairs = [(start, goal) for goal in goals for start in all_states(field)]
        assert len(pairs) == 64 * 12 * 2 * 40
        replayed = set(rng.choice(len(pairs), 500, replace=False).tolist())
        for i, (start, goal) in enumerate(pairs):
            result = plan_heuristic(PlanRequest(field, start, goal))
            assert result.path_length == oracle_shortest(field, start, goal), (start, goal)
            if i in replayed:
                replay = simulate(field, start, goal, list(result.raw_actions))
                assert replay.success, replay.failure_reason
                assert replay.total_distance == result.path_length


    def test_astar_on_every_pose_and_goal_of_a_12_row_field(self):
        # wide enough that A*'s bound prunes: every start pose (11 corridors x
        # 8 y x 2 orientations) against every goal, checked against the oracle,
        # and a seeded subset replayed through the simulator
        field = FieldSpec(12, 6)
        goals = [GoalSpec(row, gy) for row in range(12) for gy in range(6)]
        pairs = [(start, goal) for goal in goals for start in all_states(field)]
        assert len(pairs) == 11 * 8 * 2 * 72
        replayed = set(np.random.default_rng(12).choice(len(pairs), 500, replace=False).tolist())
        pops = []
        for i, (start, goal) in enumerate(pairs):
            result = plan_astar(PlanRequest(field, start, goal))
            assert result.path_length == oracle_shortest(field, start, goal), (start, goal)
            pops.append(result.nodes_expanded)
            if i in replayed:
                replay = simulate(field, start, goal, list(result.raw_actions))
                assert replay.success, replay.failure_reason
                assert replay.total_distance == result.path_length
        # starts at both field edges and the one-config goals on rows 0 and
        # 11 are common here, unlike on the seeded suites
        assert _digest(pops) == FIELD_12_ASTAR_POPS_DIGEST


@given(plan_instances())
@settings(max_examples=150, deadline=None)
def test_optimality_random(request):
    h = check_plan(plan_heuristic, request)
    a = check_plan(plan_astar, request)
    assert h.path_length == a.path_length


def test_macro_fidelity():
    # replaying the macro form under run-to-limit semantics reproduces the
    # raw route exactly, which is what export requires of a plan: on every
    # pose x goal of four fields, then on 200 seeded instances of fields up
    # to 12 x 12
    exhaustive = [
        PlanRequest(field, start, GoalSpec(row, gy))
        for field in (FieldSpec(2, 1), FieldSpec(3, 2), FieldSpec(5, 4), FieldSpec(12, 3))
        for start in all_states(field)
        for row in range(field.num_rows)
        for gy in range(field.corridor_len)
    ]
    assert len(exhaustive) == 6 * 2 + 16 * 6 + 48 * 20 + 110 * 36
    rng = np.random.default_rng(242)
    fields = [FieldSpec(int(rng.integers(2, 13)), int(rng.integers(1, 13))) for _ in range(200)]
    seeded = [PlanRequest(field, sample_pose(field, rng), sample_goal(field, rng)) for field in fields]
    for request in exhaustive + seeded:
        for planner in (plan_heuristic, plan_astar):
            result = planner(request)
            expanded = expand_macro_legs(
                request.field, request.start, result.macro_actions, goal=request.goal
            )[0]
            assert tuple(expanded) == result.raw_actions, (planner.__name__, request)
            assert dedup(expanded) == result.macro_actions


def test_macro_expansion_checks_the_start_without_macros():
    with pytest.raises(ValueError, match="not a corridor centerline"):
        expand_macro_legs(FieldSpec(5, 5), RobotState(7.5, 2, 0), [], GoalSpec(0, 0))


def test_astar_takes_integral_float_headings_and_goals():
    # check_state and check_goal admit 1.0 for 1; the search packs them as ints
    field = FieldSpec(6, 5)
    as_ints = plan_astar(PlanRequest(field, RobotState(0.5, 2, 1), GoalSpec(4, 3)))
    as_floats = plan_astar(PlanRequest(field, RobotState(0.5, 2, 1.0), GoalSpec(4.0, 3.0)))
    assert as_floats == as_ints


@pytest.mark.parametrize(
    "planner, start, goal",
    [
        (plan_heuristic, RobotState(0.5, 2.0, 1), GoalSpec(4, 3)),
        (plan_astar, RobotState(0.5, 2.0, 1), GoalSpec(4, 3)),
        (plan_heuristic, RobotState(0.5, 2, 1), GoalSpec(4, 3.0)),
    ],
)
def test_integral_float_y_plans_like_its_int(planner, start, goal):
    # check_state and check_goal admit y = 2.0 for 2; the unit moves of a hop
    # are counted as an int
    field = FieldSpec(6, 5)
    as_ints = planner(PlanRequest(field, RobotState(0.5, 2, 1), GoalSpec(4, 3)))
    assert planner(PlanRequest(field, start, goal)) == as_ints
    assert as_ints.success and as_ints.raw_actions


def test_astar_memory_follows_the_search_not_the_field():
    # 10**18 rows: a table per node of the field cannot even be sized, while
    # a goal two corridors away takes a handful of pops
    request = PlanRequest(FieldSpec(10**18, 10), RobotState(0.5, 3, UP), GoalSpec(2, 4))
    result = plan_astar(request)
    assert (result.path_length, result.nodes_expanded) == (10.0, 5)
    assert result.macro_actions == plan_heuristic(request).macro_actions


@pytest.mark.parametrize(
    "start, goal, pops, turn",
    [
        (RobotState(0.5, -1, UP), GoalSpec(4999, 3), 5001, RobotState(4998.5, -1, DOWN)),
        (RobotState(0.5, 10, DOWN), GoalSpec(4998, 7), 4999, RobotState(4997.5, 10, DOWN)),
        (RobotState(0.5, -1, DOWN), GoalSpec(4990, 0), 4991, RobotState(4989.5, -1, DOWN)),
        (RobotState(0.5, 10, UP), GoalSpec(2500, 9), 2502, RobotState(2499.5, 10, DOWN)),
    ],
)
def test_a_headland_run_counts_every_pose_it_walks(start, goal, pops, turn):
    # pinned from the search that took each pose of the run off the heap: the
    # run walks thousands of corridors and still reports one pop per pose
    route, popped = planners._astar_route(FieldSpec(5000, 10), start, goal)
    assert popped == pops
    assert route == [start, turn, RobotState(turn.corridor_x, goal.goal_y, DOWN)]


def test_astar_pushes_at_most_two_heap_entries_per_plan(monkeypatch):
    # a headland pose generates only the successors that keep f, so only an
    # interior start's second drive and a goal corridor's flip beside the goal
    # leg reach the heap; the full graph pushed up to 1,851 entries per plan
    push, pushes = planners.heappush, []
    monkeypatch.setattr(planners, "heappush", lambda heap, key: pushes.append(key) or push(heap, key))
    field = FieldSpec(12, 6)
    requests = [inst.request() for inst in generate_instances(FieldSpec(1000, 10), 100, seed=11)]
    requests += [
        PlanRequest(field, start, GoalSpec(row, gy))
        for row in range(12)
        for gy in range(6)
        for start in all_states(field)
    ]
    for request in requests:
        pushes.clear()
        plan_astar(request)
        assert len(pushes) <= 2, request


@given(plan_instances())
@settings(max_examples=50, deadline=None)
def test_purity(request):
    first = plan_heuristic(request)
    second = plan_heuristic(request)
    assert first.raw_actions == second.raw_actions
    assert first.path_length == second.path_length
    assert plan_astar(request).raw_actions == plan_astar(request).raw_actions


ORACLE_NAMES = {"_pose_id", "_distance_field", "oracle_shortest", "_UNREACHED"}


def _codes_reading_the_oracle(functions) -> tuple[set[str], list[str]]:
    """The names of the functions' code objects, nested ones included, and
    the names of those that read an oracle name."""
    stack, seen, readers = [f.__code__ for f in functions], set(), []
    while stack:
        code = stack.pop()
        seen.add(code.co_name)
        if ORACLE_NAMES & set(code.co_names):
            readers.append(code.co_name)
        stack += [c for c in code.co_consts if inspect.iscode(c)]
    return seen, readers


def test_planners_share_no_code_with_the_oracle():
    """The oracle judges the planners, so no planner function, nested ones
    included, may read its pose encoding, distance field or sentinel."""
    members = [*vars(planners).values()]
    members += [m for c in members if isinstance(c, type) for m in vars(c).values()]
    seen, readers = _codes_reading_the_oracle(
        f for f in members if inspect.isfunction(f) and f.__module__ == planners.__name__
    )
    assert readers == []
    assert {"_astar_route", "_heuristic_route"} <= seen


def test_the_oracle_check_reads_nested_functions():
    # a comprehension is inlined on Python 3.12 and later, so a nested def
    # shows that the walk descends on every version
    def outer(world):
        def inner():
            return world._distance_field

        return inner

    assert _codes_reading_the_oracle([outer]) == ({"outer", "inner"}, ["inner"])


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _small_field_requests():
    """Every start x goal on fields of 2-5 rows x 1-4 length, then requests
    with an invalid goal, start, or both."""
    for rows in range(2, 6):
        for length in range(1, 5):
            field = FieldSpec(rows, length)
            for start in all_states(field):
                for row in range(rows):
                    for gy in range(length):
                        yield PlanRequest(field, start, GoalSpec(row, gy))
            good_start, good_goal = RobotState(0.5, 0, UP), GoalSpec(0, 0)
            bad_goals = [GoalSpec(-1, 0), GoalSpec(rows, 0), GoalSpec(0, -1), GoalSpec(0, length)]
            bad_starts = [RobotState(0.0, 0, UP), RobotState(0.5, length + 1, UP), RobotState(0.5, 0, 2)]
            for goal in bad_goals:
                yield PlanRequest(field, good_start, goal)
            for start in bad_starts:
                yield PlanRequest(field, start, good_goal)
                yield PlanRequest(field, start, bad_goals[0])


_PLAN = attrgetter("raw_actions", "macro_actions", "path_length")


def _plan_outputs(requests, astar_view=_PLAN):
    """Each planner's output for each request, or its ValueError; A*'s output
    is ``astar_view`` of its result."""
    for request in requests:
        for planner, view in ((plan_heuristic, _PLAN), (plan_astar, astar_view)):
            try:
                result = planner(request)
            except ValueError as exc:
                yield type(exc).__name__, str(exc)
            else:
                yield view(result)


def _astar_pops(requests):
    """A*'s pop count for each request it accepts."""
    for request in requests:
        try:
            yield plan_astar(request).nodes_expanded
        except ValueError:
            pass


def _macro_outputs(count: int, seed: int):
    """expand_macro_legs on random macro sequences: its result, or the
    message of the ValueError it raises.  About half the draws have no goal
    and yield nothing, since expansion needs one."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        field = FieldSpec(int(rng.integers(2, 7)), int(rng.integers(1, 6)))
        states = all_states(field)
        start = states[int(rng.integers(len(states)))]
        goal = sample_goal(field, rng) if rng.random() < 0.5 else None
        macros = []
        for _ in range(int(rng.integers(1, 6))):
            if rng.random() < 0.6:
                move = int(rng.integers(2))
            else:  # a switch, one past the last corridor included
                move = int(rng.integers(2, field.num_rows + 2))
            macros.append(A(int(rng.integers(2)), move))
        if goal is None:  # drawn still, so that the later cases keep their draws
            continue
        try:
            yield expand_macro_legs(field, start, macros, goal=goal)
        except ValueError as exc:
            yield str(exc)


class TestPinnedOutputs:
    """Digests of planner and macro-expansion outputs; any change to a plan, a
    length or an error message changes a digest.  The macro digest and the
    route-length digest predate A*'s larger-g tie rule; the two plan digests
    and the node count were re-pinned for it, since among equal-length routes
    A* now returns the one on its larger-g path.  The macro digest was
    re-pinned when expansion began to require a goal: it now covers only the
    draws that have one, with the outputs they had before."""

    def test_plans_on_every_small_field_instance(self):
        assert _digest(_plan_outputs(_small_field_requests())) == SMALL_FIELD_DIGEST

    def test_plans_on_a_seeded_65_row_suite(self):
        requests = [
            PlanRequest(i.field, i.start, i.goal)
            for i in generate_instances(FieldSpec(65, 10), 300, seed=11)
        ]
        assert _digest(_plan_outputs(requests)) == SUITE_65_DIGEST

    def test_macro_expansion_on_random_sequences(self):
        assert _digest(_macro_outputs(3000, seed=5)) == MACRO_DIGEST

    def test_astar_node_count_on_the_seeded_65_row_suite(self):
        # a new tie rule, bound or graph shows up here as a count (re-pinned
        # when A*'s ties went to larger g)
        requests = [
            PlanRequest(i.field, i.start, i.goal)
            for i in generate_instances(FieldSpec(65, 10), 300, seed=11)
        ]
        assert sum(plan_astar(r).nodes_expanded for r in requests) == SUITE_65_ASTAR_NODES

    def test_astar_plans_and_node_count_on_a_seeded_1000_row_suite(self):
        # at 1,000 rows most pops are headland poses with two lateral edges
        # (pinned before A* built those edges without a comprehension)
        results = [
            plan_astar(PlanRequest(i.field, i.start, i.goal))
            for i in generate_instances(FieldSpec(1000, 10), 100, seed=11)
        ]
        assert _digest(map(_PLAN, results)) == SUITE_1000_ASTAR_DIGEST
        assert sum(r.nodes_expanded for r in results) == SUITE_1000_ASTAR_NODES

    def test_astar_pops_on_every_small_field_instance(self):
        # per request, so a count moved at a field edge or a one-config goal
        # cannot hide in a sum
        assert _digest(_astar_pops(_small_field_requests())) == SMALL_FIELD_ASTAR_POPS_DIGEST

    def test_route_lengths_outlive_a_new_search_order(self):
        # every heuristic output, and A*'s length and success or its error:
        # what a new tie rule or bound for A* must not move (pinned before
        # A* broke ties toward larger g)
        requests = [*_small_field_requests()] + [
            PlanRequest(i.field, i.start, i.goal)
            for i in generate_instances(FieldSpec(65, 10), 300, seed=11)
        ]
        view = attrgetter("path_length", "success")
        assert _digest(_plan_outputs(requests, view)) == ROUTE_LENGTH_DIGEST


SMALL_FIELD_DIGEST = "1a8f22784f7c8c4db70e9a440f7476529e1fc440ba0ce5e9caef50ccd07e30ea"
SUITE_65_DIGEST = "3ecbbcf1d856d77b6796c8002d0fc73ab481867fef788b0d3f97dc57070a9285"
MACRO_DIGEST = "2f969cbc784d1824e9734b3b7661f4f2a224cf3e3aac01ba775eb2bd40a74c88"
SUITE_65_ASTAR_NODES = 7590
SUITE_1000_ASTAR_DIGEST = "aa80db485006ca8097f4880afabbccfd8eaa09d033581b0c9615194cf9658a5f"
SUITE_1000_ASTAR_NODES = 35586
SMALL_FIELD_ASTAR_POPS_DIGEST = "50a9b5f66bcd8d99184295bc4f30fed9cad02f602148d8bf25ea28bef267d4c9"
FIELD_12_ASTAR_POPS_DIGEST = "7888688ffc1e38e6dc6f92025f9b6a826a1cd0aed94435722f3e8b8e0b5f1f2d"
ROUTE_LENGTH_DIGEST = "78c6578738c3e760df13f77d61aa37e01cf3473563d6068dd9e187bf0771d9ac"
