"""World model tests: frozen worked examples plus property checks.

Ground truth for the motion oracle is re-derived here with an independent
uniform-cost search driven by step() itself, so the two implementations
cross-validate each other.  The oracle's distance fields are also checked,
pose by pose, against a one-pose-at-a-time 0-1 BFS over the same graph.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import re
from array import array
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croprow.world import (
    BACKWARD,
    DOWN,
    FORWARD,
    UP,
    Action,
    Episode,
    FieldSpec,
    GoalSpec,
    IllegalActionError,
    RewardParts,
    RobotState,
    StepOutcome,
    _UNREACHED,
    _distance_field,
    at_headland,
    check_state,
    goal_configs,
    is_corridor,
    is_goal,
    observe,
    oracle_shortest,
    sample_goal,
    sample_state,
    simulate,
    step,
)
from poses import all_states, corridor_positions, pose_id, sample_pose


def env_shortest(field, start, goal):
    """Reference shortest path computed through step() transitions only.

    Returns (distance, actions).  Kept deliberately separate from the
    library's oracle: same answers, different machinery.
    """
    targets = set(goal_configs(field, goal))
    if start in targets:
        return 0.0, []
    best = {start: 0.0}
    parent = {}
    frontier = [(0.0, 0, start)]
    tick = 0
    while frontier:
        d, _, cur = heapq.heappop(frontier)
        if d > best.get(cur, d) + 1e-9:
            continue
        if cur in targets:
            actions = []
            s = cur
            while s != start:
                s, a = parent[s]
                actions.append(a)
            return d, actions[::-1]
        candidates = []
        headland = at_headland(field, cur.y)
        orients = (UP, DOWN) if headland else (cur.orientation,)
        for o in orients:
            candidates.append(Action(o, FORWARD))
            candidates.append(Action(o, BACKWARD))
            if headland:
                candidates.extend(Action(o, m) for m in range(2, field.num_rows + 1))
        for action in candidates:
            out = step(cur, action, field, goal)
            if out.next_state == cur:
                continue
            nd = d + out.distance_delta
            if nd < best.get(out.next_state, nd + 1) - 1e-9:
                best[out.next_state] = nd
                parent[out.next_state] = (cur, action)
                tick += 1
                heapq.heappush(frontier, (nd, tick, out.next_state))
    raise AssertionError("unreachable goal in reference search")


def bfs_distance_field(field, goal):
    """Reference distance field: one multi-source 0-1 BFS (Dial 1969, two
    buckets) from the terminal configurations, one pose id at a time; the
    result is indexed by ``pose_id``."""
    span = field.corridor_len + 2
    size, last, lateral = (field.num_rows - 1) * span * 2, span - 1, 2 * span
    dist = array("i", [_UNREACHED]) * size
    queue = deque(pose_id(field, config) for config in goal_configs(field, goal))
    for pose in queue:
        dist[pose] = 0
    while queue:
        pose = queue.popleft()
        y1 = (pose >> 1) % span
        if 0 < y1 < last:
            moves = (pose - 2, pose + 2)
        else:  # headland: one vertical move, lateral steps and a free flip
            if dist[pose] < dist[pose ^ 1]:
                dist[pose ^ 1] = dist[pose]
                queue.appendleft(pose ^ 1)
            moves = (pose + 2 if y1 == 0 else pose - 2, pose - lateral, pose + lateral)
        d = dist[pose] + 1
        for nxt in moves:
            if 0 <= nxt < size and d < dist[nxt]:
                dist[nxt] = d
                queue.append(nxt)
    return dist


small_fields = st.builds(
    FieldSpec,
    num_rows=st.integers(2, 8),
    corridor_len=st.integers(1, 6),
)


@st.composite
def field_state_goal(draw):
    field = draw(small_fields)
    state = RobotState(
        corridor_x=draw(st.integers(0, field.num_rows - 2)) + 0.5,
        y=draw(st.integers(-1, field.corridor_len)),
        orientation=draw(st.sampled_from((UP, DOWN))),
    )
    goal = GoalSpec(
        row=draw(st.integers(0, field.num_rows - 1)),
        goal_y=draw(st.integers(0, field.corridor_len - 1)),
    )
    return field, state, goal


class TestFieldSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FieldSpec(num_rows=1, corridor_len=5)
        with pytest.raises(ValueError):
            FieldSpec(num_rows=4, corridor_len=0)
        with pytest.raises(TypeError):  # the budget is derived, not set
            FieldSpec(num_rows=4, corridor_len=5, max_steps=10)

    @pytest.mark.parametrize("rows, length", [(4.5, 3), (4.0, 5), (math.nan, 5), (4, 5.0)])
    def test_sizes_must_be_integers(self, rows, length):
        with pytest.raises(ValueError, match="field sizes must be integers"):
            FieldSpec(rows, length)

    def test_default_budget(self):
        assert FieldSpec(4, 5).max_steps == 70
        assert FieldSpec(10, 10).max_steps == 120
        # wide fields push the budget up to the shortest-path floor
        assert FieldSpec(200, 10).max_steps == 2 * 12 + 200

    def test_corridors(self):
        assert corridor_positions(FieldSpec(4, 5)) == [0.5, 1.5, 2.5]

    def test_non_finite_x_is_not_a_corridor(self):
        # nor a whole x past 2**52, on a field that wide: there x - 0.5 rounds back to a whole number
        field = FieldSpec(10**16, 5)
        assert is_corridor(field, 2**52 - 0.5)
        for x in (math.inf, -math.inf, math.nan, 9e15, float(2**52), 9 * 10**15):
            assert not is_corridor(field, x)
            with pytest.raises(ValueError, match="corridor centerline"):
                check_state(field, RobotState(x, 2, UP))


def test_value_types_are_plain_tuples():
    # poses, goals, actions, reward parts and step outcomes compare and hash
    # as plain tuples of their fields, and keep the repr every pinned digest hashes
    assert Action(0, 3) == GoalSpec(0, 3) == (0, 3)
    assert hash(RobotState(0.5, 2, 1)) == hash((0.5, 2, 1))
    assert repr(Action(0, 3)) == "Action(orientation=0, move=3)"
    parts = RewardParts(-0.2)
    assert repr(parts) == (
        "RewardParts(step_penalty=-0.2, switch_penalty=0.0, turn_penalty=0.0, "
        "oscillation_penalty=0.0, goal_reward=0.0, closer_corridor_bonus=0.0)"
    )
    assert parts == (-0.2, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert parts.total() == -0.2
    outcome = StepOutcome(RobotState(0.5, 2, 1), -0.2, False, parts, 1.0)
    with pytest.raises(AttributeError):
        outcome.reward = 0.0


class TestGoalConfigs:
    def test_interior_row_has_two(self):
        field = FieldSpec(10, 10)
        configs = goal_configs(field, GoalSpec(3, 4))
        assert set(configs) == {RobotState(3.5, 4, UP), RobotState(2.5, 4, DOWN)}

    def test_edge_rows_have_one(self):
        field = FieldSpec(4, 5)
        assert goal_configs(field, GoalSpec(0, 2)) == (RobotState(0.5, 2, UP),)
        assert goal_configs(field, GoalSpec(3, 2)) == (RobotState(2.5, 2, DOWN),)

    def test_closed_form_matches_the_definition(self):
        # every goal, integral floats too: the neighbouring corridors that
        # exist, east facing up then west facing down (the row on the
        # working side), built with is_corridor as the definition reads
        for rows in range(2, 7):
            for length in range(1, 4):
                field = FieldSpec(rows, length)
                for row in range(rows):
                    for gy in range(length):
                        for goal in (GoalSpec(row, gy), GoalSpec(float(row), float(gy))):
                            sides = [(goal.row + 0.5, UP), (goal.row - 0.5, DOWN)]
                            expected = tuple(
                                RobotState(x, goal.goal_y, o) for x, o in sides if is_corridor(field, x)
                            )
                            assert repr(goal_configs(field, goal)) == repr(expected)

    def test_integral_float_goals_keep_their_types(self):
        field = FieldSpec(4, 5)
        assert repr(goal_configs(field, GoalSpec(0.0, 2.0))) == (
            "(RobotState(corridor_x=0.5, y=2.0, orientation=0),)"
        )
        assert repr(goal_configs(field, GoalSpec(3.0, 2))) == (
            "(RobotState(corridor_x=2.5, y=2, orientation=1),)"
        )

    @pytest.mark.parametrize(
        "goal, message",
        [
            (GoalSpec(-1, 0), "goal row out of range: -1"),
            (GoalSpec(4, 0), "goal row out of range: 4"),
            (GoalSpec(1.5, 0), "goal row is not an integer: 1.5"),
            (GoalSpec(0, -1), "goal_y out of range: -1"),
            (GoalSpec(3, 5), "goal_y out of range: 5"),
            (GoalSpec(3, 2.5), "goal_y is not an integer: 2.5"),
        ],
    )
    def test_out_of_range_goals_raise(self, goal, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            goal_configs(FieldSpec(4, 5), goal)

    def test_is_goal_checks_orientation(self):
        field = FieldSpec(4, 5)
        assert is_goal(field, RobotState(2.5, 2, DOWN), GoalSpec(3, 2))
        assert not is_goal(field, RobotState(2.5, 2, UP), GoalSpec(3, 2))


class TestStep:
    field = FieldSpec(4, 5)
    goal = GoalSpec(3, 0)  # far corner, unreachable in one step from the states below

    def test_forward_up(self):
        out = step(RobotState(1.5, 2, UP), Action(UP, FORWARD), self.field, self.goal)
        assert out.next_state == RobotState(1.5, 3, UP)
        assert out.reward == pytest.approx(-0.2)
        assert out.distance_delta == 1.0
        assert not out.done

    def test_switch_at_headland(self):
        out = step(RobotState(1.5, 5, UP), Action(UP, 4), self.field, self.goal)
        assert out.next_state == RobotState(2.5, 5, UP)
        assert out.reward == pytest.approx(-0.2)
        assert out.distance_delta == 1.0

    def test_turn_in_corridor_penalized(self):
        out = step(RobotState(1.5, 2, UP), Action(DOWN, FORWARD), self.field, self.goal)
        assert out.next_state == RobotState(1.5, 1, DOWN)
        assert out.reward == pytest.approx(-1.7)
        assert out.reward_parts.turn_penalty == -1.5

    def test_goal_arrival_with_bonus(self):
        field = FieldSpec(10, 10)
        goal = GoalSpec(2, 4)
        out = step(
            RobotState(2.5, 3, UP),
            Action(UP, FORWARD),
            field,
            goal,
            initial_corridor_x=2.5,
        )
        assert out.done
        assert out.reward == pytest.approx(24.8)
        assert out.reward_parts.goal_reward == 20.0
        assert out.reward_parts.closer_corridor_bonus == 5.0

    def test_goal_arrival_from_farther_corridor_no_bonus(self):
        field = FieldSpec(10, 10)
        goal = GoalSpec(2, 4)
        # episode began at corridor 0.5: corridor 1.5 is the near approach
        out = step(
            RobotState(2.5, 3, UP),
            Action(UP, FORWARD),
            field,
            goal,
            initial_corridor_x=0.5,
        )
        assert out.done
        assert out.reward == pytest.approx(19.8)
        assert out.reward_parts.closer_corridor_bonus == 0.0

    @pytest.mark.parametrize(
        "state, action, initial_corridor_x, want",
        [
            # the terminal pose (2.5, 4, UP) steps off the goal
            (RobotState(2.5, 4, UP), Action(UP, FORWARD), None, StepOutcome(
                RobotState(2.5, 5, UP), -0.2, False, RewardParts(-0.2), 1.0)),
            # arrival from corridor 1.5, nearest the given first corridor 0.5
            (RobotState(1.5, 5, DOWN), Action(DOWN, FORWARD), 0.5, StepOutcome(
                RobotState(1.5, 4, DOWN), 24.8, True, RewardParts(-0.2, goal_reward=20.0,
                                                                  closer_corridor_bonus=5.0), 1.0)),
        ],
        ids=["off-the-goal", "arrival-bonus-from-a-given-corridor"],
    )
    def test_a_terminal_or_given_start_still_steps(self, state, action, initial_corridor_x, want):
        field, goal = FieldSpec(10, 10), GoalSpec(2, 4)
        assert step(state, action, field, goal, initial_corridor_x=initial_corridor_x) == want

    def test_single_approach_goal_always_gets_bonus(self):
        out = step(
            RobotState(2.5, 1, DOWN),
            Action(DOWN, BACKWARD),
            self.field,
            GoalSpec(3, 2),
            initial_corridor_x=0.5,
        )
        assert out.done
        assert out.reward_parts.closer_corridor_bonus == 5.0

    def test_clamp_at_bounds_still_costs(self):
        out = step(RobotState(1.5, 5, UP), Action(UP, FORWARD), self.field, self.goal)
        assert out.next_state == RobotState(1.5, 5, UP)
        assert out.reward == pytest.approx(-0.2)
        assert out.distance_delta == 0.0

    def test_turn_free_at_headland(self):
        out = step(RobotState(1.5, 5, UP), Action(DOWN, FORWARD), self.field, self.goal)
        assert out.next_state == RobotState(1.5, 4, DOWN)
        assert out.reward == pytest.approx(-0.2)

    def test_oscillation_in_corridor(self):
        out = step(
            RobotState(1.5, 3, UP),
            Action(UP, BACKWARD),
            self.field,
            self.goal,
            prev_displacement=1,
        )
        assert out.next_state.y == 2
        assert out.reward == pytest.approx(-1.7)
        assert out.reward_parts.oscillation_penalty == -1.5

    def test_headland_turnaround_not_oscillation(self):
        # reversing direction via the headland is the intended maneuver
        out = step(
            RobotState(1.5, 5, UP),
            Action(DOWN, FORWARD),
            self.field,
            self.goal,
            prev_displacement=1,
        )
        assert out.next_state.y == 4
        assert out.reward == pytest.approx(-0.2)

    def test_switch_from_interior_is_illegal(self):
        with pytest.raises(IllegalActionError):
            step(RobotState(1.5, 2, UP), Action(UP, 3), self.field, self.goal)

    def test_malformed_action_rejected(self):
        with pytest.raises(ValueError):
            step(RobotState(1.5, 5, UP), Action(UP, 7), self.field, self.goal)
        with pytest.raises(ValueError):
            step(RobotState(1.5, 2, UP), Action(2, 0), self.field, self.goal)

    def test_fractional_move_rejected_on_headland(self):
        # a move of 2.5 would land between two corridors, at x = 1.0
        with pytest.raises(ValueError, match="move component is not an integer: 2.5"):
            step(RobotState(0.5, -1, UP), Action(UP, 2.5), FieldSpec(5, 4), GoalSpec(2, 1))

    def test_switch_distance_scales_with_rows_crossed(self):
        field = FieldSpec(10, 5)
        out = step(RobotState(0.5, -1, DOWN), Action(DOWN, 9), field, self.goal)
        assert out.next_state.corridor_x == 7.5
        assert out.reward == pytest.approx(-0.2 * 7)
        assert out.distance_delta == 7.0


class TestObserve:
    def test_worked_example(self):
        field = FieldSpec(10, 10)
        vec = observe(RobotState(0.5, 0, UP), GoalSpec(0, 0), field)
        assert vec.dtype == np.float32
        assert vec == pytest.approx([0.05, 1.0 / 11.0, 0.0, 0.0, 0.0])

    @given(field_state_goal())
    def test_bounded(self, fsg):
        field, state, goal = fsg
        vec = observe(state, goal, field)
        assert vec.shape == (5,)
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)


class TestOracle:
    def test_same_corridor_flip_via_headland(self):
        field = FieldSpec(4, 5)
        assert oracle_shortest(field, RobotState(1.5, 2, UP), GoalSpec(2, 4)) == 4.0

    def test_in_corridor_turns_outside_oracle_feasible_set(self):
        # The oracle's graph forbids orientation flips inside a corridor, so
        # a simulated trajectory that turns in place (legal, -1.5) can end
        # with LESS distance than the oracle bound.  Pinned so nobody
        # "fixes" either side to match the other.
        field = FieldSpec(5, 10)
        start, goal = RobotState(2.5, 5, UP), GoalSpec(3, 3)
        assert oracle_shortest(field, start, goal) == 10.0
        turn_route = [Action(DOWN, FORWARD), Action(DOWN, FORWARD)]
        result = simulate(field, start, goal, turn_route)
        assert result.success
        assert result.total_distance == 2.0
        assert result.total_reward == pytest.approx(-0.2 * 2 - 1.5 + 20.0 + 5.0)

    def test_cross_field(self):
        field = FieldSpec(4, 5)
        assert oracle_shortest(field, RobotState(0.5, 0, UP), GoalSpec(3, 0)) == 4.0

    def test_already_terminal(self):
        field = FieldSpec(4, 5)
        assert oracle_shortest(field, RobotState(2.5, 2, DOWN), GoalSpec(3, 2)) == 0.0

    def test_matches_step_level_search_exhaustively(self):
        for rows, length in [(2, 1), (3, 2), (4, 3), (5, 2)]:
            field = FieldSpec(rows, length)
            for start in all_states(field):
                for row in range(rows):
                    for gy in range(length):
                        goal = GoalSpec(row, gy)
                        want, _ = env_shortest(field, start, goal)
                        assert oracle_shortest(field, start, goal) == want

    @pytest.mark.parametrize(
        "rows, length, goals",
        [
            (65, 10, None),
            (1000, 10, 6),
            (2, 1, None),
            (2, _distance_field.cache_info().maxsize // 2 + 1, None),  # the memo-bound field
            # corridor_len + 1 on and around powers of two: a sweep of crossing costs
            # (+len + 1) and closed-form line fills, each checked on every pose and goal
            *[
                (rows, top - 1, None)
                for rows in (2, 3, 5)
                for top in (2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65)
                if (rows, top) != (2, 2)  # the 2x1 field is listed above
            ],
        ],
    )
    def test_field_equals_reference_bfs_on_every_pose(self, rows, length, goals):
        field = FieldSpec(rows, length)
        if goals is None:  # every goal of the field
            goals = [GoalSpec(row, gy) for row in range(rows) for gy in range(length)]
        else:
            rng = np.random.default_rng(15)
            goals = [sample_goal(field, rng) for _ in range(goals)]
        states = all_states(field)
        ids = [pose_id(field, s) for s in states]
        for goal in goals:
            want = bfs_distance_field(field, goal)
            assert [oracle_shortest(field, s, goal) for s in states] == [want[i] for i in ids], goal

    @pytest.mark.parametrize(
        "start, goal, message",
        [
            (RobotState(0.0, 0, UP), GoalSpec(4, 0), "not a corridor centerline: x=0.0"),
            (RobotState(0.5, 6, UP), GoalSpec(0, 5), "y out of range: 6"),
            (RobotState(0.5, 0, 2), GoalSpec(-1, 0), "bad orientation: 2"),
            (RobotState(0.5, 0, UP), GoalSpec(4, 0), "goal row out of range: 4"),
            (RobotState(0.5, 0, UP), GoalSpec(0, -1), "goal_y out of range: -1"),
        ],
    )
    def test_invalid_input_raises_start_first_and_memoizes_nothing(
        self, start, goal, message
    ):
        _distance_field.cache_clear()
        with pytest.raises(ValueError) as exc:
            oracle_shortest(FieldSpec(4, 5), start, goal)
        assert str(exc.value) == message
        assert _distance_field.cache_info().currsize == 0

    def test_float_valued_poses(self):
        # an integral float is the same pose; validation rejects a fractional one
        field = FieldSpec(4, 5)
        assert oracle_shortest(field, RobotState(0.5, 2.0, UP), GoalSpec(1, 2)) == 6.0
        assert oracle_shortest(field, RobotState(0.5, 2, 1.0), GoalSpec(1, 2.0)) == 0.0
        for start, goal in [
            (RobotState(0.5, 2.5, UP), GoalSpec(1, 2)),
            (RobotState(0.5, 2, UP), GoalSpec(1, 2.5)),
        ]:
            with pytest.raises(ValueError, match="not an integer: 2.5"):
                oracle_shortest(field, start, goal)

    def test_memo_hit_equals_cold_call(self):
        field = FieldSpec(9, 4)
        rng = np.random.default_rng(3)
        queries = [
            (sample_pose(field, rng), sample_goal(field, rng))
            for _ in range(200)
        ]
        _distance_field.cache_clear()
        warm = [oracle_shortest(field, start, goal) for start, goal in queries]
        assert _distance_field.cache_info().hits >= 200 - 9 * 4
        cold = []
        for start, goal in queries:
            _distance_field.cache_clear()
            cold.append(oracle_shortest(field, start, goal))
        assert warm == cold

    def test_memo_holds_at_most_its_bound(self):
        bound = _distance_field.cache_info().maxsize
        field = FieldSpec(2, bound // 2 + 1)  # 2 rows x (bound/2 + 1) goals
        goals = [GoalSpec(row, gy) for row in (0, 1) for gy in range(field.corridor_len)]
        start = RobotState(0.5, -1, UP)
        _distance_field.cache_clear()
        try:
            for goal in goals[: bound + 1]:
                # up the one corridor, after a free flip at the headland for row 1
                assert oracle_shortest(field, start, goal) == goal.goal_y + 1
                assert _distance_field.cache_info().currsize <= bound
            assert _distance_field.cache_info().currsize == bound
        finally:
            _distance_field.cache_clear()

    @pytest.mark.parametrize(
        "rows, length, ends, lines",
        [(1000, 10, 2 * 999, ((1, UP), (0, DOWN))), (2, 513, 2, ((0, DOWN),))],  # row 1 is the east edge of 2 rows
    )
    def test_memo_holds_two_ends_per_corridor(self, rows, length, ends, lines):
        # the entry does not grow with corridor length: poses are read off their corridor's ends
        entry = _distance_field.__wrapped__(FieldSpec(rows, length), GoalSpec(1, length - 1))
        assert (len(entry[0]), entry[1]) == (ends, lines)

    @given(field_state_goal())
    @settings(max_examples=60, deadline=None)
    def test_matches_step_level_search(self, fsg):
        field, start, goal = fsg
        want, _ = env_shortest(field, start, goal)
        assert oracle_shortest(field, start, goal) == want

    @given(field_state_goal())
    @settings(max_examples=60, deadline=None)
    def test_mirror_symmetry(self, fsg):
        # reflecting across the field's center line, with headings exchanged,
        # is a graph isomorphism that maps terminal sets onto terminal sets
        field, start, goal = fsg
        m_start = RobotState(
            field.num_rows - 1 - start.corridor_x, start.y, 1 - start.orientation
        )
        m_goal = GoalSpec(field.num_rows - 1 - goal.row, goal.goal_y)
        assert oracle_shortest(field, start, goal) == oracle_shortest(
            field, m_start, m_goal
        )

    @given(field_state_goal())
    @settings(max_examples=60, deadline=None)
    def test_lower_bound_reached_by_simulate(self, fsg):
        field, start, goal = fsg
        dist, actions = env_shortest(field, start, goal)
        result = simulate(field, start, goal, actions)
        assert result.success
        assert result.total_distance == dist


class TestSimulate:
    field = FieldSpec(4, 5)

    def test_empty_actions_at_terminal_start(self):
        result = simulate(self.field, RobotState(2.5, 2, DOWN), GoalSpec(3, 2), [])
        assert result.success
        assert result.total_distance == 0.0
        assert result.steps == 0

    def test_empty_actions_elsewhere_fails(self):
        result = simulate(self.field, RobotState(0.5, 0, UP), GoalSpec(3, 2), [])
        assert not result.success
        assert result.failure_reason == "actions exhausted before reaching the goal"

    def test_illegal_action_reported_with_index(self):
        actions = [Action(UP, FORWARD), Action(UP, 3)]
        result = simulate(self.field, RobotState(0.5, 0, UP), GoalSpec(3, 2), actions)
        assert not result.success
        assert "illegal action at index 1" in result.failure_reason

    def test_outcomes_are_the_steps_taken(self):
        actions = [Action(UP, FORWARD), Action(UP, FORWARD), Action(UP, 3)]
        result = simulate(self.field, RobotState(0.5, 0, UP), GoalSpec(3, 2), actions)
        assert len(result.outcomes) == result.steps == 2
        assert [o.next_state.y for o in result.outcomes] == [1, 2]
        assert result.outcomes[-1].next_state == result.final_state
        assert sum(o.reward for o in result.outcomes) == pytest.approx(result.total_reward)

    def test_fractional_move_fails_at_its_own_index(self):
        actions = [Action(UP, 2.5), Action(UP, FORWARD)]
        result = simulate(FieldSpec(5, 4), RobotState(0.5, -1, UP), GoalSpec(2, 1), actions)
        assert not result.success
        assert result.steps == 0
        assert result.failure_reason == (
            "illegal action at index 0: move component is not an integer: 2.5"
        )

    def test_budget_exhaustion(self):
        field = FieldSpec(2, 1)
        churn = [Action(UP, FORWARD), Action(UP, BACKWARD)] * field.max_steps
        result = simulate(field, RobotState(0.5, 0, UP), GoalSpec(1, 0), churn)
        assert not result.success
        assert result.failure_reason == "step budget exhausted"

    def test_extra_actions_after_goal_ignored(self):
        actions, _ = [], None
        _, actions = env_shortest(self.field, RobotState(0.5, 0, UP), GoalSpec(3, 0))
        padded = actions + [Action(UP, FORWARD)] * 5
        result = simulate(self.field, RobotState(0.5, 0, UP), GoalSpec(3, 0), padded)
        assert result.success
        assert result.steps == len(actions)

    def test_replay_bits_pinned(self):
        # repr of every replay over seeded small fields: planned routes, random
        # walks with in-corridor switches, turns, oscillations, out-of-range
        # moves and bad orientations, and a walk past the step budget
        kinds = (
            "success", "turn", "oscillation", "step budget exhausted",
            "corridor switch requires a headland", "move component out of range",
            "bad orientation component",
        )
        rng = np.random.default_rng(2026)
        digest = hashlib.sha256()
        seen = set()
        for i in range(1200):
            field = FieldSpec(int(rng.integers(2, 8)), int(rng.integers(1, 6)))
            start, goal = sample_pose(field, rng), sample_goal(field, rng)
            if i % 4 == 0:
                actions = env_shortest(field, start, goal)[1]
            else:
                actions = [
                    Action(
                        int(rng.integers(2)) if rng.random() < 0.97 else int(rng.choice([-1, 2])),
                        int(rng.integers(2)) if rng.random() < 0.7 else int(rng.integers(2, field.num_rows + 2)),
                    )
                    for _ in range(int(rng.integers(41)))
                ]
            if i == 1199:  # never facing down, so never at the goal
                field, start, goal = FieldSpec(2, 1), RobotState(0.5, 0, UP), GoalSpec(1, 0)
                actions = [Action(UP, FORWARD), Action(UP, BACKWARD)] * field.max_steps
            result = simulate(field, start, goal, actions)
            digest.update(repr(result).encode())
            reason = result.failure_reason or "success"
            seen.update(kind for kind in kinds if kind in reason)
            for parts in (outcome.reward_parts for outcome in result.outcomes):
                seen.update(kind for kind in ("turn", "oscillation") if getattr(parts, f"{kind}_penalty"))
        assert seen == set(kinds)
        assert digest.hexdigest() == "c700ea243ec02841eb94ba04b0042b5ae0071a25027929f6a7e07198f09211f1"


class TestEpisode:
    def test_tracks_initial_corridor_for_bonus(self):
        field = FieldSpec(10, 10)
        episode = Episode(field, RobotState(0.5, 5, UP), GoalSpec(2, 4))
        episode.step(Action(UP, BACKWARD))  # drift but corridor 0.5 stays the anchor
        assert episode.initial_corridor_x == 0.5

    def test_step_after_done_raises(self):
        field = FieldSpec(4, 5)
        episode = Episode(field, RobotState(2.5, 2, DOWN), GoalSpec(3, 2))
        assert episode.done
        with pytest.raises(RuntimeError):
            episode.step(Action(UP, FORWARD))


@pytest.mark.parametrize(
    "start, goal, message",
    [
        (RobotState(0.5, 2.5, UP), GoalSpec(1, 2), "y is not an integer: 2.5"),
        (RobotState(0.5, 2, UP), GoalSpec(2.5, 2), "goal row is not an integer: 2.5"),
        (RobotState(0.5, 2, UP), GoalSpec(1, 2.5), "goal_y is not an integer: 2.5"),
        (RobotState(0.5, 2.5, UP), GoalSpec(1, 2.5), "y is not an integer: 2.5"),
        (RobotState(0.5, math.inf, UP), GoalSpec(1, 2), "y out of range: inf"),
        (RobotState(0.5, 2, UP), GoalSpec(math.nan, 2), "goal row out of range: nan"),
    ],
    ids=["y", "goal-row", "goal-y", "y-and-goal-y", "inf-y", "nan-goal-row"],
)
@pytest.mark.parametrize("entry", ["step", "Episode", "oracle_shortest"])
def test_off_lattice_pose_or_goal_rejected_start_first(entry, start, goal, message):
    field = FieldSpec(4, 5)
    calls = {
        "step": lambda: step(start, Action(UP, FORWARD), field, goal),
        "Episode": lambda: Episode(field, start, goal),
        "oracle_shortest": lambda: oracle_shortest(field, start, goal),
    }
    with pytest.raises(ValueError) as exc:
        calls[entry]()
    assert str(exc.value) == message


@given(field_state_goal(), st.lists(st.tuples(st.integers(0, 1), st.integers(0, 9)), max_size=12))
@settings(max_examples=100, deadline=None)
def test_episode_applies_the_rule_step_applies(fsg, pairs):
    field, start, goal = fsg
    episode = Episode(field, start, goal)
    state, prev = start, None
    for orientation, move in pairs:
        if episode.done:
            break
        action = Action(orientation, move)
        try:
            want = step(state, action, field, goal, prev, start.corridor_x)
        except ValueError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                episode.step(action)
            continue
        assert episode.step(action) == want
        prev = want.next_state.y - state.y if move < 2 else 0
        state = want.next_state
        assert episode.state == state and episode.done == want.done


@given(field_state_goal(), st.integers(0, 1), st.integers(0, 9), st.sampled_from([None, -1, 1]))
@settings(max_examples=200, deadline=None)
def test_step_closure_and_reward_identity(fsg, orientation, move, prev):
    field, state, goal = fsg
    action = Action(orientation, move)
    if move > field.num_rows:
        with pytest.raises(ValueError):
            step(state, action, field, goal, prev_displacement=prev)
        return
    if move >= 2 and not at_headland(field, state.y):
        with pytest.raises(IllegalActionError):
            step(state, action, field, goal, prev_displacement=prev)
        return
    out = step(state, action, field, goal, prev_displacement=prev)
    # closure: the successor is a valid pose of the same field
    assert out.next_state.corridor_x in corridor_positions(field)
    assert -1 <= out.next_state.y <= field.corridor_len
    assert out.next_state.orientation == orientation
    # itemized parts sum exactly to the reward
    p = out.reward_parts
    assert out.reward == (
        p.step_penalty
        + p.switch_penalty
        + p.turn_penalty
        + p.oscillation_penalty
        + p.goal_reward
        + p.closer_corridor_bonus
    )
    # traversed distance bookkeeping
    if move >= 2:
        assert out.distance_delta == abs(out.next_state.corridor_x - state.corridor_x)
    else:
        assert out.distance_delta == abs(out.next_state.y - state.y)
    assert out.done == is_goal(field, out.next_state, goal)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_samplers_produce_valid_instances(seed):
    rng = np.random.default_rng(seed)
    field = FieldSpec(int(rng.integers(2, 12)), int(rng.integers(1, 12)))
    state = sample_state(field, rng)
    goal = sample_goal(field, rng)
    assert state.corridor_x in corridor_positions(field)
    assert 0 <= state.y < field.corridor_len
    assert 0 <= goal.row < field.num_rows
    assert 0 <= goal.goal_y < field.corridor_len
