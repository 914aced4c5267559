"""Route compilation tests: centerline geometry, phase tagging, serialization
round trips, and the geometry config parser."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croprow.planners import PlanRequest, plan_astar, plan_heuristic
from croprow.waypoints import (
    CSV_HEADER,
    Direction,
    FieldGeometry,
    Phase,
    Waypoint,
    WaypointPath,
    compile_route,
    from_geojson,
    load_geometry,
    metric_y,
    parse_geometry,
    read_csv,
    read_geojson,
    to_geojson,
    to_world,
    write_csv,
    write_geojson,
)
from croprow.world import (
    DOWN,
    UP,
    Action,
    FieldSpec,
    GoalSpec,
    RobotState,
    at_headland,
    sample_goal,
    sample_state,
    step,
)

GEOM = FieldGeometry(row_spacing_m=0.76, corridor_length_m=20.0)


def A(orientation: int, move: int) -> Action:
    return Action(orientation, move)


@st.composite
def plan_instances(draw):
    import numpy as np

    field = FieldSpec(draw(st.integers(2, 10)), draw(st.integers(1, 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    start = sample_state(field, rng, interior_only=False)
    goal = sample_goal(field, rng)
    return field, start, goal


def leg_counts(field, start, goal, raw_actions):
    """Independent (V, X, H) bookkeeping by replaying the unit actions."""
    vertical = crossing = lateral = 0
    state = start
    for action in raw_actions:
        out = step(state, action, field, goal)
        nxt = out.next_state
        if action.move >= 2:
            lateral += int(abs(nxt.corridor_x - state.corridor_x))
        elif nxt.y != state.y:
            vertical += 1
            if at_headland(field, state.y) or at_headland(field, nxt.y):
                crossing += 1
        state = nxt
    return vertical, crossing, lateral


def expected_length_m(field, geometry, v, x, h):
    unit = geometry.corridor_length_m / field.corridor_len
    return (
        (v - x) * unit
        + x * (unit / 2 + geometry.headland_offset_m)
        + h * geometry.row_spacing_m
    )


def abstract_back(path: WaypointPath, geometry: FieldGeometry) -> list[Action]:
    """Inverse of compile_route for planner-shaped paths (test oracle)."""
    pts = path.points
    groups: list[list[Waypoint]] = []
    for p in pts:
        key = (p.phase, p.direction)
        if groups and (groups[-1][0].phase, groups[-1][0].direction) == key:
            groups[-1].append(p)
        else:
            groups.append([p])

    def orientation_of(group_index: int) -> int:
        group = groups[group_index]
        anchor = groups[group_index - 1][-1] if group_index > 0 else group[0]
        ascending = group[-1].y_m > anchor.y_m
        forward = group[0].direction is Direction.FORWARD
        return UP if ascending == forward else DOWN

    actions: list[Action] = []
    for i, group in enumerate(groups):
        if group[0].phase is Phase.SWITCH:
            target = group[-1].x_m / geometry.row_spacing_m
            actions.append(Action(orientation_of(i + 1), round(target + 1.5)))
        else:
            move = 0 if group[0].direction is Direction.FORWARD else 1
            actions.append(Action(orientation_of(i), move))
    return actions


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            FieldGeometry(row_spacing_m=0.0, corridor_length_m=10.0)
        with pytest.raises(ValueError):
            FieldGeometry(row_spacing_m=1.0, corridor_length_m=-1.0)
        with pytest.raises(ValueError):
            FieldGeometry(1.0, 1.0, headland_offset_m=-0.5)

    def test_metric_y_endpoints(self):
        field = FieldSpec(3, 10)
        assert metric_y(-1, field, GEOM) == -1.0
        assert metric_y(10, field, GEOM) == 21.0
        assert metric_y(0, field, GEOM) == 1.0
        assert metric_y(9, field, GEOM) == 19.0


class TestCompile:
    def test_single_run_worked_example(self):
        field = FieldSpec(4, 10)
        path = compile_route([A(UP, 0)], RobotState(1.5, 2, UP), field, GEOM)
        assert all(p.x_m == pytest.approx(1.14) for p in path.points)
        ys = [p.y_m for p in path.points]
        assert ys == [5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0, 19.0, 21.0]
        assert all(p.phase is Phase.APPROACH for p in path.points)
        assert all(p.direction is Direction.FORWARD for p in path.points)
        assert path.length_m == pytest.approx(16.0)

    def test_three_phase_sequence(self):
        field = FieldSpec(10, 10)
        start = RobotState(0.5, 3, UP)
        goal = GoalSpec(6, 4)
        macros = [A(UP, 0), A(DOWN, 7), A(DOWN, 0)]
        path = compile_route(macros, start, field, GEOM, goal=goal)
        phases = [p.phase for p in path.points]
        order = list(dict.fromkeys(phases))
        assert order == [Phase.EXIT, Phase.SWITCH, Phase.ENTER]
        switch_pts = [p for p in path.points if p.phase is Phase.SWITCH]
        assert all(p.y_m == 21.0 for p in switch_pts)
        assert switch_pts[-1].x_m == pytest.approx(5.5 * 0.76)
        enter_pts = [p for p in path.points if p.phase is Phase.ENTER]
        assert enter_pts[-1].y_m == pytest.approx(9.0)  # goal cell 4 center
        assert enter_pts[0].direction is Direction.FORWARD
        assert path.length_m == pytest.approx(29.8)

    def test_empty_macros_single_point(self):
        field = FieldSpec(3, 5)
        geometry = FieldGeometry(1.0, 5.0)
        path = compile_route([], RobotState(1.5, 2, UP), field, geometry)
        assert len(path) == 1
        point = path.points[0]
        assert (point.x_m, point.y_m) == (1.5, 2.5)
        assert point.phase is Phase.APPROACH

    def test_backward_exit_tagged_backward(self):
        field = FieldSpec(3, 5)
        # facing down, exiting through the top means driving backward
        path = compile_route(
            [A(DOWN, 1)], RobotState(0.5, 3, DOWN), field, GEOM
        )
        assert all(p.direction is Direction.BACKWARD for p in path.points)
        assert path.points[0].y_m < path.points[-1].y_m

    def test_inexecutable_macro_names_offender(self):
        field = FieldSpec(3, 5)
        with pytest.raises(ValueError, match="macro 0"):
            compile_route([A(UP, 3)], RobotState(0.5, 2, UP), field, GEOM)
        with pytest.raises(ValueError, match="macro 0.*no progress"):
            compile_route([A(UP, 0)], RobotState(0.5, 5, UP), field, GEOM)

    def test_already_complete_route_rejected(self):
        field = FieldSpec(3, 5)
        goal = GoalSpec(0, 2)
        with pytest.raises(ValueError, match="already complete"):
            compile_route(
                [A(UP, 0)], RobotState(0.5, 2, UP), field, GEOM, goal=goal
            )

    def test_consecutive_points_always_differ(self):
        field = FieldSpec(5, 8)
        start = RobotState(0.5, 0, UP)
        goal = GoalSpec(3, 7)
        result = plan_heuristic(PlanRequest(field, start, goal))
        path = compile_route(result.macro_actions, start, field, GEOM, goal=goal)
        for a, b in zip(path.points, path.points[1:]):
            assert (a.x_m, a.y_m) != (b.x_m, b.y_m)


@settings(max_examples=60, deadline=None)
@given(plan_instances())
def test_compiled_plans_have_consistent_geometry(instance):
    field, start, goal = instance
    result = plan_heuristic(PlanRequest(field, start, goal))
    geometry = FieldGeometry(row_spacing_m=0.76, corridor_length_m=2.0 * field.corridor_len)
    path = compile_route(result.macro_actions, start, field, geometry, goal=goal)

    # phases form contiguous blocks, in pipeline order, at most three of them
    phases = [p.phase for p in path.points]
    order = list(dict.fromkeys(phases))
    assert len(order) <= 3
    assert order in (
        [Phase.APPROACH],
        [Phase.EXIT, Phase.SWITCH, Phase.ENTER],
        [Phase.EXIT, Phase.ENTER],
        [Phase.SWITCH, Phase.ENTER],
    )
    for phase in order:
        first = phases.index(phase)
        count = phases.count(phase)
        assert phases[first : first + count] == [phase] * count

    # every waypoint sits on a corridor centerline
    for p in path.points:
        k = p.x_m / geometry.row_spacing_m - 0.5
        assert abs(k - round(k)) < 1e-9

    # polyline length follows the documented unit bookkeeping
    v, x, h = leg_counts(field, start, goal, result.raw_actions)
    assert path.length_m == pytest.approx(expected_length_m(field, geometry, v, x, h))

    # compiling then abstracting back recovers the macro sequence
    if result.macro_actions:
        assert abstract_back(path, geometry) == list(result.macro_actions)


@settings(max_examples=25, deadline=None)
@given(plan_instances())
def test_astar_routes_compile_too(instance):
    field, start, goal = instance
    result = plan_astar(PlanRequest(field, start, goal))
    geometry = FieldGeometry(1.0, float(field.corridor_len))
    path = compile_route(result.macro_actions, start, field, geometry, goal=goal)
    assert len(path) >= 1


class TestExport:
    def build_path(self):
        field = FieldSpec(10, 10)
        start = RobotState(0.5, 3, UP)
        goal = GoalSpec(6, 4)
        macros = [A(UP, 0), A(DOWN, 7), A(DOWN, 0)]
        return compile_route(macros, start, field, GEOM, goal=goal)

    def test_csv_round_trip(self, tmp_path):
        path = self.build_path()
        file_path = tmp_path / "route.csv"
        write_csv(path, file_path)
        text = file_path.read_text().splitlines()
        assert text[0] == CSV_HEADER
        assert len(text) == 1 + len(path)
        assert read_csv(file_path) == path
        assert ",switch,forward" in text[9]

    def test_csv_rejects_bad_header(self, tmp_path):
        file_path = tmp_path / "bad.csv"
        file_path.write_text("a,b,c,d\n1,2,exit,forward\n")
        with pytest.raises(ValueError):
            read_csv(file_path)

    def test_geojson_round_trip(self, tmp_path):
        path = self.build_path()
        doc = to_geojson(path)
        assert doc["type"] == "Feature"
        assert doc["geometry"]["type"] == "LineString"
        assert len(doc["geometry"]["coordinates"]) == len(path)
        assert doc["properties"]["phase"][0] == "exit"
        file_path = tmp_path / "route.geojson"
        write_geojson(path, file_path)
        back = read_geojson(file_path)
        assert len(back) == len(path)
        for a, b in zip(back.points, path.points):
            assert a.x_m == pytest.approx(b.x_m, abs=1e-9)
            assert a.y_m == pytest.approx(b.y_m, abs=1e-9)
            assert (a.phase, a.direction) == (b.phase, b.direction)

    def test_single_point_geojson_is_point(self):
        field = FieldSpec(3, 5)
        path = compile_route([], RobotState(0.5, 1, UP), field, GEOM)
        doc = to_geojson(path)
        assert doc["geometry"]["type"] == "Point"
        assert from_geojson(doc) == path

    def test_world_frame_transform(self):
        path = WaypointPath(
            (
                Waypoint(1.0, 0.0, Phase.APPROACH, Direction.FORWARD),
                Waypoint(1.0, 2.0, Phase.APPROACH, Direction.FORWARD),
            )
        )
        geometry = FieldGeometry(
            1.0, 10.0, origin_e=100.0, origin_n=50.0, heading_rad=math.pi / 2
        )
        world = to_world(path, geometry)
        assert world.points[0].x_m == pytest.approx(100.0)
        assert world.points[0].y_m == pytest.approx(51.0)
        assert world.points[1].x_m == pytest.approx(98.0)
        assert world.points[1].y_m == pytest.approx(51.0)

    def test_world_frame_preserves_length(self):
        path = self.build_path()
        geometry = FieldGeometry(0.76, 20.0, origin_e=7.0, origin_n=-3.0, heading_rad=0.7)
        assert to_world(path, geometry).length_m == pytest.approx(path.length_m)


class TestWaypointPath:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WaypointPath(())

    def test_rejects_consecutive_duplicates(self):
        p = Waypoint(1.0, 1.0, Phase.EXIT, Direction.FORWARD)
        with pytest.raises(ValueError):
            WaypointPath((p, p))


class TestGeometryConfig:
    def test_full_file(self, tmp_path):
        text = (
            "# survey 2031, block B\n"
            "row_spacing_m = 0.76\n"
            "corridor_length_m = 207\n"
            "origin_e = 1200.5\n"
            "origin_n = -80\n"
            "heading_rad = 0.12\n"
            "headland_offset_m = 1.5\n"
        )
        geometry = parse_geometry(text)
        assert geometry == FieldGeometry(0.76, 207.0, 1200.5, -80.0, 0.12, 1.5)
        config = tmp_path / "field.cfg"
        config.write_text(text)
        assert load_geometry(config) == geometry

    def test_defaults_fill_in(self):
        geometry = parse_geometry("row_spacing_m = 1\ncorridor_length_m = 10\n")
        assert geometry == FieldGeometry(1.0, 10.0, 0.0, 0.0, 0.0, 1.0)

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_geometry("row_spacing_m = 1\ncorridor_length_m = 2\nwat = 3\n")
        with pytest.raises(ValueError, match="missing required"):
            parse_geometry("row_spacing_m = 1\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_geometry(
                "row_spacing_m = 1\nrow_spacing_m = 2\ncorridor_length_m = 3\n"
            )
        with pytest.raises(ValueError, match="bad number"):
            parse_geometry("row_spacing_m = wide\ncorridor_length_m = 3\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_geometry("row_spacing_m 1\ncorridor_length_m = 3\n")
