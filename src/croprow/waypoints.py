"""Metric route compilation for the downstream row-following controller.

Abstract routes live on a unit grid: corridors at half-integer x, corridor
cells y in 0..L-1, headland rows just past either end.  This module expands
macro action sequences into unit steps through the simulator's Episode and
compiles them into corridor-centerline waypoint polylines in field coordinates
(meters), tagged per point with a pipeline phase (exit the current corridor,
switch along the headland, enter the target corridor; a direct run is an
approach) and a travel direction the controller can use to flip waypoint order
when driving backward.

Mapping: centerline x = corridor_x * row_spacing_m; an interior cell y maps
to its section center (y + 0.5) * u with u = corridor_length_m / L; headland
rows map to headland_offset_m beyond the corridor ends.  Polyline length is
therefore (V - X) * u + X * (u / 2 + headland_offset_m) + H * row_spacing_m
for V vertical unit steps of which X cross into a headland row, and H rows
crossed laterally.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from enum import Enum

from croprow.world import Action, Episode, FieldSpec, GoalSpec, RobotState, at_headland


class Phase(str, Enum):
    EXIT = "exit"
    SWITCH = "switch"
    ENTER = "enter"
    APPROACH = "approach"


class Direction(str, Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


CSV_HEADER = "x_m,y_m,phase,direction"


@dataclass(frozen=True)
class FieldGeometry:
    """Metric layout of the field; local frame, x across rows, y along them."""

    row_spacing_m: float
    corridor_length_m: float
    origin_e: float = 0.0
    origin_n: float = 0.0
    heading_rad: float = 0.0
    headland_offset_m: float = 1.0

    def __post_init__(self) -> None:
        for key, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        for key in ("row_spacing_m", "corridor_length_m"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be > 0, got {getattr(self, key)}")
        if self.headland_offset_m < 0:
            raise ValueError(f"headland_offset_m must be >= 0, got {self.headland_offset_m}")


@dataclass(frozen=True)
class Waypoint:
    x_m: float
    y_m: float
    phase: Phase
    direction: Direction


@dataclass(frozen=True)
class WaypointPath:
    points: tuple[Waypoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a waypoint path needs at least one point")
        for p in self.points:
            if not (math.isfinite(p.x_m) and math.isfinite(p.y_m)):
                raise ValueError(f"waypoint coordinates must be finite, got {p}")
        for a, b in zip(self.points, self.points[1:]):
            if a.x_m == b.x_m and a.y_m == b.y_m:
                raise ValueError(f"consecutive duplicate waypoint at {a}")

    def __len__(self) -> int:
        return len(self.points)


def metric_x(corridor_x: float, geometry: FieldGeometry) -> float:
    return corridor_x * geometry.row_spacing_m


def metric_y(abstract_y: int, field: FieldSpec, geometry: FieldGeometry) -> float:
    unit = geometry.corridor_length_m / field.corridor_len
    if abstract_y == -1:
        return -geometry.headland_offset_m
    if abstract_y == field.corridor_len:
        return geometry.corridor_length_m + geometry.headland_offset_m
    return (abstract_y + 0.5) * unit


def expand_macro_legs(
    field: FieldSpec, start: RobotState, macros, goal: GoalSpec
) -> tuple[list[Action], list[list[RobotState]]]:
    """Unit-step expansion of macro actions under deployment semantics, with each macro's states as a leg.

    A vertical macro repeats until the route reaches the goal or the robot
    reaches a corridor end, so raw actions that turn inside a corridor do not
    expand from their dedup; a switch macro is a single action.  Each unit step
    is an :meth:`Episode.step`, the step ``simulate`` judges; the episode checks
    the start and then the goal once, also with no macro.  Raises ValueError
    naming a macro that cannot make progress.
    """
    episode = Episode(field, start, goal)
    raw: list[Action] = []
    legs: list[list[RobotState]] = []
    for i, macro in enumerate(macros):
        if episode.done:
            raise ValueError(f"macro {i} {macro}: route already complete")
        legs.append([episode.state])
        try:
            while True:
                out = episode.step(macro)
                if macro.move < 2 and out.distance_delta == 0:
                    raise ValueError("no progress at corridor bounds")
                raw.append(macro)
                legs[-1].append(out.next_state)
                if macro.move >= 2 or at_headland(field, out.next_state.y) or out.done:
                    break
        except ValueError as exc:
            raise ValueError(f"macro {i} {macro}: {exc}") from exc
    return raw, legs


def compile_route(
    macro_actions, start: RobotState, field: FieldSpec, geometry: FieldGeometry, goal: GoalSpec
) -> WaypointPath:
    """Compile macro actions into a centerline waypoint polyline.

    The sequence is validated by replaying it through the simulator with
    :func:`expand_macro_legs`, which checks the start and the goal once, before
    any macro, and raises ValueError naming an inexecutable macro.  Vertical
    runs end at the goal cell or a corridor end.  A vertical macro is an
    approach when it is the only macro, an exit when it is the first and an
    enter otherwise.  An empty sequence compiles to the single point at the start.
    """
    macros = list(macro_actions)
    _, legs = expand_macro_legs(field, start, macros, goal=goal)
    return _path_from_legs(macros, legs, start, field, geometry)


def _path_from_legs(macros, legs, start: RobotState, field: FieldSpec, geometry: FieldGeometry) -> WaypointPath:
    """compile_route's polyline from the legs expand_macro_legs gave for the macros."""
    points: list[Waypoint] = []
    for i, (macro, leg) in enumerate(zip(macros, legs)):
        if macro.move >= 2:
            phase = Phase.SWITCH
            direction = Direction.FORWARD  # headland travel is tagged forward
        else:
            phase = Phase.APPROACH if len(macros) == 1 else Phase.ENTER if i else Phase.EXIT
            direction = Direction.FORWARD if macro.move == 0 else Direction.BACKWARD
        for state in leg:
            x = metric_x(state.corridor_x, geometry)
            y = metric_y(state.y, field, geometry)
            if points and points[-1].x_m == x and points[-1].y_m == y:
                continue  # leg junctions share a pose; keep the earlier tag
            points.append(Waypoint(x, y, phase, direction))
    x, y = metric_x(start.corridor_x, geometry), metric_y(start.y, field, geometry)
    return WaypointPath(tuple(points) or (Waypoint(x, y, Phase.APPROACH, Direction.FORWARD),))


def to_world(path: WaypointPath, geometry: FieldGeometry) -> WaypointPath:
    """Rotate by the row-axis heading and translate to the survey origin."""
    c = math.cos(geometry.heading_rad)
    s = math.sin(geometry.heading_rad)
    return WaypointPath(
        tuple(
            Waypoint(
                geometry.origin_e + c * p.x_m - s * p.y_m,
                geometry.origin_n + s * p.x_m + c * p.y_m,
                p.phase,
                p.direction,
            )
            for p in path.points
        )
    )


def write_csv(path: WaypointPath, file_path) -> None:
    lines = [CSV_HEADER]
    for p in path.points:
        lines.append(f"{p.x_m!r},{p.y_m!r},{p.phase.value},{p.direction.value}")
    with open(file_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def to_geojson(path: WaypointPath) -> dict:
    coords = [[p.x_m, p.y_m] for p in path.points]
    if len(coords) == 1:
        geometry = {"type": "Point", "coordinates": coords[0]}
    else:
        geometry = {"type": "LineString", "coordinates": coords}
    return {
        "type": "Feature",
        "geometry": geometry,
        "properties": {
            "phase": [p.phase.value for p in path.points],
            "direction": [p.direction.value for p in path.points],
        },
    }


def write_geojson(path: WaypointPath, file_path) -> None:
    with open(file_path, "w") as fh:
        json.dump(to_geojson(path), fh, indent=2)
        fh.write("\n")


def parse_geometry(text: str) -> FieldGeometry:
    """Plain-text `key = value` geometry config; # starts a comment anywhere on
    a line, which runs to the line's end.  The keys are FieldGeometry's
    fields, and those without a default are required."""
    defaults = {f.name: f.default for f in fields(FieldGeometry)}
    values: dict[str, float] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in defaults:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = float(value.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad number for {key!r}") from exc
    for key, default in defaults.items():
        if default is MISSING and key not in values:
            raise ValueError(f"missing required geometry key {key!r}")
    return FieldGeometry(**values)


def load_geometry(file_path) -> FieldGeometry:
    with open(file_path) as fh:
        return parse_geometry(fh.read())
