"""Metric route compilation for the downstream row-following controller.

Abstract routes live on a unit grid: corridors at half-integer x, corridor
cells y in 0..L-1, headland rows just past either end.  This module compiles
macro action sequences into corridor-centerline waypoint polylines in field
coordinates (meters), tagged per point with a pipeline phase (exit the current
corridor, switch along the headland, enter the target corridor; a direct run
is an approach) and a travel direction the controller can use to flip
waypoint order when driving backward.

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
from dataclasses import dataclass
from enum import Enum

from croprow.planners import expand_macro_legs
from croprow.world import FieldSpec, GoalSpec, RobotState, check_state


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
        if not self.row_spacing_m > 0:
            raise ValueError(f"row_spacing_m must be > 0, got {self.row_spacing_m}")
        if not self.corridor_length_m > 0:
            raise ValueError(
                f"corridor_length_m must be > 0, got {self.corridor_length_m}"
            )
        if self.headland_offset_m < 0:
            raise ValueError(
                f"headland_offset_m must be >= 0, got {self.headland_offset_m}"
            )


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
        for a, b in zip(self.points, self.points[1:]):
            if a.x_m == b.x_m and a.y_m == b.y_m:
                raise ValueError(f"consecutive duplicate waypoint at {a}")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def length_m(self) -> float:
        return sum(
            math.hypot(b.x_m - a.x_m, b.y_m - a.y_m)
            for a, b in zip(self.points, self.points[1:])
        )


def metric_x(corridor_x: float, geometry: FieldGeometry) -> float:
    return corridor_x * geometry.row_spacing_m


def metric_y(abstract_y: int, field: FieldSpec, geometry: FieldGeometry) -> float:
    unit = geometry.corridor_length_m / field.corridor_len
    if abstract_y == -1:
        return -geometry.headland_offset_m
    if abstract_y == field.corridor_len:
        return geometry.corridor_length_m + geometry.headland_offset_m
    return (abstract_y + 0.5) * unit


def compile_route(
    macro_actions,
    start: RobotState,
    field: FieldSpec,
    geometry: FieldGeometry,
    goal: GoalSpec | None = None,
) -> WaypointPath:
    """Compile macro actions into a centerline waypoint polyline.

    The sequence is validated by replaying it in the abstract world; an
    inexecutable macro raises ValueError naming it.  With a goal, vertical
    runs may end at the goal cell; without one they run to corridor ends.
    An empty sequence compiles to the single point at the start pose.
    """
    check_state(field, start)
    macros = list(macro_actions)
    if not macros:
        return WaypointPath(
            (
                Waypoint(
                    metric_x(start.corridor_x, geometry),
                    metric_y(start.y, field, geometry),
                    Phase.APPROACH,
                    Direction.FORWARD,
                ),
            )
        )
    _, legs = expand_macro_legs(field, start, macros, goal=goal)
    points: list[Waypoint] = []
    seen_switch = False
    seen_vertical = False
    for macro, leg in zip(macros, legs):
        if macro.move >= 2:
            phase = Phase.SWITCH
            seen_switch = True
            direction = Direction.FORWARD  # headland travel is tagged forward
        else:
            if len(macros) == 1:
                phase = Phase.APPROACH
            elif not seen_vertical and not seen_switch:
                phase = Phase.EXIT
            else:
                phase = Phase.ENTER
            seen_vertical = True
            direction = Direction.FORWARD if macro.move == 0 else Direction.BACKWARD
        for state in leg:
            x = metric_x(state.corridor_x, geometry)
            y = metric_y(state.y, field, geometry)
            if points and points[-1].x_m == x and points[-1].y_m == y:
                continue  # leg junctions share a pose; keep the earlier tag
            points.append(Waypoint(x, y, phase, direction))
    return WaypointPath(tuple(points))


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


def read_csv(file_path) -> WaypointPath:
    with open(file_path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r} in {file_path}")
    points = []
    for line in lines[1:]:
        x, y, phase, direction = line.split(",")
        points.append(Waypoint(float(x), float(y), Phase(phase), Direction(direction)))
    return WaypointPath(tuple(points))


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


def from_geojson(doc: dict) -> WaypointPath:
    geometry = doc["geometry"]
    if geometry["type"] == "Point":
        coords = [geometry["coordinates"]]
    elif geometry["type"] == "LineString":
        coords = geometry["coordinates"]
    else:
        raise ValueError(f"unsupported geometry type {geometry['type']!r}")
    phases = doc["properties"]["phase"]
    directions = doc["properties"]["direction"]
    if not (len(coords) == len(phases) == len(directions)):
        raise ValueError("coordinate and property lengths disagree")
    return WaypointPath(
        tuple(
            Waypoint(float(x), float(y), Phase(ph), Direction(d))
            for (x, y), ph, d in zip(coords, phases, directions)
        )
    )


def write_geojson(path: WaypointPath, file_path) -> None:
    with open(file_path, "w") as fh:
        json.dump(to_geojson(path), fh, indent=2)
        fh.write("\n")


def read_geojson(file_path) -> WaypointPath:
    with open(file_path) as fh:
        return from_geojson(json.load(fh))


_GEOMETRY_DEFAULTS = {
    "origin_e": 0.0,
    "origin_n": 0.0,
    "heading_rad": 0.0,
    "headland_offset_m": 1.0,
}
_GEOMETRY_REQUIRED = ("row_spacing_m", "corridor_length_m")


def parse_geometry(text: str) -> FieldGeometry:
    """Plain-text `key = value` geometry config; # starts a comment line."""
    values: dict[str, float] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _GEOMETRY_REQUIRED and key not in _GEOMETRY_DEFAULTS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = float(value.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad number for {key!r}") from exc
    for key in _GEOMETRY_REQUIRED:
        if key not in values:
            raise ValueError(f"missing required geometry key {key!r}")
    return FieldGeometry(**{**_GEOMETRY_DEFAULTS, **values})


def load_geometry(file_path) -> FieldGeometry:
    with open(file_path) as fh:
        return parse_geometry(fh.read())
