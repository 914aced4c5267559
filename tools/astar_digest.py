"""One sha256 per request set over A*'s route and pop count, checked against pins.

    PYTHONPATH=src python3 tools/astar_digest.py

For each set it calls ``planners._astar_route`` on every request and hashes
the ``(route, pops)`` pairs in order, each route as its ``(corridor_x, y,
orientation)`` tuples.  The sets are every pose x goal of the fields with 2-12
rows and lengths 1-12 (922,064 requests), and the ``generate_instances(...,
seed=11)`` suites of 5,000 at 65x10, 1,000 at 1,000x10 and 200 at 5,000x10.
Each line reads ``<set> <requests> <sha256> ok|DIFFERS``, and the tool exits 1
when any digest differs from the one pinned below, so a change to the search
that keeps every route and every pop count prints the same lines.  About 13 s
on one core of a 2 vCPU machine.
"""

from __future__ import annotations

import hashlib
import sys

from croprow.bench import generate_instances
from croprow.planners import _astar_route
from croprow.world import FieldSpec, GoalSpec, RobotState


def small_fields():
    """Every start pose, corridor by corridor, y from the south headland, then
    heading, against every goal, on each field of 2-12 rows x length 1-12."""
    for rows in range(2, 13):
        for length in range(1, 13):
            field = FieldSpec(rows, length)
            goals = [GoalSpec(row, gy) for row in range(rows) for gy in range(length)]
            for c in range(rows - 1):
                for y in range(-1, length + 1):
                    for o in (0, 1):
                        start = RobotState(c + 0.5, y, o)
                        for goal in goals:
                            yield field, start, goal


def suite(rows: int, count: int):
    for i in generate_instances(FieldSpec(rows, 10), count, seed=11):
        yield i.field, i.start, i.goal


SETS = {
    "small-2..12x1..12": (small_fields, "41b0c49feaeb2b62e0695907ba22df3f36325d3ad91c14b532ca6df4838bae3c"),
    "seed11-65x10": (lambda: suite(65, 5000), "500cf592d594a6fc43ca10382251d2d573863620014229e56e857e8ebeedce0c"),
    "seed11-1000x10": (lambda: suite(1000, 1000), "2dfd52eec1f2b28269e41dd706c1fb888111671cf8a8033615235651e5265096"),
    "seed11-5000x10": (lambda: suite(5000, 200), "5e82eb798e927e2e19a1b5add6ffe3f73d7fbf345547fd5708b95c1891859df6"),
}


def digest(requests) -> tuple[int, str]:
    """The count of requests and the sha256 over their routes and pop counts."""
    h, count = hashlib.sha256(), 0
    for field, start, goal in requests:
        route, pops = _astar_route(field, start, goal)
        h.update(repr(([(s.corridor_x, s.y, s.orientation) for s in route], pops)).encode() + b"\n")
        count += 1
    return count, h.hexdigest()


def main() -> int:
    status = 0
    for name, (requests, pin) in SETS.items():
        count, value = digest(requests())
        ok = value == pin
        status |= not ok
        print(f"{name} {count} {value} {'ok' if ok else 'DIFFERS'}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
