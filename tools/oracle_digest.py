"""One sha256 per request set over the oracle's distances, checked against pins.

    PYTHONPATH=src python3 tools/oracle_digest.py

For each set it calls ``world.oracle_shortest`` on every (pose, goal) request
and hashes the distances in order, one goal at a time.  The sets are every
pose x goal of 65x10 (998,400 requests), and 300 seeded goals x 200 seeded
poses, headlands included, at 1,000x10.  Each line reads ``<set> <requests>
<sha256> ok|DIFFERS``, and the tool exits 1 when any digest differs from the
one pinned below, so a change to the oracle that keeps every distance prints
the same lines.  About 2 s on one core of a 2 vCPU machine.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from croprow.world import FieldSpec, GoalSpec, RobotState, oracle_shortest


def every_pose_and_goal(rows: int, length: int):
    """Every goal, then every pose, corridor by corridor, y from the south
    headland, then heading."""
    field = FieldSpec(rows, length)
    poses = [RobotState(c + 0.5, y, o) for c in range(rows - 1) for y in range(-1, length + 1) for o in (0, 1)]
    for row in range(rows):
        for gy in range(length):
            yield field, poses, GoalSpec(row, gy)


def seeded(rows: int, length: int, goals: int, poses: int, seed: int):
    """Seeded goals, each against the same seeded poses, headlands included."""
    field, rng = FieldSpec(rows, length), np.random.default_rng(seed)
    goal_list = [GoalSpec(int(rng.integers(rows)), int(rng.integers(length))) for _ in range(goals)]
    pose_list = [
        RobotState(0.5 + int(rng.integers(rows - 1)), int(rng.integers(-1, length + 1)), int(rng.integers(2)))
        for _ in range(poses)
    ]
    for goal in goal_list:
        yield field, pose_list, goal


SETS = {
    "every-65x10": (lambda: every_pose_and_goal(65, 10), "36fd285f60ddcc1426cd068f49c74230a33115c78c128890c74791941108579a"),
    "seed35-1000x10": (lambda: seeded(1000, 10, 300, 200, 35), "7febf6db18f5e863f159f2680b23b3b4aa757dd8b454aff6d8cb690f40cd5ef1"),
}


def digest(requests) -> tuple[int, str]:
    """The count of (pose, goal) requests and the sha256 over their distances."""
    h, count = hashlib.sha256(), 0
    for field, poses, goal in requests:
        h.update(repr([oracle_shortest(field, pose, goal) for pose in poses]).encode() + b"\n")
        count += len(poses)
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
