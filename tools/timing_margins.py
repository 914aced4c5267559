"""Acceptance criteria 2 and 3's timing margins, measured beside busy loops.

    PYTHONPATH=src python3 tools/timing_margins.py --runs 5 --busy 2

Each run repeats the two timed measurements of tests/test_acceptance.py with
its seed, sizes, counts and repetitions: criterion 2 plans 10,000 instances at
65x10 with the heuristic and A* once each, and criterion 3 sweeps 10, 65 and
200 rows with 1,000 instances per size and 3 repetitions per planner, timing
the sizes round-robin as ``bench.scaling_sweep`` does.  The oracle check is
left out, since it is not timed.  Beside the runs, ``--busy``
K pure-Python loops (0 up to the CPU count) keep K CPUs busy; they start
before the first run and are killed when the tool ends, however it ends.

Each run prints one line of margins, where a margin above 1 passes and the
bound stays as the test states it:

* ``heur`` - the heuristic's mean at 65 rows against 1 ms (1 ms / mean);
* ``astar/heur`` - A*'s mean over the heuristic's at 65 rows (must exceed 1);
* ``spread`` - 2x over the heuristic's max/min mean across the three sizes;
* ``astar 65/10`` and ``astar 200/65`` - A*'s mean ratios of consecutive
  sizes (each must be at least 1).

The line ends with the smallest of the five margins.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_acceptance import ASTAR, HEURISTIC, SEED  # noqa: E402

from croprow.bench import generate_instances, run_benchmark, scaling_sweep  # noqa: E402
from croprow.planners import PlannerId  # noqa: E402
from croprow.world import FieldSpec  # noqa: E402

SIZES = [10, 65, 200]  # test_criterion_3_scaling_shape


def margins() -> dict[str, float]:
    """One run of criteria 2 and 3, as margins."""
    instances = generate_instances(FieldSpec(65, 10), 10_000, SEED)
    records = run_benchmark([HEURISTIC, ASTAR], instances)
    means = {
        pid: np.mean([r.planning_time_ns for r in records if r.planner_id == pid])
        for pid in (PlannerId.HEURISTIC, PlannerId.GRAPH_ASTAR)
    }
    sweeps = [
        [r.mean_time_ns for r in scaling_sweep(planner, SIZES, seed=SEED, instances_per_size=1000, repetitions=3)]
        for planner in (HEURISTIC, ASTAR)
    ]
    heuristic, astar = sweeps
    return {
        "heur": 1e6 / means[PlannerId.HEURISTIC],
        "astar/heur": means[PlannerId.GRAPH_ASTAR] / means[PlannerId.HEURISTIC],
        "spread": 2.0 / (max(heuristic) / min(heuristic)),
        "astar 65/10": astar[1] / astar[0],
        "astar 200/65": astar[2] / astar[1],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs of criteria 2 and 3 (default 5)")
    parser.add_argument("--busy", type=int, default=0, help="busy loops beside the runs, 0 to the CPU count")
    args = parser.parse_args(argv)
    cpus = os.cpu_count() or 1
    if args.runs < 1:
        parser.error(f"--runs must be at least 1, got {args.runs}")
    if not 0 <= args.busy <= cpus:
        parser.error(f"--busy must be from 0 to the CPU count {cpus}, got {args.busy}")
    loops = []
    try:
        for _ in range(args.busy):
            loops.append(subprocess.Popen([sys.executable, "-c", "while True: pass"]))
        print(f"busy loops {args.busy} of {cpus} CPUs; load average at start {os.getloadavg()[0]:.2f}")
        for run in range(1, args.runs + 1):
            got = margins()
            shown = " ".join(f"{name} {value:.2f}x" for name, value in got.items())
            print(f"run {run}: {shown} min {min(got.values()):.2f}x", flush=True)
    finally:
        for loop in loops:
            loop.kill()
            loop.wait()
    return 0


if __name__ == "__main__":
    sys.exit(main())
