"""One sha256 over the CLI's plan, simulate and export bytes on seeded suites,
checked against a pin.

    PYTHONPATH=src python3 tools/cli_digest.py

For each field width it plans `generate_instances(FieldSpec(rows, 10), n, 5)`
with the heuristic and A*, then hashes, in order: the text plan without its
planning-time line, the JSON plan without `planning_time_ns`, the text and
JSON replays of the raw actions (not at 1,000 rows, whose pictures are large),
and the export CSV and GeoJSON in the local and the world frame.  Standard
error and exit codes are hashed too, except for the `config:` echo.  One line
per width reads `rows=<rows> n=<n> <sha256>`; the last reads `all <sha256>
ok|DIFFERS`, and the tool exits 1 when that digest differs from the one pinned
below, so a change that keeps every output byte prints the same lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from croprow import cli
from croprow.bench import generate_instances
from croprow.world import FieldSpec

SIZES = ((4, 40), (65, 40), (1000, 10))
PIN = "528db62f4759111a1b3d1b01db31e32f5ede21f9ea28f580c9c5ab6c7e873399"
GEOMETRY = "row_spacing_m = 0.76\ncorridor_length_m = 20\norigin_e = 100\norigin_n = 50\nheading_rad = 0.3\n"


def run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    err_lines = [line for line in err.getvalue().splitlines() if not line.startswith("config:")]
    return code, out.getvalue(), "\n".join(err_lines)


def digest_rows(rows: int, n: int) -> str:
    h = hashlib.sha256()

    def feed(*parts) -> None:
        for part in parts:
            h.update(repr(part).encode() + b"\0")

    for inst in generate_instances(FieldSpec(rows, 10), n, 5):
        where = [
            "--rows", str(rows), "--len", "10",
            "--start", f"{inst.start.corridor_x},{inst.start.y},{inst.start.orientation}",
            "--goal", f"{inst.goal.row},{inst.goal.goal_y}",
        ]
        for planner in ("heuristic", "astar"):
            code, out, err = run("plan", "--planner", planner, *where)
            feed(code, [ln for ln in out.splitlines() if not ln.startswith("planning time")], err)
            code, out, err = run("plan", "--planner", planner, *where, "--format", "json")
            doc = json.loads(out)
            del doc["planning_time_ns"]
            feed(code, doc, err)
            with open("plan.json", "w") as fh:
                fh.write(out)
            if rows < 1000:
                actions = json.dumps(doc["raw_actions"])
                feed(*run("simulate", *where, "--actions", actions))
                feed(*run("simulate", *where, "--actions", actions, "--format", "json"))
            for frame in ("local", "world"):
                feed(*run("export", "--plan-json", "plan.json", "--geometry", "geom.cfg",
                          "--frame", frame, "--output-dir", "out"))
                for name in ("waypoints.csv", "waypoints.geojson"):
                    with open(os.path.join("out", name), "rb") as fh:
                        feed(fh.read())
    return h.hexdigest()


def digest_all() -> str:
    """The sha256 over every width's digest, each printed as it is made."""
    total, home = hashlib.sha256(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("geom.cfg", "w") as fh:
                fh.write(GEOMETRY)
            for rows, n in SIZES:
                digest = digest_rows(rows, n)
                total.update(digest.encode())
                print(f"rows={rows} n={n} {digest}", flush=True)
        finally:
            os.chdir(home)
    return total.hexdigest()


def main() -> int:
    value = digest_all()
    ok = value == PIN
    print(f"all {value} {'ok' if ok else 'DIFFERS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
