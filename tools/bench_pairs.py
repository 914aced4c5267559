"""Run perfbench in alternating parent/change pairs and write one JSON file.

    python3 tools/bench_pairs.py --parent <sha> --change <sha> --out BENCH_<n>.json \
        --phase all:1:25:10 --phase optimality-65:2:25:4

Each tree is a ``git clone`` of this repository checked out at its commit, so
every record carries the SHA that ``perfbench/run.py`` reads from the clone.
A phase ``WORKLOAD:SEED:SECONDS:PAIRS`` runs ``perfbench/run.py --workload
WORKLOAD --seed SEED --seconds SECONDS --trace 0`` PAIRS times on each tree;
pair i runs the parent first when i is odd and the change first when i is
even.  The file holds the command, the host, every record and, per workload
and metric over the pairs where both sides gave a result, both medians, the
parent's interquartile range (null below two pairs) and the pairs the change
won.  It is rewritten after every run, so a run that dies or an interrupt
keeps the records taken so far; the exit code is 1 when any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
LOWER_IS_BETTER = {"setup_s", "latency_p50_us", "latency_tail_us"}


def export(sha: str, dest: Path) -> str:
    subprocess.run(["git", "clone", "-q", "--no-checkout", str(ROOT), str(dest)], check=True)
    subprocess.run(["git", "-C", str(dest), "checkout", "-q", "--detach", sha], check=True)
    out = subprocess.run(["git", "-C", str(dest), "rev-parse", "HEAD"], check=True, capture_output=True, text=True)
    return out.stdout.strip()


def run(tree: Path, workload: str, seed: str, seconds: str) -> tuple[int, list[dict]]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    return proc.returncode, [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def records(phase: str, side: str, sha: str, pair: int, seed: int, code: int, lines: list[dict]) -> list[dict]:
    """One record per workload from a run's detail lines and its result line;
    a run of ``all`` names each metric ``<workload>.<metric>``."""
    if not lines:  # the run died without a result
        return [{"phase": phase, "side": side, "sha": sha, "pair": pair, "workload": None, "seed": seed,
                 "exit_code": code}]
    *details, result = lines
    out = []
    for line in details:
        detail = line["detail"]
        prefix = f"{detail['workload']}." if len(details) > 1 else ""
        out.append({
            "phase": phase, "side": side, "sha": sha, "pair": pair, "workload": detail["workload"], "seed": seed,
            "exit_code": code,
            "failed_frac": detail["failed_frac"],
            "metrics": {m[len(prefix):]: v["value"] for m, v in result["metrics"].items() if m.startswith(prefix)},
            "measured_s": detail["measured_s"],
            "environment": detail["environment"],
        })
    return out


def summarize(recs: list[dict]) -> dict:
    summary = {}
    for workload, seed in dict.fromkeys((r["workload"], r["seed"]) for r in recs if "metrics" in r):
        by_pair = {}
        for r in recs:
            if r["workload"] == workload and r["seed"] == seed:
                by_pair.setdefault((r["phase"], r["pair"]), {})[r["side"]] = r["metrics"]
        pairs = [p for p in by_pair.values() if len(p) == 2]  # both sides gave a result
        if not pairs:
            continue
        metrics = {}
        for metric in pairs[0]["parent"]:
            parent = [p["parent"][metric] for p in pairs]
            change = [p["change"][metric] for p in pairs]
            sign = -1 if metric in LOWER_IS_BETTER else 1
            iqr = None  # a spread needs two pairs
            if len(parent) > 1:
                q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
                iqr = q3 - q1
            metrics[metric] = {
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "ratio": statistics.median(change) / statistics.median(parent),
                "parent_iqr": iqr,
                "change_won": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "pairs": len(parent),
            }
        summary[f"{workload}@seed{seed}"] = metrics
    return summary


def document(args, argv, shas: dict, recs: list[dict]) -> dict:
    return {
        "command": shlex.join(["python3", "tools/bench_pairs.py", *(argv or sys.argv[1:])]),
        "claim": args.claim,
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "order": "pair i runs the parent first when i is odd, the change first when i is even",
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": {v: os.environ.get(v, "unset") for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "loadavg_at_end": list(os.getloadavg()),
        },
        "summary": summarize(recs),
        "records": recs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--phase", action="append", required=True, help="WORKLOAD:SEED:SECONDS:PAIRS")
    parser.add_argument("--claim", default=None, help="the metric the change claims, recorded as given")
    args = parser.parse_args(argv)
    phases = [(p, *p.split(":")) for p in args.phase]
    recs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        trees = {side: Path(work) / side for side in ("parent", "change")}
        shas = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
        for phase, workload, seed, seconds, pairs in phases:
            for pair in range(1, int(pairs) + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    code, lines = run(trees[side], workload, seed, seconds)
                    got = records(phase, side, shas[side], pair, int(seed), code, lines)
                    recs.extend(got)
                    for r in got:
                        result = json.dumps(r["metrics"]) if "metrics" in r else f"no result, exit code {code}"
                        print(f"{workload} seed {seed} pair {pair} {side} {r['workload']}: {result}", file=sys.stderr)
                    Path(args.out).write_text(json.dumps(document(args, argv, shas, recs), indent=1) + "\n")
    return 0 if all(r["exit_code"] == 0 for r in recs) else 1


if __name__ == "__main__":
    sys.exit(main())
