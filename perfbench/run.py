"""Run one croprow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload optimality-65 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src/`` and
exits 2 without a result when that is missing.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The line before it records the
environment, the per-workload metrics under their own names and the first
failures.  The exit code is 1 when any output check failed.
"""

from __future__ import annotations

import time

PROCESS_START_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from host import REFERENCE_NS, HostSpeed  # noqa: E402
from layers import PER_LAYER, per_layer  # noqa: E402
from spans import Tracer  # noqa: E402
from stats import median, tail  # noqa: E402
from workloads import Cli, Planning, Training, timed_since, trace_targets, untraced  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROGRAM = ("world", "planners", "bench", "waypoints", "dqn", "cli")
SETUP_REPEATS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_us": "us", "latency_tail_us": "us"}

# Instance pools hold several times what one run visits, so that no
# instance repeats within a run and goal reuse stays a property of the field.
# Each tail window sits near the top of the sample counts for which the tail
# rule picks the same percentile (p99 for 1000-1999 samples, p95 for 200-999,
# p90 for 100-199), so the tail keeps about 19 samples beyond it and a run
# slower or faster than the one that set the window reports the same
# percentile.
WORKLOADS = {
    "optimality-65": lambda: Planning("optimality-65", 65, pool=16_000, tail_window=1900),
    "wide-1000": lambda: Planning("wide-1000", 1000, pool=2_000, tail_window=190),
    "train-5": Training,
    "cli-65": lambda: Cli(pool=8_000, tail_window=900, work_dir=ROOT / ".perfbench_tmp" / f"cli-65-{os.getpid()}"),
}


class ProgramMissing(Exception):
    pass


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, count: int, messages) -> None:
        self.failed += count
        self.failures.extend(messages)


def import_program() -> SimpleNamespace:
    """Import croprow afresh from ``src/``, so each set-up pays for it."""
    for name in [n for n in sys.modules if n == "croprow" or n.startswith("croprow.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        mods = SimpleNamespace(**{n: importlib.import_module(f"croprow.{n}") for n in PROGRAM})
    except ImportError as exc:
        raise ProgramMissing(f"cannot import croprow from {SRC}: {exc}") from exc
    if SRC not in Path(mods.world.__file__).resolve().parents:
        raise ProgramMissing(f"croprow came from {mods.world.__file__}, not {SRC}")
    return mods


def set_up(name: str, seed: int, host: HostSpeed):
    """Set the workload up SETUP_REPEATS times; the first sample runs from
    process start, the others re-import the package and rebuild the inputs.
    The host speed is sampled after each, outside the timed interval."""
    samples = []
    for i in range(SETUP_REPEATS):
        t0 = PROCESS_START_NS if i == 0 else perf_counter_ns()
        mods = import_program()
        workload = WORKLOADS[name]()
        workload.setup(mods, seed)
        samples.append(timed_since(t0))
        host.sample(force=True)
        if i < SETUP_REPEATS - 1:
            workload.close()
    return mods, workload, samples


def run_once(workload, key, op, tracer, host: HostSpeed, tally: Tally, signatures: dict):
    """Execute and check one operation; any exception or mismatch is a
    counted failure, never the end of the run."""
    tally.attempted += workload.units
    wall = 0
    try:
        if tracer is None:
            ex = workload.execute(op, untraced, host.sample)
        else:
            tracer.op += 1
            with tracer.installed():
                t0 = perf_counter_ns()
                probe = tracer.wrap("harness.host_probe", host.sample)
                ex = tracer.wrap("harness.op", workload.execute)(op, tracer.wrap, probe)
                wall = perf_counter_ns() - t0
        problems = workload.check(op, ex)
    except Exception as exc:  # noqa: BLE001 - the harness outlives a failing program
        tally.fail(workload.units, [f"{workload.name} op {key}: {type(exc).__name__}: {exc}"])
        return None, 0
    if key in signatures and signatures[key] != ex.signature:
        problems.append(("repeat", f"{workload.name} op {key}: output differs from its earlier run"))
    signatures.setdefault(key, ex.signature)
    labels = {label for label, _ in problems}
    ex.ok = not labels
    tally.fail(min(len(labels), workload.units), [msg for _, msg in problems])
    return ex, wall


def measure(workload, seconds: float, tracer: Tracer | None, host: HostSpeed):
    """Closed loop until the deadline.  Traced, each operation runs twice,
    untraced and traced in alternating order, for the tracing overhead."""
    tally = Tally()
    runs = {False: [], True: []}
    signatures: dict = {}
    traced_wall = 0
    goals: set = set()
    visits = reused = 0
    deadline = time.perf_counter() + seconds
    for index, (key, op) in enumerate(workload.ops()):
        if time.perf_counter() >= deadline:
            break
        host.sample()
        modes = (False,) if tracer is None else ((False, True) if index % 2 == 0 else (True, False))
        for traced in modes:
            ex, wall = run_once(workload, key, op, tracer if traced else None, host, tally, signatures)
            traced_wall += wall
            if ex is not None:
                runs[traced].append(ex)
        goal = ex.facts.get("goal") if ex is not None else None
        if goal is not None:
            visits += 1
            reused += goal in goals
            goals.add(goal)
    host.sample(force=True)
    workload.close()
    return tally, runs[False], runs[True], traced_wall, (reused / visits if visits else 0.0)


def end_to_end(workload, execs, setup_samples, norm):
    """The BENCHMARK.json end-to-end metrics and the workload's own named
    ones; ``norm`` maps a Timed to the nanoseconds reported for it."""
    ok = [ex for ex in execs if ex.ok]
    work_ns = sum(norm(ex.work_time) for ex in ok)
    latency = [norm(t) for ex in ok for t in ex.latency]
    e2e = {
        "setup_s": median([norm(t) for t in setup_samples]) / 1e9,
        "throughput_per_s": sum(ex.work for ex in ok) / (work_ns / 1e9) if work_ns else 0.0,
        "latency_p50_us": median(latency) / 1e3 if latency else 0.0,
        "latency_tail_us": tail(latency[: workload.tail_window]).value / 1e3 if latency else 0.0,
    }
    named = workload.named(ok, e2e, norm) if ok else {}
    return {k: (v, END_TO_END[k]) for k, v in e2e.items()}, named


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, trace: int) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_VARS},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": seed,
        "traced": bool(trace),
    }


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_workload(args) -> int:
    env = environment(args.seed, args.trace)
    host = HostSpeed()
    try:
        mods, workload, setup_samples = set_up(args.workload, args.seed, host)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        trace_targets(tracer, mods)
    t0 = time.perf_counter()
    tally, untraced_runs, traced_runs, traced_wall, goal_reuse = measure(workload, args.seconds, tracer, host)
    measured_s = time.perf_counter() - t0
    detail = {}
    if tracer is None:
        metrics, named = end_to_end(workload, untraced_runs, setup_samples, host.norm)
        raw, _ = end_to_end(workload, untraced_runs, setup_samples, lambda t: t.value)
        detail["raw_metrics"] = as_json(raw)
        complete = bool(untraced_runs) and all(v > 0 for v, _ in metrics.values())
    else:
        values, named, problems = per_layer(
            tracer.spans, traced_runs, untraced_runs, goal_reuse, traced_wall, host.factor
        )
        tally.fail(len(problems), [msg for _, msg in problems])
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
        complete = bool(traced_runs)
    env["loadavg_after"] = list(os.getloadavg())
    ns = host.kernel_ns
    env["host_kernel_ns"] = {
        "median": median(ns), "min": min(ns), "max": max(ns), "samples": len(ns), "reference": REFERENCE_NS,
    }
    detail.update({
        "workload": args.workload,
        "environment": env,
        "run_seconds": args.seconds,
        "measured_s": measured_s,
        "setup_samples_s": [t.value / 1e9 for t in setup_samples],
        "failed_frac": tally.failed / tally.attempted if tally.attempted else 1.0,
        "named": as_json(named),
        "failures": tally.failures[:10],
    })
    correct = complete and tally.failed == 0 and tally.attempted > 0
    for name, (value, unit) in {**metrics, **named}.items():
        print(f"{args.workload:>14} {name:<34} {value:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": as_json(metrics),
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    attempted = failed = 0
    metrics = {}
    correct = True
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{metric}": v for metric, v in result["metrics"].items()})
        print(lines[-2])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
