"""The three training digests that a change to the training path must keep,
and the criterion-4 seed study.

    PYTHONPATH=src python3 tools/train_digest.py
    PYTHONPATH=src python3 tools/train_digest.py --seeds 7 --out seed_study.json

Prints, one per line:

* the sha256 of the checkpoint and of the ``.log.csv`` that CI's run,
  ``croprow train --stages 3..4:1 --steps 1500 --len 4 --seed 5``, writes;
* the sha256 of the criterion-4 stage-1 weights, every weight array then
  every bias array, from ``train_stage`` with the acceptance suite's own
  ``STAGE1_*`` settings (about 35 s on 2 vCPUs);
* the host: CPU count, Python and numpy versions, the BLAS thread variables
  and the load average.

With ``--seeds N`` it runs the criterion-4 stage instead, the same
``train_stage`` call and held-out ``evaluate(net, FieldSpec(5, 10), 500,
1234)`` as the acceptance suite, for seeds 1..N (about 40 s each on 2 vCPUs),
and writes one JSON file: per seed the success rate, the weight sha256 and
the training time; over the seeds the median, interquartile range (null below
two seeds), minimum and interquartile mean of the success rate, which
Agarwal et al. recommend for few-seed results (NeurIPS 2021); and the host.

Checkpoints are byte-identical across runs on one machine; another machine
may pick other BLAS kernels, so compare digests taken on the same host.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy

from croprow import cli
from croprow.dqn import CurriculumStage, evaluate, train_stage
from croprow.world import FieldSpec

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from test_acceptance import STAGE1_CONFIG, STAGE1_SEED, STAGE1_STEPS  # noqa: E402

CI_TRAIN = ["train", "--stages", "3..4:1", "--steps", "1500", "--len", "4", "--seed", "5"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ci_train() -> tuple[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "train.npz"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*CI_TRAIN, "--out", str(out)])
        if code != 0:
            raise SystemExit(f"croprow {' '.join(CI_TRAIN)} exited {code}")
        return sha256(out.read_bytes()), sha256(Path(f"{out}.log.csv").read_bytes())


def stage1(seed: int):
    stage = CurriculumStage(num_rows=5, steps=STAGE1_STEPS, corridor_len=10)
    net, _ = train_stage(stage, STAGE1_CONFIG, seed)
    return net, sha256(b"".join(array.tobytes() for array in (*net.weights, *net.biases)))


def host() -> str:
    blas = " ".join(
        f"{name}={os.environ.get(name, 'unset')}"
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    )
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return f"cpus={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} {blas} load={load}"


def seed_study(seeds: int, out: Path) -> None:
    records = []
    for seed in range(1, seeds + 1):
        t0 = time.perf_counter()
        net, weights = stage1(seed)
        train_s = time.perf_counter() - t0
        success = evaluate(net, FieldSpec(5, 10), episodes=500, seed=1234)
        records.append({"seed": seed, "success": success, "weights_sha256": weights, "train_s": round(train_s, 1)})
        print(f"seed {seed} success {success:.3f} weights {weights[:16]} train {train_s:.1f}s", flush=True)
    rates = sorted(r["success"] for r in records)
    cut = len(rates) // 4  # the interquartile mean drops a quarter at each end
    iqr = None  # a spread needs two seeds
    if len(rates) > 1:
        q1, _, q3 = statistics.quantiles(rates, n=4, method="inclusive")
        iqr = q3 - q1
    doc = {
        "command": f"PYTHONPATH=src python3 tools/train_digest.py --seeds {seeds} --out {out}",
        "what": f"train_stage(CurriculumStage(5, {STAGE1_STEPS}, 10), the criterion-4 TrainConfig {STAGE1_CONFIG}, "
                "seed), then evaluate(net, FieldSpec(5, 10), episodes=500, seed=1234); the sha256 runs over "
                "every weight then every bias array's bytes",
        "records": records,
        "success": {"median": statistics.median(rates), "iqr": iqr, "min": rates[0],
                    "iqm": statistics.mean(rates[cut:len(rates) - cut])},
        "host": host(),
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"median {doc['success']['median']:.3f} min {rates[0]:.3f} iqm {doc['success']['iqm']:.3f} -> {out}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=0, help="run the criterion-4 seed study for seeds 1..N")
    parser.add_argument("--out", type=Path, default=Path("seed_study.json"), help="the seed study's JSON file")
    args = parser.parse_args(argv)
    if args.seeds > 0:
        seed_study(args.seeds, args.out)
        return
    npz, log = ci_train()
    print(f"ci-train npz {npz}")
    print(f"ci-train log.csv {log}")
    print(f"criterion-4 stage-1 weights {stage1(STAGE1_SEED)[1]}")
    print(f"host {host()}")


if __name__ == "__main__":
    main()
