"""The three training digests that a change to the training path must keep.

    PYTHONPATH=src python3 tools/train_digest.py

Prints, one per line:

* the sha256 of the checkpoint and of the ``.log.csv`` that CI's run,
  ``croprow train --stages 3..4:1 --steps 1500 --len 4 --seed 5``, writes;
* the sha256 of the criterion-4 stage-1 weights, every weight array then
  every bias array, from ``train_stage`` with the acceptance suite's own
  ``STAGE1_*`` settings (about 35 s on 2 vCPUs);
* the host: CPU count, Python and numpy versions, the BLAS thread variables
  and the load average.

Checkpoints are byte-identical across runs on one machine; another machine
may pick other BLAS kernels, so compare digests taken on the same host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy

from croprow import cli
from croprow.dqn import CurriculumStage, train_stage

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


def stage1_weights() -> str:
    stage = CurriculumStage(num_rows=5, steps=STAGE1_STEPS, corridor_len=10)
    net, _ = train_stage(stage, STAGE1_CONFIG, STAGE1_SEED)
    return sha256(b"".join(array.tobytes() for array in (*net.weights, *net.biases)))


def host() -> str:
    blas = " ".join(
        f"{name}={os.environ.get(name, 'unset')}"
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    )
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return f"cpus={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} {blas} load={load}"


def main() -> None:
    npz, log = ci_train()
    print(f"ci-train npz {npz}")
    print(f"ci-train log.csv {log}")
    print(f"criterion-4 stage-1 weights {stage1_weights()}")
    print(f"host {host()}")


if __name__ == "__main__":
    main()
