"""The benchmark's workloads, their pipeline configs and the pinned environment.

Every workload pins `workers = 1`. The stages are CPU-bound Python, which
threads only slow down: on a 2-core Xeon VM, synth-mqa-2k's `run_all` took
30.4 s with the default (0, one thread per core) and 19.7 s with one worker.
ROADMAP item 3 plans to remove the `workers` key: that change must keep it
as a no-op alias, or change this file first.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

EMBED_DIM = 256
DEV_SIZE = 100


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # run_all | run_eval
    task: str  # mqa | fever
    docs: int
    questions: int = 0
    http: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth-mqa-2k", "run_all", "mqa", docs=2000),
        Workload("eval-8k", "run_eval", "mqa", docs=8000, questions=3000),
        Workload("synth-fever-http", "run_all", "fever", docs=300, http=True),
    )
}


def make_config(workload: Workload, seed: int, workdir: Path, stub_url: Optional[str] = None):
    """The pipeline config of one run; `stub_url` switches to the HTTP clients."""
    from hopsynth.config import PipelineConfig

    config = PipelineConfig(task=workload.task, seed=seed, workers=1, dev_size=DEV_SIZE)
    config.embeddings.dim = EMBED_DIM
    if workload.entry == "run_eval":
        config.backend.mock_script = str(workdir / "script.json")
    if stub_url is not None:
        config.backend.kind = config.embeddings.kind = config.recognizer.kind = "http"
        config.backend.endpoint = config.embeddings.endpoint = stub_url
        config.recognizer.endpoint = stub_url
    return config


def pinned_env(root: Path) -> dict[str, str]:
    """The whole environment of every benchmark child process.

    `requests` scans os.environ for proxy settings on every call, so a large
    shell environment slows the HTTP clients; BLAS threads are pinned to one
    because the workloads are single-process and share two cores with the stub.
    PYTHONHASHSEED is left unset, so every process draws its own hash seed, as
    a user's does, and the repeat check sees output that depends on it.
    """
    return {
        "PATH": os.defpath,
        "LC_ALL": "C.UTF-8",
        "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")]),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
