#!/usr/bin/env python3
"""Regenerate reference.json: run_sequential's scores for every workload at seed 0.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the root of a checkout. Only a change that is meant to change the
scores should regenerate the file.
"""

import json
import shutil
import tempfile
from pathlib import Path

from edgevad.pipeline import PipelineConfig, run_sequential

import workloads
from run import REFERENCE, WORK

SEED = 0
ABS_TOL = 1e-5  # room for float32 summation order of another BLAS; scores lie in [0,1]


def main() -> None:
    WORK.mkdir(exist_ok=True)
    scores = {}
    for name in workloads.WORKLOADS:
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        try:
            cfg = workloads.make_config(name, SEED, workdir)
            scores[name] = [r.score for r in run_sequential(PipelineConfig(**cfg)).records]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(name, [round(s, 4) for s in scores[name]])
    REFERENCE.write_text(json.dumps({"seed": SEED, "abs_tol": ABS_TOL, "scores": scores}, indent=1) + "\n")


if __name__ == "__main__":
    main()
