"""Write truth.json: the probabilities and bounds the accuracy of every run is judged by.

Run from the repository root:  python3 perfbench/make_truth.py

The values are computed once by the bispade source tree next to this
directory and stored. A run draws the estimate_cal counts files from the
stored probabilities and divides errors by the stored bound, so a later change
that makes the forward map wrong cannot move the inputs, the estimator and the
yardstick together: it shows up as a higher err_over_crlb. The benchmark's
tests check that the stored values still match the program.

Per workload the file holds, for each separation:
  sd             sqrt(CRLB) on delta of the measurement the workload configures,
                 from fisher_numeric on the spade forward map (with the
                 estimate_cal files' affine imperfection composed in); this is
                 the bound of that measurement, not the ideal 2/(N sqrt(K))
  probabilities  estimate_cal only: the renormalized prob_matrix entries,
                 before the imperfection is applied
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import workloads as wl  # noqa: E402


def compute(workload: wl.Workload, bp, np) -> dict:
    """The stored values of one workload, from the program as it is now."""
    model = bp.SchmidtModel.from_gamma(workload.gamma)
    forward = bp.spade_forward(model, bp.ModeSpace.grid(wl.MODES_K, wl.MODES_L))

    def measured(d):
        p = workload.alpha * np.asarray(forward(d)) + workload.beta
        return p / p.sum()

    entry = {
        "grid_points": list(workload.grid_points),
        "sd": [1.0 / math.sqrt(wl.PHOTONS * bp.fisher_numeric(measured, d).total)
               for d in workload.separations],
    }
    if workload.command == "estimate":
        entry["probabilities"] = [np.asarray(forward(d)).tolist() for d in workload.separations]
    return entry


def main() -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np

    import bispade as bp

    truth = {
        "src_sha256": wl.src_digest(SRC),
        "workloads": {name: compute(w, bp, np) for name, w in wl.WORKLOADS.items()},
    }
    wl.TRUTH_PATH.write_text(json.dumps(truth) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
