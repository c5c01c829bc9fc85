#!/usr/bin/env python3
"""End-to-end estimation rehearsal on synthetic counts files.

Generates labeled counts files (in <out-dir>/counts) over the experimental
separation grid with a known attenuation/background imperfection baked in,
then runs the estimate subcommand twice: once against the bare model and once
with --calibrate.
Prints the fitted slope of estimate vs truth for both, which shows the
systematic deviation the calibration removes.
"""
import argparse
import sys
from pathlib import Path

import numpy as np

import bispade as bp
from bispade.cli import main as cli_main, write_counts_file


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out_estimation")
    parser.add_argument("--photons", type=int, default=37_000)
    parser.add_argument("--alpha", type=float, default=0.8)
    parser.add_argument("--beta", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=555)
    args = parser.parse_args(argv)

    model = bp.SchmidtModel.from_gamma(0.15)
    space = bp.ModeSpace.grid()
    imperfection = bp.CalibrationModel(
        alpha=np.full(space.shape, args.alpha), beta=np.full(space.shape, args.beta)
    )
    separations = np.arange(0.0, 1.35 + 0.02325, 0.0465)

    out_dir = Path(args.out_dir)
    data_dir = out_dir / "counts"
    data_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for i, d in enumerate(separations):
        matrix = bp.apply_calibration(
            bp.prob_matrix(float(d), space, model, renormalize=True), imperfection
        )
        counts = bp.sample_counts(matrix, args.photons, seed=bp.trial_seed(args.seed, i))
        files.append(
            str(write_counts_file(
                data_dir / f"counts_{i:02d}.csv", space, counts.counts, separation=float(d)
            ))
        )

    for label, extra in (("raw", []), ("calibrated", ["--calibrate"])):
        run_dir = out_dir / label
        rc = cli_main(["estimate", *files, "--gamma", "0.15", "--out-dir", str(run_dir), *extra])
        if rc != 0:
            return rc
        rows = [
            line.split(",")
            for line in (run_dir / "estimates.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("label")
        ]
        truth = np.array([float(r[0]) for r in rows])
        estimates = np.array([float(r[1]) for r in rows])
        slope, intercept = np.polyfit(truth, estimates, 1)
        print(f"{label:>10}: slope {slope:.4f}, intercept {intercept:+.4f}, "
              f"mean |residual| {np.mean(np.abs(estimates - truth)):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
