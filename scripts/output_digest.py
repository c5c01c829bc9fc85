#!/usr/bin/env python3
"""Print a sha256 digest of every output of a fixed set of command-line runs.

Each run calls ``bispade.cli.main`` in-process with its own output directory
under one temporary directory. For every run the script prints one
``<run>/stdout``, ``<run>/stderr`` and ``<run>/exit`` line, and one
``<run>/<file>`` line per file the run wrote, each as ``name sha256``. The
temporary path is replaced by ``<tmp>`` before hashing, so two runs of the
script on the same program print the same lines.

To check that a change leaves every output byte-identical, run the script
against both source trees and diff the two listings:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/output_digest.py > new.txt
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<old checkout>/src python scripts/output_digest.py > old.txt
    diff old.txt new.txt
"""
import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

import bispade as bp
from bispade.cli import main as cli_main, write_counts_file

# the benchmark's two sweep settings: every fifth point of the default grid from 0.0465
_SWEEP = ["--modes-k", "6", "--modes-l", "0", "--photons", "37000", "--trials", "8",
          "--sep-start", "0.0465", "--sep-stop", "1.209", "--sep-step", "0.2325"]
_SEEDS = (1, 2, 3)


def _write_inputs(directory: Path) -> list[Path]:
    # labeled counts files like the benchmark's estimate inputs: d = 0.0465 k for
    # k = 1..29, an attenuation of 0.8 and a background of 0.01 baked in
    model = bp.SchmidtModel.from_gamma(0.15)
    space = bp.ModeSpace.grid()
    imperfection = bp.CalibrationModel(alpha=np.full(space.shape, 0.8),
                                       beta=np.full(space.shape, 0.01))
    directory.mkdir(parents=True)
    files = []
    for k in range(1, 30):
        d = 0.0465 * k
        matrix = bp.apply_calibration(bp.prob_matrix(d, space, model), imperfection)
        counts = bp.sample_counts(matrix, 37_000, seed=bp.trial_seed(2024, k))
        files.append(write_counts_file(directory / f"counts_{k:02d}.csv", space,
                                       counts.counts, separation=d))
    return files


def _runs(paths: list[Path], nan_label: Path) -> dict[str, list[str]]:
    # run name -> argv; every run but --help and --version gets its own --out-dir
    files = list(map(str, paths))
    runs = {"help": ["--help"], "version": ["--version"]}
    for command in ("crlb-curves", "matrices", "estimate", "compare"):
        runs[f"{command}-help"] = [command, "--help"]
    runs["crlb-curves"] = ["crlb-curves"]
    runs["crlb-curves-k-values"] = ["crlb-curves", "--k-values", "1,2,11.6,50"]
    runs["matrices"] = ["matrices"]
    runs["matrices-l1"] = ["matrices", "--modes-k", "2", "--modes-l", "1", "--gamma", "0.3"]
    runs["estimate"] = ["estimate", *files, "--gamma", "0.15"]
    runs["estimate-calibrate"] = ["estimate", *files, "--calibrate", "--gamma", "0.15"]
    runs["estimate-space-mismatch"] = ["estimate", files[0], "--modes-l", "1"]
    for name, gamma in (("sweep_k12", "0.15"), ("sweep_k51", "0.07")):
        for seed in _SEEDS:
            runs[f"compare-{name}-seed{seed}"] = ["compare", "--gamma", gamma, *_SWEEP,
                                                  "--seed", str(seed)]
    runs["compare-default"] = ["compare"]
    errors = {
        "bad-gamma": ["compare", "--gamma", "-1"],
        "calibrate-on-compare": ["compare", "--calibrate"],
        "fractional-photons": ["compare", "--photons", "1.5"],
        "infinite-k-value": ["crlb-curves", "--k-values", "1,inf"],
        "infinite-sep-stop": ["compare", "--sep-stop", "inf"],
        "nan-sep-start": ["compare", "--sep-start", "nan"],
        "infinite-sep-step": ["matrices", "--sep-step", "inf"],
        "too-many-separations": ["matrices", "--sep-stop", "1e300"],
        "negative-seed": ["compare", "--seed", "-1"],
        "infinite-pump-waist": ["crlb-curves", "--pump-waist-um", "inf",
                                "--crystal-length-mm", "2", "--pump-wavelength-nm", "405"],
        "nan-separation-label": ["estimate", str(nan_label), "--calibrate"],
        "estimate-numerical": ["estimate", files[0], "--gamma", "1e-7"],
    }
    runs.update({f"error-{name}": argv for name, argv in errors.items()})
    return runs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_lines() -> list[str]:
    """The `name sha256` lines of every run, in a fixed order."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        def clean(text: str) -> str:
            return text.replace(str(root), "<tmp>")

        inputs = _write_inputs(root / "inputs")
        for path in inputs:
            lines.append(f"inputs/{path.name} {_sha(clean(path.read_text()))}")
        # the first input labelled nan; derived from a listed input, it gets no line
        nan_label = root / "nan_label.csv"
        nan_label.write_text(re.sub(r"^# separation = .*$", "# separation = nan",
                                    inputs[0].read_text(), flags=re.MULTILINE))
        # argparse wraps help to the terminal width it reads from COLUMNS
        with mock.patch.dict(os.environ, COLUMNS="80"):
            for name, argv in _runs(inputs, nan_label).items():
                out_dir = root / name
                stdout, stderr = io.StringIO(), io.StringIO()
                if argv[-1] not in ("--help", "--version"):
                    argv = [*argv, "--out-dir", str(out_dir)]
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli_main(argv)
                lines.append(f"{name}/stdout {_sha(clean(stdout.getvalue()))}")
                lines.append(f"{name}/stderr {_sha(clean(stderr.getvalue()))}")
                lines.append(f"{name}/exit {_sha(str(code))}")
                if out_dir.is_dir():
                    for path in sorted(out_dir.iterdir()):
                        lines.append(f"{name}/{path.name} {_sha(clean(path.read_text()))}")
    return lines


def run(argv=None):
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    print("\n".join(digest_lines()))
    return 0


if __name__ == "__main__":
    sys.exit(run())
