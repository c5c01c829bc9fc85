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
# derived files the reader rejects, each an error-counts-<name> run
READER_ERRORS = ("duplicate", "negative", "outside", "missing", "non_integer", "four_columns",
                 "count_2_63", "sum_past_2_53")
# config files, each written as <name>.cfg for a --config run
CONFIGS = {"calibrate_no": "calibrate = no\n", "no_equals": "gamma = 0.15\nphotons 500\n"}


def _write_inputs(directory: Path) -> tuple[list[Path], list[Path]]:
    # labeled counts files like the benchmark's estimate inputs: d = 0.0465 k for
    # k = 1..29, an attenuation of 0.8 and a background of 0.01 baked in; and eight
    # more drawn the same way at d = 0, some of whose calibrated fits stop at 0
    model = bp.SchmidtModel.from_gamma(0.15)
    space = bp.ModeSpace.grid()
    imperfection = bp.CalibrationModel(alpha=np.full(space.shape, 0.8),
                                       beta=np.full(space.shape, 0.01))
    directory.mkdir(parents=True)

    def draw(name: str, d: float, seed: int) -> Path:
        matrix = bp.apply_calibration(bp.prob_matrix(d, space, model), imperfection)
        counts = bp.sample_counts(matrix, 37_000, seed=seed)
        return write_counts_file(directory / name, space, counts.counts, separation=d)

    files = [draw(f"counts_{k:02d}.csv", 0.0465 * k, bp.trial_seed(2024, k)) for k in range(1, 30)]
    zeros = [draw(f"zero_{j}.csv", 0.0, bp.trial_seed(2025, j)) for j in range(8)]
    return files, zeros


def _derived(text: str) -> dict[str, str]:
    # counts files made from the text of an input: a hand-edited file and a
    # copy with its rows reversed, both of which the reader accepts, and one
    # file per reader error
    label, columns, *rows = text.splitlines()

    def with_count(row: str, count) -> str:
        return f"{row.rsplit(',', 1)[0]},{count}"

    edited = [" " + " , ".join(row.split(",")) + " " for row in rows]
    edited[0] = with_count(rows[0], "+" + rows[0].rsplit(",", 1)[1])
    edited[10:10] = ["", "# a note between rows", ""]
    bodies = {
        "hand_edited": edited,
        "reordered": rows[::-1],
        "duplicate": rows[:1] + rows[:1] + rows[2:],
        "negative": [with_count(rows[0], -5)] + rows[1:],
        "outside": rows[:-1] + ["7,0,0,0,3"],
        "missing": rows[:17] + rows[18:],
        "non_integer": [with_count(rows[0], "x")] + rows[1:],
        "four_columns": [rows[0].rsplit(",", 1)[0]] + rows[1:],
        "count_2_63": [with_count(rows[0], 2**63)] + rows[1:],
        "sum_past_2_53": [with_count(row, 2**62) for row in rows],
    }
    derived = {name: "\n".join([label, columns, *body]) + "\n" for name, body in bodies.items()}
    for name, label in (("nan_label", "nan"), ("abc_label", "abc")):
        derived[name] = re.sub(r"^# separation = .*$", f"# separation = {label}", text,
                               flags=re.MULTILINE)
    return derived


def _runs(paths: list[Path], zeros: list[Path],
          derived: dict[str, Path]) -> dict[str, list[str]]:
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
    runs["estimate-calibrate-zero"] = ["estimate", *files, *map(str, zeros), "--calibrate",
                                       "--gamma", "0.15"]
    runs["estimate-space-mismatch"] = ["estimate", files[0], "--modes-l", "1"]
    runs["estimate-hand-edited"] = ["estimate", *files, str(derived["hand_edited"]),
                                    "--gamma", "0.15"]
    runs["estimate-reordered"] = ["estimate", *files, str(derived["reordered"]),
                                  "--gamma", "0.15"]
    runs["estimate-config-calibrate-no"] = ["estimate", *files[:3], "--config",
                                            str(derived["calibrate_no"])]
    for name, gamma in (("sweep_k12", "0.15"), ("sweep_k51", "0.07")):
        for seed in _SEEDS:
            runs[f"compare-{name}-seed{seed}"] = ["compare", "--gamma", gamma, *_SWEEP,
                                                  "--seed", str(seed)]
    # the first sweep again, on the forward maps the runs above left in the process
    runs["compare-sweep_k12-seed1-again"] = runs["compare-sweep_k12-seed1"]
    # a seed of four 32-bit words: each cell master hashes a 6-word entropy,
    # whose words past SeedSequence's 4-word pool are mixed into all four
    runs["compare-seed-2-96"] = ["compare", *_SWEEP, "--seed", str(2**96 + 1)]
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
        "nan-separation-label": ["estimate", str(derived["nan_label"]), "--calibrate"],
        "calibrate-one-separation": ["estimate", files[0], files[0], "--calibrate"],
        "separation-past-the-search": ["compare", "--sep-start", "3", "--sep-stop", "3"],
        "abc-separation-label": ["estimate", str(derived["abc_label"])],
        "unreadable-counts": ["estimate", str(derived["unreadable"])],
        "negative-modes-k": ["matrices", "--modes-k", "-1"],
        "zero-sep-step": ["matrices", "--sep-step", "0"],
        "one-trial": ["compare", "--trials", "1"],
        "sep-stop-below-start": ["matrices", "--sep-start", "0.5", "--sep-stop", "0.1"],
        "negative-sep-start": ["compare", "--sep-start", "-0.3", "--sep-stop", "-0.3"],
        "config-line-without-equals": ["matrices", "--config", str(derived["no_equals"])],
        "estimate-numerical": ["estimate", files[0], "--gamma", "1e-7"],
        # its out-dir holds a directory named compare.csv (made in digest_lines)
        "output-is-a-directory": ["compare", *_SWEEP],
        # its out-dir holds a directory named matrix_03.csv, the fourth of five tables
        "write-fails-part-way": ["matrices"],
        **{f"counts-{name.replace('_', '-')}": ["estimate", str(derived[name])]
           for name in READER_ERRORS},
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

        inputs, zeros = _write_inputs(root / "inputs")
        for path in inputs + zeros:
            lines.append(f"inputs/{path.name} {_sha(clean(path.read_text()))}")
        # files made from the first input, and the config files; made from listed
        # text, they get no line. The unreadable counts file is never written.
        derived = {"unreadable": root / "unreadable.csv"}
        for name, text in _derived(inputs[0].read_text()).items():
            derived[name] = root / f"{name}.csv"
            derived[name].write_text(text)
        for name, text in CONFIGS.items():
            derived[name] = root / f"{name}.cfg"
            derived[name].write_text(text)
        (root / "error-output-is-a-directory" / "compare.csv").mkdir(parents=True)
        (root / "error-write-fails-part-way" / "matrix_03.csv").mkdir(parents=True)
        # argparse wraps help to the terminal width it reads from COLUMNS
        with mock.patch.dict(os.environ, COLUMNS="80"):
            for name, argv in _runs(inputs, zeros, derived).items():
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
                    for path in sorted(filter(Path.is_file, out_dir.iterdir())):
                        lines.append(f"{name}/{path.name} {_sha(clean(path.read_text()))}")
    return lines


def run(argv=None):
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    print("\n".join(digest_lines()))
    return 0


if __name__ == "__main__":
    sys.exit(run())
