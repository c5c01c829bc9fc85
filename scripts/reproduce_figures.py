#!/usr/bin/env python3
"""Regenerate the headline data products at the experimental settings.

Writes plot-ready CSV tables into --out-dir:
  crlb_curves.csv   precision bound and total FI vs Schmidt number
  matrix_*.csv      theory coincidence matrices over the 0..0.93 grid
  compare.csv       Monte-Carlo spade vs direct-imaging standard errors

The full run, with its comparison sweep of 30 separations x 3 methods x 200
trials at N = 37,000, takes about 0.9 s wall, process start included, on a
2-core x86 box with OPENBLAS_NUM_THREADS=1; pass --quick for a small
smoke-scale run.
"""
import argparse
import sys

from bispade.cli import main as cli_main


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--quick", action="store_true", help="small smoke-scale sweep")
    args = parser.parse_args(argv)

    common = ["--gamma", "0.15", "--out-dir", args.out_dir, "--seed", str(args.seed)]
    rc = cli_main(["crlb-curves", *common, "--k-values", "1,2,3,5,8,11.6,15,20,30,50"])
    rc |= cli_main(["matrices", *common])
    compare_args = ["compare", *common]
    if args.quick:
        compare_args += [
            "--photons", "4000", "--trials", "20",
            "--sep-start", "0.05", "--sep-stop", "1.0", "--sep-step", "0.2375",
        ]
    rc |= cli_main(compare_args)
    return rc


if __name__ == "__main__":
    sys.exit(run())
