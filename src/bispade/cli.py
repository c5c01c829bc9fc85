"""Command-line front end.

Subcommands: crlb-curves, matrices, estimate, compare. Every run is
deterministic given (config, seed) and writes comma-separated tables with a
'#'-prefixed metadata header. Exit codes: 0 success, 1 usage/config error,
2 data-format error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalError
from .inference import (
    METHODS,
    CountMatrix,
    _fit,
    _GridTable,
    _mc_cell,
    crlb,
    direct_forward,
    fit_calibration,
    spade_forward,
)
from .model import ModeSpace, PixelGrid, prob_matrix
from .source import SchmidtModel, SourceParams, gamma_from_physical, schmidt_number

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULT_GAMMA = 0.15
DEFAULT_BOUNDS = (0.0, 2.0)
CONVENTION = "per-arm shift d; delta = 2*d is the total separation; FI/CRLB about delta"

_PHYSICAL_KEYS = ("pump_waist_um", "crystal_length_mm", "pump_wavelength_nm")


class DataFormatError(Exception):
    """Counts-file contents violate the expected format."""


@dataclass
class RunConfig:
    """Flat run settings; file values are overridden by command-line flags."""

    gamma: float | None = None
    pump_waist_um: float | None = None
    crystal_length_mm: float | None = None
    pump_wavelength_nm: float | None = None
    schmidt_waist_um: float | None = None
    modes_k: int = 6
    modes_l: int = 0
    sep_start: float | None = None
    sep_stop: float | None = None
    sep_step: float | None = None
    photons: int = 37000
    trials: int = 200
    seed: int = 0
    calibrate: bool = False
    out_dir: str = "."
    k_values: tuple[float, ...] | None = None

    def validate(self) -> None:
        physical = [getattr(self, key) for key in _PHYSICAL_KEYS]
        given = [v is not None for v in physical]
        if any(given) and not all(given):
            raise ValueError(
                "physical source parameters require all of "
                + ", ".join(_PHYSICAL_KEYS)
            )
        if self.gamma is not None and any(given):
            raise ValueError("give either gamma or the physical source parameters, not both")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.modes_k < 0 or self.modes_l < 0:
            raise ValueError("mode indices must be non-negative")
        if self.sep_step is not None and not self.sep_step > 0:
            raise ValueError("sep-step must be positive")
        if self.photons < 1:
            raise ValueError("photons must be at least 1")
        if self.trials < 2:
            raise ValueError("trials must be at least 2")
        if self.k_values is not None and any(k < 1.0 for k in self.k_values):
            raise ValueError("k_values must all be >= 1")

    def resolved_gamma(self) -> float:
        if self.gamma is not None:
            return float(self.gamma)
        if self.pump_waist_um is not None:
            params = SourceParams(
                pump_waist=self.pump_waist_um * 1e-6,
                crystal_length=self.crystal_length_mm * 1e-3,
                pump_wavelength=self.pump_wavelength_nm * 1e-9,
                schmidt_waist=(
                    self.schmidt_waist_um * 1e-6 if self.schmidt_waist_um is not None else None
                ),
            )
            return gamma_from_physical(params)
        return DEFAULT_GAMMA

    def mode_space(self) -> ModeSpace:
        return ModeSpace.grid(self.modes_k, self.modes_l)

    def separations(self, start: float, stop: float, step: float) -> np.ndarray:
        if self.sep_start is not None:
            start = self.sep_start
        if self.sep_stop is not None:
            stop = self.sep_stop
        if self.sep_step is not None:
            step = self.sep_step
        if stop < start:
            raise ValueError("sep-stop must be >= sep-start")
        return np.arange(start, stop + 0.5 * step, step)


def _parse_value(key: str, text: str):
    text = text.strip()
    if key in ("modes_k", "modes_l", "photons", "trials", "seed"):
        return int(text)
    if key == "calibrate":
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean {text!r} for key {key}")
    if key == "out_dir":
        return text
    if key == "k_values":
        return tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())
    return float(text)


def load_config_file(path: str | Path) -> dict:
    """Parse a flat key = value config file; '#' starts a comment."""
    known = {f.name for f in fields(RunConfig)}
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _parse_value(key, value)
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            setattr(cfg, key, value)
    for field_def in fields(RunConfig):
        flag_value = getattr(args, field_def.name, None)
        if flag_value is not None and flag_value is not False:
            setattr(cfg, field_def.name, flag_value)
    cfg.validate()
    return cfg


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _header_lines(cfg: RunConfig, command: str, **extra) -> list[str]:
    gamma = cfg.resolved_gamma()
    lines = [
        f"# artifact_version = {__version__}",
        f"# command = {command}",
        f"# gamma = {_fmt(gamma)}",
        f"# schmidt_number = {_fmt(schmidt_number(gamma))}",
        f"# separation_convention = {CONVENTION}",
    ]
    lines.extend(f"# {key} = {value}" for key, value in extra.items())
    return lines


def _write_table(path: Path, header: list[str], columns: str, rows: list[str]) -> None:
    text = "\n".join(header + [columns] + rows) + "\n"
    path.write_text(text, newline="\n")


def write_counts_file(
    path: str | Path,
    space: ModeSpace,
    counts: np.ndarray,
    separation: float | None = None,
    meta: dict | None = None,
) -> Path:
    """Long-format counts file: one (idler, signal) mode tuple per row."""
    path = Path(path)
    counts = np.asarray(counts)
    if counts.shape != space.shape:
        raise ValueError("counts shape does not match the mode space")
    lines = []
    if separation is not None:
        lines.append(f"# separation = {_fmt(separation)}")
    for key, value in (meta or {}).items():
        lines.append(f"# {key} = {value}")
    lines.append("k_idler,l_idler,k_signal,l_signal,count")
    for i, (k, l) in enumerate(space.idler):
        for j, (kp, lp) in enumerate(space.signal):
            lines.append(f"{k},{l},{kp},{lp},{int(counts[i, j])}")
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def read_counts_file(path: str | Path) -> CountMatrix:
    """Parse a long-format counts file into a CountMatrix over its own mode space."""
    path = Path(path)
    separation: float | None = None
    meta: dict = {}
    records: dict[tuple, int] = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read file ({exc})") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, value = (part.strip() for part in body.split("=", 1))
                if key == "separation":
                    try:
                        separation = float(value)
                    except ValueError as exc:
                        raise DataFormatError(
                            f"{path}:{lineno}: bad separation value {value!r}"
                        ) from exc
                else:
                    meta[key] = value
            continue
        tokens = [tok.strip() for tok in line.split(",")]
        if tokens and tokens[0] == "k_idler":
            continue
        if len(tokens) != 5:
            raise DataFormatError(f"{path}:{lineno}: expected 5 columns, got {len(tokens)}")
        try:
            k, l, kp, lp = (int(tok) for tok in tokens[:4])
            count = int(tokens[4])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: non-integer field in {line!r}") from exc
        if min(k, l, kp, lp) < 0 or count < 0:
            raise DataFormatError(f"{path}:{lineno}: negative index or count")
        key = (k, l, kp, lp)
        if key in records:
            raise DataFormatError(f"{path}:{lineno}: duplicate mode tuple {key}")
        records[key] = count
    if not records:
        raise DataFormatError(f"{path}: no count rows found")
    idler = sorted({(k, l) for k, l, _, _ in records}, key=lambda p: (p[1], p[0]))
    signal = sorted({(kp, lp) for _, _, kp, lp in records}, key=lambda p: (p[1], p[0]))
    if len(records) != len(idler) * len(signal):
        raise DataFormatError(f"{path}: rows do not cover the full idler x signal product")
    counts = np.zeros((len(idler), len(signal)), dtype=np.int64)
    for (k, l, kp, lp), count in records.items():
        counts[idler.index((k, l)), signal.index((kp, lp))] = count
    space = ModeSpace(idler=tuple(idler), signal=tuple(signal))
    meta["space"] = space
    meta["path"] = str(path)
    return CountMatrix(
        counts=counts, total=int(counts.sum()), separation=separation, meta=meta
    )


def cmd_crlb_curves(cfg: RunConfig) -> Path:
    """Table of (K, per-photon CRLB, total FI) rows over a Schmidt-number sweep."""
    k_values = cfg.k_values if cfg.k_values is not None else tuple(np.arange(1.0, 20.01, 0.5))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        f"{_fmt(k)},{_fmt(crlb(k, 1))},{_fmt(math.sqrt(k) / 2.0)}"
        for k in k_values
    ]
    path = out_dir / "crlb_curves.csv"
    _write_table(
        path,
        _header_lines(cfg, "crlb-curves", k_count=len(rows)),
        "K,crlb_per_photon,total_fi",
        rows,
    )
    return path


def cmd_matrices(cfg: RunConfig) -> list[Path]:
    """One renormalized probability-matrix file per separation on the grid."""
    seps = cfg.separations(0.0, 0.93, 0.93 / 4.0)
    model = SchmidtModel.from_gamma(cfg.resolved_gamma())
    space = cfg.mode_space()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, d in enumerate(seps):
        pm = prob_matrix(float(d), space, model, renormalize=True)
        rows = []
        for i, (k, l) in enumerate(space.idler):
            for j, (kp, lp) in enumerate(space.signal):
                rows.append(f"{k},{l},{kp},{lp},{_fmt(pm.entries[i, j])}")
        path = out_dir / f"matrix_{index:02d}.csv"
        _write_table(
            path,
            _header_lines(
                cfg,
                "matrices",
                separation_d=_fmt(d),
                separation_delta=_fmt(2.0 * d),
                modes_k=cfg.modes_k,
                modes_l=cfg.modes_l,
                in_space_mass=_fmt(pm.in_space_mass),
            ),
            "k_idler,l_idler,k_signal,l_signal,probability",
            rows,
        )
        paths.append(path)
    return paths


def cmd_estimate(cfg: RunConfig, files: list[str]) -> Path:
    """Maximum-likelihood estimates per counts file, optionally after calibration."""
    if not files:
        raise ValueError("estimate needs at least one counts file")
    space = cfg.mode_space()
    model = SchmidtModel.from_gamma(cfg.resolved_gamma())
    forward = spade_forward(model, space)
    expected_idler = set(space.idler)
    expected_signal = set(space.signal)
    datasets = []
    for name in files:
        cm = read_counts_file(name)
        file_space: ModeSpace = cm.meta["space"]
        if set(file_space.idler) != expected_idler or set(file_space.signal) != expected_signal:
            raise DataFormatError(
                f"{name}: mode tuples do not match the configured "
                f"{len(space.idler)}x{len(space.signal)} space (modes_k={cfg.modes_k}, "
                f"modes_l={cfg.modes_l})"
            )
        datasets.append((name, cm))
    calibration = None
    if cfg.calibrate:
        labeled = [(cm.separation, cm) for _, cm in datasets if cm.separation is not None]
        if len(labeled) != len(datasets):
            missing = [name for name, cm in datasets if cm.separation is None]
            raise DataFormatError(
                "calibration needs a '# separation = <value>' label in every file; "
                f"missing in: {', '.join(missing)}"
            )
        calibration = fit_calibration(labeled, forward)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = ["" if cm.separation is None else _fmt(cm.separation) for _, cm in datasets]
    crlbs = [crlb(model.schmidt_number, cm.total) for _, cm in datasets]
    obs = np.stack([cm.counts.ravel() for _, cm in datasets]).astype(float)
    try:
        fits = _fit(obs, forward, _GridTable.build(forward, calibration, DEFAULT_BOUNDS))
    except NumericalError as exc:
        rows = [f"{label},nan,nan,nan,nan,error:{exc}" for label in labels]
    else:
        rows = [
            f"{label},{_fmt(d_hat)},{_fmt(2.0 * d_hat)},{_fmt(loglik)},{_fmt(bound)},"
            + (";".join(fits.flags(i)) or "ok")
            for i, (label, d_hat, loglik, bound) in enumerate(
                zip(labels, fits.d_hat, fits.log_likelihood, crlbs)
            )
        ]
    path = out_dir / "estimates.csv"
    _write_table(
        path,
        _header_lines(
            cfg,
            "estimate",
            calibrate=cfg.calibrate,
            files=len(datasets),
            modes_k=cfg.modes_k,
            modes_l=cfg.modes_l,
        ),
        "label,d_hat,delta_hat,log_likelihood,crlb,flags",
        rows,
    )
    return path


def cmd_compare(cfg: RunConfig) -> Path:
    """Monte-Carlo standard errors for spade vs direct imaging over the grid."""
    seps = cfg.separations(0.0, 1.35, 0.0465)
    model = SchmidtModel.from_gamma(cfg.resolved_gamma())
    space = cfg.mode_space()
    grid = PixelGrid()
    forwards = {
        "spade": spade_forward(model, space),
        "direct_gaussian": direct_forward(model, grid, "gaussian"),
        "direct_spdc": direct_forward(model, grid, "spdc"),
    }
    tables = {
        method: _GridTable.build(forward, None, DEFAULT_BOUNDS)
        for method, forward in forwards.items()
    }
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for sep_index, d in enumerate(seps):
        for method_index, method in enumerate(METHODS):
            cell_seed = int(
                np.random.SeedSequence((cfg.seed, method_index, sep_index)).generate_state(1)[0]
            )
            result = _mc_cell(
                method, model, cfg.photons, float(d), cfg.trials, cell_seed,
                forwards[method], tables[method],
            )
            rows.append(
                f"{_fmt(d)},{_fmt(2.0 * d)},{method},{_fmt(result.std_err)},"
                f"{_fmt(result.mean)},{_fmt(result.boundary_fraction)}"
            )
    path = out_dir / "compare.csv"
    _write_table(
        path,
        _header_lines(
            cfg,
            "compare",
            photons=cfg.photons,
            trials=cfg.trials,
            seed=cfg.seed,
            modes_k=cfg.modes_k,
            modes_l=cfg.modes_l,
            projections=len(space.idler) * len(space.signal),
            pixel_count=grid.count,
            pixel_span=f"[{_fmt(grid.span[0])}, {_fmt(grid.span[1])}]",
            estimates_parameter="delta = 2*d",
        ),
        "d,delta,method,std_err,mean,boundary_fraction",
        rows,
    )
    return path


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; this artifact reserves 2 for
    # data-format problems, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file; flags win")
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--pump-waist-um", dest="pump_waist_um", type=float, default=None)
    parser.add_argument("--crystal-length-mm", dest="crystal_length_mm", type=float, default=None)
    parser.add_argument(
        "--pump-wavelength-nm", dest="pump_wavelength_nm", type=float, default=None
    )
    parser.add_argument("--modes-k", dest="modes_k", type=int, default=None)
    parser.add_argument("--modes-l", dest="modes_l", type=int, default=None)
    parser.add_argument("--sep-start", dest="sep_start", type=float, default=None)
    parser.add_argument("--sep-stop", dest="sep_stop", type=float, default=None)
    parser.add_argument("--sep-step", dest="sep_step", type=float, default=None)
    parser.add_argument("--photons", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", dest="out_dir", default=None)


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(prog="bispade", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_crlb = sub.add_parser("crlb-curves", help="CRLB and total FI vs Schmidt number")
    _add_common_flags(p_crlb)
    p_crlb.add_argument(
        "--k-values",
        dest="k_values",
        default=None,
        help="comma-separated Schmidt numbers to tabulate",
    )

    p_mat = sub.add_parser("matrices", help="theory coincidence matrices over a separation grid")
    _add_common_flags(p_mat)

    p_est = sub.add_parser("estimate", help="maximum-likelihood estimates from counts files")
    _add_common_flags(p_est)
    p_est.add_argument("files", nargs="+", help="long-format counts files")
    p_est.add_argument("--calibrate", action="store_true", default=False)

    p_cmp = sub.add_parser("compare", help="Monte-Carlo spade vs direct-imaging standard errors")
    _add_common_flags(p_cmp)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "k_values", None) is not None and isinstance(args.k_values, str):
        try:
            args.k_values = _parse_value("k_values", args.k_values)
        except ValueError as exc:
            print(f"bispade: config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        cfg = build_config(args)
        if args.command == "crlb-curves":
            path = cmd_crlb_curves(cfg)
            print(path)
        elif args.command == "matrices":
            for path in cmd_matrices(cfg):
                print(path)
        elif args.command == "estimate":
            print(cmd_estimate(cfg, args.files))
        elif args.command == "compare":
            print(cmd_compare(cfg))
    except ValueError as exc:
        print(f"bispade: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"bispade: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"bispade: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
