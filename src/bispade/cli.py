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
import re
import sys
import types
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalError
from .inference import (
    METHODS,
    PARAMETERIZATION,
    CountMatrix,
    _fit,
    _mc_cells,
    _method_forward,
    _sub_seed,
    crlb,
    fit_calibration,
    spade_forward,
)
from .model import ModeSpace, PixelGrid, prob_matrix
from .source import (SchmidtModel, SourceParams, _checked_gamma, _mode_indices,
                     gamma_from_physical, schmidt_number)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULT_GAMMA = 0.15
CONVENTION = "per-arm shift d; delta = 2*d is the total separation; FI/CRLB about delta"

_PHYSICAL_KEYS = ("pump_waist_um", "crystal_length_mm", "pump_wavelength_nm")
# float64 sums of counts are exact up to here
_MAX_PHOTONS = 2**53
# largest count an int64 matrix holds
_MAX_COUNT = 2**63 - 1
# most separations one run may sweep; each costs a fit per trial and method or a matrix file
_MAX_SEPARATIONS = 10_000


class DataFormatError(Exception):
    """Counts-file contents violate the expected format."""


@dataclass
class RunConfig:
    """Flat run settings; file values are overridden by command-line flags.

    Each field is a config key and a --flag of the same name, parsed by its
    type. A field whose metadata names a command is a flag of that command
    only.
    """

    gamma: float | None = None
    pump_waist_um: float | None = None
    crystal_length_mm: float | None = None
    pump_wavelength_nm: float | None = None
    modes_k: int = 6
    modes_l: int = 0
    sep_start: float | None = None
    sep_stop: float | None = None
    sep_step: float | None = None
    photons: int = 37000
    trials: int = 200
    seed: int = 0
    out_dir: str = "."
    calibrate: bool = field(default=False, metadata={"command": "estimate"})
    k_values: tuple[float, ...] | None = field(default=None, metadata={
        "command": "crlb-curves", "help": "comma-separated Schmidt numbers to tabulate",
    })

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
        _checked_gamma(self.resolved_gamma())
        _mode_indices(modes_k=self.modes_k, modes_l=self.modes_l)
        for name in ("sep_start", "sep_stop", "sep_step"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name.replace('_', '-')} must be finite, got {value!r}")
        if self.sep_step is not None and not self.sep_step > 0:
            raise ValueError("sep-step must be positive")
        if self.photons < 1:
            raise ValueError("photons must be at least 1")
        if self.photons > _MAX_PHOTONS:
            raise ValueError(
                f"photons must be at most 2**53 = {_MAX_PHOTONS}, where float64 counts stay exact"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.k_values is not None and not self.k_values:
            raise ValueError("k_values must name at least one Schmidt number")

    def resolved_gamma(self) -> float:
        if self.gamma is not None:
            return float(self.gamma)
        if self.pump_waist_um is not None:
            params = SourceParams(
                pump_waist=self.pump_waist_um * 1e-6,
                crystal_length=self.crystal_length_mm * 1e-3,
                pump_wavelength=self.pump_wavelength_nm * 1e-9,
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
        count = (stop - start) / step + 1.0
        if not count <= _MAX_SEPARATIONS:
            raise ValueError(
                f"sep-start {start!r}, sep-stop {stop!r} and sep-step {step!r} give about "
                f"{count:.3g} separations, more than {_MAX_SEPARATIONS}"
            )
        return np.arange(start, stop + 0.5 * step, step)


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean {text!r}")


def _float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


def _text_parser(hint):
    # parser of a setting's text from its type; an optional setting parses as its type
    if isinstance(hint, types.UnionType):
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    return {int: int, float: float, str: str, bool: _parse_bool,
            tuple[float, ...]: _float_tuple}[hint]


_PARSERS = {name: _text_parser(hint) for name, hint in typing.get_type_hints(RunConfig).items()}


def load_config_file(path: str | Path) -> dict:
    """Parse a flat key = value config file; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"config {path}: cannot read file ({exc})") from exc
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
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


def _write_table(cfg: RunConfig, command: str, name: str, extra: dict, columns: str,
                 rows: list[str]) -> Path:
    """Write one output table into cfg.out_dir: '#' header lines, the column line, the rows."""
    gamma = cfg.resolved_gamma()
    header = [
        f"# artifact_version = {__version__}",
        f"# command = {command}",
        f"# gamma = {_fmt(gamma)}",
        f"# schmidt_number = {_fmt(schmidt_number(gamma))}",
        f"# separation_convention = {CONVENTION}",
        *(f"# {key} = {value}" for key, value in extra.items()),
    ]
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"out-dir {out_dir}: not a usable directory ({exc})") from exc
    path = out_dir / name
    path.write_text("\n".join(header + [columns] + rows) + "\n", newline="\n")
    return path


_COLUMNS = "k_idler,l_idler,k_signal,l_signal,count"


@functools.lru_cache(maxsize=16)
def _row_keys(space: ModeSpace) -> np.ndarray:
    # the (k, l, k', l') of every row of a counts file, in the C order of the
    # count matrix: the order write_counts_file writes, read-only
    keys = np.array([idler + signal for idler in space.idler for signal in space.signal])
    keys.flags.writeable = False
    return keys


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
    lines.append(_COLUMNS)
    for (k, l, kp, lp), count in zip(_row_keys(space).tolist(), counts.ravel().tolist()):
        lines.append(f"{k},{l},{kp},{lp},{int(count)}")
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def _separation_label(line: str) -> float | None:
    # d of a stripped '# separation = <d>' line, nan if <d> is no number; None for other '#' lines
    name, equals, value = line.lstrip("#").partition("=")
    if not (equals and name.strip() == "separation"):
        return None
    try:
        return float(value)
    except ValueError:
        return math.nan


# the layout write_counts_file writes: '#' lines, the column line, rows of five
# unsigned ASCII integers of at most 18 digits (so below 2**63), each ending in
# '\n'; a '#' line holds none of the line breaks of str.splitlines
_EXACT_LAYOUT = re.compile(
    r"((?:#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*\n)*)"
    + re.escape(_COLUMNS) + r"\n"
    r"((?:(?:[0-9]{1,18},){4}[0-9]{1,18}\n)*)"
)


def _read_exact(text: str, space: ModeSpace) -> CountMatrix | None:
    # the file in the layout and row order write_counts_file writes, in one
    # pass; None for any other file, which the line loop then reads or rejects
    match = _EXACT_LAYOUT.fullmatch(text)
    if match is None:
        return None
    head, body = match.groups()
    keys = _row_keys(space)
    if body.count("\n") != len(keys):
        return None
    rows = np.fromstring(body.replace("\n", ","), dtype=np.int64, sep=",").reshape(len(keys), 5)
    if not np.array_equal(rows[:, :4], keys):
        return None
    separation = None
    for line in head.splitlines():
        label = _separation_label(line.strip())
        if label is not None:
            if not math.isfinite(label):
                return None
            separation = label
    exact = CountMatrix(rows[:, 4].reshape(space.shape), separation)
    return exact if exact.total <= _MAX_PHOTONS else None


def read_counts_file(path: str | Path, space: ModeSpace) -> CountMatrix:
    """Parse a long-format counts file into a CountMatrix over the given mode space.

    Rows may come in any order, but every (idler, signal) pair of the space
    needs exactly one; a file in the layout and row order of write_counts_file
    is read in one pass. '#' lines are skipped, except '# separation = <d>', d finite.
    Counts must fit in int64 and sum to at most 2**53.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read file ({exc})") from exc
    exact = _read_exact(text, space)
    if exact is not None:
        return exact
    configured = f"configured {len(space.idler)}x{len(space.signal)} space"
    keys = _row_keys(space).tolist()
    cells = {tuple(key): cell for cell, key in enumerate(keys)}
    counts = np.full(len(keys), -1, dtype=np.int64)  # -1: no row yet
    separation: float | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            label = _separation_label(line)
            if label is not None:
                if not math.isfinite(label):
                    raise DataFormatError(
                        f"{path}:{lineno}: bad separation value {line.partition('=')[2].strip()!r}"
                    )
                separation = label
            continue
        tokens = [tok.strip() for tok in line.split(",")]
        if not line or tokens[0] == "k_idler":
            continue
        if len(tokens) != 5:
            raise DataFormatError(f"{path}:{lineno}: expected 5 columns, got {len(tokens)}")
        try:
            k, l, kp, lp, count = map(int, tokens)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: non-integer field in {line!r}") from exc
        if count < 0:
            raise DataFormatError(f"{path}:{lineno}: negative count")
        if count > _MAX_COUNT:
            raise DataFormatError(f"{path}:{lineno}: count above 2**63 - 1, the int64 limit")
        key = (k, l, kp, lp)
        if key not in cells:
            raise DataFormatError(f"{path}:{lineno}: mode tuple {key} is outside the {configured}")
        if counts[cells[key]] >= 0:
            raise DataFormatError(f"{path}:{lineno}: duplicate mode tuple {key}")
        counts[cells[key]] = count
    missing = np.flatnonzero(counts < 0)
    if len(missing):
        raise DataFormatError(
            f"{path}: {len(missing)} mode tuples of the {configured} have no row, the first "
            f"{tuple(keys[missing[0]])}"
        )
    matrix = CountMatrix(counts.reshape(space.shape), separation)
    if matrix.total > _MAX_PHOTONS:
        raise DataFormatError(
            f"{path}: counts sum to {matrix.total}, above 2**53 = {_MAX_PHOTONS}, "
            "where float64 counts stay exact"
        )
    return matrix


def cmd_crlb_curves(cfg: RunConfig, args: argparse.Namespace) -> list[tuple]:
    """Table of (K, per-photon CRLB, total FI) rows over a Schmidt-number sweep."""
    k_values = cfg.k_values if cfg.k_values is not None else tuple(np.arange(1.0, 20.01, 0.5))
    rows = [
        f"{_fmt(k)},{_fmt(crlb(k, 1))},{_fmt(math.sqrt(k) / 2.0)}"
        for k in k_values
    ]
    return [("crlb_curves.csv", {"k_count": len(rows)}, "K,crlb_per_photon,total_fi", rows)]


def cmd_matrices(cfg: RunConfig, args: argparse.Namespace) -> list[tuple]:
    """One renormalized probability-matrix table per separation on the grid."""
    seps = cfg.separations(0.0, 0.93, 0.93 / 4.0)
    model = SchmidtModel.from_gamma(cfg.resolved_gamma())
    space = cfg.mode_space()
    tables = []
    for index, d in enumerate(seps):
        pm = prob_matrix(float(d), space, model, renormalize=True)
        rows = [f"{k},{l},{kp},{lp},{_fmt(p)}"
                for (k, l, kp, lp), p in zip(_row_keys(space).tolist(), pm.entries.ravel())]
        extra = {
            "separation_d": _fmt(d),
            "separation_delta": _fmt(2.0 * d),
            "modes_k": cfg.modes_k,
            "modes_l": cfg.modes_l,
            "in_space_mass": _fmt(pm.in_space_mass),
        }
        columns = "k_idler,l_idler,k_signal,l_signal,probability"
        tables.append((f"matrix_{index:02d}.csv", extra, columns, rows))
    return tables


def cmd_estimate(cfg: RunConfig, args: argparse.Namespace) -> list[tuple]:
    """Maximum-likelihood estimates per counts file of args.files, optionally after calibration."""
    space = cfg.mode_space()
    model = SchmidtModel.from_gamma(cfg.resolved_gamma())
    forward = spade_forward(model, space)
    datasets = []
    for name in args.files:
        cm = read_counts_file(name, space)
        if cm.total < 1:
            raise DataFormatError(f"{name}: counts sum to zero")
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
    obs = np.stack([cm.counts.ravel() for _, cm in datasets]).astype(float)
    fits = _fit(obs, forward.calibrated(calibration))
    rows = []
    for i, (_, cm) in enumerate(datasets):
        label = "" if cm.separation is None else _fmt(cm.separation)
        d_hat, bound = fits.d_hat[i], crlb(model.schmidt_number, cm.total)
        rows.append(f"{label},{_fmt(d_hat)},{_fmt(2.0 * d_hat)},{_fmt(fits.log_likelihood[i])},"
                    f"{_fmt(bound)},{';'.join(fits.flags(i)) or 'ok'}")
    extra = {
        "calibrate": cfg.calibrate,
        "files": len(datasets),
        "modes_k": cfg.modes_k,
        "modes_l": cfg.modes_l,
    }
    return [("estimates.csv", extra, "label,d_hat,delta_hat,log_likelihood,crlb,flags", rows)]


def cmd_compare(cfg: RunConfig, args: argparse.Namespace) -> list[tuple]:
    """Monte-Carlo standard errors for spade vs direct imaging over the grid."""
    seps = cfg.separations(0.0, 1.35, 0.0465)
    model = SchmidtModel.from_gamma(cfg.resolved_gamma())
    space = cfg.mode_space()
    grid = PixelGrid()
    # each cell's master seed; its trials take trial_seed sub-seeds of it
    by_method = [
        _mc_cells(
            method, cfg.photons, seps, cfg.trials,
            [_sub_seed(cfg.seed, method_index, sep_index) for sep_index in range(len(seps))],
            _method_forward(method, model, space, grid),
        )
        for method_index, method in enumerate(METHODS)
    ]
    # sep-major rows, methods in METHODS order within a separation
    rows = [
        f"{_fmt(r.d)},{_fmt(2.0 * r.d)},{r.method},{_fmt(r.std_err)},"
        f"{_fmt(r.mean)},{_fmt(r.boundary_fraction)}"
        for same_sep in zip(*by_method)
        for r in same_sep
    ]
    extra = {
        "photons": cfg.photons,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "modes_k": cfg.modes_k,
        "modes_l": cfg.modes_l,
        "projections": len(space.idler) * len(space.signal),
        "pixel_count": grid.count,
        "pixel_span": f"[{_fmt(grid.span[0])}, {_fmt(grid.span[1])}]",
        "estimates_parameter": PARAMETERIZATION,
    }
    return [("compare.csv", extra, "d,delta,method,std_err,mean,boundary_fraction", rows)]


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; this artifact reserves 2 for
    # data-format problems, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# each subcommand: its help summary and the function that computes its output tables
_COMMANDS = {
    "crlb-curves": ("CRLB and total FI vs Schmidt number", cmd_crlb_curves),
    "matrices": ("theory coincidence matrices over a separation grid", cmd_matrices),
    "estimate": ("maximum-likelihood estimates from counts files", cmd_estimate),
    "compare": ("Monte-Carlo spade vs direct-imaging standard errors", cmd_compare),
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(prog="bispade", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _) in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=summary)
        if command == "estimate":
            p_cmd.add_argument("files", nargs="+", help="long-format counts files")
        p_cmd.add_argument("--config", help="flat key = value config file; flags win")
        for setting in fields(RunConfig):
            if setting.metadata.get("command", command) != command:
                continue
            flag = "--" + setting.name.replace("_", "-")
            parse = _PARSERS[setting.name]
            if parse is _parse_bool:
                p_cmd.add_argument(flag, action="store_true")
            else:
                p_cmd.add_argument(flag, type=parse, help=setting.metadata.get("help"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = build_config(args)
        _, compute = _COMMANDS[args.command]
        for table in compute(cfg, args):
            print(_write_table(cfg, args.command, *table))
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
