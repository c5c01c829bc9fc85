import argparse
import errno
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import fields
from pathlib import Path, PurePath
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import bispade as bp
from bispade import cli, inference, model
from bispade.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    DataFormatError,
    EXIT_OK,
    EXIT_USAGE,
    _COLUMNS,
    RunConfig,
    _build_parser,
    _fmt,
    load_config_file,
    main,
    read_counts_file,
    write_counts_file,
)


def _read_rows(path):
    header, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


def _header_value(header, key):
    prefix = f"# {key} = "
    for line in header:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise KeyError(key)


def _make_synthetic_files(tmp_path, seps, photons, cal=None, seed=800):
    model = bp.SchmidtModel.from_gamma(0.15)
    space = bp.ModeSpace.grid()
    paths = []
    for i, d in enumerate(seps):
        pm = bp.prob_matrix(float(d), space, model, renormalize=True)
        if cal is not None:
            pm = bp.apply_calibration(pm, cal)
        cm = bp.sample_counts(pm, photons, seed=bp.trial_seed(seed, i))
        path = write_counts_file(
            tmp_path / f"counts_{i:02d}.csv", space, cm.counts, separation=float(d)
        )
        paths.append(str(path))
    return paths


def _loop_read(path, space):
    # the file alone through the line loop: the one-pass read declines every text
    with mock.patch.object(cli, "_read_written", lambda texts, space: [None] * len(texts)):
        return read_counts_file(path, space)


class TestConfig:
    def test_config_file_roundtrip(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "gamma = 0.5\nphotons = 1234  # inline comment\ncalibrate = true\n"
            "k_values = 1, 2, 11.6\n"
        )
        values = load_config_file(cfg_file)
        assert values == {
            "gamma": 0.5,
            "photons": 1234,
            "calibrate": True,
            "k_values": (1.0, 2.0, 11.6),
        }

    # every RunConfig field in order: config text and the value it parses to
    SETTINGS = {
        "gamma": ("0.25", 0.25),
        "pump_waist_um": ("40", 40.0),
        "crystal_length_mm": ("0.5", 0.5),
        "pump_wavelength_nm": ("405", 405.0),
        "modes_k": ("4", 4),
        "modes_l": ("1", 1),
        "sep_start": ("0", 0.0),
        "sep_stop": ("1.2", 1.2),
        "sep_step": ("0.1", 0.1),
        "photons": ("500", 500),
        "trials": ("3", 3),
        "seed": ("7", 7),
        "out_dir": ("results/a b", "results/a b"),
        "calibrate": ("on", True),
        "k_values": ("1; 2.5,4", (1.0, 2.5, 4.0)),
    }

    def test_every_setting_is_a_config_key_parsed_to_its_type(self, tmp_path):
        assert list(self.SETTINGS) == [f.name for f in fields(RunConfig)]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("".join(f"{key} = {text}\n" for key, (text, _) in self.SETTINGS.items()))
        values = load_config_file(cfg_file)
        assert values == {key: value for key, (_, value) in self.SETTINGS.items()}
        for key, (_, value) in self.SETTINGS.items():
            assert type(values[key]) is type(value), key

    def test_flags_parse_like_config_keys(self):
        for command, extra in (("crlb-curves", ()), ("estimate", ("f.csv",))):
            argv = [command, *extra]
            for key, (text, _) in self.SETTINGS.items():
                if key == "calibrate":
                    argv += ["--calibrate"] if command == "estimate" else []
                elif key != "k_values" or command == "crlb-curves":
                    argv += ["--" + key.replace("_", "-"), text]
            args = vars(_build_parser().parse_args(argv))
            for key, (_, value) in self.SETTINGS.items():
                if key in args:
                    assert args[key] == value and type(args[key]) is type(value), key

    @pytest.mark.parametrize("line", ["photons = 1.5", "calibrate = maybe", "gamma = abc",
                                      "k_values = 1, x"])
    def test_bad_value_names_file_and_line(self, tmp_path, capsys, line):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"# a comment\n{line}\n")
        key = line.split(" ")[0]
        with pytest.raises(ValueError, match=f"run.cfg:2: bad value for {key}: "):
            load_config_file(cfg_file)
        assert main(["matrices", "--config", str(cfg_file), "--out-dir", str(tmp_path)]) == EXIT_USAGE
        assert f"run.cfg:2: bad value for {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, value", [("true", True), ("On", True), ("1", True),
                                             ("yes", True), ("no", False), ("FALSE", False),
                                             ("0", False), ("off", False)])
    def test_boolean_spellings(self, tmp_path, text, value):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"calibrate = {text}\n")
        assert load_config_file(cfg_file) == {"calibrate": value}

    def test_line_without_equals_names_file_and_line(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("gamma = 0.2\nphotons 500\n")
        with pytest.raises(ValueError, match="run.cfg:2: expected 'key = value', "
                                             "got 'photons 500'$"):
            load_config_file(cfg_file)

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("\ufeffgamma = 0.25\nseed = 3\n", encoding="utf-8")
        assert load_config_file(cfg_file) == {"gamma": 0.25, "seed": 3}

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("wavelength = 405\n")
        with pytest.raises(ValueError):
            load_config_file(cfg_file)

    def test_schmidt_waist_key_is_gone(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("schmidt_waist_um = 25\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config_file(cfg_file)

    def test_gamma_and_physical_conflict(self):
        cfg = RunConfig(gamma=0.15, pump_waist_um=40.0, crystal_length_mm=0.5,
                        pump_wavelength_nm=405.0)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_partial_physical_rejected(self):
        cfg = RunConfig(pump_waist_um=40.0)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_physical_parameters_resolve_gamma(self):
        cfg = RunConfig(pump_waist_um=40.0, crystal_length_mm=0.5, pump_wavelength_nm=405.0)
        cfg.validate()
        assert cfg.resolved_gamma() == pytest.approx(0.14192620436363398, rel=1e-12)

    def test_default_gamma(self):
        cfg = RunConfig()
        cfg.validate()
        assert cfg.resolved_gamma() == 0.15

    def test_flags_override_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("gamma = 0.5\n")
        out = tmp_path / "out"
        code = main([
            "crlb-curves", "--config", str(cfg_file), "--gamma", "0.15",
            "--out-dir", str(out), "--k-values", "1,2",
        ])
        assert code == EXIT_OK
        header, _, _ = _read_rows(out / "crlb_curves.csv")
        assert _header_value(header, "gamma") == "0.15"


class TestCrlbCurves:
    def test_rows_and_values(self, tmp_path):
        code = main([
            "crlb-curves", "--out-dir", str(tmp_path), "--k-values", "1,3,11.6,20",
            "--seed", "4",
        ])
        assert code == EXIT_OK
        header, columns, rows = _read_rows(tmp_path / "crlb_curves.csv")
        assert columns == ["K", "crlb_per_photon", "total_fi"]
        assert _header_value(header, "artifact_version") == bp.__version__
        values = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
        assert values[1.0][0] == 2.0
        assert values[11.6][0] == pytest.approx(bp.crlb(11.6, 1), rel=1e-12)
        crlbs = [float(r[1]) for r in rows]
        assert all(a > b for a, b in zip(crlbs, crlbs[1:]))

    def test_bad_k_values(self, tmp_path, capsys):
        code = main(["crlb-curves", "--out-dir", str(tmp_path), "--k-values", "0.5,2"])
        assert code == EXIT_USAGE

    def test_malformed_k_values_is_a_usage_error(self, tmp_path, capsys):
        code = main(["crlb-curves", "--out-dir", str(tmp_path), "--k-values", "x"])
        assert code == EXIT_USAGE
        assert "argument --k-values" in capsys.readouterr().err

    def test_empty_k_list_flag_is_rejected(self, tmp_path, capsys):
        code = main(["crlb-curves", "--out-dir", str(tmp_path), "--k-values", ""])
        assert code == EXIT_USAGE
        assert "k_values must name at least one" in capsys.readouterr().err
        assert not (tmp_path / "crlb_curves.csv").exists()

    def test_empty_k_list_config_is_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k_values =\n")
        code = main(["crlb-curves", "--config", str(cfg_file), "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "k_values must name at least one" in capsys.readouterr().err
        assert not (tmp_path / "crlb_curves.csv").exists()


class TestMatrices:
    def test_default_grid_and_contents(self, tmp_path):
        code = main(["matrices", "--gamma", "0.15", "--out-dir", str(tmp_path), "--seed", "1"])
        assert code == EXIT_OK
        paths = sorted(tmp_path.glob("matrix_*.csv"))
        assert len(paths) == 5
        off_diag = []
        for path in paths:
            header, columns, rows = _read_rows(path)
            assert columns == ["k_idler", "l_idler", "k_signal", "l_signal", "probability"]
            probs = np.array([float(r[4]) for r in rows]).reshape(7, 7)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            off_diag.append(probs.sum() - np.trace(probs))
            assert float(_header_value(header, "separation_delta")) == pytest.approx(
                2.0 * float(_header_value(header, "separation_d")), rel=1e-12
            )
        assert off_diag[0] == pytest.approx(0.0, abs=1e-15)
        assert all(b > a for a, b in zip(off_diag, off_diag[1:]))
        assert float(_header_value(_read_rows(paths[-1])[0], "separation_d")) == pytest.approx(0.93)

    def test_custom_grid(self, tmp_path):
        code = main([
            "matrices", "--out-dir", str(tmp_path),
            "--sep-start", "0", "--sep-stop", "0.2", "--sep-step", "0.1",
        ])
        assert code == EXIT_OK
        assert len(list(tmp_path.glob("matrix_*.csv"))) == 3


    @pytest.mark.parametrize("gamma", ["0.002", "500"])
    def test_extreme_gamma(self, tmp_path, gamma):
        code = main([
            "matrices", "--gamma", gamma, "--out-dir", str(tmp_path),
            "--sep-start", "0", "--sep-stop", "0.5", "--sep-step", "0.5",
        ])
        assert code == EXIT_OK
        for path in sorted(tmp_path.glob("matrix_*.csv")):
            probs = np.array([float(r[4]) for r in _read_rows(path)[2]])
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestCountsIo:
    def test_write_read_round_trip(self, tmp_path, space7):
        counts = np.arange(49, dtype=np.int64).reshape(7, 7)
        path = write_counts_file(tmp_path / "c.csv", space7, counts, separation=0.3)
        cm = read_counts_file(path, space7)
        np.testing.assert_array_equal(cm.counts, counts)
        assert cm.separation == 0.3

    def test_empty_file_rejected(self, tmp_path, space7):
        path = tmp_path / "empty.csv"
        path.write_text("# separation = 0.1\nk_idler,l_idler,k_signal,l_signal,count\n")
        with pytest.raises(DataFormatError, match="empty.csv"):
            read_counts_file(path, space7)

    def test_duplicate_tuple_rejected(self, tmp_path, space7):
        path = tmp_path / "dup.csv"
        path.write_text("0,0,0,0,5\n0,0,0,0,7\n")
        with pytest.raises(DataFormatError, match="dup.csv:2: duplicate"):
            read_counts_file(path, space7)

    def test_negative_count_rejected(self, tmp_path, space7):
        path = tmp_path / "neg.csv"
        path.write_text("0,0,0,0,-5\n")
        with pytest.raises(DataFormatError, match="neg.csv:1: negative count"):
            read_counts_file(path, space7)

    def test_write_rejects_counts_of_another_shape(self, tmp_path, space7):
        with pytest.raises(ValueError, match="^counts shape does not match the mode space$"):
            write_counts_file(tmp_path / "c.csv", space7, np.ones((7, 6), dtype=np.int64))
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("counts, separation, meta, message", [
        (np.full((2, 2), 2.7), None, None, "finite integers"),
        (np.full((2, 2), 1e19), None, None, "finite integers"),
        (np.full((2, 2), -3), None, None, "non-negative"),
        (np.full((2, 2), 2**62, dtype=np.uint64), None, None, "above 2\\*\\*53"),
        (np.full((2, 2), 2**51 + 1), None, None, "above 2\\*\\*53"),
        (np.ones((2, 2)), math.nan, None, "separation must be finite, got nan"),
        (np.ones((2, 2)), math.inf, None, "separation must be finite, got inf"),
        (np.ones((2, 2)), None, {"note": "a\n0,0,0,0,5"}, "must be one line"),
        (np.ones((2, 2)), None, {"note": "a\u2028"}, "must be one line"),
        (np.ones((2, 2)), 0.2, {"separation": "0.3"}, "no separation label"),
        (np.ones((2, 2)), None, {" separation ": "x"}, "no separation label"),
        (np.ones((2, 2)), None, {"note": "\udc80"}, "surrogates not allowed"),
        (np.full((2, 2), 2**64 - 1, dtype=np.uint64), None, None, "within the int64 range"),
    ])
    def test_write_refuses_what_the_reader_refuses(self, tmp_path, counts, separation, meta,
                                                   message):
        # before any byte is written, so no file is left behind
        space = bp.ModeSpace(idler=((0, 0), (1, 0)), signal=((0, 0), (0, 1)))
        with pytest.raises(ValueError, match=message):
            write_counts_file(tmp_path / "c.csv", space, counts, separation, meta)
        assert not (tmp_path / "c.csv").exists()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_what_the_writer_accepts_reads_back(self, tmp_path_factory, data):
        space = bp.ModeSpace(idler=((0, 0), (1, 0)), signal=((0, 0), (0, 1)))
        dtype = data.draw(st.sampled_from([np.int64, np.uint64, np.float64]))
        count = st.integers(0, 2**50) | st.sampled_from([-1, 2**53, 2**63 - 1, 2**64 - 1])
        if dtype is np.float64:
            count = count.map(float) | st.floats(allow_nan=True, allow_infinity=True)
        else:
            low, high = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
            count = (count | st.integers(low, high)).filter(lambda v: low <= v <= high)
        counts = np.array(data.draw(st.lists(count, min_size=4, max_size=4)),
                          dtype=dtype).reshape(space.shape)
        separation = data.draw(st.none() | st.floats())
        breaks = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
        meta = data.draw(st.dictionaries(
            st.sampled_from(["lab", "note", "separation", " separation", "sep=aration"]),
            st.text(max_size=6) | st.text(breaks, min_size=1, max_size=2)))
        path = tmp_path_factory.mktemp("write") / "c.csv"
        # the rules of the reader, stated independently
        readable = (np.isfinite(counts).all() and (counts == np.floor(counts)).all()
                    and (counts >= 0).all() and sum(map(int, counts.ravel())) <= 2**53
                    and (separation is None or math.isfinite(separation))
                    and not any(key.partition("=")[0].strip() == "separation"
                                or set(f"{key}{value}") & set(breaks)
                                for key, value in meta.items()))
        try:
            write_counts_file(path, space, counts, separation, meta)
        except ValueError:
            assert not readable
            assert not path.exists()
            return
        assert readable
        cm = read_counts_file(path, space)
        np.testing.assert_array_equal(cm.counts, counts)
        assert cm.separation == (None if separation is None else float(_fmt(separation)))

    @pytest.mark.parametrize("value", ["nan", "inf", "abc"])
    def test_non_finite_separation_rejected(self, tmp_path, space7, value):
        rows, _ = self._rows(space7)
        path = tmp_path / "label.csv"
        path.write_text("\n".join([f"# separation = {value}"] + rows) + "\n")
        with pytest.raises(DataFormatError, match=f"label.csv:1: bad separation value '{value}'"):
            read_counts_file(path, space7)

    def _rows(self, space):
        # the data rows of a counts file over space with distinct counts, and its matrix
        counts = np.arange(space.shape[0] * space.shape[1]).reshape(space.shape) + 10
        rows = [
            f"{k},{l},{kp},{lp},{counts[i, j]}"
            for i, (k, l) in enumerate(space.idler)
            for j, (kp, lp) in enumerate(space.signal)
        ]
        return rows, counts

    def test_shuffled_rows_read_equal_to_ordered_rows(self, tmp_path):
        # a space with l = 1 pairs: a sort of the rows by (k, l) would misplace them
        space = bp.ModeSpace.grid(max_k=2, max_l=1)
        rows, counts = self._rows(space)
        shuffled = list(rows)
        np.random.default_rng(4).shuffle(shuffled)
        assert shuffled != rows
        header = ["# separation = 0.25", "# note without an equals sign", "# lab = B"]
        (tmp_path / "ordered.csv").write_text("\n".join(header + rows) + "\n")
        (tmp_path / "shuffled.csv").write_text("\n".join(header + shuffled) + "\n")
        ordered = read_counts_file(tmp_path / "ordered.csv", space)
        mixed = read_counts_file(tmp_path / "shuffled.csv", space)
        np.testing.assert_array_equal(ordered.counts, counts)
        np.testing.assert_array_equal(mixed.counts, counts)
        assert mixed.separation == ordered.separation == 0.25

    def test_tuple_outside_the_space_rejected(self, tmp_path, space7):
        rows, _ = self._rows(space7)
        path = tmp_path / "outside.csv"
        path.write_text("\n".join(rows + ["7,0,0,0,3"]) + "\n")
        with pytest.raises(DataFormatError, match=r"outside.csv:50: mode tuple \(7, 0, 0, 0\)"):
            read_counts_file(path, space7)

    def test_missing_pair_rejected(self, tmp_path, space7):
        rows, _ = self._rows(space7)
        path = tmp_path / "missing.csv"
        path.write_text("\n".join(rows[:17] + rows[18:]) + "\n")
        with pytest.raises(DataFormatError, match=r"missing.csv: 1 mode tuples .* \(2, 0, 3, 0\)"):
            read_counts_file(path, space7)

    # files in the layout write_counts_file writes but for one edit of the 49
    # rows or of the label, and the reader's whole message for each; {path} is
    # the file and line 1 the label, so row r of the list is on line r + 3
    REJECTED = {
        "empty": (lambda rows: [], "0.3",
                  "{path}: 49 mode tuples of the configured 7x7 space have no row, "
                  "the first (0, 0, 0, 0)"),
        "duplicate": (lambda rows: rows[:1] + rows[:1] + rows[2:], "0.3",
                      "{path}:4: duplicate mode tuple (0, 0, 0, 0)"),
        "negative": (lambda rows: ["0,0,0,0,-5"] + rows[1:], "0.3",
                     "{path}:3: negative count"),
        "outside": (lambda rows: rows[:-1] + ["7,0,0,0,3"], "0.3",
                    "{path}:51: mode tuple (7, 0, 0, 0) is outside the configured 7x7 space"),
        "far-outside": (lambda rows: rows[:-1] + ["0,0,0,70,3"], "0.3",
                        "{path}:51: mode tuple (0, 0, 0, 70) is outside the configured 7x7 space"),
        "missing": (lambda rows: rows[:17] + rows[18:], "0.3",
                    "{path}: 1 mode tuples of the configured 7x7 space have no row, "
                    "the first (2, 0, 3, 0)"),
        "non-integer": (lambda rows: ["0,0,0,0,x"] + rows[1:], "0.3",
                        "{path}:3: non-integer field in '0,0,0,0,x'"),
        "four-columns": (lambda rows: ["0,0,0,0"] + rows[1:], "0.3",
                         "{path}:3: expected 5 columns, got 4"),
        "empty-field": (lambda rows: ["0,0,,0,5"] + rows[1:], "0.3",
                        "{path}:3: non-integer field in '0,0,,0,5'"),
        "nan-label": (lambda rows: rows, "nan", "{path}:1: bad separation value 'nan'"),
        "inf-label": (lambda rows: rows, "inf", "{path}:1: bad separation value 'inf'"),
    }
    # the same for the limits of a count and of their sum
    OUT_OF_RANGE = {
        "count-2**63": (lambda rows: [f"0,0,0,0,{2**63}"] + rows[1:], "0.3",
                        "{path}:3: count above 2**63 - 1, the int64 limit"),
        # np.fromstring would read this as 2**63 - 1, without a warning
        "count-20-digits": (lambda rows: ["0,0,0,0,99999999999999999999"] + rows[1:], "0.3",
                            "{path}:3: count above 2**63 - 1, the int64 limit"),
        "sum-past-2**53": (lambda rows: [row.rsplit(",", 1)[0] + f",{2**62}" for row in rows],
                           "0.3", f"{{path}}: counts sum to {49 * 2**62}, above 2**53 = {2**53}, "
                           "where float64 counts stay exact"),
        "sum-2**53+1": (lambda rows: [row.rsplit(",", 1)[0] + (",0" if i else f",{2**53 + 1}")
                                      for i, row in enumerate(rows)],
                        "0.3", f"{{path}}: counts sum to {2**53 + 1}, above 2**53 = {2**53}, "
                        "where float64 counts stay exact"),
    }

    def _edited(self, tmp_path, space, case):
        edit, label, message = case
        rows, _ = self._rows(space)
        path = tmp_path / "edited.csv"
        lines = [f"# separation = {label}", "k_idler,l_idler,k_signal,l_signal,count"]
        path.write_text("\n".join(lines + edit(rows)) + "\n")
        return path, message.format(path=path)

    @pytest.mark.parametrize("case", REJECTED.values(), ids=REJECTED.keys())
    def test_every_message_is_unchanged(self, tmp_path, space7, case):
        path, message = self._edited(tmp_path, space7, case)
        with pytest.raises(DataFormatError) as caught:
            read_counts_file(path, space7)
        assert str(caught.value) == message

    @pytest.mark.parametrize("case", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
    def test_counts_out_of_range_are_data_errors(self, tmp_path, capsys, space7, case):
        path, message = self._edited(tmp_path, space7, case)
        with pytest.raises(DataFormatError) as caught:
            read_counts_file(path, space7)
        assert str(caught.value) == message
        assert main(["estimate", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err == f"bispade: data error: {message}\n"

    def test_a_sum_of_two_to_the_53_is_read(self, tmp_path, space7):
        rows, _ = self._rows(space7)
        rows = [row.rsplit(",", 1)[0] + (",0" if i else f",{2**53}") for i, row in enumerate(rows)]
        path = tmp_path / "limit.csv"
        path.write_text("\n".join(["k_idler,l_idler,k_signal,l_signal,count"] + rows) + "\n")
        assert read_counts_file(path, space7).total == 2**53

    def test_written_files_take_the_one_pass_read(self, tmp_path):
        # the loop would read them the same; this pins that they skip it
        space = bp.ModeSpace.grid(max_k=3, max_l=2)
        counts = np.arange(144).reshape(space.shape) * 1000
        path = write_counts_file(tmp_path / "c.csv", space, counts, separation=0.25,
                                 meta={"lab": "B"})
        fast = cli._read_written([path.read_text()], space)[0]
        assert fast is not None and fast.separation == 0.25
        np.testing.assert_array_equal(fast.counts, counts)

    def test_a_sparse_space_with_large_indices_is_read(self, tmp_path):
        # a dense lookup of this space would hold about 10**16 cells; the row
        # keys hold two
        space = bp.ModeSpace(idler=((10**4, 10**4),), signal=((0, 0), (10**4, 1)))
        path = write_counts_file(tmp_path / "sparse.csv", space, np.array([[3, 4]]))
        assert cli._read_written([path.read_text()], space)[0].counts.tolist() == [[3, 4]]
        assert read_counts_file(path, space).counts.tolist() == [[3, 4]]

    def test_reversed_rows_take_the_line_loop(self, tmp_path, space7):
        # the one-pass read places rows by their written order only
        written = write_counts_file(tmp_path / "written.csv", space7,
                                    np.arange(49).reshape(7, 7), separation=0.3)
        label, columns, *rows = written.read_text().splitlines()
        reversed_path = tmp_path / "reversed.csv"
        reversed_path.write_text("\n".join([label, columns, *rows[::-1]]) + "\n")
        assert cli._read_written([reversed_path.read_text()], space7)[0] is None
        loop, fast = read_counts_file(reversed_path, space7), read_counts_file(written, space7)
        np.testing.assert_array_equal(loop.counts, fast.counts)
        assert loop.separation == fast.separation == 0.3

    @pytest.mark.parametrize("case", {**REJECTED, **OUT_OF_RANGE}.values(),
                             ids={**REJECTED, **OUT_OF_RANGE}.keys())
    def test_the_one_pass_read_declines_every_rejected_file(self, tmp_path, space7, case):
        path, _ = self._edited(tmp_path, space7, case)
        assert cli._read_written([path.read_text()], space7)[0] is None

    EDITS = ("spaces", "zeros", "plus", "blank", "comment", "no-columns", "crlf", "wide-digits")

    @staticmethod
    def _oracle_text(cells, order, separation, edits):
        # a counts file of the {(k, l, k', l'): count} dict, rows in the given
        # order, by hand: the layout of write_counts_file, or edited by hand
        def field(value, sign=""):
            text = sign + ("00" if "zeros" in edits else "") + str(value)
            if "wide-digits" in edits:
                text = text.translate(str.maketrans("0123456789", "０１２３４５６７８９"))
            return f" {text} " if "spaces" in edits else text

        lines = [] if separation is None else [f"# separation = {separation!r}"]
        if "no-columns" not in edits:
            lines.append("k_idler,l_idler,k_signal,l_signal,count")
        keys = list(cells)
        for index in order:
            key = keys[index]
            count = field(cells[key], "+" if "plus" in edits else "")
            lines.append(",".join([*map(field, key), count]))
            if "blank" in edits:
                lines.append("")
            if "comment" in edits:
                lines.append("# between rows")
        end = "\r\n" if "crlf" in edits else "\n"
        return end.join(lines) + end

    @pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_a_comment_holding_a_line_break_is_two_lines(self, tmp_path, space7, brk):
        # str.splitlines ends a line at each of these, so the row after it counts
        rows, _ = self._rows(space7)
        path = tmp_path / "breaks.csv"
        head = [f"# note{brk}0,0,0,0,5", "k_idler,l_idler,k_signal,l_signal,count"]
        path.write_text("\n".join(head + rows) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as caught:
            read_counts_file(path, space7)
        assert str(caught.value) == f"{path}:4: duplicate mode tuple (0, 0, 0, 0)"

    @pytest.mark.parametrize("edit", EDITS)
    def test_each_hand_edit_reads_like_the_written_file(self, tmp_path, edit):
        space = bp.ModeSpace.grid(max_k=2, max_l=1)
        keys = [idler + signal for idler in space.idler for signal in space.signal]
        cells = {key: 1000 + index for index, key in enumerate(keys)}
        path = tmp_path / "edited.csv"
        path.write_text(self._oracle_text(cells, range(len(keys))[::-1], 0.25, {edit}),
                        encoding="utf-8", newline="")
        cm = read_counts_file(path, space)
        assert cm.counts.tolist() == [[cells[idler + signal] for signal in space.signal]
                                      for idler in space.idler]
        assert cm.separation == 0.25

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_reads_like_an_independent_oracle(self, tmp_path_factory, data):
        max_k, max_l = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))
        space = bp.ModeSpace.grid(max_k, max_l)
        keys = [idler + signal for idler in space.idler for signal in space.signal]
        cells = {key: data.draw(st.integers(0, 10**6)) for key in keys}
        big = data.draw(st.sampled_from([None, 10**18 - 1, 10**18, 2**63 - 1, 2**63]))
        if big is not None:
            cells[data.draw(st.sampled_from(keys))] = big
        written = list(range(len(keys)))
        order = data.draw(st.just(written) | st.permutations(written))
        separation = data.draw(st.none() | st.floats(-10.0, 10.0))
        edits = data.draw(st.sets(st.sampled_from(self.EDITS)))
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        path.write_text(self._oracle_text(cells, order, separation, edits), encoding="utf-8",
                        newline="")
        expected = [[cells[idler + signal] for signal in space.signal] for idler in space.idler]
        total = sum(cells.values())
        for read in (read_counts_file, _loop_read):
            if max(cells.values()) > 2**63 - 1:
                with pytest.raises(DataFormatError, match=r"csv:\d+: count above 2\*\*63 - 1"):
                    read(path, space)
            elif total > 2**53:
                with pytest.raises(DataFormatError, match=f"counts sum to {total}, above"):
                    read(path, space)
            else:
                cm = read(path, space)
                assert cm.counts.dtype == np.int64 and cm.counts.tolist() == expected
                assert cm.separation == separation and cm.total == total
        fast = cli._read_written([path.read_text(encoding="utf-8")], space)[0]
        if max(cells.values()) > 2**63 - 1 or total > 2**53 or order != written:
            assert fast is None
        elif not edits - {"zeros"}:
            assert fast.counts.tolist() == expected and fast.separation == separation

    DIFFERENTIAL_SPACES = {
        "grid-2-1": bp.ModeSpace.grid(2, 1),
        "grid-6-0": bp.ModeSpace.grid(6, 0),
        "sparse": bp.ModeSpace(idler=((10**4, 10**4),), signal=((0, 0), (10**4, 1))),
    }
    # no '\r': the texts are checked as _read_text returns them
    INSERTS = (*"0123456789", ",", "\n", "#", " ", "+", "-", ".", "e", "\u0663", "\uff10",
               "\x85", "k_idler")

    def _randomly_edited(self, text, rng):
        # text after 0 to 3 one-character inserts or replacements or span deletions,
        # each at a random place of a random line: '#' lines are edited as often as rows
        edits = rng.randint(0, 3)
        for _ in range(edits):
            lines = text.splitlines(keepends=True) or [""]
            line = rng.randrange(len(lines))
            at = sum(map(len, lines[:line])) + rng.randint(0, len(lines[line]))
            kind = rng.choice(["insert", "replace", "delete"])
            if kind == "delete":
                text = text[:at] + text[rng.randint(at, min(at + 40, len(text))):]
            else:
                text = text[:at] + rng.choice(self.INSERTS) + text[at + (kind == "replace"):]
        return text, edits

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(list(DIFFERENTIAL_SPACES)),
           separation=st.none() | st.floats(-10.0, 10.0),
           meta=st.sampled_from([None, {"lab": "B"}]), seed=st.integers(0, 2**32 - 1))
    def test_the_one_pass_read_agrees_with_the_line_loop_on_edited_files(
            self, tmp_path_factory, name, separation, meta, seed):
        # eight randomly edited copies of a written file, read as one batch: the
        # one-pass read declines each or reads what the line loop reads, and it
        # declines what the loop rejects. Counts and edits come from a generator
        # seeded by hypothesis, whose own draws cluster at the ends of each range
        space = self.DIFFERENTIAL_SPACES[name]
        rng = random.Random(seed)
        counts = [rng.randint(0, 10**6) for _ in range(space.shape[0] * space.shape[1])]
        # a count of 16 digits, which an inserted digit takes past 2**53
        counts[rng.randrange(len(counts))] = rng.choice([0, 2**52])
        path = write_counts_file(tmp_path_factory.getbasetemp() / "differential.csv", space,
                                 np.reshape(counts, space.shape), separation, meta)
        texts, edits = zip(*(self._randomly_edited(cli._read_text(path), rng) for _ in range(8)))
        for text, edited, fast in zip(texts, edits, cli._read_written(list(texts), space)):
            try:
                loop = cli._read_lines(text, path, space)
            except DataFormatError:
                assert fast is None
                continue
            assert fast is not None or edited
            if fast is not None:
                assert fast.counts.dtype == loop.counts.dtype == np.int64
                assert fast.counts.tolist() == loop.counts.tolist()
                assert repr(fast.separation) == repr(loop.separation)
                assert type(fast.total) is type(loop.total) is int and fast.total == loop.total

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace(",0\n", ",0000000000000000000\n", 1), None),
        (lambda text: text[:-1], None),
        (lambda text: text + "0,0,0,0,3", "{path}:52: duplicate mode tuple (0, 0, 0, 0)"),
    ], ids=["19-digit-field", "no-last-newline", "unended-extra-row"])
    def test_a_file_just_outside_the_written_layout_takes_the_line_loop(self, tmp_path, space7,
                                                                        edit, message):
        counts = np.arange(49).reshape(7, 7)
        written = write_counts_file(tmp_path / "written.csv", space7, counts, separation=0.3)
        path = tmp_path / "edited.csv"
        path.write_text(edit(written.read_text()))
        assert cli._read_written([path.read_text()], space7)[0] is None
        if message is None:
            assert read_counts_file(path, space7).counts.tolist() == counts.tolist()
        else:
            with pytest.raises(DataFormatError) as caught:
                read_counts_file(path, space7)
            assert str(caught.value) == message.format(path=path)

    def test_a_byte_order_mark_is_skipped(self, tmp_path, capsys, space7):
        # Excel's "CSV UTF-8" and Notepad start the file with U+FEFF
        written = write_counts_file(tmp_path / "written.csv", space7,
                                    np.arange(49).reshape(7, 7) + 1, separation=0.3)
        bom = tmp_path / "bom.csv"
        bom.write_text("\ufeff" + written.read_text(), encoding="utf-8")
        with mock.patch.object(cli, "_read_lines", wraps=cli._read_lines) as loop:
            cm = read_counts_file(bom, space7)
        assert loop.call_count == 0  # the one-pass read takes it
        np.testing.assert_array_equal(cm.counts, read_counts_file(written, space7).counts)
        assert cm.separation == 0.3
        edited = tmp_path / "bom-edited.csv"
        edited.write_text("\ufeff" + written.read_text().replace(",", " , "), encoding="utf-8")
        np.testing.assert_array_equal(read_counts_file(edited, space7).counts, cm.counts)
        out = tmp_path / "out"
        assert main(["estimate", str(bom), "--out-dir", str(out)]) == EXIT_OK
        assert (out / "estimates.csv").exists()

    @pytest.mark.parametrize("data", [
        b"a\r\nb\rc\n\r\r\nd\r", b"\r", b"\r\n\r", b"\xef\xbb\xbf# x\r\n", b"",
        b"# separation = 0.3\xff\n", b"ok\r\n\xe2\x82", b"\xc3\x28\r\n",
    ], ids=["mixed", "cr", "crlf-cr", "bom-crlf", "empty", "bad-byte", "cut-char", "bad-pair"])
    def test_files_are_read_as_text_mode_reads_them(self, tmp_path, space7, data):
        # the binary read decodes as UTF-8 and translates newlines as open() in
        # text mode does with that encoding: the same text, or the same decode error
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        try:
            with open(path, encoding="utf-8") as handle:
                expected = handle.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            expected = f"{path}: cannot read file ({exc})"
        with mock.patch.object(cli, "_read_written", wraps=cli._read_written) as fast, \
                mock.patch.object(cli, "_read_lines", side_effect=DataFormatError("loop")):
            with pytest.raises(DataFormatError) as caught:
                next(cli._read_counts_files([path], space7))
        if str(caught.value) == "loop":
            assert fast.call_args.args[0] == [expected]
        else:
            assert str(caught.value) == expected

    def test_a_batch_reads_each_file_on_the_fast_path_but_the_edited_one(self, tmp_path, space7):
        paths = [write_counts_file(tmp_path / f"c{i}.csv", space7,
                                   np.full((7, 7), i + 1), separation=0.25 * i) for i in range(5)]
        paths[2].write_text(paths[2].read_text().replace(",", ", "))
        with mock.patch.object(cli, "_read_written", wraps=cli._read_written) as fast, \
                mock.patch.object(cli, "_read_lines", wraps=cli._read_lines) as loop:
            matrices = list(cli._read_counts_files(paths, space7))
        assert fast.call_count == 1 and len(fast.call_args.args[0]) == 5
        assert loop.call_count == 1 and loop.call_args.args[1] == paths[2]
        for i, cm in enumerate(matrices):
            assert cm.counts.tolist() == np.full((7, 7), i + 1).tolist()
            assert cm.separation == 0.25 * i

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_batch_reads_every_file_as_the_loop_reads_it_alone(self, tmp_path_factory, data):
        space = bp.ModeSpace.grid(max_k=2, max_l=1)
        keys = [idler + signal for idler in space.idler for signal in space.signal]
        kinds = ("written", "zero", "bom", "hand", "rejected", "missing")
        folder = tmp_path_factory.mktemp("batch")
        paths = []
        for index, kind in enumerate(data.draw(st.lists(st.sampled_from(kinds), max_size=8))):
            path = folder / f"f{index}.csv"
            cells = {key: data.draw(st.integers(0, 10**6)) for key in keys}
            counts = np.array([cells[key] for key in keys]).reshape(space.shape)
            separation = data.draw(st.none() | st.floats(-10.0, 10.0))
            if kind in ("written", "zero", "bom"):
                write_counts_file(path, space, counts * (kind != "zero"), separation)
                if kind == "bom":
                    path.write_text("\ufeff" + path.read_text(), encoding="utf-8")
            elif kind == "hand":
                order = data.draw(st.permutations(range(len(keys))))
                edits = data.draw(st.sets(st.sampled_from(self.EDITS)))
                path.write_text(self._oracle_text(cells, order, separation, edits),
                                encoding="utf-8", newline="")
            elif kind == "rejected":
                edit, label, _ = data.draw(st.sampled_from(
                    [*self.REJECTED.values(), *self.OUT_OF_RANGE.values()]))
                rows, _ = self._rows(space)
                head = [f"# separation = {label}", _COLUMNS]
                path.write_text("\n".join(head + edit(rows)) + "\n")
            paths.append(path)
        expected = []
        for path in paths:
            try:
                expected.append(_loop_read(path, space))
            except DataFormatError as exc:
                expected.append(str(exc))
        # a read error ends a batch at its file's turn; the files after it
        # start a new batch
        start = 0
        while start < len(paths):
            reader = cli._read_counts_files(paths[start:], space)
            for index in range(start, len(paths)):
                start = index + 1
                if isinstance(expected[index], str):
                    with pytest.raises(DataFormatError) as caught:
                        next(reader)
                    assert str(caught.value) == expected[index]
                    break
                cm = next(reader)
                assert cm.counts.dtype == np.int64
                assert cm.counts.tolist() == expected[index].counts.tolist()
                assert cm.separation == expected[index].separation
                assert cm.total == expected[index].total


class TestEstimate:
    def test_round_trip_with_calibration(self, tmp_path):
        cal = bp.CalibrationModel(alpha=np.full((7, 7), 0.8), beta=np.full((7, 7), 0.01))
        seps = np.linspace(0.1, 1.2, 8)
        files = _make_synthetic_files(tmp_path, seps, photons=20_000, cal=cal)
        out = tmp_path / "out"
        code = main([
            "estimate", *files, "--calibrate", "--gamma", "0.15", "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        header, columns, rows = _read_rows(out / "estimates.csv")
        assert columns == ["label", "d_hat", "delta_hat", "log_likelihood", "crlb", "flags"]
        assert len(rows) == len(files)
        for row, true_d in zip(rows, seps):
            assert float(row[0]) == pytest.approx(true_d, rel=1e-9)
            assert float(row[1]) == pytest.approx(true_d, abs=0.05)
            assert float(row[2]) == pytest.approx(2.0 * float(row[1]), rel=1e-9)

    def test_uncalibrated_shows_systematic_deviation(self, tmp_path):
        cal = bp.CalibrationModel(alpha=np.full((7, 7), 0.8), beta=np.full((7, 7), 0.01))
        seps = np.linspace(0.1, 1.2, 8)
        files = _make_synthetic_files(tmp_path, seps, photons=20_000, cal=cal)
        out = tmp_path / "out"
        assert main(["estimate", *files, "--gamma", "0.15", "--out-dir", str(out)]) == EXIT_OK
        _, _, rows = _read_rows(out / "estimates.csv")
        deviation = np.mean([abs(float(r[1]) - float(r[0])) for r in rows])
        assert deviation > 0.05

    def test_empty_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("k_idler,l_idler,k_signal,l_signal,count\n")
        code = main(["estimate", str(path), "--out-dir", str(tmp_path)])
        assert code == EXIT_DATA
        assert "empty.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("calibrate", [[], ["--calibrate"]], ids=["plain", "calibrate"])
    def test_all_zero_counts_file_is_a_data_error(self, tmp_path, capsys, calibrate):
        space = bp.ModeSpace.grid()
        zero = write_counts_file(tmp_path / "zero.csv", space, np.zeros(space.shape), 0.3)
        other = write_counts_file(tmp_path / "other.csv", space, np.ones(space.shape), 0.6)
        code = main(["estimate", str(other), str(zero), *calibrate, "--out-dir", str(tmp_path)])
        assert code == EXIT_DATA
        assert "zero.csv" in capsys.readouterr().err

    def test_unreadable_file_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        out = tmp_path / "out"
        assert main(["estimate", str(missing), "--out-dir", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(
            f"bispade: data error: {missing}: cannot read file (")
        assert not out.exists()

    def test_non_utf8_file_is_a_data_error_naming_it(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"# separation = 0.3\xff\n")
        out = tmp_path / "out"
        assert main(["estimate", str(path), "--out-dir", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"bispade: data error: {path}: cannot read file (")
        assert "can't decode byte 0xff" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("names, named", [
        (("good", "zero", "bad"), "{zero}: counts sum to zero"),
        (("good", "bad", "missing"), "{bad}:3: negative count"),
        (("missing", "bad"), "{missing}: cannot read file ("),
    ], ids=["zero-before-bad", "bad-before-missing", "missing-before-bad"])
    def test_the_first_bad_file_in_order_is_named(self, tmp_path, capsys, space7, names, named):
        # every file is read before the first is checked, but each error is
        # raised at its file's turn, a zero sum in between
        files = {
            "good": write_counts_file(tmp_path / "good.csv", space7, np.ones((7, 7)), 0.3),
            "zero": write_counts_file(tmp_path / "zero.csv", space7, np.zeros((7, 7)), 0.3),
            "bad": tmp_path / "bad.csv",
            "missing": tmp_path / "missing.csv",
        }
        files["bad"].write_text(files["good"].read_text().replace("0,0,0,0,1", "0,0,0,0,-1"))
        out = tmp_path / "out"
        assert main(["estimate", *(str(files[name]) for name in names),
                     "--out-dir", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("bispade: data error: " + named.format(**files))
        assert err.count("\n") == 1 and not out.exists()

    def test_malformed_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,0,0\n")
        assert main(["estimate", str(path), "--out-dir", str(tmp_path)]) == EXIT_DATA

    def test_space_mismatch_exit_code(self, tmp_path):
        space = bp.ModeSpace.grid(max_k=2)
        counts = np.ones(space.shape, dtype=np.int64)
        path = write_counts_file(tmp_path / "small.csv", space, counts, separation=0.1)
        code = main(["estimate", str(path), "--out-dir", str(tmp_path)])
        assert code == EXIT_DATA

    def test_space_mismatch_names_configured_space(self, tmp_path, capsys):
        space = bp.ModeSpace.grid(max_k=2)
        counts = np.ones(space.shape, dtype=np.int64)
        path = write_counts_file(tmp_path / "small.csv", space, counts)
        code = main(["estimate", str(path), "--modes-l", "1", "--out-dir", str(tmp_path)])
        assert code == EXIT_DATA
        assert "configured 14x14 space" in capsys.readouterr().err

    def test_calibrate_requires_labels(self, tmp_path, capsys):
        space = bp.ModeSpace.grid()
        counts = np.ones(space.shape, dtype=np.int64)
        unlabeled = write_counts_file(tmp_path / "u.csv", space, counts)
        labeled = write_counts_file(tmp_path / "l.csv", space, counts, separation=0.2)
        code = main([
            "estimate", str(unlabeled), str(labeled), "--calibrate", "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_DATA
        assert "u.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("labels", [(0.3,), (0.3, 0.3)], ids=["one-file", "one-label"])
    def test_calibrate_at_one_separation_is_a_data_error_naming_it(self, tmp_path, capsys,
                                                                    labels):
        space = bp.ModeSpace.grid()
        counts = np.ones(space.shape, dtype=np.int64)
        files = [str(write_counts_file(tmp_path / f"{i}.csv", space, counts, separation=d))
                 for i, d in enumerate(labels)]
        out = tmp_path / "out"
        assert main(["estimate", *files, "--calibrate", "--out-dir", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            "bispade: data error: calibration needs files at two or more distinct "
            "separations; every file is labelled 0.3\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_label_is_a_data_error(self, tmp_path, capsys, value):
        # a calibration fed the label would fail numerically instead
        space = bp.ModeSpace.grid()
        counts = np.ones(space.shape, dtype=np.int64)
        files = [write_counts_file(tmp_path / f"{name}.csv", space, counts, separation=d)
                 for name, d in (("a", 0.1), ("b", 0.2))]
        # by hand: the writer refuses a label the reader refuses
        files.append(tmp_path / "bad.csv")
        files[-1].write_text(files[0].read_text().replace("= 0.1", f"= {value}"))
        code = main(["estimate", *map(str, files), "--calibrate",
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert f"bad.csv:1: bad separation value '{value}'" in capsys.readouterr().err


class TestCompare:
    def test_a_separation_past_the_search_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["compare", "--sep-start", "3", "--sep-stop", "3", "--out-dir", str(out)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "bispade: config error: true separation d must be in [0, 2], the interval every "
            "fit searches, got 3.0\n")
        assert not out.exists()

    def test_small_run_structure(self, tmp_path):
        code = main([
            "compare", "--out-dir", str(tmp_path), "--photons", "2000", "--trials", "6",
            "--sep-start", "0", "--sep-stop", "0.1", "--sep-step", "0.05", "--seed", "9",
        ])
        assert code == EXIT_OK
        header, columns, rows = _read_rows(tmp_path / "compare.csv")
        assert columns == ["d", "delta", "method", "std_err", "mean", "boundary_fraction"]
        assert len(rows) == 3 * 3
        assert {r[2] for r in rows} == set(bp.METHODS)
        assert _header_value(header, "photons") == "2000"
        assert _header_value(header, "seed") == "9"
        assert _header_value(header, "pixel_count") == "50"
        for row in rows:
            assert float(row[1]) == pytest.approx(2.0 * float(row[0]), rel=1e-12)
            assert np.isfinite(float(row[3]))

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "compare", "--photons", "1500", "--trials", "5",
            "--sep-start", "0.05", "--sep-stop", "0.05", "--sep-step", "0.05", "--seed", "13",
        ]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(args + ["--out-dir", str(out_a)]) == EXIT_OK
        assert main(args + ["--out-dir", str(out_b)]) == EXIT_OK
        assert (out_a / "compare.csv").read_bytes() == (out_b / "compare.csv").read_bytes()

    def test_rows_equal_per_trial_oracle(self, tmp_path):
        # every cell refitted trial by trial through the public API (one
        # sample_counts draw and one mle_estimate fit per trial), then reduced
        photons, trials, seed = 5000, 4, 17
        code = main([
            "compare", "--out-dir", str(tmp_path), "--photons", str(photons),
            "--trials", str(trials), "--sep-start", "0", "--sep-stop", "0.6",
            "--sep-step", "0.3", "--seed", str(seed),
        ])
        assert code == EXIT_OK
        _, _, rows = _read_rows(tmp_path / "compare.csv")
        model = bp.SchmidtModel.from_gamma(0.15)
        forwards = {
            "spade": bp.spade_forward(model, bp.ModeSpace.grid()),
            "direct_gaussian": bp.direct_forward(model, bp.PixelGrid(), "gaussian"),
            "direct_spdc": bp.direct_forward(model, bp.PixelGrid(), "spdc"),
        }
        expected = []
        for sep_index, d in enumerate(np.arange(0.0, 0.75, 0.3)):
            for method_index, method in enumerate(bp.METHODS):
                cell_seed = int(
                    np.random.SeedSequence((seed, method_index, sep_index)).generate_state(1)[0]
                )
                truth = forwards[method](float(d))
                fits = [
                    bp.mle_estimate(
                        bp.sample_counts(truth, photons, bp.trial_seed(cell_seed, t)),
                        forwards[method],
                    )
                    for t in range(trials)
                ]
                estimates = np.array([fit.delta_hat for fit in fits])
                boundary = sum("boundary" in fit.flags for fit in fits) / trials
                expected.append([
                    _fmt(d), _fmt(2.0 * d), method, _fmt(estimates.std(ddof=1)),
                    _fmt(estimates.mean()), _fmt(boundary),
                ])
        assert rows == expected

    def test_rows_equal_the_cells_of_mc_standard_error(self, tmp_path):
        # the job-wide seeding pass gives each cell the master a lone cell takes as its seed
        photons, trials, seed = 4000, 3, 2**64 + 1
        assert main([
            "compare", "--out-dir", str(tmp_path), "--photons", str(photons),
            "--trials", str(trials), "--sep-start", "0.1", "--sep-stop", "0.5",
            "--sep-step", "0.2", "--seed", str(seed),
        ]) == EXIT_OK
        _, _, rows = _read_rows(tmp_path / "compare.csv")
        expected = []
        for sep_index, d in enumerate(np.arange(0.1, 0.6, 0.2)):
            for method_index, method in enumerate(bp.METHODS):
                master = int(
                    np.random.SeedSequence((seed, method_index, sep_index)).generate_state(1)[0]
                )
                cell = bp.mc_standard_error(method, 0.15, photons, float(d), trials, master)
                expected.append([_fmt(d), _fmt(2.0 * d), method, _fmt(cell.std_err),
                                 _fmt(cell.mean), _fmt(cell.boundary_fraction)])
        assert rows == expected

    def test_row_budget_changes_no_byte(self, tmp_path, monkeypatch):
        # 5 cells of 5 trials per method; a budget below one cell's trials still
        # fits whole cells, one per call, and a budget of 25 fits all cells at once
        args = [
            "compare", "--photons", "3000", "--trials", "5", "--sep-start", "0",
            "--sep-stop", "0.4", "--sep-step", "0.1", "--seed", "3",
        ]
        fit = inference._fit
        outputs = {}
        for budget, rows_per_fit in ((3, 5), (25, 25)):
            fitted_rows = []

            def counting_fit(obs, *rest):
                fitted_rows.append(len(obs))
                return fit(obs, *rest)

            monkeypatch.setattr(inference, "_FIT_ROWS", budget)
            monkeypatch.setattr(inference, "_fit", counting_fit)
            out = tmp_path / str(budget)
            assert main(args + ["--out-dir", str(out)]) == EXIT_OK
            assert fitted_rows == [rows_per_fit] * (3 * 25 // rows_per_fit)
            outputs[budget] = (out / "compare.csv").read_bytes()
        assert outputs[3] == outputs[25]

    def test_shared_maps_leak_nothing_between_jobs(self, tmp_path):
        # jobs in one process share their forward maps; each output must equal
        # that of the same job run on emptied caches
        cal = bp.CalibrationModel(alpha=np.full((7, 7), 0.8), beta=np.full((7, 7), 0.01))
        files = _make_synthetic_files(tmp_path, np.linspace(0.1, 1.2, 6), photons=20_000,
                                      cal=cal)
        sweep = ["--photons", "3000", "--trials", "4", "--sep-start", "0.05",
                 "--sep-stop", "0.65", "--sep-step", "0.3", "--seed", "5"]
        jobs = [
            ("compare.csv", ["compare", "--gamma", "0.15", *sweep]),
            ("compare.csv", ["compare", "--gamma", "0.07", *sweep]),
            ("estimates.csv", ["estimate", *files, "--calibrate", "--gamma", "0.15"]),
            ("compare.csv", ["compare", "--gamma", "0.15", *sweep]),
        ]

        def run(out, name, argv):
            assert main([*argv, "--out-dir", str(tmp_path / out)]) == EXIT_OK
            return (tmp_path / out / name).read_bytes()

        in_sequence = [run(f"warm{i}", *job) for i, job in enumerate(jobs)]
        alone = []
        for i, job in enumerate(jobs):
            inference.spade_forward.cache_clear()
            inference.direct_forward.cache_clear()
            alone.append(run(f"cold{i}", *job))
        assert in_sequence == alone
        assert in_sequence[0] == in_sequence[3] != in_sequence[1]


class TestHeaders:
    RUN_KEYS = ("photons", "trials", "seed")

    def _header(self, tmp_path, argv, name):
        assert main([*argv, "--out-dir", str(tmp_path), "--seed", "3"]) == EXIT_OK
        return _read_rows(tmp_path / name)[0]

    def test_compare_records_photons_trials_and_seed(self, tmp_path):
        header = self._header(tmp_path, [
            "compare", "--photons", "500", "--trials", "2",
            "--sep-start", "0.5", "--sep-stop", "0.5", "--sep-step", "0.5",
        ], "compare.csv")
        assert [_header_value(header, key) for key in self.RUN_KEYS] == ["500", "2", "3"]

    @pytest.mark.parametrize("argv,name", [
        (["crlb-curves", "--k-values", "1,2"], "crlb_curves.csv"),
        (["matrices", "--sep-start", "0", "--sep-stop", "0", "--sep-step", "1"],
         "matrix_00.csv"),
    ])
    def test_commands_without_sampling_omit_them(self, tmp_path, argv, name):
        header = self._header(tmp_path, argv, name)
        for key in self.RUN_KEYS:
            with pytest.raises(KeyError):
                _header_value(header, key)

    def test_estimate_omits_them(self, tmp_path):
        files = _make_synthetic_files(tmp_path, [0.3], photons=1000)
        header = self._header(tmp_path, ["estimate", *files], "estimates.csv")
        for key in self.RUN_KEYS:
            with pytest.raises(KeyError):
                _header_value(header, key)


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main([]) == EXIT_USAGE
        assert main(["compare", "--photons", "0"]) == EXIT_USAGE

    @pytest.mark.parametrize("photons", ["10000000000000000000", "9223372036854775807"])
    def test_photons_past_float64_exact_counts_are_rejected(self, tmp_path, capsys, photons):
        # float64 count sums are exact up to 2**53; the run must stop before sampling
        code = main([
            "compare", "--photons", photons, "--trials", "2", "--out-dir", str(tmp_path),
            "--sep-start", "0.3", "--sep-stop", "0.3",
        ])
        assert code == EXIT_USAGE
        assert "photons must be at most 2**53" in capsys.readouterr().err
        assert not (tmp_path / "compare.csv").exists()

    def test_photons_at_float64_limit_are_valid(self):
        RunConfig(photons=2**53).validate()

    def test_conflicting_source_definition(self, capsys):
        code = main([
            "crlb-curves", "--gamma", "0.15", "--pump-waist-um", "40",
            "--crystal-length-mm", "0.5", "--pump-wavelength-nm", "405",
        ])
        assert code == EXIT_USAGE

    def test_numerical_failure_is_three(self, tmp_path, capsys):
        # at a gamma this small the 7x7 space holds too little probability mass
        from bispade.cli import EXIT_NUMERIC

        code = main(["matrices", "--gamma", "1e-06", "--out-dir", str(tmp_path)])
        assert code == EXIT_NUMERIC

    def test_estimate_numerical_failure_is_three(self, tmp_path, capsys):
        # at gamma 1e-7 the 7x7 space holds too little probability mass; estimate
        # fails like every other command, with no output directory and no error rows
        (path,) = _make_synthetic_files(tmp_path, [0.3], photons=1000)
        out = tmp_path / "out"
        code = main(["estimate", path, "--gamma", "1e-7", "--out-dir", str(out)])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith(
            "bispade: numerical failure: in-space probability mass ")
        assert not out.exists()

    def test_overflowing_mode_orders_are_three(self, tmp_path, capsys):
        from bispade.cli import EXIT_NUMERIC

        code = main([
            "matrices", "--modes-k", "1100", "--out-dir", str(tmp_path),
            "--sep-start", "0.5", "--sep-stop", "0.5", "--sep-step", "0.5",
        ])
        assert code == EXIT_NUMERIC
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name, error, detail", [
        (["matrices"], "prob_matrix", MemoryError("Unable to allocate 7.45 GiB"),
         " (Unable to allocate 7.45 GiB)"),
        (["estimate", "unread.csv"], "_row_keys", MemoryError(), ""),
    ], ids=["matrices", "estimate"])
    def test_running_out_of_memory_is_three(self, tmp_path, capsys, monkeypatch, argv, name,
                                            error, detail):
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, name, exhausted)
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == f"bispade: numerical failure: out of memory{detail}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["matrices"], ["estimate", "unread.csv"]],
                             ids=["matrices", "estimate"])
    def test_a_grid_numpy_cannot_index_is_refused_before_its_pairs(self, tmp_path, capsys,
                                                                   monkeypatch, argv):
        # listing the 2**62 + 1 pairs of each arm would run without end
        def refuse(*args):
            raise AssertionError("the grid listed its pairs")

        monkeypatch.setattr("bispade.model.range", refuse, raising=False)
        out = tmp_path / "out"
        assert main([*argv, "--modes-k", str(2**62), "--out-dir", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "bispade: config error: mode indices must be small enough that numpy can index the "
            "grid's ((max_k + 1) * (max_l + 1))**2 outcomes, got max_k=4611686018427387904, "
            "max_l=0\n"
        )
        assert not out.exists()


    def test_a_grid_memory_cannot_hold_is_refused_before_its_pairs(self, tmp_path, capsys,
                                                                   monkeypatch):
        # numpy can index the (3037000499**2)**2 outcomes, but their plan takes about
        # 3.4e20 bytes: listing each arm's 3037000499 pairs would run until memory runs out
        if model._physical_memory() is None:
            pytest.skip("os.sysconf reports no physical memory here")

        def refuse(*args):
            raise AssertionError("the grid listed its pairs")

        monkeypatch.setattr("bispade.model.range", refuse, raising=False)
        out = tmp_path / "out"
        assert main(["matrices", "--modes-k", "3037000498", "--out-dir", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("bispade: config error: a grid of max_k=3037000498, max_l=0 has "
                              "9223372030926249001 outcomes, whose spade plan of 40 bytes each "
                              "takes 368934881237049960040 bytes, above the ")
        assert err.endswith(" bytes of physical memory\n")
        assert not out.exists()


class TestNonFiniteSettings:
    @pytest.mark.parametrize("argv,message", [
        (["crlb-curves", "--k-values", "1,inf"], "Schmidt number must be finite and >= 1, got inf"),
        (["compare", "--sep-stop", "inf"], "sep-stop must be finite, got inf"),
        (["compare", "--sep-start", "nan"], "sep-start must be finite, got nan"),
        (["matrices", "--sep-step", "inf"], "sep-step must be finite, got inf"),
        (["compare", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["crlb-curves", "--pump-waist-um", "inf", "--crystal-length-mm", "2",
          "--pump-wavelength-nm", "405"], "pump-waist-um must be a finite positive number, got inf"),
        (["crlb-curves", "--pump-waist-um", "-100", "--crystal-length-mm", "2",
          "--pump-wavelength-nm", "405"], "pump-waist-um must be a finite positive number, "
                                          "got -100.0"),
        # each setting is finite, but the gamma of the three overflows
        (["crlb-curves", "--pump-waist-um", "100", "--crystal-length-mm", "1e308",
          "--pump-wavelength-nm", "1e308"],
         "gamma from pump-waist-um 100.0, crystal-length-mm 1e+308, pump-wavelength-nm 1e+308 "
         "is not a finite positive number"),
        # a finite positive waist that is zero in meters
        (["crlb-curves", "--pump-waist-um", "1e-320", "--crystal-length-mm", "2",
          "--pump-wavelength-nm", "405"],
         "gamma from pump-waist-um 1e-320, crystal-length-mm 2.0, pump-wavelength-nm 405.0 "
         "is not a finite positive number"),
        # crlb-curves builds no mode space, so only the setting check can refuse it
        (["crlb-curves", "--modes-k", "-1"], "mode indices must be non-negative, got modes_k=-1"),
        (["matrices", "--sep-step", "0"], "sep-step must be positive"),
        (["compare", "--trials", "1"], "need an integer number of at least 2 trials, got 1"),
        (["matrices", "--sep-start", "0.5", "--sep-stop", "0.1"],
         "sep-stop must be >= sep-start"),
        # settings a library function owns, checked by its rule
        (["compare", "--gamma", "-1"], "gamma must be a finite positive number, got -1.0"),
        (["crlb-curves", "--gamma", "inf"], "gamma must be a finite positive number, got inf"),
        (["estimate", "unread.csv", "--modes-l", "-2"],
         "mode indices must be non-negative, got modes_l=-2"),
        (["crlb-curves", "--modes-k", str(2**63)],
         f"mode indices must be at most 2**63 - 1, got modes_k={2**63}"),
        (["matrices", "--modes-k", str(2**63)],
         f"mode indices must be at most 2**63 - 1, got modes_k={2**63}"),
        (["crlb-curves", "--k-values", "2,nan"], "Schmidt number must be finite and >= 1, got nan"),
    ], ids=["k-values", "sep-stop", "sep-start", "sep-step", "seed", "pump-waist",
            "pump-waist-negative", "physical-gamma-inf", "pump-waist-underflow", "modes-k",
            "sep-step-zero", "trials", "sep-stop-below-start", "gamma-negative",
            "gamma-inf", "modes-l-negative", "crlb-curves-modes-k-2**63",
            "matrices-modes-k-2**63", "k-values-nan"])
    def test_is_a_config_error_naming_the_setting(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["crlb-curves", "--k-values", "2"],
    ["matrices", "--sep-start", "0.3", "--sep-stop", "0.3"],
], ids=["crlb-curves", "matrices"])
def test_commands_that_run_no_trials_accept_one(tmp_path, argv):
    assert main([*argv, "--trials", "1", "--out-dir", str(tmp_path)]) == EXIT_OK


def test_estimate_accepts_one_trial(tmp_path):
    (path,) = _make_synthetic_files(tmp_path, [0.3], photons=1000)
    out = tmp_path / "out"
    assert main(["estimate", path, "--trials", "1", "--out-dir", str(out)]) == EXIT_OK


class TestSeparationCount:
    @pytest.mark.parametrize("argv", [
        ["--sep-stop", "1e300"],
        ["--sep-stop", "1e6", "--sep-step", "1e-3"],
    ], ids=["1e300", "1e9-points"])
    def test_too_many_is_a_config_error_before_any_allocation(
            self, tmp_path, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("np.arange called for an oversized separation grid")

        monkeypatch.setattr(np, "arange", refuse)
        out = tmp_path / "out"
        assert main(["matrices", *argv, "--out-dir", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("bispade: config error: ")
        assert all(name in err for name in ("sep-start", "sep-stop", "sep-step"))
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "matrices"])
    @pytest.mark.parametrize("stop", [0.3, np.nextafter(0.3, 1.0)], ids=["empty", "repeated"])
    def test_a_step_below_the_float_spacing_is_a_config_error(self, tmp_path, capsys, command,
                                                              stop):
        # 0.3 + 1e-17 == 0.3: the grid would be empty or 0.3 six times
        out = tmp_path / "out"
        argv = [command, "--sep-start", "0.3", "--sep-stop", repr(float(stop)),
                "--sep-step", "1e-17", "--trials", "2", "--out-dir", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("bispade: config error: sep-step 1e-17 is too small ")
        assert "empty or repeat a separation" in err and not out.exists()

    def test_the_bound_itself_is_accepted(self):
        seps = RunConfig(sep_start=0.0, sep_stop=9999.0, sep_step=1.0).separations(0.0, 1.0, 1.0)
        assert len(seps) == 10_000


class TestNegativeSeparations:
    # d is a per-arm shift and every fit searches d in [0, 2], so no row may start below 0
    @pytest.mark.parametrize("command", ["compare", "matrices"])
    @pytest.mark.parametrize("start, stop", [("-0.3", "-0.3"), ("-1e-300", "0.5")],
                             ids=["both-negative", "just-below-zero"])
    def test_a_negative_start_is_a_config_error_naming_it(self, tmp_path, capsys, command,
                                                          start, stop):
        out = tmp_path / "out"
        argv = [command, f"--sep-start={start}", f"--sep-stop={stop}", "--out-dir", str(out)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"bispade: config error: sep-start must be non-negative, got {float(start)!r}\n")
        assert not out.exists()

    def test_a_negative_start_in_a_config_file_is_refused(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("sep_start = -0.3\nsep_stop = 0.3\n")
        argv = ["matrices", "--config", str(cfg_file), "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_USAGE
        assert "sep-start must be non-negative, got -0.3" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, first", [
        ("compare", "compare.csv", "0,0,spade,"),
        ("matrices", "matrix_00.csv", "0,0,0,0,"),
    ])
    def test_minus_zero_reads_as_zero(self, tmp_path, command, name, first):
        tables = {}
        for start in ("-0.0", "0.0"):
            out = tmp_path / start
            argv = [command, f"--sep-start={start}", "--sep-stop", "0.2", "--sep-step", "0.2",
                    "--trials", "2", "--photons", "500", "--out-dir", str(out)]
            assert main(argv) == EXIT_OK
            tables[start] = (out / name).read_text()
        assert tables["-0.0"] == tables["0.0"]
        header, _, rows = _read_rows(tmp_path / "-0.0" / name)
        assert ",".join(rows[0]).startswith(first)
        assert "-0" not in "".join(header)


@pytest.mark.parametrize("tail", ["", "sub", "sub/deeper"])
def test_out_dir_naming_a_file_is_a_config_error(tmp_path, capsys, tail):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / tail if tail else taken
    # pathlib is the oracle: its mkdir names out itself, where os.makedirs alone would
    # name taken/sub below a file
    with pytest.raises(OSError) as oracle:
        out.mkdir(parents=True, exist_ok=True)
    assert main(["crlb-curves", "--out-dir", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == (f"bispade: config error: out-dir {out}: cannot write "
                                       f"crlb_curves.csv ({oracle.value})\n")
    assert taken.read_text() == "not a directory\n"
    assert [path.name for path in tmp_path.iterdir()] == ["taken"]


def test_a_table_that_cannot_be_written_is_a_config_error(tmp_path, capsys):
    # a directory where the table goes: the message names the out-dir and the file
    (tmp_path / "compare.csv").mkdir()
    code = main(["compare", "--trials", "2", "--sep-start", "0.3", "--sep-stop", "0.3",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"bispade: config error: out-dir {tmp_path}: cannot write compare.csv (")
    assert err.count("\n") == 1


def test_a_failed_write_leaves_none_of_the_run_s_tables(tmp_path, capsys):
    # matrices writes five tables; the fourth cannot be written, so none is kept or printed
    (tmp_path / "matrix_03.csv").mkdir()
    assert main(["matrices", "--out-dir", str(tmp_path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"bispade: config error: out-dir {tmp_path}: cannot write matrix_03.csv (")
    assert err.count("\n") == 1
    assert [path.name for path in tmp_path.iterdir()] == ["matrix_03.csv"]


def _fail_the_third_table_write(monkeypatch, out_dir, error):
    # matrices into out_dir, whose third table opens and then fails to write with
    # error; returns the exit code and the names of the tables opened
    class FailingFile(io.StringIO):
        def write(self, text):
            raise error

    opened = []

    def open_table(path, *args, **kwargs):
        name = os.path.basename(path)
        opened.append(name)
        if name == "matrix_02.csv":
            open(path, *args, **kwargs).close()
            return FailingFile()
        return open(path, *args, **kwargs)

    # the writer's open: the module global shadows the builtin within cli alone
    monkeypatch.setattr(cli, "open", open_table, raising=False)
    return main(["matrices", "--out-dir", str(out_dir)]), opened


def test_a_failed_write_removes_the_directories_the_run_made(tmp_path, monkeypatch, capsys):
    # a full disk part-way through the third table
    out_dir = tmp_path / "new" / "out"
    code, opened = _fail_the_third_table_write(
        monkeypatch, out_dir, OSError(errno.ENOSPC, "No space left on device"))
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert opened == ["matrix_00.csv", "matrix_01.csv", "matrix_02.csv"]
    assert out == ""
    assert err == (f"bispade: config error: out-dir {out_dir}: cannot write matrix_02.csv "
                   "([Errno 28] No space left on device)\n")
    assert list(tmp_path.iterdir()) == []


def test_a_write_out_of_memory_removes_the_run_s_tables_and_directories(tmp_path, monkeypatch,
                                                                          capsys):
    code, opened = _fail_the_third_table_write(monkeypatch, tmp_path / "new" / "out",
                                               MemoryError())
    assert code == EXIT_NUMERIC
    assert opened == ["matrix_00.csv", "matrix_01.csv", "matrix_02.csv"]
    assert capsys.readouterr() == ("", "bispade: numerical failure: out of memory\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["compare", "estimate"])
def test_a_warm_job_interns_no_string(tmp_path, monkeypatch, capsys, command):
    # pathlib interns every component of a path, among them each job's own out-dir,
    # and the table of interned strings grows job after job. A first job may intern
    # what it imports (numpy.random, 13 names); the second interns nothing
    if command == "compare":
        argv = ["compare", "--trials", "2", "--sep-start", "0.3", "--sep-stop", "0.3"]
    else:
        files = _make_synthetic_files(tmp_path, [0.2, 0.6], photons=5_000)
        argv = ["estimate", *files, "--calibrate", "--gamma", "0.15"]
    assert main([*argv, "--out-dir", str(tmp_path / "first")]) == EXIT_OK
    second = [*argv, "--out-dir", str(tmp_path / "second" / "job")]
    interned = []
    intern = sys.intern
    monkeypatch.setattr(sys, "intern", lambda text: interned.append(text) or intern(text))
    assert main(second) == EXIT_OK
    assert interned == []


@pytest.mark.parametrize("spelling", [".", "./x/", "x//y", "x/./y", "x/../y", "{absolute}/"])
def test_paths_and_messages_spell_the_out_dir_as_pathlib_does(tmp_path, monkeypatch, capsys,
                                                               spelling):
    # pathlib is the oracle: str(PurePath(out_dir) / name) for a table, as printed
    # and as named in the message of a write that fails
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x").mkdir()
    out_dir = spelling.format(absolute=tmp_path / "abs")
    table = PurePath(out_dir) / "crlb_curves.csv"
    assert main(["crlb-curves", "--out-dir", out_dir]) == EXIT_OK
    assert capsys.readouterr() == (f"{table}\n", "")
    os.unlink(table)
    os.mkdir(table)
    assert main(["crlb-curves", "--out-dir", out_dir]) == EXIT_USAGE
    assert capsys.readouterr() == ("", (
        f"bispade: config error: out-dir {PurePath(out_dir)}: cannot write crlb_curves.csv "
        f"({IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(table))})\n"))


def test_unreadable_config_file_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    argv = ["crlb-curves", "--config", str(missing), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"bispade: config error: config {missing}: cannot read file")
    assert err.count("\n") == 1


def test_a_non_utf8_locale_reads_utf8_files_that_start_with_a_byte_order_mark(tmp_path, space7):
    # every file is UTF-8 whatever the locale: under the C locale, a counts file
    # and a config file that start with a BOM and hold non-ASCII comments read as
    # they read here
    written = write_counts_file(tmp_path / "written.csv", space7,
                                np.arange(49).reshape(7, 7) * 40, separation=0.3,
                                meta={"note": "\u03b3 = 0.15, \u03bb = 405 nm"})
    counts = tmp_path / "bom.csv"
    counts.write_bytes(b"\xef\xbb\xbf" + written.read_bytes())
    config = tmp_path / "bom.cfg"
    config.write_bytes("\ufeff# \u03b3 of the source\r\ngamma = 0.2\r\n".encode("utf-8"))
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(Path(bp.__file__).parents[1])}
    script = ("import codecs, locale, sys; from bispade.cli import main; "
              "print(codecs.lookup(locale.getpreferredencoding(False)).name); "
              "sys.exit(main(sys.argv[1:]))")
    argv = ["estimate", str(counts), "--config", str(config)]
    child = subprocess.run([sys.executable, "-c", script, *argv, "--out-dir", str(tmp_path / "c")],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == EXIT_OK, child.stderr
    assert child.stdout.splitlines()[0] != "utf-8"
    here = tmp_path / "here"
    assert main(["estimate", str(written), "--gamma", "0.2", "--out-dir", str(here)]) == EXIT_OK
    assert (tmp_path / "c" / "estimates.csv").read_bytes() == (here / "estimates.csv").read_bytes()


def test_non_utf8_config_file_is_a_config_error_naming_it(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"seed = 3 # \xff\n")
    argv = ["crlb-curves", "--config", str(path), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"bispade: config error: config {path}: cannot read file (")
    assert "can't decode byte 0xff" in err and err.count("\n") == 1


def test_failed_run_creates_no_output_directory(tmp_path):
    out = tmp_path / "out"
    assert main(["matrices", "--gamma", "1e-06", "--out-dir", str(out)]) == EXIT_NUMERIC
    assert not out.exists()


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


_COMMON_OPTIONS = [
    "-h", "--help", "--config", "--gamma", "--pump-waist-um", "--crystal-length-mm",
    "--pump-wavelength-nm", "--modes-k", "--modes-l", "--sep-start", "--sep-stop",
    "--sep-step", "--photons", "--trials", "--seed", "--out-dir",
]


def test_command_line_surface_is_pinned():
    commands = next(
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    surface = {
        name: [opt for action in sub._actions for opt in action.option_strings]
        for name, sub in commands.items()
    }
    assert surface == {
        "crlb-curves": [*_COMMON_OPTIONS, "--k-values"],
        "matrices": _COMMON_OPTIONS,
        "estimate": [*_COMMON_OPTIONS, "--calibrate"],
        "compare": _COMMON_OPTIONS,
    }
    positionals = {
        name: [action.dest for action in sub._actions if not action.option_strings]
        for name, sub in commands.items()
    }
    assert positionals == {"crlb-curves": [], "matrices": [], "estimate": ["files"], "compare": []}
