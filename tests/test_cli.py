import argparse
from dataclasses import fields
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import bispade as bp
from bispade import cli, inference
from bispade.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    DataFormatError,
    EXIT_OK,
    EXIT_USAGE,
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
        fast = cli._read_exact(path.read_text(), space)
        assert fast is not None and fast.separation == 0.25
        np.testing.assert_array_equal(fast.counts, counts)

    def test_a_sparse_space_with_large_indices_is_read(self, tmp_path):
        # a dense lookup of this space would hold about 10**16 cells; the row
        # keys hold two
        space = bp.ModeSpace(idler=((10**4, 10**4),), signal=((0, 0), (10**4, 1)))
        path = write_counts_file(tmp_path / "sparse.csv", space, np.array([[3, 4]]))
        assert cli._read_exact(path.read_text(), space).counts.tolist() == [[3, 4]]
        assert read_counts_file(path, space).counts.tolist() == [[3, 4]]

    def test_reversed_rows_take_the_line_loop(self, tmp_path, space7):
        # the one-pass read places rows by their written order only
        written = write_counts_file(tmp_path / "written.csv", space7,
                                    np.arange(49).reshape(7, 7), separation=0.3)
        label, columns, *rows = written.read_text().splitlines()
        reversed_path = tmp_path / "reversed.csv"
        reversed_path.write_text("\n".join([label, columns, *rows[::-1]]) + "\n")
        assert cli._read_exact(reversed_path.read_text(), space7) is None
        loop, fast = read_counts_file(reversed_path, space7), read_counts_file(written, space7)
        np.testing.assert_array_equal(loop.counts, fast.counts)
        assert loop.separation == fast.separation == 0.3

    @pytest.mark.parametrize("case", {**REJECTED, **OUT_OF_RANGE}.values(),
                             ids={**REJECTED, **OUT_OF_RANGE}.keys())
    def test_the_one_pass_read_declines_every_rejected_file(self, tmp_path, space7, case):
        path, _ = self._edited(tmp_path, space7, case)
        assert cli._read_exact(path.read_text(), space7) is None

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
        path.write_text("\n".join(head + rows) + "\n")
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
                        newline="")
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
        path.write_text(self._oracle_text(cells, order, separation, edits), newline="")
        expected = [[cells[idler + signal] for signal in space.signal] for idler in space.idler]
        total = sum(cells.values())

        def loop_read(path, space):
            with mock.patch.object(cli, "_read_exact", lambda text, space: None):
                return read_counts_file(path, space)

        for read in (read_counts_file, loop_read):
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
        fast = cli._read_exact(path.read_text(), space)
        if max(cells.values()) > 2**63 - 1 or total > 2**53 or order != written:
            assert fast is None
        elif not edits - {"zeros"}:
            assert fast.counts.tolist() == expected and fast.separation == separation


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


    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_label_is_a_data_error(self, tmp_path, capsys, value):
        # a calibration fed the label would fail numerically instead
        space = bp.ModeSpace.grid()
        counts = np.ones(space.shape, dtype=np.int64)
        files = [write_counts_file(tmp_path / f"{name}.csv", space, counts, separation=d)
                 for name, d in (("a", 0.1), ("b", 0.2), ("bad", float(value)))]
        code = main(["estimate", *map(str, files), "--calibrate",
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert f"bad.csv:1: bad separation value '{value}'" in capsys.readouterr().err


class TestCompare:
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


class TestNonFiniteSettings:
    @pytest.mark.parametrize("argv,message", [
        (["crlb-curves", "--k-values", "1,inf"], "Schmidt number must be finite and >= 1, got inf"),
        (["compare", "--sep-stop", "inf"], "sep-stop must be finite, got inf"),
        (["compare", "--sep-start", "nan"], "sep-start must be finite, got nan"),
        (["matrices", "--sep-step", "inf"], "sep-step must be finite, got inf"),
        (["compare", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["crlb-curves", "--pump-waist-um", "inf", "--crystal-length-mm", "2",
          "--pump-wavelength-nm", "405"], "pump_waist must be a finite positive number"),
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
            "modes-k", "sep-step-zero", "trials", "sep-stop-below-start", "gamma-negative",
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

    def test_the_bound_itself_is_accepted(self):
        seps = RunConfig(sep_start=0.0, sep_stop=9999.0, sep_step=1.0).separations(0.0, 1.0, 1.0)
        assert len(seps) == 10_000


@pytest.mark.parametrize("tail", ["", "sub"])
def test_out_dir_naming_a_file_is_a_config_error(tmp_path, capsys, tail):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / tail if tail else taken
    assert main(["crlb-curves", "--out-dir", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("bispade: config error: out-dir ")
    assert str(out) in err
    assert err.count("\n") == 1
    assert taken.read_text() == "not a directory\n"


def test_unreadable_config_file_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    argv = ["crlb-curves", "--config", str(missing), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"bispade: config error: config {missing}: cannot read file")
    assert err.count("\n") == 1


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
