import numpy as np
import pytest

import bispade as bp
from bispade.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
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

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("wavelength = 405\n")
        with pytest.raises(ValueError):
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
        cm = read_counts_file(path)
        np.testing.assert_array_equal(cm.counts, counts)
        assert cm.separation == 0.3
        assert cm.meta["space"].idler == space7.idler

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# separation = 0.1\nk_idler,l_idler,k_signal,l_signal,count\n")
        from bispade.cli import DataFormatError

        with pytest.raises(DataFormatError):
            read_counts_file(path)

    def test_duplicate_tuple_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("0,0,0,0,5\n0,0,0,0,7\n")
        from bispade.cli import DataFormatError

        with pytest.raises(DataFormatError):
            read_counts_file(path)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("0,0,0,0,-5\n")
        from bispade.cli import DataFormatError

        with pytest.raises(DataFormatError):
            read_counts_file(path)


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

    def test_overflowing_mode_orders_are_three(self, tmp_path, capsys):
        from bispade.cli import EXIT_NUMERIC

        code = main([
            "matrices", "--modes-k", "1100", "--out-dir", str(tmp_path),
            "--sep-start", "0.5", "--sep-stop", "0.5", "--sep-step", "0.5",
        ])
        assert code == EXIT_NUMERIC
        assert "overflows" in capsys.readouterr().err


def test_parser_is_built_once():
    from bispade.cli import _build_parser

    assert _build_parser() is _build_parser()
