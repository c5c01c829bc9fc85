"""Smoke tests of the experiment scripts, run in-process on a temporary directory."""
import importlib.util
import re
from pathlib import Path


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_figures_quick(tmp_path, capsys):
    out = tmp_path / "out"
    assert _load("reproduce_figures").run(["--quick", "--out-dir", str(out)]) == 0
    written = sorted(path.name for path in out.iterdir())
    assert written == ["compare.csv", "crlb_curves.csv"] + [f"matrix_{i:02d}.csv" for i in range(5)]
    rows = [line for line in (out / "compare.csv").read_text().splitlines()
            if line and not line.startswith("#")]
    assert len(rows) == 1 + 5 * 3


def test_synthetic_estimation_run_calibrates(tmp_path, capsys):
    assert _load("synthetic_estimation_run").run(["--out-dir", str(tmp_path)]) == 0
    report = capsys.readouterr().out
    slope = float(re.search(r"calibrated: slope (\S+),", report).group(1))
    assert 0.97 <= slope <= 1.03
    assert len(list((tmp_path / "counts").glob("counts_*.csv"))) == 30
