"""Smoke tests for the experiment scripts: each ``main()`` runs to exit 0
on a small seeded input and writes its report files."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
REPORTS = {"results.csv", "results.json", "policy_histogram.csv",
           "comparison.csv", "deltas.csv"}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("run_defect_experiments", ["--synthetic", "--rows", "30"]),
    ("run_issue_experiments", ["--rows", "120", "--bins", "2", "--repeats",
                               "1", "--multiclass"]),
])
def test_script_main_writes_reports(tmp_path, capsys, name, argv):
    out_dir = tmp_path / "reports"
    assert _load(name).main(argv + ["--out-dir", str(out_dir)]) == 0
    report_dirs = {p.parent for p in out_dir.rglob("results.csv")}
    assert report_dirs
    for folder in report_dirs:
        assert {p.name for p in folder.iterdir()} == REPORTS
    if "--multiclass" in argv:
        assert "lifetime bands" in capsys.readouterr().out
