"""Smoke tests for the experiment scripts: each ``main()`` runs to exit 0
on a small seeded input and writes its report files.  Also checks that
every function the benchmark's tracer wraps still exists."""

import importlib
import importlib.util
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
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
                               "1"]),
])
def test_script_main_writes_reports(tmp_path, name, argv):
    out_dir = tmp_path / "reports"
    assert _load(name).main(argv + ["--out-dir", str(out_dir)]) == 0
    report_dirs = {p.parent for p in out_dir.rglob("results.csv")}
    assert report_dirs
    for folder in report_dirs:
        assert {p.name for p in folder.iterdir()} == REPORTS


def test_every_traced_name_resolves():
    # perfbench/tracer.py looks each (module, function) up with getattr
    # when a --trace 1 run installs it, so a missing name breaks that run.
    # run_path registers the module while it runs, as its dataclasses need.
    tracer = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))
    missing = []
    for module, func in tracer["TRACED"]:
        owner = importlib.import_module(f"frugal.{module}")
        for part in func.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{func}")
    assert missing == []
