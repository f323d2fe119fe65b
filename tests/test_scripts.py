"""Smoke tests for the experiment scripts: each ``main()`` runs to exit 0
on a small seeded input and writes its report files, and ends a bad run
with one error line and its exit code.  Also checks that every function
the benchmark's tracer wraps still exists, and that no test module defines
a name twice."""

import ast
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


@pytest.mark.parametrize("name, argv, named", [
    ("run_defect_experiments", ["--synthetic", "--rows", "30", "--learners",
                                "fft,xx"], "unknown learner 'xx'"),
    ("run_issue_experiments", ["--rows", "120", "--depth", "0"], "depth"),
    ("run_defect_experiments", ["--synthetic", "--rows", "30", "--depth",
                                "0"], "depth"),
    ("run_issue_experiments", ["--rows", "120", "--learners", "fft,xx"],
     "unknown learner 'xx'"),
    ("run_defect_experiments", ["--synthetic", "--rows", "30", "--learners",
                                ""], "learners lists no names"),
    ("run_defect_experiments", ["--synthetic", "--rows", "30", "--label",
                                ""], "bad --label value ''"),
    ("run_defect_experiments", ["--synthetic", "--rows", "30", "--effort",
                                ""], "bad --effort value ''"),
])
def test_script_main_reports_a_config_error_in_one_line(tmp_path, capsys,
                                                        name, argv, named):
    # the config is checked before any data is loaded or made
    out_dir = tmp_path / "reports"
    assert _load(name).main(argv + ["--out-dir", str(out_dir)]) == 5
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and named in err
    assert len(err.splitlines()) == 1
    assert out == ""
    assert not out_dir.exists()


def test_issue_script_checks_its_label_before_reading_its_csv(tmp_path,
                                                              capsys):
    # a real CSV, so a check made only once the table is read would exit 2
    table = tmp_path / "issues.csv"
    table.write_text("age,days\n1,3\n2,400\n")
    out_dir = tmp_path / "reports"
    assert _load("run_issue_experiments").main(
        ["--csv", str(table), "--label", "", "--out-dir", str(out_dir)]) == 5
    out, err = capsys.readouterr()
    assert err.startswith("error: bad --label value '' (")
    assert len(err.splitlines()) == 1
    assert out == ""
    assert not out_dir.exists()


def test_defect_script_without_data_is_an_error_line(tmp_path, capsys):
    empty = tmp_path / "data"
    empty.mkdir()
    assert _load("run_defect_experiments").main(
        ["--data-dir", str(empty), "--out-dir", str(tmp_path / "r")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: no project CSVs under ")
    assert len(err.splitlines()) == 1
    assert out == ""


def test_issue_script_checks_its_config_once(monkeypatch, tmp_path):
    script = _load("run_issue_experiments")
    configs = []

    class Counted(script.rig.RigConfig):
        def __post_init__(self):
            configs.append(self)
            super().__post_init__()
    monkeypatch.setattr(script.rig, "RigConfig", Counted)
    assert script.main(["--rows", "120", "--bins", "2", "--repeats", "1",
                        "--out-dir", str(tmp_path / "reports")]) == 0
    assert len(configs) == 1


def test_script_main_reports_an_unwritable_out_dir_in_one_line(tmp_path,
                                                              capsys):
    taken = tmp_path / "reports"
    taken.write_text("")
    assert _load("run_defect_experiments").main(
        ["--synthetic", "--rows", "30", "--out-dir", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_no_test_module_defines_a_name_twice():
    # a second def of a test name replaces the first, which then never runs
    repeated = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        seen = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            repeated += [f"{path.name}:{node.lineno} {n}" for n in names
                         if n in seen]
            seen.update(names)
    assert repeated == []


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
