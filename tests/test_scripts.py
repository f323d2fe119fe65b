"""Smoke tests for the experiment scripts: each ``main()`` runs to exit 0
on a small seeded input and writes its report files, and ends a bad run
with one error line and its exit code.  Also checks that every function
the benchmark's tracer wraps still exists, and that no test module defines
a name twice."""

import ast
import contextlib
import csv
import importlib
import importlib.util
import io
import re
import runpy
from pathlib import Path

import numpy as np
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


@pytest.fixture(scope="module")
def issue_defaults(tmp_path_factory):
    """The issue script's stdout lines and report folder on its defaults."""
    out_dir = tmp_path_factory.mktemp("issues")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert _load("run_issue_experiments").main(
            ["--out-dir", str(out_dir)]) == 0
    return printed.getvalue().splitlines(), out_dir


def _threshold_lines(lines):
    thresholds = _load("run_issue_experiments").THRESHOLDS
    return {ln.split(":")[0].strip(): ln for ln in lines
            if ln.split(":")[0].strip() in thresholds}


def test_issue_script_runs_every_threshold_the_rig_trains(issue_defaults):
    # >365 (3 positives) and <1 (8) are thinner than the 10 bins, and the
    # rig trains both
    lines, out_dir = issue_defaults
    shown = _threshold_lines(lines)
    assert len(shown) == 7
    assert not any("skipped" in ln for ln in shown.values())
    for folder in ("gt365", "lt1"):
        assert {p.name for p in (out_dir / folder).iterdir()} == REPORTS


def test_issue_script_medians_leave_out_degenerate_cells(issue_defaults):
    lines, out_dir = issue_defaults
    printed = dict(re.findall(r"(\w+) (\S+) \(\w+\)",
                              _threshold_lines(lines)["<180"]))
    with open(out_dir / "lt180" / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert any(r["degenerate"] == "true" for r in rows)
    assert set(printed) == {r["learner"] for r in rows}
    for learner, median in printed.items():
        kept = [float(r["value"]) for r in rows
                if r["learner"] == learner and r["degenerate"] == "false"]
        assert median == f"{np.median(kept):.3f}"


def test_issue_script_prints_the_rigs_error_for_an_untrainable_threshold(
        tmp_path, capsys):
    # <1 has no positive row in 120; >365 (2 positives) and <180 (8
    # negatives) still train
    assert _load("run_issue_experiments").main(
        ["--rows", "120", "--out-dir", str(tmp_path / "reports")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    skipped = {t: ln for t, ln in _threshold_lines(out.splitlines()).items()
               if "skipped" in ln}
    assert list(skipped) == ["<1"]
    assert "[issues/sl/" in skipped["<1"] and "both classes" in skipped["<1"]


def test_issue_script_prints_a_dash_for_a_learner_with_no_kept_cell(
        tmp_path, capsys):
    # without sl, <1 trains on one class, so every test fold is degenerate
    assert _load("run_issue_experiments").main(
        ["--rows", "120", "--learners", "fft,nb", "--bins", "2", "--repeats",
         "1", "--out-dir", str(tmp_path / "reports")]) == 0
    line = _threshold_lines(capsys.readouterr().out.splitlines())["<1"]
    assert line.endswith("fft - (inconclusive)  nb - (inconclusive)")


def test_defect_head_to_head_leaves_out_degenerate_cells(capsys):
    # b's fft Popt is degenerate: its 0.5 is no score, and would beat 0.4
    script = _load("run_defect_experiments")

    def cell(project, learner, score, value, degenerate=False):
        return script.rig.EvalResult(project, learner, score, "full",
                                     "version", 10, 10, value, degenerate)
    results = [cell(p, ln, "dis2heaven", 0.3 if ln == "fft" else 0.6)
               for p in "ab" for ln in ("fft", "nb")]
    results += [cell("a", "fft", "popt", 0.7), cell("a", "nb", "popt", 0.4),
                cell("b", "fft", "popt", 0.5, degenerate=True),
                cell("b", "nb", "popt", 0.4)]
    script.print_head_to_head(results, ("fft", "nb"), ("a", "b"))
    assert capsys.readouterr().out.splitlines() == [
        "", "dis2heaven (lower is better), full attributes:",
        "  trees vs nb: better on 2/2 projects",
        "", "popt (higher is better), full attributes:",
        "  trees vs nb: better on 1/1 projects"]


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
