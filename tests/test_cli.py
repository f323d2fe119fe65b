"""End-to-end tests for the command-line front end (exit codes, files,
report shapes)."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import warnings

import numpy as np
import pytest

from frugal import cli, rig, synth
from frugal.cli import main, parse_rule
from frugal.dataset import LabelRule, binarize, load_csv, save_csv
from frugal.errors import ConfigError
from frugal.fft import grow, render, tree_from_dict

import oracles
from conftest import make_dataset


@pytest.fixture
def project_dir(tmp_path):
    """Three versions of one project; wmc > 4.5 separates the classes."""
    rows = {
        "1.0": [(1, "3", 100, 0), (2, "4", 110, 0), (3, "2", 120, 0),
                (4, "5", 130, 0), (5, "6", 140, 1), (6, "1", 150, 2),
                (7, "7", 160, 1), (8, "2", 170, 3)],
        "1.1": [(1, "4", 105, 0), (2, "5", 112, 0), (3, "?", 125, 0),
                (4, "6", 133, 0), (5, "2", 145, 1), (6, "3", 152, 1),
                (7, "8", 166, 2), (8, "3", 175, 1)],
        "1.2": [(1, "5", 108, 0), (2, "3", 115, 0), (3, "4", 128, 0),
                (4, "7", 135, 0), (5, "3", 148, 1), (6, "2", 155, 1),
                (7, "6", 168, 2), (8, "4", 178, 1)],
    }
    paths = {}
    for version, table in rows.items():
        lines = ["name,version,wmc,cbo,loc,bug"]
        for i, (wmc, cbo, loc, bug) in enumerate(table):
            lines.append(f"mod.{chr(65 + i)},{version},{wmc},{cbo},{loc},{bug}")
        path = tmp_path / f"alpha-{version}.csv"
        path.write_text("\n".join(lines) + "\n")
        paths[version] = path
    return tmp_path, paths


PERFECT_MODEL = {
    "depth": 1, "policy": "10", "truncated": False, "score": "dis2heaven",
    "train_score": 0.0,
    "nodes": [{"attribute": "wmc", "op": ">", "cut": 4.5, "class": True,
               "support": 4}],
    "final_leaf": {"class": False, "support": 4},
}


# -------------------------------------------------------------- parse_rule

def test_parse_rule_forms():
    assert parse_rule(">0") == LabelRule.bug_counts() == LabelRule(">", 0)
    assert parse_rule("<30") == LabelRule("<", 30)
    assert parse_rule(">365") == LabelRule(">", 365)
    assert parse_rule(" < 14 ") == LabelRule("<", 14)
    assert parse_rule("<0.5") == LabelRule("<", 0.5)


@pytest.mark.parametrize("bad", ["", "30", ">=3", "<-2", "< 0", "days>3"])
def test_parse_rule_rejects_garbage(bad):
    with pytest.raises(ConfigError):
        parse_rule(bad)


@pytest.mark.parametrize("text, op, value", [
    (">0", ">", 0.0), ("> 0.0", ">", 0.0), (">365", ">", 365.0),
    (">0.5", ">", 0.5), ("<30", "<", 30.0), ("<0.5", "<", 0.5),
    ("<1", "<", 1.0)])
def test_parse_rule_binarizes_with_one_strict_comparison(text, op, value):
    labels = [0, 0.25, 0.5, 1, 2, 29.5, 30, 30.5, 365, 366]
    raw = make_dataset(("a",), [[i] for i in range(len(labels))],
                       labels=labels, binary=False)
    want = [x > value if op == ">" else x < value for x in labels]
    assert binarize(raw, parse_rule(text)).labels.tolist() == want


# --------------------------------------------------------------------- fit

def test_fit_prints_a_tree(project_dir, capsys):
    _, paths = project_dir
    code = main(["fit", str(paths["1.0"]), "--effort", "loc"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# trained on alpha-1.0 (8 rows), policy ")
    assert "if " in out and "else" in out
    assert len([ln for ln in out.splitlines() if not ln.startswith("#")]) <= 5


def test_fit_writes_loadable_model(project_dir, tmp_path, capsys):
    _, paths = project_dir
    model_path = tmp_path / "model.json"
    code = main(["fit", str(paths["1.0"]), str(paths["1.1"]),
                 "--effort", "loc", "--out", str(model_path)])
    assert code == 0
    tree = tree_from_dict(json.loads(model_path.read_text()))
    assert tree.depth == 4
    assert tree.score_kind == "dis2heaven"


def test_fit_json_format_goes_to_stdout(project_dir, capsys):
    _, paths = project_dir
    code = main(["fit", str(paths["1.0"]), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["policy"]
    assert payload["depth"] == 4


def test_fit_is_deterministic(project_dir, tmp_path, capsys):
    _, paths = project_dir
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["fit", str(paths["1.0"]), "--out", str(a)]) == 0
    assert main(["fit", str(paths["1.0"]), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_empty_csv_is_a_training_error(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("name,version,wmc,bug\n")
    assert main(["fit", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_fit_headerless_csv_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "void.csv"
    path.write_text("")
    assert main(["fit", str(path)]) == 2


@pytest.mark.parametrize("content", [
    b"wmc,bug\n1,0\n\x80,1\n",
    b"wmc,bug\n1,0\n" + b"9" * 131073 + b",1\n",
    b"wmc,bug\n1,0\n2,1\ninf,1\n",
    b"wmc,bug\n1,0\n2,1e999\n",
    b"wmc,bug,bug\n1,0,0\n2,1,1\n",
], ids=["not utf-8", "cell past the csv field limit", "infinite attribute",
        "infinite label", "repeated label column"])
def test_fit_unreadable_csv_is_a_data_error(tmp_path, capsys, content):
    path = tmp_path / "garbled.csv"
    path.write_bytes(content)
    assert main(["fit", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert len(err.splitlines()) == 1



@pytest.mark.parametrize("row", [
    b"m" * 131073 + b",1,0\n",
    b"m,1" + b"0" * 131072 + b",0\n",
], ids=["identifier column", "numeric column"])
def test_fit_cell_past_the_csv_field_limit_keeps_its_message(tmp_path,
                                                             capsys, row):
    # loadtxt has no field limit: it would read the numeric cell (1e131072)
    # as inf and pass over the identifier, so such a line takes the csv path
    path = tmp_path / "long.csv"
    path.write_bytes(b"name,wmc,bug\nm,1,0\n" + row)
    assert main(["fit", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: not a readable UTF-8 CSV (field larger than field "
        f"limit (131072))\n")

def test_fit_missing_label_names_its_data_row(tmp_path, capsys):
    # the "?" sits on file line 4: data rows skip the header and the blank
    path = tmp_path / "misslabel.csv"
    path.write_text("wmc,bug\n1,0\n\n2,?\n3,1\n")
    assert main(["fit", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: misslabel: data row 2 has a missing label (data "
                   "rows count from 1 after the header and skip blank "
                   "lines)\n")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_fit_bad_pipe_names_its_line(capsys):
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "w") as fh:
        fh.write("wmc,bug\n1,0\n\n2,1\n3\n")
    try:
        assert main(["fit", f"/dev/fd/{read_end}"]) == 2
    finally:
        os.close(read_end)
    assert capsys.readouterr().err == (f"error: /dev/fd/{read_end}: line 5 "
                                       f"has 1 cells, header has 2\n")


def test_fit_missing_file(capsys):
    assert main(["fit", "/nonexistent/nope.csv"]) == 2


def test_fit_popt_without_effort_is_unsupported(project_dir, capsys):
    _, paths = project_dir
    assert main(["fit", str(paths["1.0"]), "--score", "popt"]) == 4
    assert capsys.readouterr().err == ("error: popt scoring needs an effort "
                                       "column (--effort)\n")


def test_fit_popt_with_subnormal_efforts_warns_nothing(tmp_path, capsys):
    # 1e-310 is a valid effort, but a positive row's density d/e would
    # overflow a float; under this suite's filter a RuntimeWarning raises
    path = tmp_path / "tiny.csv"
    path.write_text("wmc,loc,bug\n1,1e-310,1\n2,10,0\n3,1e-310,2\n"
                    "4,20,0\n5,5,1\n6,30,0\n")
    assert main(["fit", str(path), "--score", "popt", "--effort", "loc"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "train popt" in out


def test_fit_splits_a_column_of_huge_finite_values(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("big,bug\n1e308,1\n1.2e308,1\n1.5e308,0\n1.7e308,0\n")
    assert main(["fit", str(path), "--depth", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "if big > 1.35e+308 then false" in out


def test_fit_rejects_an_effort_total_that_overflows(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("wmc,loc,bug\n1,1e308,1\n2,1e308,0\n3,5,1\n")
    assert main(["fit", str(path), "--score", "popt", "--effort", "loc"]) == 2
    assert capsys.readouterr().err == ("error: huge: effort total overflows; "
                                       "rescale the effort column\n")


@pytest.mark.parametrize("flags, code, named", [
    (["--score", "popt"], 4, "--effort"),
    (["--score", "auc"], 4, "'auc'"),
    (["--depth", "0"], 3, "depth must be between 1 and 12, got 0"),
    (["--depth", "13"], 3, "depth must be between 1 and 12, got 13"),
], ids=["popt without effort", "unknown score", "depth 0", "depth 13"])
def test_fit_checks_its_score_before_opening_a_file(tmp_path, capsys, flags,
                                                    code, named):
    # the file does not exist, so a read would exit 2 first
    assert main(["fit", str(tmp_path / "ghost.csv"), *flags]) == code
    err = capsys.readouterr().err
    assert named in err and len(err.splitlines()) == 1


def test_flag_errors_leave_a_valid_csv_unread(project_dir, monkeypatch,
                                              capsys):
    _, paths = project_dir

    def unread(*args, **kwargs):
        raise AssertionError("a CSV was read before the flags were checked")

    monkeypatch.setattr(cli, "load_csv", unread)
    assert main(["fit", str(paths["1.0"]), "--score", "popt"]) == 4
    assert main(["eval", str(paths["1.2"])]) == 5
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: eval without --model needs at least two CSVs: the older "
        "ones train, the newest tests")
    csvs = [str(paths[v]) for v in ("1.0", "1.1", "1.2")]
    assert main(["fit", csvs[0], "--depth", "13"]) == 3
    assert main(["eval", *csvs, "--depth", "0"]) == 3
    assert main(["eval", *csvs, "--top-changed", "2"]) == 5
    assert main(["changefreq", *csvs, "--threshold", "2"]) == 5
    assert capsys.readouterr().err.splitlines() == [
        "error: depth must be between 1 and 12, got 13",
        "error: depth must be between 1 and 12, got 0",
        "error: fraction must be in (0, 1], got 2.0",
        "error: threshold must be a finite number > 0 and <= 0.5, got 2.0"]


@pytest.mark.parametrize("command, flags", [
    ("fit", ["--label", "loc", "--effort", "loc"]),
    ("eval", ["--effort", "bug"])])
def test_one_column_as_label_and_effort_is_a_data_error(project_dir, capsys,
                                                        command, flags):
    _, paths = project_dir
    csvs = [str(paths["1.0"])] + ([str(paths["1.1"])] if command == "eval"
                                  else [])
    assert main([command, *csvs, *flags]) == 2
    err = capsys.readouterr().err
    column = flags[-1]
    assert err == (f"error: {paths['1.0']}: column {column!r} cannot be "
                   "both the label and the effort\n")


def test_fit_unknown_score(project_dir, capsys):
    _, paths = project_dir
    assert main(["fit", str(paths["1.0"]), "--score", "auc"]) == 4


def test_fit_bad_rule_is_a_config_error(project_dir, capsys):
    _, paths = project_dir
    assert main(["fit", str(paths["1.0"]), "--positive-if", "nope"]) == 5


@pytest.mark.parametrize("command, flag, value", [
    ("fit", "--label", ""), ("fit", "--effort", ""), ("fit", "--effort", "  "),
    ("eval", "--label", " "), ("eval", "--effort", ""),
    ("changefreq", "--label", "")])
def test_empty_column_flag_is_a_config_error(project_dir, capsys, command,
                                             flag, value):
    # an empty name would reach load_csv and exit 2 as a data error
    _, paths = project_dir
    assert main([command, str(paths["1.0"]), str(paths["1.1"]),
                 flag, value]) == 5
    err = capsys.readouterr().err
    assert err == (f"error: bad {flag} value {value!r} "
                   "(expected a column name)\n")


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_depth_below_one_is_a_training_error(project_dir, command, capsys):
    _, paths = project_dir
    csvs = [str(paths["1.0"])] + ([str(paths["1.1"])] if command == "eval"
                                  else [])
    assert main([command, *csvs, "--depth", "0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "depth" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_depth_above_the_cap_is_a_training_error(project_dir, command,
                                                 capsys):
    _, paths = project_dir
    csvs = [str(paths["1.0"])] + ([str(paths["1.1"])] if command == "eval"
                                  else [])
    assert main([command, *csvs, "--depth", "13"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "between 1 and 12" in err
    assert len(err.splitlines()) == 1


# -------------------------------------------------------------------- eval

def test_eval_trains_on_older_versions(project_dir, capsys):
    _, paths = project_dir
    code = main(["eval", str(paths["1.0"]), str(paths["1.1"]),
                 str(paths["1.2"]), "--effort", "loc"])
    out = capsys.readouterr().out
    assert code == 0
    assert "train: alpha-1.0+alpha-1.1 (16 rows)" in out
    assert "test: alpha-1.2 (8 rows)" in out
    assert "confusion:" in out and "dis2heaven:" in out
    assert "popt:" in out and "recall_at_20:" in out


# SHA-256 of `eval`'s stdout when it trains on three seeded synth versions
# and tests on a fourth, recorded before `eval` trained through the rig's
# version split and top-changed projection.
GOLDEN_EVAL = {
    "d2h-text-full": "522133d2ef3ebe10faf75973eb2b304eecfcf16f3752a8000dbaac7ce913c791",
    "d2h-text-top": "4620c70ab2c2ae4597c73a1c3271c9d8ea1fda89f2b56895e7252574a0407213",
    "d2h-json-full": "fd7eed61be06e07def12c991806380e37e9f0e7f21ebf607a3c9fa301399d3b5",
    "d2h-json-top": "0b0895df8d3c8dd60bd41a8a4973af2c145c18e4c69b7497d624d2c40e853fbd",
    "popt-text-full": "4fcfc45bb6ac5c260c7f439d1c4bacaf462c84639ede837677c246466f0a6160",
    "popt-text-top": "6bd716636bba25402c4f1605d8ac2bfc0046f6285e1fe1b875c74b36212fc643",
    "popt-json-full": "ba69998d737aeef0f31949fc4c5131c74163cd96de8e1edf12d073bc039ad379",
    "popt-json-top": "a6f0d2724391f72455ab0403e9eedba3ff62fbd41894f58597430aa0810deab7",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_EVAL))
def test_eval_output_matches_golden_digests(tmp_path, capsys, case):
    score, fmt, attrs = case.split("-")
    paths = []
    for ds in synth.make_corpus(names=("ant",), seed=7, versions=4,
                                rows=70)["ant"]:
        path = tmp_path / f"{ds.name}.csv"
        save_csv(ds, path, effort_column="effort")
        paths.append(str(path))
    argv = ["eval", *paths, "--effort", "effort", "--score", score,
            "--format", fmt]
    if attrs == "top":
        argv += ["--top-changed", "0.25"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_EVAL[case]


# SHA-256 of `eval --model`'s stdout on a seeded synth release, scoring a
# model that `fit --out` saved from an older release; recorded while `eval
# --model` still parsed every column of its test CSV.
GOLDEN_EVAL_MODEL = {
    "text-effort": "510e916a8436e0f2aec85c2eadecc16e4be5d3175efd971f3f93b7f1e4d42f5f",
    "text-plain": "c1f5b59ac0ea9ff3e3fff4dcdf3e4b2ee9539cc29bba1c3a6bc908ad9b5d6e43",
    "json-effort": "43de20d3fb082608f50c6a8fdcccef28ab8a3c1340479f0aaf1806f1efaff2e6",
    "json-plain": "b65a73747aa0665ed8502f463340c4170954704323170df97a14a21cc0602e9a",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_EVAL_MODEL))
def test_eval_model_output_matches_golden_digests(tmp_path, capsys, case):
    fmt, effort = case.split("-")
    paths = []
    for ds in synth.make_corpus(names=("ant",), seed=7, versions=3,
                                rows=70)["ant"]:
        path = tmp_path / f"{ds.name}.csv"
        save_csv(ds, path, effort_column="effort")
        paths.append(str(path))
    model = str(tmp_path / "model.json")
    assert main(["fit", paths[0], "--effort", "effort", "--out", model]) == 0
    capsys.readouterr()
    argv = ["eval", paths[-1], "--model", model, "--format", fmt]
    if effort == "effort":
        argv += ["--effort", "effort"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_EVAL_MODEL[case]


@pytest.mark.parametrize("score", ["d2h", "popt"])
def test_eval_matches_a_version_mode_rig_cell(tmp_path, capsys, score):
    raw = synth.make_corpus(names=("ant",), seed=5, versions=3, rows=60)
    paths = []
    for ds in raw["ant"]:
        path = tmp_path / f"{ds.name}.csv"
        save_csv(ds, path, effort_column="effort")
        paths.append(str(path))
    projects = {"ant": [binarize(v, LabelRule.bug_counts())
                        for v in raw["ant"]]}
    cells = rig.run(projects, rig.RigConfig(
        learners=("fft",), scores=(score,),
        attribute_sets=("full", "top25"))).results
    for cell in cells:
        top = ["--top-changed", "0.25"] if cell.attribute_set == "top25" else []
        assert main(["eval", *paths, "--effort", "effort", "--score",
                     score, "--format", "json", *top]) == 0
        report = json.loads(capsys.readouterr().out)
        key = "dis2heaven" if score == "d2h" else "popt"
        assert (report["policy"], report["nodes"], report[key]) \
            == (cell.policy, cell.n_nodes, cell.value)
        assert report["train"]["rows"] == cell.n_train


def test_eval_json_report_is_internally_consistent(project_dir, tmp_path):
    _, paths = project_dir
    out_path = tmp_path / "report.json"
    code = main(["eval", str(paths["1.0"]), str(paths["1.1"]),
                 str(paths["1.2"]), "--effort", "loc", "--format", "json",
                 "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    c = report["confusion"]
    assert sum(c.values()) == report["test"]["rows"] == 8
    assert report["recall"] == oracles.recall_of(c)
    assert report["far"] == oracles.far_of(c)
    assert report["dis2heaven"] == oracles.d2h_of(c)
    assert 0.0 <= report["popt"] <= 1.0
    assert 0.0 <= report["recall_at_20"] <= 1.0
    assert report["train"]["rows"] == 16


def test_eval_with_saved_perfect_model(project_dir, tmp_path):
    _, paths = project_dir
    model_path = tmp_path / "perfect.json"
    model_path.write_text(json.dumps(PERFECT_MODEL))
    out_path = tmp_path / "report.json"
    code = main(["eval", str(paths["1.2"]), "--model", str(model_path),
                 "--effort", "loc", "--format", "json", "--out",
                 str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["confusion"] == {"tp": 4, "fp": 0, "tn": 4, "fn": 0}
    assert report["recall"] == 1.0
    assert report["far"] == 0.0
    assert report["dis2heaven"] == 0.0
    # the model front-loads every defect: optimal ranking, one defect
    # inside the 20% effort budget
    assert report["popt"] == 1.0
    assert report["popt_degenerate"] is False
    assert report["recall_at_20"] == 0.25
    assert "train" not in report


def test_eval_model_reports_the_models_own_score(project_dir, tmp_path,
                                                capsys):
    _, paths = project_dir
    model_path = tmp_path / "m.json"
    assert main(["fit", str(paths["1.0"]), "--effort", "loc", "--score",
                 "popt", "--out", str(model_path)]) == 0
    unscored_path = tmp_path / "unscored.json"
    unscored_path.write_text(json.dumps(dict(PERFECT_MODEL, score=None)))
    for path, kind in ((model_path, "popt"), (unscored_path, None)):
        capsys.readouterr()
        assert main(["eval", str(paths["1.2"]), "--model", str(path),
                     "--effort", "loc", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["selection_score"] == kind
    # --score popt still needs an effort column to rank the test rows
    assert main(["eval", str(paths["1.2"]), "--model", str(model_path),
                 "--score", "popt"]) == 4
    assert "popt scoring needs an effort column" in capsys.readouterr().err


def test_saved_model_keeps_attribute_names_with_hash_and_space(tmp_path,
                                                               capsys):
    rows = [(1, 1, 0), (2, 2, 0), (3, 1, 0), (2, 3, 0), (8, 1, 1),
            (9, 2, 1), (1, 8, 1), (2, 9, 1), (3, 2, 0), (1, 3, 0)]
    path = tmp_path / "odd.csv"
    path.write_text("a#b,x y,bug\n"
                    + "".join(f"{a},{x},{bug}\n" for a, x, bug in rows))
    model_path = tmp_path / "model.json"
    assert main(["fit", str(path), "--depth", "2", "--format", "json",
                 "--out", str(model_path)]) == 0
    fitted = grow(binarize(load_csv(path, "bug"), LabelRule.bug_counts()),
                  depth=2)[0]
    assert fitted.attributes == ("a#b", "x y")
    assert tree_from_dict(json.loads(model_path.read_text())) == fitted
    capsys.readouterr()
    assert main(["eval", str(path), "--model", str(model_path)]) == 0
    assert capsys.readouterr().out.endswith(render(fitted) + "\n")


def test_eval_model_with_empty_final_leaf_is_a_data_error(project_dir,
                                                         tmp_path, capsys):
    _, paths = project_dir
    model_path = tmp_path / "leafless.json"
    model_path.write_text(json.dumps(dict(PERFECT_MODEL, final_leaf={})))
    assert main(["eval", str(paths["1.2"]), "--model", str(model_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad model payload")
    assert len(err.splitlines()) == 1



@pytest.mark.parametrize("test_rows, d2h, rec", [
    ("1,1\n2,1\n3,1\n", "0.7071", "0.0000"),     # one class
    ("", "0.0000", "1.0000"),                    # no rows
])
def test_eval_flags_a_degenerate_dis2heaven(tmp_path, capsys, test_rows, d2h,
                                            rec):
    train, test = tmp_path / "neg.csv", tmp_path / "test.csv"
    train.write_text("wmc,bug\n1,0\n2,0\n3,0\n")
    test.write_text("wmc,bug\n" + test_rows)
    assert main(["eval", str(train), str(test)]) == 0
    out = capsys.readouterr().out
    assert f"recall: {rec}\n" in out
    assert f"\ndis2heaven: {d2h}  (degenerate)\n" in out
    assert main(["eval", str(train), str(test), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["dis2heaven_degenerate"] is True


def test_eval_does_not_flag_a_two_class_dis2heaven(project_dir, capsys):
    _, paths = project_dir
    csvs = [str(paths[v]) for v in ("1.0", "1.1", "1.2")]
    assert main(["eval", *csvs]) == 0
    assert "degenerate" not in capsys.readouterr().out
    assert main(["eval", *csvs, "--effort", "loc", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "dis2heaven_degenerate" not in report
    assert report["popt_degenerate"] is False


def test_fit_and_eval_render_a_tree_with_no_nodes(tmp_path, capsys):
    # the only attribute is all missing, so no level finds a split
    path, model = tmp_path / "none.csv", tmp_path / "model.json"
    path.write_text("a,bug\n?,1\n?,0\n?,1\n")
    assert main(["fit", str(path), "--out", str(model)]) == 0
    fitted = capsys.readouterr().out.splitlines()
    assert json.loads(model.read_text())["nodes"] == []
    assert fitted[1:] == ["always true"]
    assert main(["eval", str(path), "--model", str(model)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "always true"


_NODE = PERFECT_MODEL["nodes"][0]


@pytest.mark.parametrize("text", [
    "{nope",
    json.dumps(dict(PERFECT_MODEL, final_leaf={"class": True, "support": 4})),
    json.dumps(dict(PERFECT_MODEL, policy="22")),
    json.dumps(dict(PERFECT_MODEL, policy="01")),
    json.dumps(dict(PERFECT_MODEL, policy="11")),
    json.dumps(dict(PERFECT_MODEL, depth=0, policy="1", nodes=[])),
    json.dumps(dict(PERFECT_MODEL, nodes=[_NODE, _NODE])),
    json.dumps(dict(PERFECT_MODEL, nodes=[dict(_NODE, **{"class": "false"})])),
    json.dumps(dict(PERFECT_MODEL, final_leaf={"class": 0, "support": 4})),
    json.dumps(dict(PERFECT_MODEL, depth=1e999)),
], ids=["not json", "leaf agrees with last exit", "digits not 0/1",
        "node class disagrees with policy", "final digit agrees",
        "depth 0", "more nodes than depth", "node class a string",
        "leaf class a number", "depth infinite"])
def test_eval_rejects_malformed_model_files(project_dir, tmp_path, capsys,
                                            text):
    _, paths = project_dir
    model_path = tmp_path / "bad.json"
    model_path.write_text(text)
    assert main(["eval", str(paths["1.2"]), "--model", str(model_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("score", ["auc", ""])
def test_eval_rejects_a_model_with_an_unknown_score(project_dir, tmp_path,
                                                   capsys, score):
    _, paths = project_dir
    model_path = tmp_path / "scored.json"
    model_path.write_text(json.dumps(dict(PERFECT_MODEL, score=score)))
    assert main(["eval", str(paths["1.2"]), "--model", str(model_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: model score {score!r} must be null")
    assert len(err.splitlines()) == 1


def test_eval_model_against_mismatched_columns(project_dir, tmp_path, capsys):
    _, paths = project_dir
    model = dict(PERFECT_MODEL,
                 nodes=[dict(PERFECT_MODEL["nodes"][0], attribute="rfc")])
    model_path = tmp_path / "alien.json"
    model_path.write_text(json.dumps(model))
    assert main(["eval", str(paths["1.2"]), "--model", str(model_path)]) == 2
    assert "rfc" in capsys.readouterr().err


def test_eval_model_takes_exactly_one_csv(project_dir, tmp_path, capsys):
    _, paths = project_dir
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps(PERFECT_MODEL))
    assert main(["eval", str(paths["1.0"]), str(paths["1.1"]),
                 "--model", str(model_path)]) == 5


def test_eval_model_rejects_top_changed(project_dir, tmp_path, capsys):
    # a saved model's attributes are fixed, so the flag cannot apply
    _, paths = project_dir
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps(PERFECT_MODEL))
    for fraction in ("0.25", "7"):
        capsys.readouterr()
        assert main(["eval", str(paths["1.2"]), "--model", str(model_path),
                     "--top-changed", fraction]) == 5
        err = capsys.readouterr().err
        assert "--top-changed" in err and len(err.splitlines()) == 1


def test_eval_model_rejects_depth(project_dir, tmp_path, capsys):
    # a saved model's depth is fixed; the flag once changed nothing here
    _, paths = project_dir
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps(PERFECT_MODEL))
    for depth in ("0", "4", "99"):
        capsys.readouterr()
        assert main(["eval", str(paths["1.2"]), "--model", str(model_path),
                     "--depth", depth]) == 5
        err = capsys.readouterr().err
        assert "--depth" in err and len(err.splitlines()) == 1
    assert main(["eval", str(paths["1.2"]), "--model", str(model_path)]) == 0
    # when eval trains, the flag still sets the depth
    capsys.readouterr()
    assert main(["eval", str(paths["1.0"]), str(paths["1.1"]), "--depth", "1",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["nodes"] == 1


@pytest.mark.parametrize("flags, code, named", [
    (["{csv}", "--model", "{model}"], 5, "--model"),
    (["--model", "{model}", "--top-changed", "0.5"], 5, "--top-changed"),
    (["--model", "{model}", "--depth", "2"], 5, "--depth"),
    (["{csv}", "--score", "auc"], 4, "'auc'"),
    (["--model", "{model}", "--score", "auc"], 4, "'auc'"),
    (["{csv}", "--score", "popt"], 4, "--effort"),
    (["--model", "{model}", "--score", "popt"], 4, "--effort"),
    ([], 5, "at least two CSVs"),
    (["{csv}", "--top-changed", "0.5"], 5, "three CSVs"),
    (["{csv}", "{csv}", "--top-changed", "2"], 5,
     "fraction must be in (0, 1], got 2.0"),
    (["{csv}", "{csv}", "--top-changed", "0"], 5,
     "fraction must be in (0, 1], got 0.0"),
    (["{csv}", "{csv}", "--top-changed", "nan"], 5,
     "fraction must be in (0, 1], got nan"),
    (["{csv}", "--depth", "0"], 3, "depth must be between 1 and 12, got 0"),
    (["{csv}", "--depth", "13"], 3,
     "depth must be between 1 and 12, got 13"),
], ids=["two csvs with a model", "top-changed with a model",
        "depth with a model", "unknown score", "unknown score with a model",
        "popt without effort", "popt without effort with a model",
        "one csv without a model", "top-changed with one training csv",
        "top-changed 2", "top-changed 0", "top-changed nan", "depth 0",
        "depth 13"])
def test_eval_checks_its_flags_before_opening_a_file(tmp_path, capsys, flags,
                                                     code, named):
    # neither file exists, so any read would exit 2 first
    files = {"csv": str(tmp_path / "ghost.csv"),
             "model": str(tmp_path / "ghost.json")}
    argv = ["eval", files["csv"], *(f.format(**files) for f in flags)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert named in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_eval_names_an_unreadable_model_file(project_dir, tmp_path, capsys,
                                             where):
    _, paths = project_dir
    model_path = tmp_path / "m.json"
    if where == "directory":
        model_path.mkdir()
    assert main(["eval", str(paths["1.2"]), "--model", str(model_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read model {model_path}: ")
    assert len(err.splitlines()) == 1


def _eval_perfect_model(tmp_path, csv_text, capsys):
    """(exit code, stdout, stderr) of ``eval --model`` with a model that
    reads only wmc, on ``csv_text`` saved under the fixture's test name."""
    model_path = tmp_path / "perfect.json"
    model_path.write_text(json.dumps(PERFECT_MODEL))
    path = tmp_path / "edited" / "alpha-1.2.csv"
    path.parent.mkdir(exist_ok=True)
    path.write_text(csv_text)
    code = main(["eval", str(path), "--model", str(model_path),
                 "--effort", "loc"])
    out, err = capsys.readouterr()
    return code, out, err


def _with_cell(text: str, column: str, cell: str, line: int = 4) -> str:
    """``text`` with ``column``'s cell on ``line`` set to ``cell``."""
    lines = text.splitlines()
    j = lines[0].split(",").index(column)
    cells = lines[line - 1].split(",")
    cells[j] = cell
    lines[line - 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


# the fixture's header is name,version,wmc,cbo,loc,bug; the model reads wmc
@pytest.mark.parametrize("edit", [
    lambda text: _with_cell(text, "cbo", "x"),
    lambda text: _with_cell(text, "cbo", "inf"),
    lambda text: text.replace("version,", "cbo,", 1),
], ids=["bad cell", "infinite cell", "repeated header"])
def test_eval_model_skips_faults_in_columns_it_never_reads(project_dir,
                                                           tmp_path, capsys,
                                                           edit):
    _, paths = project_dir
    clean = paths["1.2"].read_text()
    want = _eval_perfect_model(tmp_path, clean, capsys)
    assert want[0] == 0
    assert _eval_perfect_model(tmp_path, edit(clean), capsys) == want
    # a full load of the same file fails
    assert main(["fit", str(tmp_path / "edited" / "alpha-1.2.csv")]) == 2


@pytest.mark.parametrize("column", ["wmc", "bug", "loc"])
@pytest.mark.parametrize("cell, fault", [
    ("x", "cell 'x' is neither numeric nor a missing marker"),
    ("inf", "cell value inf is not finite"),
])
def test_eval_model_rejects_faults_in_columns_it_reads(project_dir, tmp_path,
                                                       capsys, column, cell,
                                                       fault):
    _, paths = project_dir
    code, out, err = _eval_perfect_model(
        tmp_path, _with_cell(paths["1.2"].read_text(), column, cell), capsys)
    assert code == 2 and out == ""
    assert err == (f"error: {tmp_path / 'edited' / 'alpha-1.2.csv'}: line 4, "
                   f"column {column!r}: {fault}\n")


@pytest.mark.parametrize("column, message", [
    ("wmc", "duplicate attribute columns ['wmc']"),
    ("bug", "2 columns are named 'bug'"),
    ("loc", "2 columns are named 'loc'"),
])
def test_eval_model_rejects_a_repeated_header_it_reads(project_dir, tmp_path,
                                                       capsys, column,
                                                       message):
    _, paths = project_dir
    code, _, err = _eval_perfect_model(
        tmp_path, paths["1.2"].read_text().replace("cbo,", f"{column},", 1),
        capsys)
    assert code == 2
    assert err == (f"error: {tmp_path / 'edited' / 'alpha-1.2.csv'}: "
                   f"{message}\n")


@pytest.mark.parametrize("edit, cells", [
    (lambda line: line + ",9", 7),
    (lambda line: line.rsplit(",", 1)[0], 5),
    (lambda line: line.replace(",", "", 1), 5),
], ids=["extra cell", "label cell missing", "unread cell missing"])
def test_eval_model_rejects_a_ragged_row_anywhere(project_dir, tmp_path,
                                                  capsys, edit, cells):
    _, paths = project_dir
    lines = paths["1.2"].read_text().splitlines()
    lines[3] = edit(lines[3])
    code, _, err = _eval_perfect_model(tmp_path, "\n".join(lines) + "\n",
                                       capsys)
    assert code == 2
    assert err.endswith(f": line 4 has {cells} cells, header has 6\n")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_eval_model_reads_its_test_csv_from_a_pipe(project_dir, tmp_path,
                                                   capsys):
    _, paths = project_dir
    model_path = tmp_path / "perfect.json"
    model_path.write_text(json.dumps(PERFECT_MODEL))
    argv = ["--model", str(model_path), "--effort", "loc", "--format", "json"]
    assert main(["eval", str(paths["1.2"]), *argv]) == 0
    want = json.loads(capsys.readouterr().out)
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "w") as fh:
        fh.write(paths["1.2"].read_text())
    try:
        assert main(["eval", f"/dev/fd/{read_end}", *argv]) == 0
    finally:
        os.close(read_end)
    got = json.loads(capsys.readouterr().out)
    assert got["test"] == {"name": str(read_end), "rows": 8}
    assert dict(got, test=None) == dict(want, test=None)


def test_eval_needs_two_csvs_without_model(project_dir, capsys):
    _, paths = project_dir
    assert main(["eval", str(paths["1.0"])]) == 5


def test_eval_popt_without_effort_column(project_dir, capsys):
    _, paths = project_dir
    assert main(["eval", str(paths["1.0"]), str(paths["1.1"]),
                 "--score", "popt"]) == 4


def test_eval_top_changed_projection(project_dir, capsys):
    _, paths = project_dir
    code = main(["eval", str(paths["1.0"]), str(paths["1.1"]),
                 str(paths["1.2"]), "--effort", "loc",
                 "--top-changed", "0.5"])
    assert code == 0
    assert "dis2heaven:" in capsys.readouterr().out


def test_eval_top_changed_keeps_at_least_one_attribute(project_dir, capsys):
    # of two attributes, 1e-14 keeps the most-changed one, as 0.5 does
    _, paths = project_dir
    outs = []
    for fraction in ("1e-14", "0.5"):
        assert main(["eval", str(paths["1.0"]), str(paths["1.1"]),
                     str(paths["1.2"]), "--effort", "loc", "--format", "json",
                     "--top-changed", fraction]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_eval_top_changed_needs_version_history(project_dir, capsys):
    _, paths = project_dir
    assert main(["eval", str(paths["1.0"]), str(paths["1.1"]),
                 "--top-changed", "0.5"]) == 5


@pytest.mark.parametrize("fraction", ["2", "0", "nan", "-0.5"])
def test_eval_top_changed_out_of_range_is_a_config_error(project_dir, capsys,
                                                         fraction):
    # the same check as a rig's top_fraction, so the same exit code
    _, paths = project_dir
    assert main(["eval", str(paths["1.0"]), str(paths["1.1"]),
                 str(paths["1.2"]), "--top-changed", fraction]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: fraction must be in (0, 1]")
    assert len(err.splitlines()) == 1


# --------------------------------------------------------------------- rig

def _write_rig_config(tmp_path, paths, **overrides):
    config = {
        "projects": {"alpha": [p.name for p in paths.values()]},
        "learners": ["fft"],
        "scores": ["d2h"],
        "label": "bug",
        "effort": "loc",
    }
    config.update(overrides)
    path = tmp_path / "rig.json"
    path.write_text(json.dumps(config))
    return path


def test_rig_runs_and_writes_reports(project_dir, capsys):
    tmp_path, paths = project_dir
    config = _write_rig_config(tmp_path, paths)
    out_dir = tmp_path / "reports"
    code = main(["rig", "--config", str(config), "--out-dir", str(out_dir)])
    assert code == 0
    assert "1 results over 1 projects" in capsys.readouterr().out
    results = (out_dir / "results.csv").read_text().splitlines()
    assert len(results) == 2            # header + one row
    assert results[1].startswith("alpha,fft,dis2heaven,full,version:alpha-1.2,")
    for name in ("results.json", "policy_histogram.csv", "comparison.csv",
                 "deltas.csv"):
        assert (out_dir / name).exists()


def test_rig_reports_reproduce_byte_for_byte(project_dir, capsys):
    tmp_path, paths = project_dir
    config = _write_rig_config(tmp_path, paths, mode="cv", bins=4,
                               repeats=2, seed=5,
                               learners=["fft", "nb"])
    one = tmp_path / "one"
    two = tmp_path / "two"
    assert main(["rig", "--config", str(config), "--out-dir", str(one)]) == 0
    assert main(["rig", "--config", str(config), "--out-dir", str(two)]) == 0
    for name in ("results.csv", "results.json", "policy_histogram.csv",
                 "comparison.csv", "deltas.csv"):
        assert (one / name).read_bytes() == (two / name).read_bytes()


def test_rig_seed_override_changes_cv_plans(project_dir, capsys):
    tmp_path, paths = project_dir
    config = _write_rig_config(tmp_path, paths, mode="cv", bins=4,
                               repeats=1, seed=5)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["rig", "--config", str(config), "--out-dir", str(a)]) == 0
    assert main(["rig", "--config", str(config), "--out-dir", str(b),
                 "--seed", "6"]) == 0
    fp_a = json.loads((a / "results.json").read_text())["fingerprints"]
    fp_b = json.loads((b / "results.json").read_text())["fingerprints"]
    assert fp_a != fp_b


def test_rig_seed_override_must_be_non_negative(project_dir, capsys):
    tmp_path, paths = project_dir
    config = _write_rig_config(tmp_path, paths, mode="cv", bins=4, repeats=1)
    assert main(["rig", "--config", str(config), "--out-dir",
                 str(tmp_path / "x"), "--seed", "-1"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("key, value, flags, code, rule", [
    ("depth", 13, ["fit", "{csv}", "--depth", "13"], 3,
     "depth must be between 1 and 12, got 13"),
    ("top_fraction", 0.0, ["eval", "{csv}", "{csv}", "{csv}",
                           "--top-changed", "0"], 5,
     "fraction must be in (0, 1], got 0.0"),
], ids=["depth", "top_fraction"])
def test_rig_config_ranges_are_the_flag_rules(project_dir, capsys, key, value,
                                              flags, code, rule):
    # one check per rule: a config's error is its flag's, after the key,
    # and the rig still exits 5 on it
    tmp_path, paths = project_dir
    assert main([f.format(csv=paths["1.0"]) for f in flags]) == code
    assert capsys.readouterr().err == f"error: {rule}\n"
    with pytest.raises(ConfigError) as err:
        rig.RigConfig(**{key: value})
    assert str(err.value) == f"{key}: {rule}"
    config = _write_rig_config(tmp_path, paths, **{key: value})
    assert main(["rig", "--config", str(config),
                 "--out-dir", str(tmp_path / "x")]) == 5
    assert capsys.readouterr().err == f"error: {key}: {rule}\n"


def test_rig_config_error_paths(project_dir, tmp_path, capsys):
    tmp_dir, paths = project_dir
    bad_learner = _write_rig_config(tmp_dir, paths, learners=["svm"])
    assert main(["rig", "--config", str(bad_learner),
                 "--out-dir", str(tmp_dir / "x")]) == 5

    unknown_key = _write_rig_config(tmp_dir, paths, typo=True)
    assert main(["rig", "--config", str(unknown_key),
                 "--out-dir", str(tmp_dir / "x")]) == 5

    not_json = tmp_dir / "broken.json"
    not_json.write_text("{nope")
    assert main(["rig", "--config", str(not_json),
                 "--out-dir", str(tmp_dir / "x")]) == 5

    not_object = tmp_dir / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["rig", "--config", str(not_object),
                 "--out-dir", str(tmp_dir / "x")]) == 5

    no_projects = tmp_dir / "empty.json"
    no_projects.write_text("{}")
    assert main(["rig", "--config", str(no_projects),
                 "--out-dir", str(tmp_dir / "x")]) == 5


@pytest.mark.parametrize("override", [
    {"depth": "four"},
    {"learners": 5},
    {"projects": {"alpha": 5}},
    {"projects": {"alpha": [5]}},
    {"projects": ["alpha-1.0.csv"]},
    {"top_fraction": "most"},
    {"exclude": 5},
    {"bins": 1e999},
    {"depth": 1e999},
    {"seed": -1, "mode": "cv"},
    {"depth": 13},
    {"learners": ["fft", "nb", "nb"]},
    {"exclude": "name"},
    {"scores": "d2h"},
    {"learners": "nb"},
    {"attribute_sets": "full"},
    {"exclude": ["name", 5]},
    {"depth": 4.7},
    {"depth": True},
    {"bins": 2.5, "mode": "cv"},
    {"seed": "7"},
    {"effort": ["loc"]},
    {"label": 5},
    {"top_fraction": True},
    {"scores": ["d2h", "dis2heaven"]},
    {"effort": ""},
    {"label": ""},
    {"effort": "  "},
    {"repeats": rig.MAX_REPEATS + 1, "mode": "cv"},
    {"learners": []},
    {"scores": []},
    {"attribute_sets": []},
], ids=["depth four", "learners 5", "project entry 5", "project path 5",
        "projects list", "top_fraction word", "exclude 5", "bins infinite",
        "depth infinite", "negative seed", "depth above the cap",
        "repeated learner", "exclude string", "scores string",
        "learners string", "attribute_sets string", "exclude list with 5",
        "depth float", "depth bool", "bins float", "seed string",
        "effort list", "label number", "top_fraction bool", "score aliases",
        "effort empty", "label empty", "effort blank",
        "repeats above the cap", "learners empty", "scores empty",
        "attribute_sets empty"])
def test_rig_rejects_malformed_config_values(project_dir, capsys, override):
    tmp_path, paths = project_dir
    config = _write_rig_config(tmp_path, paths, **override)
    assert main(["rig", "--config", str(config),
                 "--out-dir", str(tmp_path / "x")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    # the message names the key, not one character of a string
    named = {"learners", "scores", "attribute_sets", "exclude", "depth",
             "bins", "repeats", "seed", "effort", "label", "top_fraction"}
    for key in named & set(override):
        assert key in err


def test_rig_missing_csv_is_a_data_error(project_dir, capsys):
    tmp_path, paths = project_dir
    config = tmp_path / "rig.json"
    config.write_text(json.dumps(
        {"projects": {"alpha": ["ghost-1.0.csv", "ghost-1.1.csv"]}}))
    assert main(["rig", "--config", str(config),
                 "--out-dir", str(tmp_path / "x")]) == 2


def test_rig_missing_config_file(tmp_path, capsys):
    assert main(["rig", "--config", str(tmp_path / "none.json"),
                 "--out-dir", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_rig_names_an_unreadable_config_file(tmp_path, capsys, where):
    config = tmp_path / "rig.json"
    if where == "directory":
        config.mkdir()
    assert main(["rig", "--config", str(config),
                 "--out-dir", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {config}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag, code", [("--model", 2), ("--config", 5)])
def test_undecodable_json_files_are_not_valid_json(project_dir, capsys, flag,
                                                   code):
    # the decode fails inside the parse, so it is the parse's error
    tmp_path, paths = project_dir
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe{")
    argv = (["eval", str(paths["1.2"]), "--model", str(path)]
            if flag == "--model" else
            ["rig", "--config", str(path), "--out-dir", str(tmp_path / "x")])
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid JSON (")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--model", "--config"])
def test_json_files_may_start_with_a_bom(project_dir, capsys, flag):
    # an editor's "UTF-8 with BOM" save starts with a byte order mark
    tmp_path, paths = project_dir
    if flag == "--model":
        path = tmp_path / "model.json"
        path.write_text(json.dumps(PERFECT_MODEL))
        argv = ["eval", str(paths["1.2"]), "--model", str(path)]
    else:
        path = _write_rig_config(tmp_path, paths)
        argv = ["rig", "--config", str(path), "--out-dir", str(tmp_path / "x")]
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_rig_with_an_all_missing_column_warns_nothing(tmp_path, capsys):
    # every logistic fit standardizes a training column with no cell
    names = []
    for ds in synth.make_corpus(names=("ant",), seed=7, rows=60)["ant"]:
        values = np.array(ds.values)
        values[:, ds.attributes.index("cbo")] = np.nan
        path = tmp_path / f"{ds.name}.csv"
        save_csv(dataclasses.replace(ds, values=values), path,
                 effort_column="effort")
        names.append(path.name)
    assert np.isnan(load_csv(path, "bug").column("cbo")).all()
    config = _write_rig_config(tmp_path, {n: tmp_path / n for n in names},
                               learners=["fft", "nb", "sl"],
                               scores=["d2h", "popt"],
                               attribute_sets=["full", "top25"],
                               effort="effort")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["rig", "--config", str(config),
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


# --------------------------------------------------------------- changefreq

def test_changefreq_text_output(project_dir, capsys):
    _, paths = project_dir
    code = main(["changefreq", str(paths["1.0"]), str(paths["1.1"]),
                 str(paths["1.2"])])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["attribute", "changed", "total", "percent"]
    table = {ln.split()[0]: ln.split() for ln in lines[1:]}
    assert table["wmc"][3] == "0.0"      # identical distributions
    assert table["loc"][3] == "100.0"    # shifts past the effect bar twice


def test_changefreq_respects_threshold(project_dir, capsys):
    _, paths = project_dir
    code = main(["changefreq", str(paths["1.0"]), str(paths["1.1"]),
                 str(paths["1.2"]), "--threshold", "0.07"])
    out = capsys.readouterr().out
    assert code == 0
    table = {ln.split()[0]: ln.split() for ln in out.splitlines()[1:]}
    assert table["loc"][3] == "0.0"


@pytest.mark.parametrize("threshold", ["nan", "-1", "inf", "0"])
def test_changefreq_rejects_bad_threshold(project_dir, capsys, threshold):
    _, paths = project_dir
    assert main(["changefreq", str(paths["1.0"]), str(paths["1.1"]),
                 "--threshold", threshold]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: threshold must be a finite number > 0")
    assert len(err.splitlines()) == 1


def test_changefreq_threshold_above_one_half_is_a_config_error(project_dir,
                                                               capsys):
    # |a12 - 0.5| never exceeds 0.5, so a larger cutoff reports no change
    _, paths = project_dir
    argv = ["changefreq", str(paths["1.0"]), str(paths["1.1"]), "--threshold"]
    assert main([*argv, "0.51"]) == 5
    err = capsys.readouterr().err
    assert err == ("error: threshold must be a finite number > 0 and "
                   "<= 0.5, got 0.51\n")
    assert main([*argv, "0.5"]) == 0
    assert capsys.readouterr().out.startswith("attribute")


@pytest.mark.parametrize("threshold", ["2", "0", "nan"])
def test_changefreq_checks_its_threshold_before_opening_a_file(
        tmp_path, capsys, threshold):
    # neither file exists, so any read would exit 2 first
    assert main(["changefreq", str(tmp_path / "a.csv"),
                 str(tmp_path / "b.csv"), "--threshold", threshold]) == 5
    assert capsys.readouterr().err == (
        "error: threshold must be a finite number > 0 and <= 0.5, got "
        f"{float(threshold)}\n")


def test_changefreq_csv_and_json_formats(project_dir, capsys):
    _, paths = project_dir
    argv = [str(paths["1.0"]), str(paths["1.1"])]
    assert main(["changefreq", *argv, "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out.splitlines()
    assert csv_out[0] == "attribute,changed,total,percent"
    assert len(csv_out) == 4             # header + wmc, cbo, loc

    assert main(["changefreq", *argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {entry["attribute"] for entry in payload} == {"wmc", "cbo", "loc"}
    assert all(set(e) == {"attribute", "changed", "total", "percent"}
               for e in payload)


def test_changefreq_csv_quotes_cells(tmp_path, capsys):
    paths = []
    for version, cells in (("1", "1,2,3,4"), ("2", "5,6,7,8")):
        path = tmp_path / f"q-{version}.csv"
        path.write_text('"a,b",bug\n' + "".join(f"{c},0\n"
                                                for c in cells.split(",")))
        paths.append(str(path))
    assert main(["changefreq", *paths, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows == [["attribute", "changed", "total", "percent"],
                    ["a,b", "1", "1", "100.0"]]



def test_changefreq_prints_no_nameless_row(project_dir, tmp_path, capsys):
    # a trailing comma on every line heads a blank column, which is skipped
    _, paths = project_dir
    argv = [str(paths["1.0"]), str(paths["1.1"])]
    assert main(["changefreq", *argv]) == 0
    plain = capsys.readouterr().out
    for i, path in enumerate(argv):
        trailing = tmp_path / f"trailing-{i}.csv"
        trailing.write_text(open(path).read().replace("\n", ",\n"))
        argv[i] = str(trailing)
    assert main(["changefreq", *argv]) == 0
    out = capsys.readouterr().out
    assert out == plain
    assert all(line[:1].strip() for line in out.splitlines())

def test_changefreq_sequence_flag_pools_counts(project_dir, capsys):
    _, paths = project_dir
    seq = ",".join([str(paths["1.0"]), str(paths["1.1"])])
    code = main(["changefreq", "--sequence", seq, "--sequence", seq])
    out = capsys.readouterr().out
    assert code == 0
    table = {ln.split()[0]: ln.split() for ln in out.splitlines()[1:]}
    assert table["loc"][2] == "2"        # two sequences, one pair each


def test_changefreq_without_input(capsys):
    assert main(["changefreq"]) == 5


def test_changefreq_single_version_sequence(project_dir, capsys):
    _, paths = project_dir
    assert main(["changefreq", str(paths["1.0"])]) == 5


def test_changefreq_checks_sequence_lengths_before_reading(tmp_path, capsys):
    # a missing CSV, so a check made once the files are read exits 2
    missing = str(tmp_path / "a.csv")
    assert main(["changefreq", "--sequence", missing]) == 5
    err = capsys.readouterr().err
    assert err == "error: each version sequence needs >= 2 versions\n"
