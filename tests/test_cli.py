"""End-to-end tests for the command-line front end (exit codes, files,
report shapes)."""

import hashlib
import json

import pytest

from frugal import rig, synth
from frugal.cli import main, parse_rule
from frugal.dataset import LabelRule, binarize, save_csv
from frugal.errors import ConfigError
from frugal.fft import tree_from_dict

import oracles


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
    assert parse_rule(">0") == LabelRule.bug_counts()
    assert parse_rule("<30") == LabelRule.days("less-than", 30)
    assert parse_rule(">365") == LabelRule.days("greater-than", 365)
    assert parse_rule(" < 14 ") == LabelRule.days("less-than", 14)
    assert parse_rule("<0.5") == LabelRule.days("less-than", 0.5)


@pytest.mark.parametrize("bad", ["", "30", ">=3", "<-2", "< 0", "days>3"])
def test_parse_rule_rejects_garbage(bad):
    with pytest.raises(ConfigError):
        parse_rule(bad)


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


def test_fit_missing_label_names_its_data_row(tmp_path, capsys):
    # the "?" sits on file line 4: data rows skip the header and the blank
    path = tmp_path / "misslabel.csv"
    path.write_text("wmc,bug\n1,0\n\n2,?\n3,1\n")
    assert main(["fit", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: misslabel: data row 2 has a missing label (data "
                   "rows count from 1 after the header and skip blank "
                   "lines)\n")


def test_fit_missing_file(capsys):
    assert main(["fit", "/nonexistent/nope.csv"]) == 2


def test_fit_popt_without_effort_is_unsupported(project_dir, capsys):
    _, paths = project_dir
    assert main(["fit", str(paths["1.0"]), "--score", "popt"]) == 4
    assert "effort" in capsys.readouterr().err


def test_fit_unknown_score(project_dir, capsys):
    _, paths = project_dir
    assert main(["fit", str(paths["1.0"]), "--score", "auc"]) == 4


def test_fit_bad_rule_is_a_config_error(project_dir, capsys):
    _, paths = project_dir
    assert main(["fit", str(paths["1.0"]), "--positive-if", "nope"]) == 5


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


def test_eval_model_with_empty_final_leaf_is_a_data_error(project_dir,
                                                         tmp_path, capsys):
    _, paths = project_dir
    model_path = tmp_path / "leafless.json"
    model_path.write_text(json.dumps(dict(PERFECT_MODEL, final_leaf={})))
    assert main(["eval", str(paths["1.2"]), "--model", str(model_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad model payload")
    assert len(err.splitlines()) == 1


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


def test_eval_top_changed_needs_version_history(project_dir, capsys):
    _, paths = project_dir
    assert main(["eval", str(paths["1.0"]), str(paths["1.1"]),
                 "--top-changed", "0.5"]) == 5


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
], ids=["depth four", "learners 5", "project entry 5", "project path 5",
        "projects list", "top_fraction word", "exclude 5", "bins infinite",
        "depth infinite", "negative seed", "depth above the cap",
        "repeated learner"])
def test_rig_rejects_malformed_config_values(project_dir, capsys, override):
    tmp_path, paths = project_dir
    config = _write_rig_config(tmp_path, paths, **override)
    assert main(["rig", "--config", str(config),
                 "--out-dir", str(tmp_path / "x")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


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
    assert main(["changefreq", str(paths["1.0"])]) == 2
