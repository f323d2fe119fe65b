"""Tests for the experiment rig: splits, runs, comparisons and reports."""

import hashlib
import json
import random
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frugal import operational, rig as rig_module, synth
from frugal.baselines import (LogisticModel, NBModel, lr_score_dataset,
                              nb_train)
from frugal.dataset import LabelRule, binarize
from frugal.errors import (ConfigError, TrainingError, UnsupportedScoreError)
from frugal.fft import FFTree, grow
from frugal.metrics import DIS2HEAVEN, POPT
from frugal.rig import (LEARNER_TABLE, LEARNERS, MAX_REPEATS, EvalResult,
                        RigConfig, attribute_set_deltas, compare,
                        cross_val_plans, cross_val_splits, evaluate,
                        fit_learner, plan_fingerprint, policy_histogram, run,
                        version_split, write_reports)

import oracles
from conftest import make_dataset


def _result(learner="fft", score="d2h", value=0.5, split="cv:r0:b0",
            project="p", attr_set="full", policy="", n_nodes=0,
            degenerate=False):
    return EvalResult(project=project, learner=learner, score=score,
                      attribute_set=attr_set, split=split, n_train=9,
                      n_test=3, value=value, degenerate=degenerate,
                      policy=policy, n_nodes=n_nodes)


# --------------------------------------------------------------- RigConfig

def test_config_defaults_are_valid():
    config = RigConfig()
    assert config.learners == ("fft", "nb", "sl")
    assert config.scores == ("d2h", "popt")
    assert config.mode == "version"


def test_config_rejects_unknown_names():
    with pytest.raises(ConfigError, match="unknown learner"):
        RigConfig(learners=("fft", "svm"))
    with pytest.raises(ConfigError, match="unknown attribute set"):
        RigConfig(attribute_sets=("some",))
    with pytest.raises(UnsupportedScoreError):
        RigConfig(scores=("auc",))
    with pytest.raises(ConfigError, match="unknown mode"):
        RigConfig(mode="bootstrap")


def test_config_rejects_repeated_names():
    with pytest.raises(ConfigError, match=r"learners lists \['nb'\]"):
        RigConfig(learners=("fft", "nb", "nb"))
    with pytest.raises(ConfigError, match=r"scores lists \['d2h'\]"):
        RigConfig(scores=("d2h", "popt", "d2h"))
    with pytest.raises(ConfigError, match=r"attribute_sets lists \['full'\]"):
        RigConfig(attribute_sets=("full", "full"))
    with pytest.raises(ConfigError,
                       match=r"scores lists \['d2h', 'dis2heaven'\]"):
        RigConfig(scores=("d2h", "dis2heaven"))


def test_config_rejects_top25_under_cross_validation():
    with pytest.raises(ConfigError, match="top25.*cannot run under cross"):
        RigConfig(mode="cv", attribute_sets=("full", "top25"))
    RigConfig(mode="cv", attribute_sets=("full",))   # fine


def test_config_numeric_bounds():
    with pytest.raises(ConfigError, match="depth"):
        RigConfig(depth=0)
    with pytest.raises(ConfigError, match="between 1 and 12"):
        RigConfig(depth=13)
    RigConfig(depth=12)   # the cap itself is allowed
    with pytest.raises(ConfigError, match="bins"):
        RigConfig(bins=1)
    with pytest.raises(ConfigError, match="repeats"):
        RigConfig(repeats=0)
    # a huge value would build repeats x bins index arrays before a fold runs
    with pytest.raises(ConfigError, match=f"repeats between 1 and "
                                          f"{MAX_REPEATS}"):
        RigConfig(mode="cv", repeats=MAX_REPEATS + 1)
    RigConfig(mode="cv", repeats=MAX_REPEATS)   # the cap itself is allowed
    with pytest.raises(ConfigError, match="top_fraction"):
        RigConfig(top_fraction=0.0)
    with pytest.raises(ConfigError, match="top_fraction"):
        RigConfig(top_fraction=1.5)
    with pytest.raises(ConfigError, match="seed"):
        RigConfig(seed=-1)


# ------------------------------------------------------------ version_split

def test_version_split_two_versions(corpus):
    v1, v2, v3 = corpus["ant"]
    split = version_split([v1, v2])
    assert split.train is v1
    assert split.test is v2
    assert split.label == f"version:{v2.version}"
    assert split.train_versions == (v1,)


def test_version_split_merges_older_versions(corpus):
    v1, v2, v3 = corpus["ant"]
    split = version_split([v1, v2, v3])
    assert len(split.train) == len(v1) + len(v2)
    assert split.test is v3
    assert split.train_versions == (v1, v2)


def test_version_split_needs_two_versions(corpus):
    with pytest.raises(ConfigError, match="at least two versions"):
        version_split([corpus["ant"][0]])


def test_version_split_label_falls_back_to_name():
    a = make_dataset(("m",), [[1], [2]], labels=[True, False], name="old")
    b = make_dataset(("m",), [[3], [4]], labels=[True, False], name="new")
    assert version_split([a, b]).label == "version:new"


# --------------------------------------------------------- cross-validation

def test_cross_val_plan_shape():
    plans = cross_val_plans(100, bins=10, repeats=5, seed=1)
    assert len(plans) == 50
    assert [(r, b) for r, b, _, _ in plans] \
        == [(r, b) for r in range(5) for b in range(10)]
    for _, _, train_idx, test_idx in plans:
        assert len(test_idx) == 10
        assert len(train_idx) == 90
        assert set(train_idx).isdisjoint(test_idx)
        assert sorted(set(train_idx) | set(test_idx)) == list(range(100))


def test_cross_val_bins_partition_each_repeat():
    plans = cross_val_plans(103, bins=10, repeats=3, seed=9)
    for r in range(3):
        chunks = [test for rr, _, _, test in plans if rr == r]
        seen = np.concatenate(chunks)
        assert len(seen) == 103
        assert sorted(seen.tolist()) == list(range(103))
        sizes = sorted(len(c) for c in chunks)
        assert sizes == [10] * 7 + [11] * 3   # near-equal bins


def test_cross_val_is_seed_deterministic():
    a = cross_val_plans(60, bins=6, repeats=2, seed=42)
    b = cross_val_plans(60, bins=6, repeats=2, seed=42)
    for (r1, b1, tr1, te1), (r2, b2, tr2, te2) in zip(a, b):
        assert (r1, b1) == (r2, b2)
        assert tr1.tolist() == tr2.tolist()
        assert te1.tolist() == te2.tolist()
    c = cross_val_plans(60, bins=6, repeats=2, seed=43)
    assert any(te1.tolist() != te3.tolist()
               for (_, _, _, te1), (_, _, _, te3) in zip(a, c))


def test_cross_val_requires_enough_rows():
    with pytest.raises(ConfigError, match="cannot fill"):
        cross_val_plans(5, bins=10)


def test_cross_val_splits_subset_correctly(corpus):
    data = corpus["ant"][0]
    splits = cross_val_splits(data, bins=5, repeats=1, seed=3)
    assert len(splits) == 5
    assert [s.label for s in splits] == [f"cv:r0:b{b}" for b in range(5)]
    for s in splits:
        assert len(s.train) + len(s.test) == len(data)
        np.testing.assert_array_equal(
            s.test.values, data.values[list(s.test_indices)])


def test_plan_fingerprint_tracks_seed(corpus):
    data = corpus["ant"][0]
    one = plan_fingerprint(cross_val_splits(data, 5, 2, seed=1))
    two = plan_fingerprint(cross_val_splits(data, 5, 2, seed=1))
    other = plan_fingerprint(cross_val_splits(data, 5, 2, seed=2))
    assert one == two
    assert one != other


# ------------------------------------------------- learner table/evaluate

def _evaluate(learner, model, test, fn):
    """``evaluate`` on the scores the learner's row gives the test rows."""
    return evaluate(LEARNER_TABLE[learner].score(model, test), test, fn)


def test_fit_learner_kinds(six_rows):
    assert LEARNERS == tuple(LEARNER_TABLE) == ("fft", "nb", "sl")
    assert [LEARNER_TABLE[name].reads_score for name in LEARNERS] \
        == [True, False, False]
    fft = fit_learner("fft", six_rows, DIS2HEAVEN, depth=1)
    assert isinstance(fft, FFTree)
    assert fft.policy_string == "01" and len(fft.nodes) == 1
    assert LEARNER_TABLE["fft"].describe(fft) \
        == {"policy": "01", "n_nodes": 1}
    assert _evaluate("fft", fft, six_rows, DIS2HEAVEN) == (0.0, False)
    nb = fit_learner("nb", six_rows, DIS2HEAVEN)
    assert isinstance(nb, NBModel)
    assert LEARNER_TABLE["nb"].describe(nb) == {}
    value, degenerate = _evaluate("nb", nb, six_rows, DIS2HEAVEN)
    assert 0.0 <= value <= 1.0 and degenerate is False
    sl = fit_learner("sl", six_rows, DIS2HEAVEN)
    assert isinstance(sl, LogisticModel)
    assert LEARNER_TABLE["sl"].describe(sl) == {}
    value, degenerate = _evaluate("sl", sl, six_rows, POPT)
    assert 0.0 <= value <= 1.0
    # the rig's config names the learner before any table lookup
    with pytest.raises(ConfigError, match="unknown learner 'svm'"):
        RigConfig(learners=("svm",))
    with pytest.raises(KeyError):
        fit_learner("svm", six_rows, DIS2HEAVEN)


def test_evaluate_popt_needs_effort(six_rows):
    bare = make_dataset(("a", "b"), [[1, 1], [9, 9]], labels=[True, False])
    for learner in LEARNERS:
        model = fit_learner(learner, six_rows, DIS2HEAVEN)
        with pytest.raises(UnsupportedScoreError, match="effort"):
            _evaluate(learner, model, bare, POPT)


def test_evaluate_flags_one_class_d2h_cells(six_rows):
    one_class = six_rows.subset(np.arange(3))      # positives only
    for learner in LEARNERS:
        model = fit_learner(learner, six_rows, DIS2HEAVEN)
        assert _evaluate(learner, model, six_rows, DIS2HEAVEN)[1] is False
        assert _evaluate(learner, model, one_class, DIS2HEAVEN)[1] is True
        assert _evaluate(learner, model, six_rows.subset(np.arange(3, 6)),
                         DIS2HEAVEN)[1] is True


@pytest.mark.parametrize("seed", [3, 7])
def test_evaluate_equals_the_per_learner_oracle(seed):
    raw = synth.make_corpus(names=("ant",), seed=seed, versions=2, rows=80)
    train, test = [binarize(v, LabelRule.bug_counts()) for v in raw["ant"]]
    positives = np.flatnonzero(test.labels)
    negatives = np.flatnonzero(~test.labels)
    tests = [test, test.subset(positives), test.subset(negatives),
             test.subset(np.arange(0, len(test), 3))]
    assert len(positives) and len(negatives)
    # twelve rows run out within a few levels, so some trees are cut short
    models = [("fft", tree) for fn in (DIS2HEAVEN, POPT)
              for data in (train, train.subset(range(12)))
              for tree in grow(data, 4, fn)[1]]
    assert any(t.truncated for _, t in models)
    models += [("fft", FFTree(policy=(bit,), nodes=(), leaf_class=not bit,
                              leaf_support=0)) for bit in (False, True)]
    models += [(name, fit_learner(name, train, DIS2HEAVEN))
               for name in ("nb", "sl")]
    # constant columns and balanced labels leave weights and bias at 0, so
    # every row scores exactly 0.5, which predicts true
    flat = replace(train.subset([0, 1]),
                   values=np.ones((2, len(train.attributes))),
                   labels=np.array([True, False]))
    models.append(("sl", fit_learner("sl", flat, DIS2HEAVEN)))
    assert (lr_score_dataset(models[-1][1], test) == 0.5).all()
    for name, model in models:
        for data in tests:
            for fn in (DIS2HEAVEN, POPT):
                assert _evaluate(name, model, data, fn) \
                    == oracles.evaluate_oracle(model, data, fn.kind)


def _three_sets():
    """Three binarized training sets: two full-width, of different lengths,
    and one projected to five attributes."""
    raw = synth.make_corpus(names=("ant",), seed=4, versions=2, rows=60)
    first, second = [binarize(v, LabelRule.bug_counts()) for v in raw["ant"]]
    return [first, second,
            operational.project(second, second.attributes[:5])]


@pytest.mark.parametrize("fn", [DIS2HEAVEN, POPT], ids=["d2h", "popt"])
def test_fft_fit_many_equals_lone_grows(fn):
    trains = _three_sets()
    trees = LEARNER_TABLE["fft"].fit_many(trains, fn, 3)
    assert len(trees) == 3
    for tree, train in zip(trees, trains):
        alone = grow(train, 3, fn)[0]
        assert tree == alone
        assert tree.train_score == alone.train_score
        assert tree.score_kind == fn.kind


def test_nb_fit_many_equals_lone_fits():
    trains = _three_sets()
    models = LEARNER_TABLE["nb"].fit_many(trains, POPT, 4)
    assert len(models) == 3
    for model, train in zip(models, trains):
        alone = nb_train(train)
        assert model.attributes == alone.attributes == train.attributes
        for name in ("log_priors", "means", "variances"):
            assert np.array_equal(getattr(model, name), getattr(alone, name),
                                  equal_nan=True)


def test_sl_fit_many_equals_the_oracle_fits():
    trains = _three_sets()
    models = LEARNER_TABLE["sl"].fit_many(trains, DIS2HEAVEN, 4)
    assert len(models) == 3
    for model, train in zip(models, trains):
        weights, bias, means, stds = oracles.lr_train_oracle(train)
        assert model.attributes == train.attributes
        assert np.array_equal(model.weights, weights)
        assert model.bias == bias
        assert np.array_equal(model.feature_means, means)
        assert np.array_equal(model.feature_stds, stds)


# --------------------------------------------------------------------- run

def test_run_version_mode_result_grid(corpus):
    config = RigConfig(mode="version")
    rig = run(corpus, config)
    # 4 projects x 1 split x 2 scores x 3 learners
    assert len(rig.results) == 24
    assert sorted({r.project for r in rig.results}) == sorted(corpus)
    for r in rig.results:
        assert 0.0 <= r.value <= 1.0
        assert (r.policy != "") == (r.learner == "fft")
    assert {r.split for r in rig.results} \
        == {f"version:{vs[-1].version}" for vs in corpus.values()}
    assert set(rig.fingerprints) == set(corpus)


def test_run_with_attribute_filtering(corpus):
    config = RigConfig(attribute_sets=("full", "top25"))
    rig = run(corpus, config)
    assert len(rig.results) == 48
    top = [r for r in rig.results if r.attribute_set == "top25"]
    assert len(top) == 24
    # the filtered runs really saw fewer attributes; spot the train width
    # through n_train equality and the fft policies being legal
    for r in top:
        assert 0.0 <= r.value <= 1.0


def test_run_cv_mode_counts_and_reproducibility(corpus):
    config = RigConfig(mode="cv", learners=("fft",), scores=("d2h",),
                       bins=5, repeats=2, seed=11)
    project = {"ant": corpus["ant"]}
    one = run(project, config)
    two = run(project, config)
    assert len(one.results) == 10       # 5 bins x 2 repeats x 1 x 1
    assert one.fingerprints == two.fingerprints
    assert [r.value for r in one.results] == [r.value for r in two.results]
    bumped = run(project, RigConfig(mode="cv", learners=("fft",),
                                    scores=("d2h",), bins=5, repeats=2,
                                    seed=12))
    assert bumped.fingerprints != one.fingerprints


def test_run_flags_folds_without_positives_and_compare_drops_them():
    # 8 of 400 rows close within a day, so half the test folds hold none
    data = binarize(synth.make_issue_dataset(seed=11, rows=400),
                    LabelRule("<", 1))
    assert int(data.labels.sum()) == 8
    empty = {f"cv:r{r}:b{b}"
             for r, b, _, test in cross_val_plans(len(data), 10, 5, 11)
             if not data.labels[test].any()}
    assert len(empty) == 25
    config = RigConfig(mode="cv", scores=("d2h",), bins=10, repeats=5,
                       seed=11)
    results = run({"issues": [data]}, config).results
    flagged = [r for r in results if r.degenerate]
    assert len(flagged) == 75
    assert {r.split for r in flagged} == empty
    assert [(r.learner, r.n) for r in compare(results)] == [
        ("fft", 25), ("nb", 25), ("sl", 25)]


def test_run_fits_score_blind_learners_once_per_cell(corpus, monkeypatch):
    calls = {}
    for name in ("grow_many", "nb_train"):
        def counted(*args, _name=name, _fn=getattr(rig_module, name),
                    **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(rig_module, name, counted)
    batches = []

    def batched(trains, _fn=rig_module.lr_train_many):
        batches.append([(len(t), t.attributes) for t in trains])
        return _fn(trains)
    monkeypatch.setattr(rig_module, "lr_train_many", batched)
    config = RigConfig(scores=("d2h", "popt"),
                       attribute_sets=("full", "top25"))
    result = run({"ant": corpus["ant"]}, config)
    # 1 split x 2 attribute sets = 2 cells; fft grows each cell's set once
    # per score, in one batched call per score, and the run's one batched
    # call fits each cell's training set once
    assert calls == {"grow_many": 2, "nb_train": 2}
    train = rig_module.version_split(corpus["ant"]).train
    assert len(batches) == 1 and len(batches[0]) == 2
    assert batches[0][0] == (len(train), train.attributes)
    assert batches[0][1][0] == len(train)
    assert len(batches[0][1][1]) < len(train.attributes)
    assert len(result.results) == 12
    assert [(r.attribute_set, r.score, r.learner)
            for r in result.results] == [
        (a, s, l) for a in ("full", "top25")
        for s in ("dis2heaven", "popt") for l in ("fft", "nb", "sl")]


def test_run_fits_every_sl_set_of_the_run_in_one_batch(corpus,
                                                       monkeypatch):
    batches = []

    def batched(trains, _fn=rig_module.lr_train_many):
        batches.append(trains)
        return _fn(trains)
    monkeypatch.setattr(rig_module, "lr_train_many", batched)
    config = RigConfig(attribute_sets=("full", "top25"))
    whole = run(corpus, config)
    planned = []
    for name in sorted(corpus):
        split = rig_module.version_split(corpus[name])
        planned += [split, rig_module.top_changed_split(split, 0.25)]
    # the four projects' same-shaped designs share one call, in plan order
    assert len(batches) == 1
    assert [(t.name, t.attributes) for t in batches[0]] \
        == [(s.train.name, s.train.attributes) for s in planned]
    assert all(np.array_equal(t.values, s.train.values, equal_nan=True)
               for t, s in zip(batches[0], planned))
    alone = [run({name: corpus[name]}, config) for name in sorted(corpus)]
    assert len(batches) == 1 + len(corpus)
    assert whole.results == [r for one in alone for r in one.results]
    assert list(whole.fingerprints.items()) \
        == [item for one in alone for item in one.fingerprints.items()]


def test_run_grows_every_tree_of_a_score_in_one_batch(corpus, monkeypatch):
    batches = []

    def batched(trains, depth, fn, _fn=rig_module.grow_many):
        batches.append((fn.kind, trains))
        return _fn(trains, depth, fn)
    monkeypatch.setattr(rig_module, "grow_many", batched)
    config = RigConfig(attribute_sets=("full", "top25"))
    whole = run(corpus, config)
    planned = []
    for name in sorted(corpus):
        split = rig_module.version_split(corpus[name])
        planned += [split, rig_module.top_changed_split(split, 0.25)]
    # every cell's set, in plan order, in one call per score
    assert [kind for kind, _ in batches] == ["dis2heaven", "popt"]
    for _, trains in batches:
        assert [(t.name, t.attributes) for t in trains] \
            == [(s.train.name, s.train.attributes) for s in planned]
        assert all(np.array_equal(t.values, s.train.values, equal_nan=True)
                   for t, s in zip(trains, planned))
    alone = [run({name: corpus[name]}, config) for name in sorted(corpus)]
    assert len(batches) == 2 * (1 + len(corpus))
    assert whole.results == [r for one in alone for r in one.results]
    assert list(whole.fingerprints.items()) \
        == [item for one in alone for item in one.fingerprints.items()]


def test_run_raises_a_later_plan_error_before_an_earlier_fit_error():
    rng = np.random.default_rng(3)

    def versions(name, n, labels):
        return [make_dataset(("m", "n", "o", "p"),
                             rng.integers(0, 9, (8, 4)).tolist(),
                             labels=labels(v), name=name, version=str(v),
                             effort=rng.integers(1, 9, 8))
                for v in range(1, n + 1)]
    # a's sl training rows are all positive (a fit-phase error); b has two
    # versions, too few for top25 (a plan-phase error)
    projects = {"a": versions("a", 3, lambda v: [v < 3 or i % 2
                                                 for i in range(8)]),
                "b": versions("b", 2, lambda v: [i % 2 for i in range(8)])}
    config = RigConfig(learners=("sl",), attribute_sets=("full", "top25"))
    with pytest.raises(TrainingError,
                       match=r"^\[a/sl/dis2heaven/full/version:3\] a: "
                             r".*both classes"):
        run({"a": projects["a"]}, config)
    with pytest.raises(ConfigError, match=r"^b: top-changed attribute "
                                          r"filtering needs at least two"):
        run(projects, config)


def test_run_refuses_an_nb_set_in_the_check_phase(monkeypatch):
    rng = np.random.default_rng(4)

    def version(name, v, rows, effort=True):
        return make_dataset(("m", "n"), rng.integers(0, 9, (rows, 2)).tolist(),
                            labels=[i % 2 for i in range(rows)], name=name,
                            version=str(v), effort=(rng.integers(1, 9, rows)
                                                    if effort else None))
    # a plans first and fails only in evaluation: its newest version has
    # no effort for popt; b's training version has no rows, which nb
    # refuses; c has one version, too few for a version split
    projects = {"a": [version("a", 1, 8), version("a", 2, 8, effort=False)],
                "b": [version("b", 1, 0), version("b", 2, 8)],
                "c": [version("c", 1, 8)]}
    fitted = []
    for name in ("grow_many", "nb_train", "lr_train_many"):
        def counted(*args, _name=name, _fn=getattr(rig_module, name)):
            fitted.append(_name)
            return _fn(*args)
        monkeypatch.setattr(rig_module, name, counted)
    config = RigConfig(learners=("nb", "fft"), scores=("popt", "d2h"))
    with pytest.raises(ConfigError, match="^a version-ordered split needs"):
        run(projects, config)
    with pytest.raises(TrainingError, match=r"^\[b/nb/popt/full/version:2\] "
                                            r"b: empty training set$"):
        run({k: projects[k] for k in "ab"}, config)
    assert fitted == []
    with pytest.raises(UnsupportedScoreError,
                       match=r"^\[a/nb/popt/full/version:2\] a: popt "
                             r"scoring needs an effort column$"):
        run({"a": projects["a"]}, config)
    assert fitted == ["nb_train", "grow_many", "grow_many"]


def test_run_reaches_the_model_functions_by_their_module_names(corpus,
                                                              monkeypatch):
    # A tracer rebinds these names; the rig must look them up per call.
    names = ("score_dataset", "nb_score_dataset", "lr_score_dataset")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(rig_module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(rig_module, name, counted)
    config = RigConfig(scores=("d2h", "popt"),
                       attribute_sets=("full", "top25"))
    run({"ant": corpus["ant"]}, config)
    # 2 cells: fft grows a model per score, nb and sl one per cell, and
    # each model scores its test rows once
    assert calls == {"score_dataset": 4, "nb_score_dataset": 2,
                     "lr_score_dataset": 2}


def test_run_reports_a_failing_shared_fit_under_the_first_score():
    one_class = [
        make_dataset(("m",), [[1], [2], [3], [4]],
                     labels=[True, True, True, True], name="p",
                     version=str(v), effort=[1, 2, 3, 4])
        for v in (1, 2)]
    config = RigConfig(learners=("sl",), scores=("popt", "d2h"))
    with pytest.raises(TrainingError,
                       match=r"\[p/sl/popt/full/version:2\] .*both classes"):
        run({"p": one_class}, config)


def test_run_checks_each_sl_cell_under_its_prefix_before_fitting(
        monkeypatch):
    # two positives in ten rows: some fold trains on negatives only
    data = make_dataset(("m",), [[i] for i in range(10)],
                        labels=[i in (2, 7) for i in range(10)], name="p",
                        effort=list(range(1, 11)))
    plans = cross_val_plans(10, bins=5, repeats=2, seed=10)
    bad = [f"cv:r{r}:b{b}" for r, b, train, _ in plans
           if not data.labels[train].any()]
    assert bad == ["cv:r1:b3"]      # the ninth of ten cells
    batches = []
    monkeypatch.setattr(rig_module, "lr_train_many",
                        lambda trains: batches.append(trains))
    config = RigConfig(mode="cv", learners=("nb", "sl"), scores=("d2h",),
                       bins=5, repeats=2, seed=10)
    with pytest.raises(TrainingError, match=rf"\[p/sl/dis2heaven/full/"
                                            rf"{bad[0]}\] .*both classes"):
        run({"p": [data]}, config)
    assert batches == []


def test_run_requires_binary_labels(corpus):
    raw = make_dataset(("m",), [[1], [2], [3], [4]], labels=[0, 1, 2, 0],
                       binary=False, name="raw", version="1")
    # every learner checks only its training rows, so raw labels on the
    # newest (test) version alone are caught here or not at all
    *train, newest = corpus["ant"]
    raw_test = replace(newest, labels=newest.labels * 2.0)
    for versions in ([raw, raw], [*train, raw_test]):
        with pytest.raises(TrainingError, match="binarized"):
            run({"p": versions}, RigConfig(learners=("fft",),
                                           scores=("d2h",)))


def test_run_scores_a_column_of_huge_finite_values_without_warnings():
    # under the suite's RuntimeWarning-as-error filter, an overflow in any
    # learner's fit or scoring would raise
    rng = np.random.default_rng(5)
    versions = []
    for v in (1, 2):
        big = rng.uniform(1e308, 1.7e308, 12)
        small = rng.integers(0, 9, 12)
        versions.append(make_dataset(
            ("big", "small"), np.column_stack([big, small]).tolist(),
            labels=(small > 4).tolist(), effort=rng.integers(1, 9, 12),
            name="p", version=str(v)))
    result = run({"p": versions}, RigConfig())
    assert len(result.results) == 6
    assert all(0.0 <= r.value <= 1.0 for r in result.results)


def test_run_rejects_empty_project():
    with pytest.raises(ConfigError, match="no datasets"):
        run({"void": []}, RigConfig())


def test_run_annotates_learner_errors():
    no_effort = [
        make_dataset(("m",), [[1], [2], [3], [4]],
                     labels=[True, False, True, False], name="p",
                     version=str(v))
        for v in (1, 2)]
    config = RigConfig(learners=("fft",), scores=("popt",))
    with pytest.raises(UnsupportedScoreError,
                       match=r"\[p/fft/popt/full/version:2\]"):
        run({"p": no_effort}, config)


def test_run_checks_each_fft_cell_under_its_prefix_before_growing(
        monkeypatch):
    no_effort = [
        make_dataset(("m",), [[1], [2], [3], [4]],
                     labels=[True, False, True, False], name="p",
                     version=str(v))
        for v in (1, 2)]
    batches = []
    monkeypatch.setattr(rig_module, "grow_many",
                        lambda *args: batches.append(args))
    config = RigConfig(learners=("fft",), scores=("d2h", "popt"))
    with pytest.raises(UnsupportedScoreError,
                       match=r"^\[p/fft/popt/full/version:2\] p: popt needs"):
        run({"p": no_effort}, config)
    assert batches == []


def test_run_top25_needs_two_training_versions(corpus):
    two = {"ant": corpus["ant"][:2]}
    config = RigConfig(attribute_sets=("top25",))
    with pytest.raises(ConfigError, match="two training versions"):
        run(two, config)


# ---------------------------------------------------------- policy histogram

def test_policy_histogram_tallies_and_orders():
    results = [
        _result(policy="00001", n_nodes=4, split="cv:r0:b0"),
        _result(policy="00001", n_nodes=4, split="cv:r0:b1"),
        _result(policy="01110", n_nodes=4, split="cv:r0:b2"),
        _result(policy="00001", n_nodes=4, score="popt", split="cv:r0:b0"),
        _result(learner="nb", split="cv:r0:b3"),     # no policy: not counted
    ]
    hist = policy_histogram(results)
    assert hist == [("d2h", "full", "00001", 2),
                    ("d2h", "full", "01110", 1),
                    ("popt", "full", "00001", 1)]
    d2h_total = sum(n for score, _, _, n in hist if score == "d2h")
    assert d2h_total == sum(1 for r in results
                            if r.policy and r.score == "d2h")


def test_policy_histogram_empty_without_trees():
    results = [_result(learner="nb"), _result(learner="sl")]
    assert policy_histogram(results) == []


def test_policy_histogram_column_totals_match_tree_runs(corpus):
    rig = run(corpus, RigConfig())
    hist = policy_histogram(rig.results)
    for score in ("d2h", "popt"):
        column = sum(n for s, a, _, n in hist
                     if s == score and a == "full")
        expected = sum(1 for r in rig.results
                       if r.learner == "fft" and r.score == score)
        assert column == expected


# ----------------------------------------------------------------- compare

def _stream(learner, values, score="d2h"):
    return [_result(learner=learner, score=score, value=v,
                    split=f"cv:r0:b{i}") for i, v in enumerate(values)]


def test_compare_identical_streams_are_tied():
    results = _stream("fft", [0.2] * 5) + _stream("nb", [0.2] * 5)
    rows = compare(results)
    assert [(r.learner, r.verdict) for r in rows] \
        == [("fft", "tied"), ("nb", "tied")]


def test_compare_dominating_learner_wins():
    results = _stream("fft", [0.1] * 5) + _stream("nb", [0.9] * 5)
    rows = {r.learner: r for r in compare(results)}
    assert rows["fft"].verdict == "better"
    assert rows["fft"].wins == 1
    assert rows["nb"].verdict == "worse"
    assert rows["nb"].losses == 1


def test_compare_respects_score_orientation():
    results = _stream("fft", [0.9] * 5, score="popt") \
        + _stream("nb", [0.1] * 5, score="popt")
    rows = {r.learner: r for r in compare(results)}
    assert rows["fft"].verdict == "better"     # higher popt is better
    assert rows["nb"].verdict == "worse"


def test_compare_mixed_and_better_need_every_opponent_beaten():
    results = (_stream("fft", [0.1] * 5) + _stream("nb", [0.9] * 5)
               + _stream("sl", [0.1] * 5))
    rows = {r.learner: r for r in compare(results)}
    # fft and sl tie each other but both beat nb: one win of two possible
    assert rows["fft"].verdict == "mixed"
    assert rows["sl"].verdict == "mixed"
    assert rows["nb"].verdict == "worse"
    assert rows["nb"].losses == 2


def test_compare_small_groups_are_inconclusive():
    results = _stream("fft", [0.1, 0.1]) + _stream("nb", [0.9, 0.9])
    rows = compare(results)
    assert all(r.verdict == "inconclusive" for r in rows)
    assert all(r.wins == 0 and r.losses == 0 for r in rows)


def test_compare_leaves_degenerate_results_out():
    results = (_stream("fft", [0.1] * 5) + _stream("nb", [0.9] * 5)
               + [_result(learner="nb", value=0.0, split=f"cv:r1:b{i}",
                          degenerate=True) for i in range(9)])
    rows = {r.learner: r for r in compare(results)}
    assert rows["nb"].n == 5 and rows["nb"].verdict == "worse"
    assert rows["fft"].verdict == "better"
    only = compare([_result(degenerate=True)] * 3 + _stream("nb", [0.2] * 3))
    assert [(r.learner, r.n, r.verdict) for r in only] == [
        ("fft", 0, "inconclusive"), ("nb", 3, "inconclusive")]


def test_compare_groups_by_project_score_and_attribute_set():
    results = (_stream("fft", [0.1] * 5) + _stream("nb", [0.9] * 5)
               + [_result(learner="fft", score="popt", value=0.5,
                          split=f"cv:r0:b{i}") for i in range(5)])
    rows = compare(results)
    keys = {(r.project, r.score, r.attribute_set) for r in rows}
    assert keys == {("p", "d2h", "full"), ("p", "popt", "full")}
    solo = [r for r in rows if r.score == "popt"]
    assert [r.verdict for r in solo] == ["inconclusive"]   # no opponents


@st.composite
def _comparison_results(draw):
    """Results in up to three (project, score, attribute set) groups of one
    to four learners, each with up to ten values, some degenerate.  A
    learner's values lie at or above its own base, so some pairs differ
    significantly and some overlap."""
    keys = draw(st.lists(st.tuples(st.sampled_from(["p", "q"]),
                                   st.sampled_from(["dis2heaven", "popt"]),
                                   st.sampled_from(["full", "top25"])),
                         min_size=1, max_size=3, unique=True))
    results = []
    for project, score, attr_set in keys:
        learners = draw(st.lists(st.sampled_from(["fft", "nb", "sl", "svm"]),
                                 min_size=1, max_size=4, unique=True))
        for learner in learners:
            base = draw(st.sampled_from([0.0, 0.3, 0.6]))
            value = st.one_of(st.just(base), st.floats(base, base + 0.4))
            cells = draw(st.lists(st.tuples(
                value, st.sampled_from([False, False, False, True])),
                max_size=10))
            results += [_result(learner=learner, score=score, value=v,
                                split=f"cv:r0:b{i}", project=project,
                                attr_set=attr_set, degenerate=degenerate)
                        for i, (v, degenerate) in enumerate(cells)]
    return draw(st.permutations(results))


@settings(max_examples=200, deadline=None)
@given(_comparison_results())
def test_compare_equals_the_per_learner_oracle(results):
    assert [astuple(row) for row in compare(results)] \
        == oracles.compare_oracle(results)


# -------------------------------------------------------------------- deltas

def test_attribute_set_deltas_orientation():
    results = []
    for i, (full_v, top_v) in enumerate([(0.20, 0.25), (0.30, 0.35),
                                         (0.40, 0.50)]):
        results.append(_result(value=full_v, split=f"s{i}"))
        results.append(_result(value=top_v, split=f"s{i}", attr_set="top25"))
    for i, (full_v, top_v) in enumerate([(0.80, 0.70)]):
        results.append(_result(value=full_v, score="popt", split=f"s{i}"))
        results.append(_result(value=top_v, score="popt", split=f"s{i}",
                               attr_set="top25"))
    rows = {(r.learner, r.score): r for r in attribute_set_deltas(results)}
    d2h = rows[("fft", "d2h")]
    assert d2h.n == 3
    assert d2h.delta == pytest.approx(0.05)    # restricted minus full
    popt_row = rows[("fft", "popt")]
    assert popt_row.n == 1
    assert popt_row.delta == pytest.approx(0.1)  # full minus restricted


def test_attribute_set_deltas_skip_unpaired_splits():
    results = [_result(value=0.2, split="s0"),
               _result(value=0.3, split="s0", attr_set="top25"),
               _result(value=0.9, split="ghost", attr_set="top25")]
    rows = attribute_set_deltas(results)
    assert len(rows) == 1
    assert rows[0].n == 1


def test_attribute_set_deltas_drop_degenerate_pairs():
    results = [_result(value=0.2, split="s0"),
               _result(value=0.3, split="s0", attr_set="top25"),
               _result(value=0.0, split="s1", degenerate=True),
               _result(value=0.4, split="s1", attr_set="top25"),
               _result(value=0.1, split="s2"),
               _result(value=0.0, split="s2", attr_set="top25",
                       degenerate=True)]
    rows = attribute_set_deltas(results)
    assert [(r.n, r.delta) for r in rows] == [(1, pytest.approx(0.1))]


def test_attribute_set_deltas_empty_without_top25():
    assert attribute_set_deltas(_stream("fft", [0.1, 0.2])) == []


# ------------------------------------------------------------------ reports

def test_write_reports_emits_expected_files(tmp_path, corpus):
    rig = run(corpus, RigConfig(learners=("fft", "nb"), scores=("d2h",)))
    paths = write_reports(rig, tmp_path / "reports")
    names = sorted(p.name for p in (tmp_path / "reports").iterdir())
    assert names == ["comparison.csv", "deltas.csv", "policy_histogram.csv",
                     "results.csv", "results.json"]
    assert set(paths) == {"results_csv", "results_json", "policy_histogram",
                          "comparison", "deltas"}


def test_reports_are_byte_identical_across_reruns(tmp_path, corpus):
    config = RigConfig(mode="cv", learners=("fft", "nb"), scores=("d2h",),
                       bins=5, repeats=1, seed=7)
    project = {"beam": corpus["beam"]}
    first = write_reports(run(project, config), tmp_path / "one")
    second = write_reports(run(project, config), tmp_path / "two")
    for key in first:
        assert first[key].read_bytes() == second[key].read_bytes(), key


def test_results_csv_is_order_insensitive_and_hides_timing(tmp_path, corpus):
    rig = run({"ant": corpus["ant"]}, RigConfig(learners=("fft", "sl")))
    shuffled = list(rig.results)
    random.Random(0).shuffle(shuffled)
    a = write_reports(rig, tmp_path / "a")
    b = write_reports(replace(rig, results=shuffled), tmp_path / "b")
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes(), key
    text = a["results_csv"].read_text()
    assert text.splitlines()[0] == ("project,learner,score,attribute_set,"
                                    "split,n_train,n_test,value,degenerate,"
                                    "policy,n_nodes")
    assert "wall_time" not in text


def test_results_json_layout(tmp_path, corpus):
    rig = run({"ant": corpus["ant"]},
              RigConfig(learners=("fft",), scores=("d2h",)))
    paths = write_reports(rig, tmp_path)
    payload = json.loads(paths["results_json"].read_text())
    assert set(payload) == {"config", "fingerprints", "projects"}
    assert payload["config"]["mode"] == "version"
    assert list(payload["projects"]) == ["ant"]
    row = payload["projects"]["ant"][0]
    assert set(row) == {"project", "learner", "score", "attribute_set",
                        "split", "n_train", "n_test", "value", "degenerate",
                        "policy", "n_nodes"}
    assert "wall_time" not in json.dumps(payload)


# Report digests recorded before the row APIs, NB scoring and ranks were
# folded into the vectorized code; any change in trees, baseline scores,
# rank statistics or report formatting shows up here.
GOLDEN_REPORTS = {
    "version": {
        "results.csv": "9f12f141389c99e7aba8f1147f58cc8c2a6691cce618cbf86a579681da00da11",
        "results.json": "99ad5dec08128402f03948817f0bc55e231015f291d79c3a144ca43092943919",
        "policy_histogram.csv": "1917ad9b888bdd1021a4b8cdf0b5747ac4e25ef985abfab6386229dabfeea3cd",
        "comparison.csv": "d9fd90a05c07a27ac2092ba13ce522781fabeac91ae5c8818e2ff7343e53e5e7",
        "deltas.csv": "15a9ca498ee0569180f5667088460c9d9a8041cd82d4e5117228b389e6536377",
    },
    "cv": {
        "results.csv": "871ac0e1bb7ed482dcabf9c04d71dac51d9bfc4f30d2cc6f017c45bfca22eac0",
        "results.json": "ca69f272db42ace590e508dd0f5d43b9688e5f2553e76e985974048b87d40b3b",
        "policy_histogram.csv": "063cdae47eca291092265bd56da6ca8fae67ccc05af9cb5ca4cb5d8f16b70f3d",
        "comparison.csv": "26b3348f37acd00c4c3300f5d88c9b8cf9e92ac50d9224e39fd243d4ddc91287",
        "deltas.csv": "e86e31fe79f16fea1323ffd04e1dadc1fd44f67bfb88f4144130099fcc67e8d1",
    },
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_REPORTS))
def test_report_bytes_match_golden_digests(tmp_path, mode):
    rule = LabelRule.bug_counts()
    if mode == "version":
        raw = synth.make_corpus(names=("ant", "beam"), seed=3, rows=60)
        config = RigConfig(attribute_sets=("full", "top25"))
    else:
        raw = synth.make_corpus(names=("ant",), seed=5, rows=60)
        config = RigConfig(mode="cv", bins=5, repeats=2, seed=4)
    projects = {name: [binarize(v, rule) for v in versions]
                for name, versions in raw.items()}
    paths = write_reports(run(projects, config), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in paths.values()}
    assert digests == GOLDEN_REPORTS[mode]
