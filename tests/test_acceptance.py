"""Shipping gate: nine checks, one verdict line each.

Each test prints ``acceptance N: PASS/FAIL/SKIP`` with its stated tolerance;
run with ``-s`` (or read pytest's captured output) to see the lines.  Checks
4 and 5 need the public multi-version defect CSVs; when those are absent
(offline build) they exercise the same machinery on the bundled synthetic
corpus and report as skipped with the reason.
"""

import contextlib
import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from frugal import rig, synth
from frugal.baselines import (_standardize, logistic_gradient, logistic_loss,
                              nb_score_dataset, nb_train)
from frugal.dataset import LabelRule, binarize, load_csv
from frugal.fft import grow, parse, render
from frugal.metrics import (Confusion, a12, dis2heaven, mann_whitney, popt,
                            score_function)

import oracles
from conftest import dataset_rows, one_row

D2H = score_function("d2h")
POPT = score_function("popt")

PUBLIC_PROJECTS = ("camel", "ivy", "jedit", "log4j", "lucene",
                   "poi", "synapse", "velocity", "xalan", "xerces")
DESK_PROJECTS = ("ant", "beam", "calcite", "druid", "flink",
                 "gobblin", "hive", "iceberg", "jena", "kafka")


@contextlib.contextmanager
def verdict(number: int, label: str, tolerance: str):
    """Print exactly one outcome line for an acceptance check."""
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"acceptance {number}: SKIP — {label}: {exc}")
        raise
    except BaseException:
        print(f"acceptance {number}: FAIL — {label} [{tolerance}]")
        raise
    print(f"acceptance {number}: PASS — {label} [{tolerance}]")


def _public_catalog(min_versions: int):
    """Version CSVs for the ten public defect projects, if present."""
    root = Path(os.environ.get("FRUGAL_DATA_DIR", "data/jureczko"))
    if not root.is_dir():
        return None, f"no data directory at {root}"
    catalog = {}
    for project in PUBLIC_PROJECTS:
        files = sorted(root.glob(f"{project}-*.csv"))
        if len(files) < min_versions:
            return None, (f"{project}: wanted >= {min_versions} version CSVs "
                          f"under {root}, found {len(files)}")
        catalog[project] = files
    return catalog, ""


def _load_public(catalog):
    rule = LabelRule.bug_counts()
    return {name: [binarize(load_csv(p, label_column="bug",
                                     effort_column="loc", name=p.stem), rule)
                   for p in paths]
            for name, paths in catalog.items()}


@pytest.fixture(scope="session")
def desk_rig():
    """One full run on the bundled ten-project corpus, shared by checks 4-6."""
    t0 = time.perf_counter()
    raw = synth.make_corpus(DESK_PROJECTS, seed=7, versions=3, rows=90)
    rule = LabelRule.bug_counts()
    projects = {name: [binarize(v, rule) for v in versions]
                for name, versions in raw.items()}
    config = rig.RigConfig(learners=("fft", "nb", "sl"),
                           scores=("d2h", "popt"),
                           attribute_sets=("full", "top25"),
                           mode="version")
    result = rig.run(projects, config)
    return SimpleNamespace(result=result, projects=projects,
                           elapsed=time.perf_counter() - t0)


def test_1_policy_enumeration_matches_brute_force(six_rows, eight_rows,
                                                  twelve_rows):
    with verdict(1, "every exit policy built; best equals brute force",
                 "exact, < 1 s"):
        t0 = time.perf_counter()
        for ds in (six_rows, eight_rows, twelve_rows):
            rows = dataset_rows(ds)
            labels = ds.labels.tolist()
            efforts = ds.effort.tolist()
            for fn in (D2H, POPT):
                for depth in (1, 2, 3, 4):
                    best, trees = grow(ds, depth=depth, fn=fn)
                    assert len(trees) == 2 ** depth
                    want_policy, want_score, _ = oracles.best_tree_oracle(
                        rows, labels, efforts, depth, fn.kind)
                    assert best.policy_string == want_policy
                    assert best.train_score == want_score
        assert time.perf_counter() - t0 < 1.0


def test_2_metric_identities(six_rows, eight_rows, twelve_rows, popt_fixture):
    with verdict(2, "score identities at the extremes", "1e-9, < 1 s"):
        t0 = time.perf_counter()
        assert abs(dis2heaven(Confusion(tp=5, fp=0, tn=7, fn=0))) <= 1e-9
        assert abs(dis2heaven(Confusion(tp=3, fp=0, tn=0, fn=0))) <= 1e-9

        rankings = [popt_fixture]
        for ds in (six_rows, eight_rows, twelve_rows):
            rankings.append((ds.labels.astype(float).tolist(),
                             ds.effort.tolist()))
        for defects, efforts in rankings:
            assert sum(defects) >= 1
            best = oracles.density_order(defects, efforts, descending=True)
            worst = oracles.density_order(defects, efforts, descending=False)
            assert abs(popt([defects[i] for i in best],
                            [efforts[i] for i in best]).value - 1.0) <= 1e-9
            assert abs(popt([defects[i] for i in worst],
                            [efforts[i] for i in worst]).value) <= 1e-9

        for xs in ([4.0], [3.5, 1.2, 7.0], [2.0, 2.0, 5.0, 9.0, 2.0],
                   list(map(float, range(12)))):
            assert abs(a12(xs, xs) - 0.5) <= 1e-9
        assert time.perf_counter() - t0 < 1.0


def test_3_trees_stay_short_and_round_trip(eight_rows, twelve_rows, corpus):
    with verdict(3, "depth-4 trees render in <= 5 lines; text round-trips",
                 "exact, < 1 s"):
        t0 = time.perf_counter()
        pool = []
        pool += grow(eight_rows, depth=4, fn=D2H)[1]
        pool += grow(twelve_rows, depth=4, fn=D2H)[1]
        pool += grow(twelve_rows, depth=4, fn=POPT)[1]
        pool += grow(corpus["ant"][0], depth=4, fn=D2H)[1]
        assert len(pool) == 64
        for tree in pool:
            text = render(tree)
            assert len(text.splitlines()) <= 5
            assert render(parse(text)) == text
        assert time.perf_counter() - t0 < 1.0


def test_4_beats_naive_bayes_on_defect_data(desk_rig):
    with verdict(4, "trees beat naive bayes on >= 7/10 defect datasets",
                 "win count, < 2 min"):
        catalog, why = _public_catalog(min_versions=2)
        if catalog is None:
            values = {(r.project, r.learner, r.score): r.value
                      for r in desk_rig.result.results
                      if r.attribute_set == "full"}
            for project in DESK_PROJECTS:
                for learner in ("fft", "nb"):
                    for kind in ("dis2heaven", "popt"):
                        assert np.isfinite(values[(project, learner, kind)])
            pytest.skip(f"public defect CSVs unavailable ({why}); "
                        "ran the bundled ten-project corpus end to end "
                        "instead")
        t0 = time.perf_counter()
        projects = _load_public(catalog)
        config = rig.RigConfig(learners=("fft", "nb"), scores=("d2h", "popt"),
                               attribute_sets=("full",), mode="version")
        result = rig.run(projects, config)
        values = {(r.project, r.learner, r.score): r.value
                  for r in result.results}
        for fn in (D2H, POPT):
            wins = sum(
                1 for project in projects
                if fn.better(values[(project, "fft", fn.kind)],
                             values[(project, "nb", fn.kind)]))
            assert wins >= 7, f"{fn.kind}: trees won only {wins}/10"
        assert time.perf_counter() - t0 < 120.0


def test_5_prunes_attributes_more_stably_than_logistic(desk_rig):
    with verdict(5, "attribute pruning drifts trees <= logistic regression",
                 "median comparison, < 2 min"):
        catalog, why = _public_catalog(min_versions=3)
        if catalog is None:
            drift = rig.attribute_set_deltas(desk_rig.result.results)
            assert {row.learner for row in drift} >= {"fft", "sl"}
            assert {row.score for row in drift} == {"dis2heaven", "popt"}
            pytest.skip(f"public defect CSVs unavailable ({why}); computed "
                        "the drift table on the bundled corpus instead")
        t0 = time.perf_counter()
        projects = _load_public(catalog)
        config = rig.RigConfig(learners=("fft", "sl"), scores=("d2h", "popt"),
                               attribute_sets=("full", "top25"),
                               mode="version")
        drift = rig.attribute_set_deltas(rig.run(projects, config).results)
        for kind in ("dis2heaven", "popt"):
            gaps = {learner: [abs(row.delta) for row in drift
                              if row.learner == learner and row.score == kind]
                    for learner in ("fft", "sl")}
            assert np.median(gaps["fft"]) <= np.median(gaps["sl"]), kind
        assert time.perf_counter() - t0 < 120.0


def test_6_policy_histogram_totals(desk_rig):
    with verdict(6, "policy histogram columns add up; winners vary",
                 "exact, < 2 min"):
        results = desk_rig.result.results
        fft_runs = {}
        for r in results:
            if r.learner == "fft" and r.policy is not None:
                key = (r.score, r.attribute_set)
                fft_runs[key] = fft_runs.get(key, 0) + 1
        totals = {}
        d2h_full_policies = set()
        for score, attr_set, policy, count in rig.policy_histogram(results):
            totals[(score, attr_set)] = totals.get((score, attr_set), 0) + count
            if (score, attr_set) == ("dis2heaven", "full"):
                d2h_full_policies.add(policy)
        assert totals == fft_runs
        assert all(total == len(DESK_PROJECTS) for total in totals.values())
        assert len(d2h_full_policies) >= 2
        assert desk_rig.elapsed < 120.0


def test_7_cross_validation_is_reproducible(tmp_path):
    with verdict(7, "5x10 cross-validation: 50 clean splits, reruns "
                    "byte-identical", "exact"):
        n = 83
        plans = rig.cross_val_plans(n, bins=10, repeats=5, seed=9)
        assert len(plans) == 50
        by_repeat = {}
        for repeat, _, train_idx, test_idx in plans:
            assert not set(train_idx.tolist()) & set(test_idx.tolist())
            assert len(train_idx) + len(test_idx) == n
            by_repeat.setdefault(repeat, []).append(test_idx)
        assert len(by_repeat) == 5
        for test_bins in by_repeat.values():
            assert len(test_bins) == 10
            covered = sorted(int(i) for idx in test_bins for i in idx)
            assert covered == list(range(n))

        versions = synth.make_project("cv", seed=3, versions=1, rows=80)
        project = {"cv": [binarize(v, LabelRule.bug_counts())
                          for v in versions]}
        config = rig.RigConfig(learners=("fft",), scores=("d2h",),
                               mode="cv", bins=10, repeats=5, seed=4)
        for sub in ("one", "two"):
            rig.write_reports(rig.run(project, config), tmp_path / sub)
        for name in ("results.csv", "results.json", "policy_histogram.csv",
                     "comparison.csv", "deltas.csv"):
            assert (tmp_path / "one" / name).read_bytes() \
                == (tmp_path / "two" / name).read_bytes()


def test_8_baseline_numerics(five_rows_lr, eight_rows):
    with verdict(8, "logistic gradient and bayes posteriors match "
                    "independent math", "1e-4 relative / 1e-9"):
        X, _, _ = _standardize(five_rows_lr.values)
        y = five_rows_lr.labels.astype(float)

        def loss(weights, bias):
            return logistic_loss(np.asarray(weights, dtype=float), bias, X, y)

        for weights, bias in [([0.0, 0.0], 0.0), ([0.5, -0.25], 0.1),
                              ([-1.0, 2.0], -0.7), ([0.03, 0.4], 1.5)]:
            gw, gb = logistic_gradient(np.array(weights), bias, X, y)
            fw, fb = oracles.finite_difference_gradient(loss, weights, bias)
            for got, want in zip(list(gw) + [gb], fw + [fb]):
                assert abs(got - want) <= 1e-4 * max(1.0, abs(want))

        model = nb_train(eight_rows)
        train_rows = dataset_rows(eight_rows)
        train_labels = eight_rows.labels.tolist()
        held_out = {"x": 2.5, "y": 33.0, "z": None}
        for row in train_rows + [held_out]:
            want = oracles.nb_posterior_oracle(train_rows, train_labels, row)
            got = nb_score_dataset(model, one_row(eight_rows.attributes, row))
            assert abs(got[0] - want) <= 1e-9


def test_9_rank_statistics_match_exhaustive_pairwise():
    with verdict(9, "effect size and rank test equal exhaustive pairwise "
                    "computation", "exact"):
        cases = [([1.0, 2.0], [2.0, 3.0]),
                 ([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]),
                 ([2.0, 2.0, 2.0], [2.0, 2.0, 2.0]),
                 ([1.0, 2.0, 3.0, 4.0], [0.5, 2.5, 3.5, 4.5])]
        rng = np.random.default_rng(2)
        for _ in range(200):
            xs = rng.integers(-6, 7, size=rng.integers(1, 13)).astype(float)
            ys = rng.integers(-6, 7, size=rng.integers(1, 13)).astype(float)
            cases.append((xs.tolist(), ys.tolist()))
        for xs, ys in cases:
            assert a12(xs, ys) == oracles.a12_pairwise(xs, ys)
            if len(xs) >= 3 and len(ys) >= 3:
                assert mann_whitney(xs, ys).u == oracles.u_pairwise(xs, ys)
