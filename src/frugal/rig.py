"""Experiment rig: version-ordered and repeated cross-validation runs over
the tree, naive-bayes, and logistic learners.

Within one (split, attribute set) cell, a learner whose training ignores
the score function (``nb``, ``sl``) is fitted once and evaluated under every
score; ``fft`` selects its tree by the score, so it is grown once per score.

Results are plain dataclasses; the report writers emit byte-identical files
for identical inputs and seeds (wall-clock timings stay in memory only).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import operational
from .baselines import (lr_predict_dataset, lr_score_dataset, lr_train,
                        nb_predict_dataset, nb_score_dataset, nb_train)
from .dataset import Dataset, merge
from .errors import (ConfigError, FrugalError, TrainingError,
                     UnsupportedScoreError)
from .fft import MAX_DEPTH, FFTree, grow, predict_dataset, rank_for_popt
from .metrics import (Confusion, ScoreFunction, dis2heaven,
                      effort_order_from_scores, mann_whitney, popt,
                      score_function)


class _Learner(NamedTuple):
    """train(data, score function, depth) gives a model, predict(model,
    data) a class per row and rank(model, data) the most-suspicious-first
    row order for Popt.  ``reads_score`` is False when train ignores the
    score function; ``run`` then fits the learner once per cell and
    evaluates that model under every score."""
    train: Callable
    predict: Callable
    rank: Callable
    reads_score: bool


# The lambdas look each function up when called, so rebinding a module
# name (as a tracer does) reaches the rig too.
_LEARNERS = {
    "fft": _Learner(lambda data, fn, depth: grow(data, depth=depth, fn=fn)[0],
                    lambda tree, data: predict_dataset(tree, data),
                    lambda tree, data: rank_for_popt(tree, data),
                    reads_score=True),
    "nb": _Learner(lambda data, fn, depth: nb_train(data),
                   lambda model, data: nb_predict_dataset(model, data),
                   lambda model, data: effort_order_from_scores(
                       nb_score_dataset(model, data), data.effort),
                   reads_score=False),
    "sl": _Learner(lambda data, fn, depth: lr_train(data),
                   lambda model, data: lr_predict_dataset(model, data),
                   lambda model, data: effort_order_from_scores(
                       lr_score_dataset(model, data), data.effort),
                   reads_score=False),
}
LEARNERS = tuple(_LEARNERS)
ATTRIBUTE_SETS = ("full", "top25")


@dataclass(frozen=True)
class RigConfig:
    learners: tuple[str, ...] = LEARNERS
    scores: tuple[str, ...] = ("d2h", "popt")
    attribute_sets: tuple[str, ...] = ("full",)
    depth: int = 4
    mode: str = "version"          # "version" or "cv"
    bins: int = 10
    repeats: int = 5
    seed: int = 1
    top_fraction: float = 0.25

    def __post_init__(self):
        for name in self.learners:
            if name not in LEARNERS:
                raise ConfigError(
                    f"unknown learner {name!r} (expected one of {LEARNERS})")
        for name in self.attribute_sets:
            if name not in ATTRIBUTE_SETS:
                raise ConfigError(f"unknown attribute set {name!r} "
                                  f"(expected one of {ATTRIBUTE_SETS})")
        for kind in self.scores:
            score_function(kind)   # raises UnsupportedScoreError
        if self.mode not in ("version", "cv"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "cv" and "top25" in self.attribute_sets:
            raise ConfigError("top25 attribute filtering needs version "
                              "history; it cannot run under cross-validation")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ConfigError(f"depth must be between 1 and {MAX_DEPTH}")
        if self.bins < 2 or self.repeats < 1:
            raise ConfigError("cross-validation needs bins >= 2, repeats >= 1")
        if not 0.0 < self.top_fraction <= 1.0:
            raise ConfigError("top_fraction must be in (0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass
class Split:
    """One materialized train/test pair."""
    label: str
    train: Dataset
    test: Dataset
    train_versions: tuple[Dataset, ...] | None = None
    test_indices: tuple[int, ...] | None = None


@dataclass(frozen=True)
class EvalResult:
    project: str
    learner: str
    score: str
    attribute_set: str
    split: str
    n_train: int
    n_test: int
    value: float
    degenerate: bool = False
    policy: str = ""
    n_nodes: int = 0
    # Never serialized.  A fit reused across scores is timed with the
    # first score's result; the later scores time evaluation alone.
    wall_time: float = 0.0


@dataclass
class RigResult:
    config: RigConfig
    results: list[EvalResult]
    fingerprints: dict[str, str]


@dataclass(frozen=True)
class FittedLearner:
    name: str
    model: object
    policy: str = ""
    n_nodes: int = 0


def version_split(versions: list[Dataset]) -> Split:
    """Train on all versions but the newest, test on the newest."""
    if len(versions) < 2:
        raise ConfigError("a version-ordered split needs at least two versions")
    test = versions[-1]
    return Split(label=f"version:{test.version or test.name}",
                 train=merge(versions[:-1]), test=test,
                 train_versions=tuple(versions[:-1]))


def top_changed_split(split: Split, fraction: float) -> Split:
    """The split restricted to the ``fraction`` of attributes whose
    distributions moved most between its two newest training versions."""
    if split.train_versions is None or len(split.train_versions) < 2:
        raise ConfigError(f"{split.train.name}: top-changed attribute "
                          "filtering needs at least two training versions")
    old, new = split.train_versions[-2], split.train_versions[-1]
    attrs = operational.top_changed(old, new, fraction=fraction)
    return replace(split, train=operational.project(split.train, attrs),
                   test=operational.project(split.test, attrs))


def cross_val_plans(n: int, bins: int = 10, repeats: int = 5,
                    seed: int = 1) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """(repeat, bin, train_idx, test_idx) tuples; each repeat reshuffles and
    the bins partition the row indices.  Deterministic for a given seed."""
    if n < bins:
        raise ConfigError(f"{n} rows cannot fill {bins} cross-validation bins")
    rng = np.random.default_rng(seed)
    plans = []
    for r in range(repeats):
        order = rng.permutation(n)
        for b, chunk in enumerate(np.array_split(order, bins)):
            test_idx = np.sort(chunk)
            mask = np.ones(n, dtype=bool)
            mask[test_idx] = False
            plans.append((r, b, np.flatnonzero(mask), test_idx))
    return plans


def cross_val_splits(data: Dataset, bins: int = 10, repeats: int = 5,
                     seed: int = 1) -> list[Split]:
    splits = []
    for r, b, train_idx, test_idx in cross_val_plans(len(data), bins,
                                                     repeats, seed):
        splits.append(Split(label=f"cv:r{r}:b{b}",
                            train=data.subset(train_idx),
                            test=data.subset(test_idx),
                            test_indices=tuple(int(i) for i in test_idx)))
    return splits


def plan_fingerprint(splits: list[Split]) -> str:
    """Digest of the split layout, for checking seed reproducibility."""
    h = hashlib.sha256()
    for s in splits:
        h.update(s.label.encode())
        h.update(b"|")
        if s.test_indices is not None:
            h.update(",".join(map(str, s.test_indices)).encode())
        else:
            h.update(s.test.name.encode())
        h.update(b"\n")
    return h.hexdigest()


def fit_learner(name: str, train: Dataset, fn: ScoreFunction,
                depth: int = 4) -> FittedLearner:
    if name not in _LEARNERS:
        raise ConfigError(
            f"unknown learner {name!r} (expected one of {LEARNERS})")
    model = _LEARNERS[name].train(train, fn, depth)
    if isinstance(model, FFTree):
        return FittedLearner(name, model, model.policy_string,
                             len(model.nodes))
    return FittedLearner(name, model)


def evaluate(fitted: FittedLearner, test: Dataset,
             fn: ScoreFunction) -> tuple[float, bool]:
    """Score a fitted learner on held-out rows; returns (value, degenerate)."""
    learner = _LEARNERS[fitted.name]
    if fn.kind == "popt":
        if test.effort is None:
            raise UnsupportedScoreError(
                f"{test.name}: popt scoring needs an effort column")
        order = learner.rank(fitted.model, test)
        res = popt(test.labels[order].astype(float), test.effort[order])
        return res.value, res.degenerate
    predicted = learner.predict(fitted.model, test)
    return dis2heaven(Confusion.from_predictions(predicted, test.labels)), False


def _splits_for(versions: list[Dataset], config: RigConfig) -> list[Split]:
    if config.mode == "version":
        return [version_split(versions)]
    return cross_val_splits(merge(versions), config.bins, config.repeats,
                            config.seed)


def run(projects: dict[str, list[Dataset]],
        config: RigConfig = RigConfig()) -> RigResult:
    """Evaluate every learner x score x attribute set on every project.

    ``projects`` maps a project name to its version-ordered datasets;
    labels must already be binary.
    """
    results: list[EvalResult] = []
    fingerprints: dict[str, str] = {}
    for pname in sorted(projects):
        versions = list(projects[pname])
        if not versions:
            raise ConfigError(f"{pname}: no datasets given")
        for v in versions:
            if not v.binary:
                raise TrainingError(
                    f"{pname}: labels must be binarized before the rig runs")
        splits = _splits_for(versions, config)
        fingerprints[pname] = plan_fingerprint(splits)
        for split in splits:
            for attr_set in config.attribute_sets:
                cell = (split if attr_set == "full"
                        else top_changed_split(split, config.top_fraction))
                train, test = cell.train, cell.test
                shared: dict[str, FittedLearner] = {}
                for kind in config.scores:
                    fn = score_function(kind)
                    for learner in config.learners:
                        t0 = time.perf_counter()
                        try:
                            fitted = shared.get(learner)
                            if fitted is None:
                                fitted = fit_learner(learner, train, fn,
                                                     config.depth)
                                if not _LEARNERS[learner].reads_score:
                                    shared[learner] = fitted
                            value, degenerate = evaluate(fitted, test, fn)
                        except FrugalError as exc:
                            raise type(exc)(
                                f"[{pname}/{learner}/{fn.kind}/{attr_set}/"
                                f"{split.label}] {exc}") from exc
                        elapsed = time.perf_counter() - t0
                        results.append(EvalResult(
                            project=pname, learner=learner, score=fn.kind,
                            attribute_set=attr_set, split=split.label,
                            n_train=len(train), n_test=len(test),
                            value=value, degenerate=degenerate,
                            policy=fitted.policy, n_nodes=fitted.n_nodes,
                            wall_time=elapsed))
    return RigResult(config=config, results=results, fingerprints=fingerprints)


def policy_histogram(
        results: list[EvalResult]) -> list[tuple[str, str, str, int]]:
    """Chosen-exit-policy counts per (score, attribute set) column.

    Rows are (score, attribute_set, policy, count); within a column the
    most common policy comes first and counts sum to the number of tree
    results in that column.
    """
    counts = Counter((r.score, r.attribute_set, r.policy)
                     for r in results if r.policy)
    return sorted(((score, attr_set, policy, n)
                   for (score, attr_set, policy), n in counts.items()),
                  key=lambda row: (row[0], row[1], -row[3], row[2]))


@dataclass(frozen=True)
class ComparisonRow:
    project: str
    score: str
    attribute_set: str
    learner: str
    n: int
    wins: int
    losses: int
    verdict: str    # better / worse / mixed / tied / inconclusive


def _beats(xs: list[float], ys: list[float], fn: ScoreFunction) -> bool:
    if not mann_whitney(xs, ys).different:
        return False
    return fn.better(float(np.median(xs)), float(np.median(ys)))


def compare(results: list[EvalResult]) -> list[ComparisonRow]:
    """Rank learners within each (project, score, attribute set) group.

    A learner is *better* only when it significantly beats every other
    learner in the group, *worse* as soon as any learner beats it.  Groups
    with fewer than three observations per learner are inconclusive.
    """
    values: dict[tuple, list[float]] = {}
    for r in results:
        values.setdefault((r.project, r.score, r.attribute_set, r.learner),
                          []).append(r.value)
    groups: dict[tuple, list[str]] = {}
    for (project, score, attr_set, learner) in values:
        groups.setdefault((project, score, attr_set), []).append(learner)

    rows = []
    for (project, score, attr_set) in sorted(groups):
        learners = sorted(groups[(project, score, attr_set)])
        fn = score_function(score)
        samples = {name: values[(project, score, attr_set, name)]
                   for name in learners}
        too_small = min(len(s) for s in samples.values()) < 3
        for learner in learners:
            opponents = [l for l in learners if l != learner]
            if too_small or not opponents:
                rows.append(ComparisonRow(project, score, attr_set, learner,
                                          len(samples[learner]), 0, 0,
                                          "inconclusive"))
                continue
            wins = sum(_beats(samples[learner], samples[o], fn)
                       for o in opponents)
            losses = sum(_beats(samples[o], samples[learner], fn)
                         for o in opponents)
            if wins == len(opponents):
                verdict = "better"
            elif losses > 0:
                verdict = "worse"
            elif wins > 0:
                verdict = "mixed"
            else:
                verdict = "tied"
            rows.append(ComparisonRow(project, score, attr_set, learner,
                                      len(samples[learner]), wins, losses,
                                      verdict))
    return rows


@dataclass(frozen=True)
class DeltaRow:
    """Median per-split gap between the full and restricted attribute runs.

    Positive means the restricted (top25) run scored worse: for d2h the
    delta is restricted minus full, for popt it is full minus restricted.
    """
    project: str
    learner: str
    score: str
    delta: float
    n: int


def attribute_set_deltas(results: list[EvalResult]) -> list[DeltaRow]:
    full = {(r.project, r.learner, r.score, r.split): r.value
            for r in results if r.attribute_set == "full"}
    paired: dict[tuple, list[float]] = {}
    for r in results:
        if r.attribute_set != "top25":
            continue
        key = (r.project, r.learner, r.score, r.split)
        if key not in full:
            continue
        if r.score == "popt":
            delta = full[key] - r.value
        else:
            delta = r.value - full[key]
        paired.setdefault(key[:3], []).append(delta)
    return [DeltaRow(project, learner, score,
                     float(np.median(deltas)), len(deltas))
            for (project, learner, score), deltas in sorted(paired.items())]


# --- report files -----------------------------------------------------------

_RESULT_FIELDS = ("project", "learner", "score", "attribute_set", "split",
                  "n_train", "n_test", "value", "degenerate", "policy",
                  "n_nodes")


def _result_key(r: EvalResult):
    return (r.project, r.learner, r.score, r.attribute_set, r.split)


def _result_row(r: EvalResult) -> dict:
    return {f: getattr(r, f) for f in _RESULT_FIELDS}


def _atomic_write(path, text: str):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results_csv(results: list[EvalResult], path):
    rows = []
    for r in sorted(results, key=_result_key):
        row = _result_row(r)
        rows.append([_cell(row[f]) for f in _RESULT_FIELDS])
    _atomic_write(path, _csv_text(_RESULT_FIELDS, rows))


def write_results_json(rig_result: RigResult, path):
    by_project: dict[str, list[dict]] = {}
    for r in sorted(rig_result.results, key=_result_key):
        by_project.setdefault(r.project, []).append(_result_row(r))
    payload = {
        "config": asdict(rig_result.config),
        "fingerprints": rig_result.fingerprints,
        "projects": by_project,
    }
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_policy_histogram_csv(results: list[EvalResult], path):
    rows = [[score, attr_set, policy, str(count)]
            for score, attr_set, policy, count in policy_histogram(results)]
    _atomic_write(path, _csv_text(("score", "attribute_set", "policy",
                                   "count"), rows))


def write_comparison_csv(results: list[EvalResult], path):
    header = ("project", "score", "attribute_set", "learner", "n", "wins",
              "losses", "verdict")
    rows = [[r.project, r.score, r.attribute_set, r.learner, str(r.n),
             str(r.wins), str(r.losses), r.verdict]
            for r in compare(results)]
    _atomic_write(path, _csv_text(header, rows))


def write_deltas_csv(results: list[EvalResult], path):
    header = ("project", "learner", "score", "delta", "n")
    rows = [[r.project, r.learner, r.score, repr(r.delta), str(r.n)]
            for r in attribute_set_deltas(results)]
    _atomic_write(path, _csv_text(header, rows))


def write_reports(rig_result: RigResult, out_dir) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "results_csv": out_dir / "results.csv",
        "results_json": out_dir / "results.json",
        "policy_histogram": out_dir / "policy_histogram.csv",
        "comparison": out_dir / "comparison.csv",
        "deltas": out_dir / "deltas.csv",
    }
    write_results_csv(rig_result.results, paths["results_csv"])
    write_results_json(rig_result, paths["results_json"])
    write_policy_histogram_csv(rig_result.results, paths["policy_histogram"])
    write_comparison_csv(rig_result.results, paths["comparison"])
    write_deltas_csv(rig_result.results, paths["deltas"])
    return paths
