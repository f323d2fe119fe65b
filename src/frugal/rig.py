"""Experiment rig: version-ordered and repeated cross-validation runs over
the tree, naive-bayes, and logistic learners.

A learner is its fitted model.  Only ``fft`` reads the score, so a cell
fits ``nb`` and ``sl`` once and grows ``fft`` once per score.  A run
has three phases over all its projects: plan every cell, fit every model
(all the run's ``sl`` fits in one batched call, and its trees in one
``grow_many`` call per score), then evaluate them in plan order.  Model
functions are called through their module-level names, so rebinding one
(as a tracer does) reaches the rig too.

Results are plain dataclasses; every ``EvalResult`` field is a report
column, and the report writers emit byte-identical files for identical
inputs and seeds.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import operational
from .baselines import (LogisticModel, NBModel, lr_score_dataset, lr_targets,
                        lr_train, lr_train_many, nb_score_dataset, nb_train)
from .dataset import Dataset, merge
from .errors import (ConfigError, FrugalError, TrainingError,
                     UnsupportedScoreError)
from .fft import (FFTree, check_depth, check_train, grow, grow_many,
                  score_dataset)
from .metrics import (Confusion, ScoreFunction, dis2heaven,
                      effort_order_from_scores, mann_whitney, popt,
                      score_function)


LEARNERS = ("fft", "nb", "sl")
ATTRIBUTE_SETS = ("full", "top25")
# A cv plan builds repeats x bins index arrays per project, and the run's
# sl fits stack that many designs per project.
MAX_REPEATS = 100


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
        # An empty list would run nothing and write empty reports.
        # compare() would pool a repeated name's results as one sample; two
        # aliases of one score ("d2h", "dis2heaven") count as a repeat.
        for key in ("learners", "scores", "attribute_sets"):
            names = getattr(self, key)
            if not names:
                raise ConfigError(f"{key} lists no names")
            ids = ([score_function(n).kind for n in names] if key == "scores"
                   else names)
            repeated = sorted({n for n, i in zip(names, ids)
                               if ids.count(i) > 1})
            if repeated:
                raise ConfigError(f"{key} lists {repeated} more than once")
        if self.mode not in ("version", "cv"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "cv" and "top25" in self.attribute_sets:
            raise ConfigError("top25 attribute filtering needs version "
                              "history; it cannot run under cross-validation")
        for key, check in (("depth", check_depth),
                           ("top_fraction", operational.check_fraction)):
            try:
                check(getattr(self, key))
            except FrugalError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        if self.bins < 2 or not 1 <= self.repeats <= MAX_REPEATS:
            raise ConfigError("cross-validation needs bins >= 2 and repeats "
                              f"between 1 and {MAX_REPEATS}")
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


@dataclass
class RigResult:
    config: RigConfig
    results: list[EvalResult]
    fingerprints: dict[str, str]


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
                depth: int = 4) -> FFTree | NBModel | LogisticModel:
    """A learner's fitted model; only ``fft`` reads the score function."""
    if name == "fft":
        return grow(train, depth=depth, fn=fn)[0]
    if name == "nb":
        return nb_train(train)
    if name == "sl":
        return lr_train(train)
    raise ConfigError(f"unknown learner {name!r} (expected one of {LEARNERS})")


def evaluate(model: FFTree | NBModel | LogisticModel, test: Dataset,
             fn: ScoreFunction) -> tuple[float, bool]:
    """Score a fitted model on held-out rows; returns (value, degenerate).
    d2h thresholds its per-row scores at 0.5, and Popt ranks by them; a
    d2h cell is degenerate when its test rows hold one class only."""
    if fn.kind == "popt" and test.effort is None:
        raise UnsupportedScoreError(
            f"{test.name}: popt scoring needs an effort column")
    scores = (score_dataset(model, test) if isinstance(model, FFTree)
              else nb_score_dataset(model, test) if isinstance(model, NBModel)
              else lr_score_dataset(model, test))
    if fn.kind == "popt":
        order = effort_order_from_scores(scores, test.effort)
        res = popt(test.labels[order].astype(float), test.effort[order])
        return res.value, res.degenerate
    c = Confusion.from_predictions(scores >= 0.5, test.labels)
    return dis2heaven(c), bool(test.labels.all() or not test.labels.any())


@contextmanager
def _cell_errors(prefix: str):
    """Re-raise a FrugalError with the cell's ``[project/learner/score/
    attribute set/split]`` prefix."""
    try:
        yield
    except FrugalError as exc:
        raise type(exc)(f"[{prefix}] {exc}") from exc


def run(projects: dict[str, list[Dataset]],
        config: RigConfig = RigConfig()) -> RigResult:
    """Evaluate every learner x score x attribute set on every project.

    ``projects`` maps a project name to its version-ordered datasets;
    labels must already be binary.  The run plans every project's cells,
    fits every model they need (each ``sl`` and ``fft`` set checked under
    its cell's prefix, then the ``sl`` sets in one batched call and the
    ``fft`` sets in one per score), and evaluates the models in plan
    order.  So a plan error in any project is raised before a fit error,
    and a fit error before an evaluation error.
    """
    cells = []
    fingerprints: dict[str, str] = {}
    for pname in sorted(projects):
        versions = list(projects[pname])
        if not versions:
            raise ConfigError(f"{pname}: no datasets given")
        if not all(v.binary for v in versions):
            raise TrainingError(
                f"{pname}: labels must be binarized before the rig runs")
        splits = ([version_split(versions)] if config.mode == "version"
                  else cross_val_splits(merge(versions), config.bins,
                                        config.repeats, config.seed))
        fingerprints[pname] = plan_fingerprint(splits)
        cells += [(pname, attr_set,
                   split if attr_set == "full"
                   else top_changed_split(split, config.top_fraction))
                  for split in splits for attr_set in config.attribute_sets]
    fns = [score_function(kind) for kind in config.scores]
    # (cell, learner, score, model key); only fft's key holds the score
    plan = [(c, learner, fn, (c, learner, fn.kind if learner == "fft" else ""))
            for c in range(len(cells)) for fn in fns
            for learner in config.learners]

    def prefix(c, learner, fn):
        pname, attr_set, split = cells[c]
        return f"{pname}/{learner}/{fn.kind}/{attr_set}/{split.label}"

    models = {}
    for c, learner, fn, k in plan:
        if k in models:
            continue
        train = cells[c][2].train
        with _cell_errors(prefix(c, learner, fn)):
            if learner == "nb":
                models[k] = fit_learner(learner, train, fn, config.depth)
                continue
            # checked here, fitted below with the run's other sets of the
            # learner (and for fft, of the score)
            if learner == "fft":
                check_train(train, fn)
            else:
                lr_targets(train)
            models[k] = train
    sl_keys = [k for k in models if k[1] == "sl"]
    models.update(zip(sl_keys, lr_train_many([models[k] for k in sl_keys])))
    for fn in fns:
        keys = [k for k in models if k[1] == "fft" and k[2] == fn.kind]
        if keys:
            models.update(zip(keys, (best for best, _ in grow_many(
                [models[k] for k in keys], config.depth, fn))))

    results = []
    for c, learner, fn, k in plan:
        pname, attr_set, cell = cells[c]
        model = models[k]
        with _cell_errors(prefix(c, learner, fn)):
            value, degenerate = evaluate(model, cell.test, fn)
        tree = isinstance(model, FFTree)
        results.append(EvalResult(
            project=pname, learner=learner, score=fn.kind,
            attribute_set=attr_set, split=cell.label,
            n_train=len(cell.train), n_test=len(cell.test),
            value=value, degenerate=degenerate,
            policy=model.policy_string if tree else "",
            n_nodes=len(model.nodes) if tree else 0))
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
    learner in the group, *worse* as soon as any learner beats it.
    Degenerate results are left out, and ``n`` counts the values kept; a
    group with one learner, or fewer than three values for any learner, is
    inconclusive.
    """
    groups: dict[tuple, dict[str, list[float]]] = {}
    for r in results:
        kept = groups.setdefault((r.project, r.score, r.attribute_set),
                                 {}).setdefault(r.learner, [])
        if not r.degenerate:
            kept.append(r.value)

    rows = []
    for (project, score, attr_set), samples in sorted(groups.items()):
        fn = score_function(score)
        small = len(samples) < 2 or min(map(len, samples.values())) < 3
        for learner, mine in sorted(samples.items()):
            others = [] if small else [s for name, s in samples.items()
                                       if name != learner]
            wins = sum(_beats(mine, other, fn) for other in others)
            losses = sum(_beats(other, mine, fn) for other in others)
            verdict = ("inconclusive" if small
                       else "better" if wins == len(others)
                       else "worse" if losses else "mixed" if wins
                       else "tied")
            rows.append(ComparisonRow(project, score, attr_set, learner,
                                      len(mine), wins, losses, verdict))
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
    """A split's pair is dropped when either side is degenerate."""
    full = {(r.project, r.learner, r.score, r.split): r.value
            for r in results if r.attribute_set == "full" and not r.degenerate}
    paired: dict[tuple, list[float]] = {}
    for r in results:
        key = (r.project, r.learner, r.score, r.split)
        if r.attribute_set != "top25" or r.degenerate or key not in full:
            continue
        sort_key = score_function(r.score).sort_key
        paired.setdefault(key[:3], []).append(
            sort_key(r.value) - sort_key(full[key]))
    return [DeltaRow(project, learner, score,
                     float(np.median(deltas)), len(deltas))
            for (project, learner, score), deltas in sorted(paired.items())]


# --- report files -----------------------------------------------------------

def _result_key(r: EvalResult):
    return (r.project, r.learner, r.score, r.attribute_set, r.split)


def _atomic_write(path, text: str):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    _atomic_write(path, buf.getvalue())


def write_results_json(rig_result: RigResult, path):
    by_project: dict[str, list[dict]] = {}
    for r in sorted(rig_result.results, key=_result_key):
        by_project.setdefault(r.project, []).append(asdict(r))
    payload = {
        "config": asdict(rig_result.config),
        "fingerprints": rig_result.fingerprints,
        "projects": by_project,
    }
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
    results = rig_result.results
    _write_csv(paths["results_csv"], [f.name for f in fields(EvalResult)],
               map(astuple, sorted(results, key=_result_key)))
    write_results_json(rig_result, paths["results_json"])
    _write_csv(paths["policy_histogram"],
               ("score", "attribute_set", "policy", "count"),
               policy_histogram(results))
    _write_csv(paths["comparison"], [f.name for f in fields(ComparisonRow)],
               map(astuple, compare(results)))
    _write_csv(paths["deltas"], [f.name for f in fields(DeltaRow)],
               map(astuple, attribute_set_deltas(results)))
    return paths
