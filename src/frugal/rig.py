"""Experiment rig: version-ordered and repeated cross-validation runs over
the tree, naive-bayes, and logistic learners.

A learner is a row of ``LEARNER_TABLE``; only ``fft`` reads the score.  A
run has three phases over all its projects: plan every cell, fit every
model (each set checked under its cell's prefix, then one ``fit_many``
call per learner and read score), then evaluate in plan order, scoring
each model's test rows once.  The fit phase runs its groups (one per
``fit_many`` call) across the CPUs the process may use, in forked workers,
and a fit error is still the first failing group's, in group order.  The
rows call model functions through their module-level names, so rebinding
one (as a tracer does) reaches the rig, workers included, since they fork
after it; but what a rebound fit records in a worker stays there.

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
import pickle
import signal
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import operational
from .baselines import (check_trainable, lr_score_dataset, lr_targets,
                        lr_train_many, nb_score_dataset, nb_train)
from .dataset import Dataset, merge
from .errors import (ConfigError, FrugalError, TrainingError,
                     UnsupportedScoreError)
from .fft import check_depth, check_train, grow_many, score_dataset
from .metrics import (Confusion, ScoreFunction, dis2heaven,
                      effort_order_from_scores, mann_whitney, one_class, popt,
                      score_function)


@dataclass(frozen=True)
class Learner:
    """``check(train, fn)`` raises unless the learner can train on a set;
    ``fit_many(trains, fn, depth)`` fits each; ``score(model, rows)`` is 0.5
    or more where a row predicts true; ``describe(model)`` gives the model's
    own ``EvalResult`` fields."""
    check: Callable
    fit_many: Callable
    score: Callable
    describe: Callable = lambda model: {}
    reads_score: bool = False


LEARNER_TABLE = {
    "fft": Learner(
        check=lambda train, fn: check_train(train, fn),
        fit_many=lambda trains, fn, depth: [
            best for best, _ in grow_many(trains, depth, fn)],
        score=lambda tree, rows: score_dataset(tree, rows),
        describe=lambda tree: {"policy": tree.policy_string,
                               "n_nodes": len(tree.nodes)},
        reads_score=True),
    "nb": Learner(
        check=lambda train, fn: check_trainable(train),
        fit_many=lambda trains, fn, depth: [nb_train(t) for t in trains],
        score=lambda model, rows: nb_score_dataset(model, rows)),
    "sl": Learner(
        check=lambda train, fn: lr_targets(train),
        fit_many=lambda trains, fn, depth: lr_train_many(trains),
        score=lambda model, rows: lr_score_dataset(model, rows)),
}
LEARNERS = tuple(LEARNER_TABLE)
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
        for what, names, known in (
                ("learner", self.learners, LEARNERS),
                ("attribute set", self.attribute_sets, ATTRIBUTE_SETS)):
            for name in names:
                if name not in known:
                    raise ConfigError(f"unknown {what} {name!r} "
                                      f"(expected one of {known})")
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
            plans.append((r, b, np.delete(np.arange(n), test_idx), test_idx))
    return plans


def cross_val_splits(data: Dataset, bins: int = 10, repeats: int = 5,
                     seed: int = 1) -> list[Split]:
    return [Split(label=f"cv:r{r}:b{b}", train=data.subset(train_idx),
                  test=data.subset(test_idx),
                  test_indices=tuple(int(i) for i in test_idx))
            for r, b, train_idx, test_idx in cross_val_plans(
                len(data), bins, repeats, seed)]


def plan_fingerprint(splits: list[Split]) -> str:
    """Digest of the split layout, for checking seed reproducibility."""
    h = hashlib.sha256()
    for s in splits:
        test = (s.test.name if s.test_indices is None
                else ",".join(map(str, s.test_indices)))
        h.update(f"{s.label}|{test}\n".encode())
    return h.hexdigest()


def fit_learner(name: str, train: Dataset, fn: ScoreFunction,
                depth: int = 4):
    """A learner's fitted model on one training set."""
    return LEARNER_TABLE[name].fit_many([train], fn, depth)[0]


def evaluate(scores: np.ndarray, test: Dataset,
             fn: ScoreFunction) -> tuple[float, bool]:
    """(value, degenerate) of a model's per-row scores on held-out rows.
    d2h thresholds the scores at 0.5, and Popt ranks by them; a d2h cell
    is degenerate when its test rows hold one class only."""
    if fn.kind == "popt" and test.effort is None:
        raise UnsupportedScoreError(
            f"{test.name}: popt scoring needs an effort column")
    if fn.kind == "popt":
        order = effort_order_from_scores(scores, test.effort)
        res = popt(test.labels[order].astype(float), test.effort[order])
        return res.value, res.degenerate
    c = Confusion.from_predictions(scores >= 0.5, test.labels)
    return dis2heaven(c), one_class(c)


def _fit_groups(fits: list[Callable[[], list]]) -> list[list]:
    """Each ``fits[i]()``'s models, in group order.

    The process forks one worker per further CPU it may use, up to one per
    group (none where ``os.fork`` or ``os.sched_getaffinity`` is missing).
    Every process, this one included, reads group indices off one shared
    pipe, one byte each, until it is empty, and keeps each group's models
    or error; a worker pickles its share back through a pipe of its own.
    The first group that failed, in group order, raises its error here.  A
    worker that ends without sending its share raises ChildProcessError.
    """
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1)
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(fits))))    # a run has at most 4 groups
    os.close(feed)
    workers: dict[int, int] = {}    # pid -> read end of its result pipe
    shares, statuses = {}, {}       # pid -> pickled share, wait status
    try:
        for _ in range(min(cpus, len(fits)) - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _fit_worker(fits, queue, w, [r, *workers.values()])
            os.close(w)
            workers[pid] = r
        outcomes = _take_fits(fits, queue)
        for pid, r in workers.items():
            with open(r, "rb", closefd=False) as fh:
                shares[pid] = fh.read()
    finally:
        os.close(queue)
        for pid, r in workers.items():
            os.close(r)
            if len(shares) < len(workers):      # this process raised
                os.kill(pid, signal.SIGKILL)
            statuses[pid] = os.waitpid(pid, 0)[1]
    for pid, status in statuses.items():
        if status or not shares[pid]:
            code = os.waitstatus_to_exitcode(status)
            how = (f"killed by signal {-code}" if code < 0
                   else f"exit code {code}")
            raise ChildProcessError("a fit worker ended without sending its "
                                    f"models (wait status {status}: {how})")
        outcomes.update(pickle.loads(shares[pid]))
    for i in range(len(fits)):
        if isinstance(outcomes[i], Exception):
            raise outcomes[i]
    return [outcomes[i] for i in range(len(fits))]


def _take_fits(fits: list[Callable[[], list]], queue: int) -> dict:
    """{group: models or the error its fit raised} for each group index
    this process reads off ``queue``."""
    outcomes = {}
    while (job := os.read(queue, 1)):
        try:
            outcomes[job[0]] = fits[job[0]]()
        except Exception as exc:    # raised in group order by _fit_groups
            outcomes[job[0]] = exc
    return outcomes


def _fit_worker(fits: list[Callable[[], list]], queue: int, out: int,
                others: list[int]):
    """A forked worker's whole life: it closes the result pipes' read ends
    it inherited, so it cannot block on a full pipe of its own that nobody
    reads, sends its share through ``out`` and exits without unwinding into
    the caller's stack; an error before the share is sent exits with 1."""
    code = 1
    try:
        for fd in others:
            os.close(fd)
        share = pickle.dumps(_take_fits(fits, queue))
        with open(out, "wb") as fh:
            fh.write(share)
        code = 0
    finally:
        os._exit(code)


@contextmanager
def _cell_errors(cell: tuple, learner: str, fn: ScoreFunction):
    """Re-raise a FrugalError with the cell's ``[project/learner/score/
    attribute set/split]`` prefix."""
    pname, attr_set, split = cell
    try:
        yield
    except FrugalError as exc:
        raise type(exc)(f"[{pname}/{learner}/{fn.kind}/{attr_set}/"
                        f"{split.label}] {exc}") from exc


def run(projects: dict[str, list[Dataset]],
        config: RigConfig = RigConfig()) -> RigResult:
    """Evaluate every learner x score x attribute set on every project.

    ``projects`` maps a project name to its version-ordered datasets;
    labels must already be binary.  The run plans every project's cells,
    checks every model's training set under its cell's prefix, fits each
    learner's sets (for ``fft``, each score's) in one ``fit_many`` call
    (see ``_fit_groups``), and evaluates the models in plan order, scoring
    each model's test rows on first use.  So a plan error in any project is
    raised before a fit error, and a fit error before an evaluation error.
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
    # (cell, learner, score, model key); a key holds a score that is read
    plan = [(c, learner, fn, (c, learner, fn.kind
                              if LEARNER_TABLE[learner].reads_score else ""))
            for c in range(len(cells)) for fn in fns
            for learner in config.learners]

    # (learner, read score) -> (score, {model key: training set})
    groups: dict[tuple, tuple] = {}
    for c, learner, fn, k in plan:
        trains = groups.setdefault(k[1:], (fn, {}))[1]
        if k not in trains:
            with _cell_errors(cells[c], learner, fn):
                LEARNER_TABLE[learner].check(cells[c][2].train, fn)
            trains[k] = cells[c][2].train
    fitted = _fit_groups([partial(LEARNER_TABLE[learner].fit_many,
                                  list(trains.values()), fn, config.depth)
                          for (learner, _), (fn, trains) in groups.items()])
    models = {k: model for (_, trains), group in zip(groups.values(), fitted)
              for k, model in zip(trains, group)}

    results, scores = [], {}
    for c, learner, fn, k in plan:
        pname, attr_set, cell = cells[c]
        row = LEARNER_TABLE[learner]
        with _cell_errors(cells[c], learner, fn):
            if k not in scores:
                scores[k] = row.score(models[k], cell.test)
            value, degenerate = evaluate(scores[k], cell.test, fn)
        results.append(EvalResult(
            project=pname, learner=learner, score=fn.kind,
            attribute_set=attr_set, split=cell.label,
            n_train=len(cell.train), n_test=len(cell.test),
            value=value, degenerate=degenerate, **row.describe(models[k])))
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
