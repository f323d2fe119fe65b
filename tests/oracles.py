"""Slow, independent reference implementations used only by the tests.

Everything here is plain Python (lists, dicts, Fraction-free float math) so
that agreement with the numpy-based package code is meaningful.  The tree
oracle enumerates every (attribute, cut, polarity) candidate at every level
and every exit policy outright; ``split_oracle`` is one level of it, the
exact all-candidates search that Popt's prefilter must agree with.  The
one numpy function, ``masked_sigmoid``, is a bit-level reference: it is
the formula ``baselines._sigmoid`` must reproduce exactly, and Python's
``math.exp`` may round differently from numpy's.

``lr_train_oracle`` is the per-fit gradient descent that
``baselines.lr_train_many`` replaced, also numpy and also a bit-level
reference: the batched fits must equal it with ``==``.

``load_csv_oracle`` is the cell-by-cell CSV loader that
``dataset.load_csv`` replaced: one ``float()`` call per cell, rows checked
in file order.

``save_csv_oracle`` is the cell-by-cell CSV writer that
``dataset.save_csv`` replaced: one ``writerow`` per row, one formatted
string per cell.  ``save_csv`` must write the same bytes on every finite
table.

``compare_oracle`` is the two-pass grouping that ``rig.compare`` replaced;
it calls the package's ``mann_whitney``, so it checks the grouping and the
verdicts, not the test statistic.

``evaluate_oracle`` is the per-learner dispatch that the rig's learner
table replaced: a tree predicts by routing and ranks by its integer exit
order, and only the baselines rank and threshold their scores.  It calls
the package's scorers and metrics, so it checks each row's scorer and
``rig.evaluate``.
"""

import csv
import math

import numpy as np

from frugal.baselines import NBModel, lr_score_dataset, nb_score_dataset
from frugal.dataset import DEFAULT_EXCLUDE, MISSING_MARKERS, Dataset
from frugal.errors import DatasetError
from frugal.fft import FFTree, route_dataset
from frugal.metrics import (Confusion, dis2heaven, effort_order_from_scores,
                            mann_whitney, popt)


# --- confusion-matrix metrics ----------------------------------------------

def confusion_counts(predicted, actual):
    counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for p, a in zip(predicted, actual):
        if p and a:
            counts["tp"] += 1
        elif p and not a:
            counts["fp"] += 1
        elif not p and not a:
            counts["tn"] += 1
        else:
            counts["fn"] += 1
    return counts


def recall_of(counts, undefined=1.0):
    pos = counts["tp"] + counts["fn"]
    return counts["tp"] / pos if pos else undefined


def far_of(counts, undefined=0.0):
    neg = counts["fp"] + counts["tn"]
    return counts["fp"] / neg if neg else undefined


def d2h_of(counts):
    r = recall_of(counts)
    f = far_of(counts)
    return math.sqrt(((1.0 - r) ** 2 + f ** 2) / 2.0)


def d2h_from_predictions(predicted, actual):
    return d2h_of(confusion_counts(predicted, actual))


# --- medians ----------------------------------------------------------------

def median_of(values):
    """A finite middle pair whose sum overflows takes the sum of its
    halves, as ``fft._medians`` does."""
    ordered = sorted(map(float, values))
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    low, high = ordered[mid - 1], ordered[mid]
    if math.isinf(low + high) and math.isfinite(low) and math.isfinite(high):
        return low / 2.0 + high / 2.0
    return (low + high) / 2.0


# --- rank statistics ---------------------------------------------------------

def a12_pairwise(xs, ys):
    wins = 0.0
    for x in xs:
        for y in ys:
            if x > y:
                wins += 1.0
            elif x == y:
                wins += 0.5
    return wins / (len(xs) * len(ys))


def u_pairwise(xs, ys):
    """Mann-Whitney U of the first sample by exhaustive pair counting."""
    u = 0.0
    for x in xs:
        for y in ys:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def ranks_of(pooled):
    """1-based fractional ranks by explicit tie-group averaging."""
    indexed = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(indexed):
        j = i
        while (j + 1 < len(indexed)
               and pooled[indexed[j + 1]] == pooled[indexed[i]]):
            j += 1
        avg = (i + 1 + j + 1) / 2.0
        for k in range(i, j + 1):
            ranks[indexed[k]] = avg
        i = j + 1
    return ranks


# --- learner comparison -----------------------------------------------------

def compare_oracle(results):
    """``rig.compare``'s rows as tuples, from per-learner samples regrouped
    by (project, score, attribute set).  The significance test is the
    package's ``mann_whitney`` (``u_pairwise`` is its reference); medians
    are ``median_of``."""
    values = {}
    for r in results:
        sample = values.setdefault(
            (r.project, r.score, r.attribute_set, r.learner), [])
        if not r.degenerate:
            sample.append(r.value)
    groups = {}
    for (project, score, attr_set, learner) in values:
        groups.setdefault((project, score, attr_set), []).append(learner)

    def beats(xs, ys, score):
        if not mann_whitney(xs, ys).different:
            return False
        if score == "popt":
            return median_of(xs) > median_of(ys)
        return median_of(xs) < median_of(ys)

    rows = []
    for key in sorted(groups):
        learners = sorted(groups[key])
        samples = {name: values[(*key, name)] for name in learners}
        too_small = min(len(s) for s in samples.values()) < 3
        for learner in learners:
            mine = samples[learner]
            opponents = [o for o in learners if o != learner]
            if too_small or not opponents:
                rows.append((*key, learner, len(mine), 0, 0, "inconclusive"))
                continue
            wins = sum(beats(mine, samples[o], key[1]) for o in opponents)
            losses = sum(beats(samples[o], mine, key[1]) for o in opponents)
            if wins == len(opponents):
                verdict = "better"
            elif losses > 0:
                verdict = "worse"
            elif wins > 0:
                verdict = "mixed"
            else:
                verdict = "tied"
            rows.append((*key, learner, len(mine), wins, losses, verdict))
    return rows


def evaluate_oracle(model, test, kind):
    """``rig.evaluate``'s (value, degenerate) on the scores a learner's
    row gives a test set with an effort column, learner by learner."""
    if isinstance(model, FFTree):
        exit_idx, predicted = route_dataset(model, test)
        k = len(model.nodes)
        order = effort_order_from_scores(
            np.where(predicted, 2 * k + 1 - exit_idx, exit_idx), test.effort)
    else:
        scores = (nb_score_dataset(model, test) if isinstance(model, NBModel)
                  else lr_score_dataset(model, test))
        order = effort_order_from_scores(scores, test.effort)
        predicted = scores >= 0.5
    if kind == "popt":
        res = popt(test.labels[order].astype(float), test.effort[order])
        return res.value, res.degenerate
    c = Confusion.from_predictions(predicted, test.labels)
    return dis2heaven(c), bool(test.labels.all() or not test.labels.any())


# --- effort-aware Popt -------------------------------------------------------

def curve_area(defects, efforts):
    """Trapezoid area under the cumulative lift chart, sequential sums."""
    total = 0.0
    cum_d = []
    cum_e = []
    run_d = 0.0
    run_e = 0.0
    for d, e in zip(defects, efforts):
        run_d += d
        run_e += e
        cum_d.append(run_d)
        cum_e.append(run_e)
    xs = [0.0] + [c / run_e for c in cum_e]
    ys = [0.0] + [c / run_d for c in cum_d]
    for i in range(1, len(xs)):
        total += (xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1])
    return total / 2.0


def density_order(defects, efforts, descending):
    n = len(defects)
    sign = -1.0 if descending else 1.0
    return sorted(range(n),
                  key=lambda i: (sign * (defects[i] / efforts[i]),
                                 efforts[i], i))


def popt_of(defects, efforts):
    """(value, degenerate) for an already-ordered ranking."""
    if len(defects) == 0 or sum(defects) <= 0:
        return 0.5, True
    best = density_order(defects, efforts, descending=True)
    worst = density_order(defects, efforts, descending=False)
    s_opt = curve_area([defects[i] for i in best],
                       [efforts[i] for i in best])
    s_worst = curve_area([defects[i] for i in worst],
                         [efforts[i] for i in worst])
    if s_opt - s_worst <= 1e-12:
        return 0.5, True
    s_m = curve_area(defects, efforts)
    value = 1.0 - (s_opt - s_m) / (s_opt - s_worst)
    return min(1.0, max(0.0, value)), False


def prediction_order(predicted, efforts):
    """Predicted positives first; ascending effort then index inside."""
    n = len(predicted)
    return sorted(range(n), key=lambda i: (not predicted[i], efforts[i], i))


# --- the exhaustive tree oracle ---------------------------------------------
#
# Rows are dicts attribute -> value (None = missing); labels are bools;
# efforts a list or None.  Tie-breaks mirror the documented rules:
# candidates by (score key, rows matched, attribute name, "<=" before ">"),
# trees by (score key, policy string).

def _matches(row, attr, op, cut):
    v = row.get(attr)
    if v is None:
        return False
    return v <= cut if op == "<=" else v > cut


def _score_key(kind, value):
    return -value if kind == "popt" else value


def _local_score(rows, labels, efforts, indices, preds, kind):
    if kind == "popt":
        order = prediction_order(preds, [efforts[i] for i in indices])
        defects = [1.0 if labels[indices[order[k]]] else 0.0
                   for k in range(len(order))]
        effs = [efforts[indices[order[k]]] for k in range(len(order))]
        return popt_of(defects, effs)[0]
    counts = confusion_counts(preds, [labels[i] for i in indices])
    return d2h_of(counts)


def _candidates(rows, labels, efforts, indices, exit_class, kind):
    # the candidate key totally orders candidates, so iteration order of
    # attributes is immaterial; use the first surviving row's key order
    attrs = list(rows[indices[0]].keys())
    out = []
    for attr in attrs:
        values = [rows[i][attr] for i in indices
                  if rows[i].get(attr) is not None]
        if not values:
            continue
        cut = median_of(values)
        if not math.isfinite(cut):
            continue
        for op_rank, op in enumerate(("<=", ">")):
            matched = [_matches(rows[i], attr, op, cut) for i in indices]
            n_match = sum(matched)
            if n_match == 0:
                continue
            preds = [exit_class if m else (not exit_class) for m in matched]
            score = _local_score(rows, labels, efforts, indices, preds, kind)
            out.append(((_score_key(kind, score), n_match, attr, op_rank),
                        attr, op, cut, matched))
    return out


def split_oracle(rows, labels, efforts, indices, exit_class, kind):
    """(node dict, indices the node does not match) of the best split of
    the rows at ``indices``, every candidate scored exactly; None when no
    range matches a row."""
    cands = _candidates(rows, labels, efforts, indices, exit_class, kind)
    if not cands:
        return None
    key, attr, op, cut, matched = min(cands, key=lambda c: c[0])
    node = {"attribute": attr, "op": op, "cut": cut, "class": exit_class,
            "support": sum(matched)}
    return node, [i for i, m in zip(indices, matched) if not m]


def build_tree_oracle(rows, labels, efforts, bits, kind):
    """Level-by-level greedy build; returns a plain dict tree."""
    indices = list(range(len(rows)))
    nodes = []
    for bit in bits:
        split = indices and split_oracle(rows, labels, efforts, indices, bit,
                                         kind)
        if not split:
            break
        node, indices = split
        nodes.append(node)
    leaf_class = (not nodes[-1]["class"]) if nodes else (not bits[0])
    return {"nodes": nodes, "leaf_class": leaf_class,
            "leaf_support": len(indices), "bits": list(bits)}


def route_oracle(tree, row):
    """(exit index, class) for one row through an oracle tree."""
    for i, node in enumerate(tree["nodes"]):
        if _matches(row, node["attribute"], node["op"], node["cut"]):
            return i, node["class"]
    return len(tree["nodes"]), tree["leaf_class"]


def popt_order_oracle(routed, efforts):
    """Most-suspicious-first row order from each row's (exit index, class):
    true exits earliest first, then false exits latest first, then
    ascending effort, then row index."""
    return sorted(range(len(routed)),
                  key=lambda i: (0 if routed[i][1] else 1,
                                 routed[i][0] if routed[i][1]
                                 else -routed[i][0],
                                 efforts[i], i))


def tree_score_oracle(tree, rows, labels, efforts, kind):
    routed = [route_oracle(tree, r) for r in rows]
    if kind == "popt":
        order = popt_order_oracle(routed, efforts)
        defects = [1.0 if labels[i] else 0.0 for i in order]
        effs = [efforts[i] for i in order]
        return popt_of(defects, effs)[0]
    preds = [cls for _, cls in routed]
    return d2h_of(confusion_counts(preds, labels))


def policy_string_of(bits):
    digits = "".join("1" if b else "0" for b in bits)
    return digits + ("0" if bits[-1] else "1")


def all_bit_vectors(depth):
    out = []
    for mask in range(2 ** depth):
        bits = [(mask >> (depth - 1 - level)) & 1 == 1
                for level in range(depth)]
        out.append(bits)
    return out


def best_tree_oracle(rows, labels, efforts, depth, kind):
    """(policy string, train score) of the exhaustive enumeration winner."""
    scored = []
    for bits in all_bit_vectors(depth):
        tree = build_tree_oracle(rows, labels, efforts, bits, kind)
        score = tree_score_oracle(tree, rows, labels, efforts, kind)
        scored.append(((_score_key(kind, score), policy_string_of(bits)),
                       policy_string_of(bits), score, tree))
    key, policy, score, tree = min(scored, key=lambda s: s[0])
    return policy, score, tree


# --- Gaussian likelihoods for the NB check -----------------------------------

def gaussian_density(x, mean, var):
    return math.exp(-(x - mean) ** 2 / (2.0 * var)) / math.sqrt(
        2.0 * math.pi * var)


def nb_posterior_oracle(train_rows, train_labels, row, var_floor=1e-6):
    """P(positive | row) from hand-rolled class stats; missing skipped."""
    out = {}
    for flag in (False, True):
        rows = [r for r, lab in zip(train_rows, train_labels) if lab == flag]
        if not rows:
            out[flag] = 0.0
            continue
        prob = len(rows) / len(train_rows)
        for attr, x in row.items():
            if x is None:
                continue
            values = [r[attr] for r in rows if r.get(attr) is not None]
            if not values:
                continue
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            var = max(var, var_floor)
            prob *= gaussian_density(x, mean, var)
        out[flag] = prob
    total = out[False] + out[True]
    if total == 0:
        return 0.0
    return out[True] / total


def logistic_loss(weights, bias, X, y):
    """Mean cross-entropy on an already standardized design matrix; the
    loss whose gradient ``baselines.logistic_gradient`` gives."""
    z = X @ weights + bias
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def finite_difference_gradient(loss, weights, bias, eps=1e-6):
    """Central differences of a loss(weights, bias) callable."""
    gw = []
    for j in range(len(weights)):
        up = list(weights)
        dn = list(weights)
        up[j] += eps
        dn[j] -= eps
        gw.append((loss(up, bias) - loss(dn, bias)) / (2 * eps))
    gb = (loss(list(weights), bias + eps)
          - loss(list(weights), bias - eps)) / (2 * eps)
    return gw, gb


def lr_train_oracle(train, epochs=500, learning_rate=0.1):
    """(weights, bias, means, stds) of one fit: a trainable set is assumed.
    The design is standardized and descended one fit at a time, with a
    1-D weight vector and a float bias."""
    y = train.labels.astype(float)
    means = np.nanmean(train.values, axis=0)
    stds = np.nanstd(train.values, axis=0)
    means = np.where(np.isnan(means), 0.0, means)
    stds = np.where((stds == 0) | np.isnan(stds), 1.0, stds)
    X = (train.values - means) / stds
    X = np.where(np.isnan(X), 0.0, X)
    weights = np.zeros(X.shape[1])
    bias = 0.0
    for _ in range(epochs):
        err = masked_sigmoid(X @ weights + bias) - y
        weights -= learning_rate * (X.T @ err / len(y))
        bias -= learning_rate * float(err.mean())
    return weights, bias, means, stds


def masked_sigmoid(z):
    """The logistic function split on the sign of z by boolean masks:
    1 / (1 + e^-z) where z >= 0, e^z / (1 + e^z) elsewhere."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# --- CSV ingestion -----------------------------------------------------------

def _parse_cell_oracle(text: str, path, line_no: int, column: str) -> float:
    text = text.strip()
    if text in MISSING_MARKERS:
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise DatasetError(
            f"{path}: line {line_no}, column {column!r}: "
            f"cell {text!r} is neither numeric nor a missing marker")


def _csv_rows_oracle(reader, path):
    try:
        yield from reader
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{path}: not a readable UTF-8 CSV ({exc})") from exc


def load_csv_oracle(path, label_column: str,
                    effort_column: str | None = None,
                    exclude=DEFAULT_EXCLUDE, name: str | None = None,
                    version: str = "") -> Dataset:
    """Load one CSV into a Dataset.

    The first row is the header.  Columns named in ``exclude`` are skipped;
    every other non-label, non-effort column must be numeric
    ("?", an empty cell or ``nan`` marks a missing value).  An infinite cell
    in any attribute, label or effort column is an error.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        csv_reader = csv.reader(fh)
        reader = _csv_rows_oracle(csv_reader, path)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatasetError(f"{path}: empty file, no header row")
        for needed in (label_column, effort_column):
            if needed is not None and needed not in header:
                raise DatasetError(f"{path}: no column named {needed!r}")

        label_idx = header.index(label_column)
        effort_idx = header.index(effort_column) if effort_column else None
        attr_cols = [j for j, col in enumerate(header)
                     if j not in (label_idx, effort_idx) and col not in exclude]
        attributes = [header[j] for j in attr_cols]
        if len(set(attributes)) != len(attributes):
            dupes = sorted({a for a in attributes if attributes.count(a) > 1})
            raise DatasetError(f"{path}: duplicate attribute columns {dupes}")

        # a row's line is the one it starts on; a quoted cell can hold
        # line breaks, so rows and lines need not count alike
        rows, labels, efforts, row_lines = [], [], [], []
        next_line = csv_reader.line_num + 1
        for cells in reader:
            line_no, next_line = next_line, csv_reader.line_num + 1
            if not cells or all(c.strip() == "" for c in cells):
                continue
            row_lines.append(line_no)
            if len(cells) != len(header):
                raise DatasetError(
                    f"{path}: line {line_no} has {len(cells)} cells, "
                    f"header has {len(header)}")
            rows.append([_parse_cell_oracle(cells[j], path, line_no,
                                            header[j])
                         for j in attr_cols])
            labels.append(_parse_cell_oracle(cells[label_idx], path, line_no,
                                             label_column))
            if effort_idx is not None:
                eff = _parse_cell_oracle(cells[effort_idx], path, line_no,
                                         effort_column)
                if math.isnan(eff) or eff <= 0:
                    raise DatasetError(
                        f"{path}: line {line_no}, column {effort_column!r}: "
                        f"effort must be a positive number, got "
                        f"{cells[effort_idx].strip()!r}")
                efforts.append(eff)

    n = len(rows)
    values = np.array(rows, dtype=float).reshape(n, len(attributes))
    del rows    # the bulk of a load's memory; the checks below need none of it
    label_values = np.array(labels, dtype=float)
    effort = np.array(efforts, dtype=float) if effort_idx is not None else None
    if (np.isinf(values).any() or np.isinf(label_values).any()
            or (effort is not None and np.isinf(effort).any())):
        parsed = {j: values[:, k] for k, j in enumerate(attr_cols)}
        parsed[label_idx] = label_values
        if effort is not None:
            parsed[effort_idx] = effort
        in_file_order = sorted(parsed)
        table = np.column_stack([parsed[j] for j in in_file_order])
        i, k = divmod(int(np.flatnonzero(np.isinf(table))[0]), table.shape[1])
        raise DatasetError(
            f"{path}: line {row_lines[i]}, column "
            f"{header[in_file_order[k]]!r}: cell value "
            f"{float(table[i, k])!r} is not finite")
    return Dataset(
        name=name if name is not None else str(path),
        version=version,
        attributes=tuple(attributes),
        values=values,
        labels=label_values,
        effort=effort)


def _format_cell_oracle(x: float) -> str:
    if math.isnan(x):
        return "?"
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


def save_csv_oracle(ds: Dataset, path, label_column: str = "bug",
                    effort_column: str | None = None):
    """Write a dataset to CSV: ``ds.row_names`` as a ``name`` column when
    there are any, the attributes, then the label.

    ``effort_column`` adds the effort vector as its own column; leave it
    None when effort already mirrors an attribute (e.g. loc).
    """
    if effort_column is not None and ds.effort is None:
        raise DatasetError(f"{ds.name}: no effort vector to write")
    names = ["name"] if ds.row_names else []
    header = names + list(ds.attributes) + [label_column]
    if effort_column is not None:
        header.append(effort_column)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(ds)):
            row = [ds.row_names[i]] if names else []
            row += [_format_cell_oracle(x) for x in ds.values[i]]
            label = ds.labels[i]
            row.append(str(int(label)) if ds.binary
                       else _format_cell_oracle(label))
            if effort_column is not None:
                row.append(_format_cell_oracle(ds.effort[i]))
            writer.writerow(row)
