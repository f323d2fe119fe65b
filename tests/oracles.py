"""Slow, independent reference implementations used only by the tests.

Everything here is plain Python (lists, dicts, Fraction-free float math) so
that agreement with the numpy-based package code is meaningful.  The tree
oracle enumerates every (attribute, cut, polarity) candidate at every level
and every exit policy outright.  The one numpy function, ``masked_sigmoid``,
is a bit-level reference: it is the formula ``baselines._sigmoid`` must
reproduce exactly, and Python's ``math.exp`` may round differently from
numpy's.
"""

import math

import numpy as np


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
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


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


def build_tree_oracle(rows, labels, efforts, bits, kind):
    """Level-by-level greedy build; returns a plain dict tree."""
    indices = list(range(len(rows)))
    nodes = []
    for bit in bits:
        if not indices:
            break
        cands = _candidates(rows, labels, efforts, indices, bit, kind)
        if not cands:
            break
        key, attr, op, cut, matched = min(cands, key=lambda c: c[0])
        support = sum(matched)
        nodes.append({"attribute": attr, "op": op, "cut": cut,
                      "class": bit, "support": support})
        indices = [i for i, m in zip(indices, matched) if not m]
    leaf_class = (not nodes[-1]["class"]) if nodes else (not bits[0])
    return {"nodes": nodes, "leaf_class": leaf_class,
            "leaf_support": len(indices), "bits": list(bits)}


def route_oracle(tree, row):
    """(exit index, class) for one row through an oracle tree."""
    for i, node in enumerate(tree["nodes"]):
        if _matches(row, node["attribute"], node["op"], node["cut"]):
            return i, node["class"]
    return len(tree["nodes"]), tree["leaf_class"]


def tree_score_oracle(tree, rows, labels, efforts, kind):
    routed = [route_oracle(tree, r) for r in rows]
    if kind == "popt":
        order = sorted(range(len(rows)),
                       key=lambda i: (0 if routed[i][1] else 1,
                                      routed[i][0] if routed[i][1]
                                      else -routed[i][0],
                                      efforts[i], i))
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


def masked_sigmoid(z):
    """The logistic function split on the sign of z by boolean masks:
    1 / (1 + e^-z) where z >= 0, e^z / (1 + e^z) elsewhere."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
