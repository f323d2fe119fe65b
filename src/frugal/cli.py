"""Command-line front end.

Subcommands:
  fit         train a tree on one or more CSVs and print or save it
  eval        train on older CSVs, score on the newest (or score a saved tree)
  rig         run a full experiment from a JSON config and write report files
  changefreq  attribute change frequencies across version sequences

``eval`` trains through ``rig.version_split`` and ``rig.top_changed_split``,
as a version-mode rig cell does.  Exit codes, carried by each FrugalError
subclass as ``exit_code``: 0 ok, 2 input/parse problem, unreadable file or
other OSError (a rig fit worker that died), 3 training precondition, 4
unsupported score function, 5 bad configuration.
``run_command`` is the one exit for ``main`` and the experiment scripts in
``scripts/``: a failure prints one ``error: ...`` line, then its code.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import re
import sys
from pathlib import Path

from . import operational, rig
from .dataset import DEFAULT_EXCLUDE, Dataset, LabelRule, binarize, load_csv, merge
from .errors import (ConfigError, DatasetError, FrugalError,
                     UnsupportedScoreError, json_integer, json_number,
                     json_string)
from .fft import (check_depth, grow, rank_for_popt, render, route_dataset,
                  tree_from_dict, tree_to_dict)
from .metrics import (Confusion, dis2heaven, far, one_class, popt, recall,
                      recall_at_20, score_function)

_RULE_RE = re.compile(r"^\s*([<>])\s*(\d+(?:\.\d+)?)\s*$")


def parse_rule(text: str) -> LabelRule:
    m = _RULE_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse rule {text!r}; expected forms "
                          "like '>0', '<30', or '>365'")
    op, value = m.group(1), float(m.group(2))
    if op == "<" and value == 0:
        raise ConfigError(f"rule {text!r} needs a positive threshold")
    return LabelRule(op, value)


def load_versions(paths, label, effort, exclude, rule,
                  attributes=None) -> list[Dataset]:
    out = []
    for path in paths:
        ds = load_csv(path, label_column=label, effort_column=effort,
                      exclude=exclude, name=Path(path).stem,
                      attributes=attributes)
        out.append(binarize(ds, rule))
    return out


def split_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def flag_column(flag: str, value: str) -> str:
    try:
        return _column(value)
    except ValueError as exc:
        raise ConfigError(f"bad {flag} value {value!r} ({exc})") from exc


def _args_data(args) -> tuple:
    """The ``load_versions`` arguments that the data flags of a ``fit`` or
    ``eval`` command line give, checked before any file is opened."""
    rule = parse_rule(args.positive_if)
    effort = (None if args.effort is None
              else flag_column("--effort", args.effort))
    return (flag_column("--label", args.label), effort,
            split_list(args.exclude), rule)


def read_json(path, what: str, invalid: type[FrugalError]):
    """The JSON value in the file at ``path``.  A file that cannot be opened
    is a DatasetError; text that does not decode or parse is ``invalid``."""
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"cannot read {what} {path}: {exc}") from exc
    with fh:
        try:
            return json.load(fh)
        except ValueError as exc:   # UnicodeDecodeError included
            raise invalid(f"{path}: not valid JSON ({exc})") from exc


def _write_or_print(text: str, out: str | None):
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n")


def _score(args):
    """The score function ``--score`` names; popt also needs ``--effort``.
    Checked before any file is opened."""
    fn = score_function(args.score)
    if fn.kind == "popt" and args.effort is None:
        raise UnsupportedScoreError("popt scoring needs an effort column "
                                    "(--effort)")
    return fn


def _cmd_fit(args) -> int:
    fn = _score(args)
    check_depth(args.depth)
    train = merge(load_versions(args.csv, *_args_data(args)))
    best, _ = grow(train, depth=args.depth, fn=fn)
    model_json = json.dumps(tree_to_dict(best), indent=2, sort_keys=True)
    if args.out is not None:
        Path(args.out).write_text(model_json + "\n")
    if args.format == "json":
        print(model_json)
        return 0
    print(f"# trained on {train.name} ({len(train)} rows), "
          f"policy {best.policy_string}, "
          f"train {fn.kind} {best.train_score:.4f}")
    print(render(best))
    return 0


def _cmd_eval(args) -> int:
    fn = _score(args)
    data = _args_data(args)
    if args.model is not None:
        if len(args.csv) != 1:
            raise ConfigError("--model evaluates exactly one test CSV")
        if args.top_changed is not None:
            raise ConfigError("--top-changed cannot apply to --model: a "
                              "saved model's attributes are fixed")
        if args.depth is not None:
            raise ConfigError("--depth cannot apply to --model: a saved "
                              "model's depth is fixed")
        tree = tree_from_dict(read_json(args.model, "model", DatasetError))
        # the test CSV's other columns are never parsed
        [test] = load_versions(args.csv, *data, attributes=tree.attributes)
        train = None
    else:
        if len(args.csv) < 2:
            raise ConfigError("eval without --model needs at least two "
                              "CSVs: the older ones train, the newest tests")
        if args.top_changed is not None:
            if len(args.csv) < 3:
                raise ConfigError("--top-changed needs at least two training "
                                  "versions, so three CSVs")
            operational.check_fraction(args.top_changed)
        depth = 4 if args.depth is None else args.depth
        check_depth(depth)
        split = rig.version_split(load_versions(args.csv, *data))
        if args.top_changed is not None:
            split = rig.top_changed_split(split, args.top_changed)
        train, test = split.train, split.test
        tree = grow(train, depth=depth, fn=fn)[0]

    c = Confusion.from_predictions(route_dataset(tree, test)[1], test.labels)
    report = {
        "selection_score": tree.score_kind,
        "policy": tree.policy_string,
        "nodes": len(tree.nodes),
        "test": {"name": test.name, "rows": len(test)},
        "confusion": {"tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn},
        "recall": recall(c),
        "far": far(c),
        "dis2heaven": dis2heaven(c),
    }
    if one_class(c):    # only then, so a two-class report keeps its bytes
        report["dis2heaven_degenerate"] = True
    if train is not None:
        report["train"] = {"name": train.name, "rows": len(train)}
    if test.effort is not None:
        order = rank_for_popt(tree, test)
        defects = test.labels[order].astype(float)
        efforts = test.effort[order]
        p = popt(defects, efforts)
        report["popt"] = p.value
        report["popt_degenerate"] = p.degenerate
        report["recall_at_20"] = recall_at_20(defects, efforts)
    if args.format == "json":
        _write_or_print(json.dumps(report, indent=2, sort_keys=True), args.out)
        return 0
    lines = [f"policy: {tree.policy_string}  nodes: {len(tree.nodes)}"]
    if train is not None:
        lines.append(f"train: {train.name} ({len(train)} rows)")
    lines.append(f"test: {test.name} ({len(test)} rows)")
    lines.append(f"confusion: tp={c.tp} fp={c.fp} tn={c.tn} fn={c.fn}")
    lines.append(f"recall: {report['recall']:.4f}")
    lines.append(f"far: {report['far']:.4f}")
    flag = "  (degenerate)" if "dis2heaven_degenerate" in report else ""
    lines.append(f"dis2heaven: {report['dis2heaven']:.4f}{flag}")
    if "popt" in report:
        flag = "  (degenerate)" if report["popt_degenerate"] else ""
        lines.append(f"popt: {report['popt']:.4f}{flag}")
        lines.append(f"recall_at_20: {report['recall_at_20']:.4f}")
    lines.append(render(tree))
    _write_or_print("\n".join(lines), args.out)
    return 0


def _names(value) -> tuple[str, ...]:
    # tuple() alone would split a JSON string into its characters
    if not (isinstance(value, list) and all(isinstance(v, str)
                                            for v in value)):
        raise TypeError("expected a JSON list of strings")
    return tuple(value)


def _column(value) -> str:
    # an empty name would reach load_csv and exit 2 as a data error
    if not json_string(value).strip():
        raise ValueError("expected a column name")
    return value


# Every RigConfig field may be set, and the type of its default says which
# JSON type the value must have.  The other keys say how to load the
# projects' CSVs.
_CONFIG_TYPES = {f.name: {int: json_integer, float: json_number,
                          str: json_string, tuple: _names}[type(f.default)]
                 for f in dataclasses.fields(rig.RigConfig)}
_CONFIG_KEYS = {*_CONFIG_TYPES, "projects", "label", "effort", "positive_if",
                "exclude"}


def load_rig_config(path) -> tuple[rig.RigConfig, dict]:
    """Read a rig config file; relative CSV paths resolve against it."""
    path = Path(path)
    raw = read_json(path, "config", ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    if not isinstance(raw.get("projects"), dict) or not raw["projects"]:
        raise ConfigError(f"{path}: config needs a non-empty 'projects' map")

    def value(key, kind, default=None):
        if key not in raw:
            return default
        try:
            return kind(raw[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(
                f"{path}: bad {key!r} value {raw[key]!r} ({exc})") from exc

    config = rig.RigConfig(**{key: value(key, kind)
                              for key, kind in _CONFIG_TYPES.items()
                              if key in raw})
    rule = parse_rule(value("positive_if", json_string, ">0"))
    exclude = value("exclude", _names, DEFAULT_EXCLUDE)
    label = value("label", _column, "bug")
    effort = None if raw.get("effort") is None else value("effort", _column)
    projects = {}
    for pname, paths in raw["projects"].items():
        if isinstance(paths, str):
            paths = [paths]
        if not (isinstance(paths, list)
                and all(isinstance(p, str) for p in paths)):
            raise ConfigError(f"{path}: project {pname!r} needs a CSV path "
                              f"or a list of them, got {paths!r}")
        resolved = [path.parent / p if not Path(p).is_absolute() else Path(p)
                    for p in paths]
        projects[pname] = load_versions(resolved, label, effort, exclude,
                                        rule)
    return config, projects


def _cmd_rig(args) -> int:
    config, projects = load_rig_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    result = rig.run(projects, config)
    paths = rig.write_reports(result, args.out_dir)
    print(f"{len(result.results)} results over {len(projects)} projects")
    for key in sorted(paths):
        print(f"  {key}: {paths[key]}")
    return 0


def _cmd_changefreq(args) -> int:
    operational.check_threshold(args.threshold)
    exclude = split_list(args.exclude)
    label = flag_column("--label", args.label)
    sequences = [args.csv] if args.csv else []
    sequences += [split_list(seq) for seq in args.sequence]
    if not sequences:
        raise ConfigError("changefreq needs CSVs (positional or --sequence)")
    if min(map(len, sequences)) < 2:
        raise ConfigError("each version sequence needs >= 2 versions")
    loaded = [[load_csv(p, label_column=label, effort_column=None,
                        exclude=exclude, name=Path(p).stem) for p in paths]
              for paths in sequences]
    stats = operational.change_frequency(loaded, threshold=args.threshold)
    if args.format == "json":
        payload = [{"attribute": c.attribute, "changed": c.changed,
                    "total": c.total, "percent": c.percent}
                   for c in stats.changes]
        _write_or_print(json.dumps(payload, indent=2, sort_keys=True),
                        args.out)
        return 0
    if args.format == "csv":
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(["attribute", "changed", "total", "percent"])
        writer.writerows([c.attribute, c.changed, c.total, f"{c.percent:.1f}"]
                         for c in stats.changes)
        _write_or_print(text.getvalue().removesuffix("\n"), args.out)
        return 0
    width = max(len("attribute"),
                max((len(c.attribute) for c in stats.changes), default=0))
    lines = [f"{'attribute':<{width}}  changed  total  percent"]
    for c in stats.changes:
        lines.append(f"{c.attribute:<{width}}  {c.changed:>7}  "
                     f"{c.total:>5}  {c.percent:>6.1f}")
    _write_or_print("\n".join(lines), args.out)
    return 0


def _add_data_flags(sub, label_default="bug"):
    sub.add_argument("--label", default=label_default,
                     help="label column name (default: %(default)s)")
    sub.add_argument("--effort", default=None,
                     help="effort column name (needed for popt)")
    sub.add_argument("--positive-if", default=">0", dest="positive_if",
                     help="binarization rule: '>0' bug counts, '<30'/'>365' "
                          "day thresholds (default: %(default)s)")
    sub.add_argument("--exclude", default=",".join(DEFAULT_EXCLUDE),
                     help="comma-separated identifier columns "
                          "(default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frugal",
        description="Fast-and-frugal tree classifiers with effort-aware "
                    "evaluation")
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="train a tree and print or save it")
    fit.add_argument("csv", nargs="+", help="training CSVs (merged)")
    _add_data_flags(fit)
    fit.add_argument("--depth", type=int, default=4)
    fit.add_argument("--score", default="d2h",
                     help="score to optimize: d2h or popt")
    fit.add_argument("--format", choices=("text", "json"), default="text")
    fit.add_argument("--out", default=None,
                     help="also save the model JSON here (the tree is "
                          "printed either way)")
    fit.set_defaults(func=_cmd_fit)

    ev = subs.add_parser("eval",
                         help="train on older CSVs, score on the newest")
    ev.add_argument("csv", nargs="+",
                    help="version-ordered CSVs; the last one is the test set")
    _add_data_flags(ev)
    ev.add_argument("--model", default=None,
                    help="saved tree JSON; skips training")
    ev.add_argument("--depth", type=int, default=None,
                    help="tree depth when training (default: 4)")
    ev.add_argument("--score", default="d2h")
    ev.add_argument("--top-changed", type=float, default=None,
                    dest="top_changed", metavar="FRACTION",
                    help="keep only this fraction of most-changed attributes")
    ev.add_argument("--format", choices=("text", "json"), default="text")
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=_cmd_eval)

    rg = subs.add_parser("rig", help="run experiments from a JSON config")
    rg.add_argument("--config", required=True)
    rg.add_argument("--out-dir", default="reports", dest="out_dir")
    rg.add_argument("--seed", type=int, default=None,
                    help="override the config seed")
    rg.set_defaults(func=_cmd_rig)

    cf = subs.add_parser("changefreq",
                         help="how often attribute distributions shift "
                              "between adjacent versions")
    cf.add_argument("csv", nargs="*",
                    help="one version-ordered sequence of CSVs")
    cf.add_argument("--sequence", action="append", default=[],
                    metavar="A.csv,B.csv",
                    help="extra comma-separated sequence (repeatable)")
    cf.add_argument("--label", default="bug",
                    help="label column name (default: %(default)s)")
    cf.add_argument("--exclude", default=",".join(DEFAULT_EXCLUDE),
                    help="comma-separated identifier columns "
                         "(default: %(default)s)")
    cf.add_argument("--threshold", type=float, default=0.06,
                    help="effect-size cutoff on |a12 - 0.5|, in (0, 0.5] "
                         "(default: %(default)s)")
    cf.add_argument("--format", choices=("text", "json", "csv"),
                    default="text")
    cf.add_argument("--out", default=None)
    cf.set_defaults(func=_cmd_changefreq)
    return parser


def run_command(func, args) -> int:
    """``func(args)``, or the exit code of the error it raises, after one
    ``error: ...`` line on stderr."""
    try:
        return func(args)
    except (FrugalError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", 2)    # OSError: a file or a worker


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_command(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
