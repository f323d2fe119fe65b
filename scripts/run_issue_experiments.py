#!/usr/bin/env python3
"""Issue-lifetime experiments: repeated cross-validation over a grid of
days-to-close thresholds.

Each threshold turns the raw days-to-close label into a binary question
("closes within a week?", "lingers past half a year?"); every learner is
then scored with dis2heaven over 5x10 cross-validation.  Issue tables
carry no effort column, so the effort-aware score does not apply here.

With --csv the table comes from disk (raw days in --label); otherwise a
seeded synthetic table stands in.
"""

import argparse
import sys

import numpy as np

from frugal import rig, synth
from frugal.cli import flag_column, parse_rule, run_command, split_list
from frugal.dataset import binarize, load_csv
from frugal.errors import TrainingError

THRESHOLDS = (">365", "<180", "<90", "<30", "<14", "<7", "<1")


def _slug(rule_text: str) -> str:
    return rule_text.replace(">", "gt").replace("<", "lt").replace(".", "p")


def run_threshold(raw, rule_text, config, out_dir):
    """One repeated CV run and its medians over the cells ``rig.compare``
    keeps; a threshold the rig cannot train prints the rig's error."""
    data = binarize(raw, parse_rule(rule_text))
    try:
        result = rig.run({"issues": [data]}, config)
    except TrainingError as exc:
        print(f"{rule_text:>5}: skipped ({exc})")
        return
    rig.write_reports(result, f"{out_dir}/{_slug(rule_text)}")
    verdicts = {row.learner: row.verdict
                for row in rig.compare(result.results)}
    cells = []
    for learner in config.learners:
        values = [r.value for r in result.results
                  if r.learner == learner and not r.degenerate]
        median = f"{np.median(values):.3f}" if values else "-"
        cells.append(f"{learner} {median} ({verdicts[learner]})")
    print(f"{rule_text:>5}: {int(data.labels.sum()):>3} positive  "
          "dis2heaven medians: " + "  ".join(cells))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--csv", default=None,
                    help="issue table with a days-to-close column")
    ap.add_argument("--label", default="days",
                    help="days-to-close column in --csv")
    ap.add_argument("--out-dir", default="reports/issues")
    ap.add_argument("--learners", default="fft,nb,sl")
    ap.add_argument("--depth", type=int, default=4)
    ap.add_argument("--bins", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--rows", type=int, default=400,
                    help="synthetic table size when no --csv is given")
    return run_command(experiment, ap.parse_args(argv))


def experiment(args) -> int:
    learners = split_list(args.learners)
    config = rig.RigConfig(learners=learners, scores=("d2h",),
                           depth=args.depth, mode="cv", bins=args.bins,
                           repeats=args.repeats, seed=args.seed)
    label = flag_column("--label", args.label)
    if args.csv:
        raw = load_csv(args.csv, label_column=label)
        print(f"loaded {raw.name}: {len(raw)} issues")
    else:
        raw = synth.make_issue_dataset(seed=args.seed, rows=args.rows)
        print(f"synthetic issue table: {len(raw)} rows, seed {args.seed}")

    for rule_text in THRESHOLDS:
        run_threshold(raw, rule_text, config, args.out_dir)
    print(f"reports under {args.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
