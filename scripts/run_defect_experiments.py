#!/usr/bin/env python3
"""Version-ordered defect-prediction experiments.

For every project the rig trains on all releases but the newest, tests on
the newest, and scores fast-and-frugal trees against the in-repo naive
bayes and logistic regression baselines — both raw (dis2heaven) and
effort-aware (Popt), on the full attribute table and again on the top 25%
most-changed attributes.  Reports land in --out-dir; a head-to-head digest
prints at the end.

Real data layout (one CSV per release, oldest to newest by filename):

    <data-dir>/camel-1.0.csv
    <data-dir>/camel-1.2.csv
    ...

Each CSV needs static code metrics, a ``loc`` column (doubles as the
inspection-effort proxy), and a ``bug`` count column.  Without real data,
--synthetic runs the identical protocol on a seeded synthetic corpus.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from frugal import rig, synth
from frugal.dataset import LabelRule, binarize, load_csv
from frugal.metrics import score_function

PUBLIC_PROJECTS = ("camel", "ivy", "jedit", "log4j", "lucene",
                   "poi", "synapse", "velocity", "xalan", "xerces")
SYNTH_PROJECTS = ("ant", "beam", "calcite", "druid", "flink",
                  "gobblin", "hive", "iceberg", "jena", "kafka")


def discover(root: Path) -> dict[str, list[Path]]:
    """Version CSVs per project; projects with fewer than two are dropped."""
    catalog = {}
    for project in PUBLIC_PROJECTS:
        files = sorted(root.glob(f"{project}-*.csv"))
        if not files:
            files = sorted(root.glob(f"{project}/*.csv"))
        if len(files) >= 2:
            catalog[project] = files
    return catalog


def load_projects(catalog: dict[str, list[Path]], label: str,
                  effort: str) -> dict[str, list]:
    rule = LabelRule.bug_counts()
    return {
        name: [binarize(load_csv(path, label_column=label,
                                 effort_column=effort, name=path.stem), rule)
               for path in paths]
        for name, paths in catalog.items()
    }


def synthetic_projects(seed: int, rows: int) -> dict[str, list]:
    rule = LabelRule.bug_counts()
    raw = synth.make_corpus(SYNTH_PROJECTS, seed=seed, versions=3, rows=rows)
    return {name: [binarize(v, rule) for v in versions]
            for name, versions in raw.items()}


def print_head_to_head(results, learners, projects):
    values = {(r.project, r.learner, r.score): r.value
              for r in results if r.attribute_set == "full"}
    for fn in (score_function("d2h"), score_function("popt")):
        arrow = "higher" if fn.higher_is_better else "lower"
        print(f"\n{fn.kind} ({arrow} is better), full attributes:")
        for other in learners:
            if other == "fft":
                continue
            scored = [p for p in projects
                      if (p, "fft", fn.kind) in values
                      and (p, other, fn.kind) in values]
            wins = sum(1 for p in scored
                       if fn.better(values[(p, "fft", fn.kind)],
                                    values[(p, other, fn.kind)]))
            print(f"  trees vs {other}: better on {wins}/{len(scored)} "
                  "projects")


def print_drift(results):
    drift = rig.attribute_set_deltas(results)
    if not drift:
        return
    print("\npruning drift, median |full - top25| per learner:")
    for kind in ("dis2heaven", "popt"):
        parts = []
        for learner in sorted({row.learner for row in drift}):
            gaps = [abs(row.delta) for row in drift
                    if row.learner == learner and row.score == kind]
            if gaps:
                parts.append(f"{learner} {np.median(gaps):.4f}")
        if parts:
            print(f"  {kind:<11} " + "  ".join(parts))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data-dir",
                    default=os.environ.get("FRUGAL_DATA_DIR",
                                           "data/jureczko"),
                    help="directory holding <project>-<version>.csv files")
    ap.add_argument("--synthetic", action="store_true",
                    help="skip data discovery and use the seeded corpus")
    ap.add_argument("--out-dir", default="reports/defect")
    ap.add_argument("--learners", default="fft,nb,sl",
                    help="comma-separated subset of fft,nb,sl")
    ap.add_argument("--depth", type=int, default=4)
    ap.add_argument("--label", default="bug")
    ap.add_argument("--effort", default="loc")
    ap.add_argument("--seed", type=int, default=7,
                    help="synthetic corpus seed")
    ap.add_argument("--rows", type=int, default=90,
                    help="synthetic rows in the oldest release")
    args = ap.parse_args(argv)

    if args.synthetic:
        projects = synthetic_projects(args.seed, args.rows)
        print(f"synthetic corpus: {len(projects)} projects, seed {args.seed}")
    else:
        catalog = discover(Path(args.data_dir))
        if not catalog:
            print(f"no project CSVs under {args.data_dir!r}; pass --data-dir "
                  "or rerun with --synthetic", file=sys.stderr)
            return 2
        projects = load_projects(catalog, args.label, args.effort)
        print(f"loaded {len(projects)} projects from {args.data_dir}:")
        for name, versions in projects.items():
            sizes = "+".join(str(len(v)) for v in versions)
            print(f"  {name}: {len(versions)} releases ({sizes} rows)")

    learners = tuple(part.strip() for part in args.learners.split(",")
                     if part.strip())
    config = rig.RigConfig(learners=learners, scores=("d2h", "popt"),
                           attribute_sets=("full", "top25"),
                           depth=args.depth, mode="version")
    result = rig.run(projects, config)
    paths = rig.write_reports(result, args.out_dir)

    print(f"\n{len(result.results)} results; reports:")
    for key in sorted(paths):
        print(f"  {paths[key]}")
    print_head_to_head(result.results, learners, projects)
    print_drift(result.results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
