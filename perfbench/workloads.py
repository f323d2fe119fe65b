"""The benchmark's workloads: seeded inputs, the CLI commands of one pass,
and the output digest that checks a pass.

Every workload drives ``frugal.cli.main`` in-process.  ``prepare`` writes
the inputs for a seed into a directory and returns the pass's argument
lists; a pass runs them in order.  ``digest`` hashes what a pass produced,
and ``check`` makes a structural sanity check that holds for any seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from frugal import cli, synth
from frugal.dataset import save_csv

RIG_REPORTS = ("results.csv", "results.json", "policy_histogram.csv",
               "comparison.csv", "deltas.csv")


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[Path, int], list[list[str]]]
    digest: Callable[[Path, list[str]], str]
    check: Callable[[Path, list[str]], str | None]   # None: output is sane


def _save_versions(versions, out_dir: Path) -> list[str]:
    """Write each version as ``<project>-<version>.csv``; file names are
    seed-free so the digests depend only on content."""
    names = []
    for ds in versions:
        path = out_dir / f"{ds.name}.csv"
        save_csv(ds, path)
        names.append(path.name)
    return names


def _rig_prepare(projects: dict, settings: dict, out_dir: Path,
                 seed: int) -> list[list[str]]:
    config = {"projects": {name: _save_versions(versions, out_dir)
                           for name, versions in projects.items()},
              "learners": ["fft", "nb", "sl"], "scores": ["d2h", "popt"],
              "depth": 4, "effort": "loc", "seed": seed, **settings}
    config_path = out_dir / "rig.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True))
    return [["rig", "--config", str(config_path),
             "--out-dir", str(out_dir / "reports")]]


def _rig_digest(out_dir: Path, stdouts: list[str]) -> str:
    h = hashlib.sha256()
    for name in RIG_REPORTS:
        h.update(name.encode() + b"\0")
        h.update((out_dir / "reports" / name).read_bytes() + b"\0")
    return h.hexdigest()


def _rig_check(cells: int) -> Callable[[Path, list[str]], str | None]:
    def check(out_dir: Path, stdouts: list[str]) -> str | None:
        lines = (out_dir / "reports" / "results.csv").read_text().splitlines()
        if len(lines) != cells + 1:
            return f"results.csv has {len(lines) - 1} cells, expected {cells}"
        return None
    return check


def rig_version(rows: int = 600) -> Workload:
    """``frugal rig`` in version mode on 4 projects x 3 releases."""
    def prepare(out_dir: Path, seed: int) -> list[list[str]]:
        return _rig_prepare(synth.make_corpus(seed=seed, rows=rows),
                            {"mode": "version",
                             "attribute_sets": ["full", "top25"]},
                            out_dir, seed)
    return Workload("rig-version", prepare, _rig_digest, _rig_check(48))


def rig_cv(rows: int = 150, bins: int = 5, repeats: int = 2) -> Workload:
    """``frugal rig`` in cv mode on one project's merged releases."""
    def prepare(out_dir: Path, seed: int) -> list[list[str]]:
        return _rig_prepare(
            synth.make_corpus(names=("ant",), seed=seed, rows=rows),
            {"mode": "cv", "attribute_sets": ["full"], "bins": bins,
             "repeats": repeats},
            out_dir, seed)
    return Workload("rig-cv", prepare, _rig_digest,
                    _rig_check(bins * repeats * 2 * 3))


def cli_score(rows: int = 20000) -> Workload:
    """``changefreq`` over three releases, then ``eval --model`` on the
    newest with a tree fitted on the oldest during set-up."""
    def prepare(out_dir: Path, seed: int) -> list[list[str]]:
        versions = synth.make_corpus(names=("ant",), seed=seed,
                                     rows=rows)["ant"]
        paths = [str(out_dir / name)
                 for name in _save_versions(versions, out_dir)]
        model = str(out_dir / "model.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["fit", paths[0], "--effort", "loc",
                             "--out", model])
        if code != 0:
            raise RuntimeError(f"frugal fit exited {code} during set-up")
        return [["changefreq", *paths, "--format", "json"],
                ["eval", paths[-1], "--model", model, "--effort", "loc",
                 "--format", "json"]]

    def digest(out_dir: Path, stdouts: list[str]) -> str:
        return hashlib.sha256("".join(stdouts).encode()).hexdigest()

    def check(out_dir: Path, stdouts: list[str]) -> str | None:
        changes, report = (json.loads(text) for text in stdouts)
        expected = int(rows * 1.4)
        if report["test"]["rows"] != expected:
            return f"eval scored {report['test']['rows']} rows, " \
                   f"expected {expected}"
        if len(changes) != len(synth.ATTRIBUTES):
            return f"changefreq reported {len(changes)} attributes"
        return None

    return Workload("cli-score", prepare, digest, check)


def default_workloads() -> dict[str, Workload]:
    return {w.name: w for w in (rig_version(), rig_cv(), cli_score())}


def run_pass(commands: list[list[str]]) -> tuple[int, list[str]]:
    """Run a pass's commands through ``cli.main``; returns the first
    non-zero exit code (or 0) and each command's standard output."""
    stdouts = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        stdouts.append(buf.getvalue())
        if code != 0:
            return code, stdouts
    return 0, stdouts
