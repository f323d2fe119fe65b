"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Runs each workload once untraced and twice traced, and checks that every
declared metric is emitted with its unit, that digests gate the passes,
that traced counters repeat exactly, and that tracing leaves frugal's
functions as it found them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench       # noqa: E402  (needs src on the path)
import tracer      # noqa: E402
import workloads   # noqa: E402

TINY = {"rig-version": workloads.rig_version(rows=40),
        "rig-cv": workloads.rig_cv(rows=20, bins=3, repeats=1),
        "cli-score": workloads.cli_score(rows=200)}
SEED = 3

# Calls that only an aliased binding reaches (rig.grow, fft.popt, ...),
# so a wrapper installed on the defining module alone would read zero.
CALLED = {"rig-version": ("fft.grow", "metrics.popt", "metrics.a12",
                          "operational.top_changed",
                          "baselines.nb_score_dataset", "rig.write_reports"),
          "rig-cv": ("fft.score_range", "metrics.mann_whitney",
                     "dataset.Dataset.subset", "rig.cross_val_splits",
                     "metrics.Confusion.from_predictions"),
          "cli-score": ("dataset.load_csv", "metrics.a12",
                        "fft.rank_for_popt", "metrics.recall_at_20")}


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture
def work():
    path = ROOT / ".perfbench-run" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(bench.WORKLOADS) == list(TINY)
    assert list(bench.catalog()["workloads"]) == names


@pytest.mark.parametrize("name", TINY)
def test_untraced_run_reports_end_to_end_metrics(name, work):
    result = bench.measure(TINY[name], SEED, 0.0, False, work / "run", None)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2          # warm-up plus one timed pass
    assert units(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(result["digests"]) == 1
    assert not (work / "run" / "prep1").exists()


@pytest.mark.parametrize("name", TINY)
def test_stored_digest_gates_default_seed(name):
    seed = bench.catalog()["default_seed"]
    digest = bench.reference_digest(name, seed)
    assert isinstance(digest, str) and len(digest) == 64
    assert bench.reference_digest(name, seed + 1) is None


def test_digest_mismatch_fails_every_pass(work):
    result = bench.measure(TINY["cli-score"], SEED, 0.0, False, work / "run",
                           "0" * 64)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2


def test_unreadable_output_fails_the_pass(work):
    tiny = TINY["cli-score"]
    garbled = workloads.Workload(tiny.name, tiny.prepare, tiny.digest,
                                 lambda out_dir, stdouts: json.loads("{"))
    result = bench.measure(garbled, SEED, 0.0, False, work / "run", None)
    assert result["failed"] == result["attempted"] == 2


@pytest.mark.parametrize("name", TINY)
def test_traced_runs_repeat_counters_and_restore_bindings(name, work):
    before = tracer.bindings()
    first = bench.measure(TINY[name], SEED, 0.0, True, work / "a", None)
    second = bench.measure(TINY[name], SEED, 0.0, True, work / "b", None)
    assert tracer.same_bindings(before, tracer.bindings())
    assert first["bindings_restored"] and first["correct"]
    assert units(first) == declared("per_layer")
    assert first["counters"] == second["counters"]
    ratio = "fft.score_range.distinct_ratio"
    assert first["metrics"][ratio] == second["metrics"][ratio]
    for layer in CALLED[name]:
        assert first["metrics"][f"{layer}.calls"]["value"] > 0, layer
    spans = first["pass_stats"][0].spans
    assert len(spans) == sum(first["counters"]["calls"].values())


def test_cli_score_bypasses_training(work):
    result = bench.measure(TINY["cli-score"], SEED, 0.0, True, work / "run",
                           None)
    calls = result["counters"]["calls"]
    assert calls["fft.grow"] == calls["fft.score_range"] == 0
    assert result["metrics"]["fft.score_range.distinct_ratio"]["value"] == 1.0


def test_run_exits_nonzero_without_the_program(work):
    bare = work / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-score",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
