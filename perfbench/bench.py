"""One benchmark run: set up a workload, warm up, time passes, check them.

Untraced runs report the end-to-end metrics.  Traced runs alternate traced
and untraced passes after the warm-up and report the per-layer metrics, plus
the tracing overhead as the difference of the two pass-time medians.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer
from workloads import Workload, default_workloads, run_pass

SETUP_REPEATS = 3
CATALOG = Path(__file__).resolve().parent / "workloads.json"


def catalog() -> dict:
    """Default seed, reference digests and the layer mapping per workload."""
    return json.loads(CATALOG.read_text())


def reference_digest(workload: str, seed: int) -> str | None:
    """The stored digest for the default seed, else None."""
    data = catalog()
    if seed != data["default_seed"]:
        return None
    return data["workloads"][workload]["digest"]


@dataclass
class Checker:
    """Counts passes and failures.  A pass fails if it raises, exits
    non-zero, fails the workload's sanity check, or its digest differs from
    the reference (the stored one, else the first pass of the run)."""
    workload: Workload
    commands: list[list[str]]
    work: Path
    reference: str | None
    attempted: int = 0
    failed: int = 0
    digests: list[str] = field(default_factory=list)

    def timed_pass(self) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            code, stdouts = run_pass(self.commands)
        except Exception:      # a crashing pass is counted, not fatal
            code, stdouts = None, []
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        problem = self._problem(code, stdouts)
        if problem is not None:
            self.failed += 1
            print(f"pass {self.attempted} of {self.workload.name} failed: "
                  f"{problem}", file=sys.stderr)
        return elapsed

    def _problem(self, code: int | None, stdouts: list[str]) -> str | None:
        if code is None:
            return "raised"
        if code != 0:
            return f"exit code {code}"
        try:
            problem = self.workload.check(self.work, stdouts)
            digest = self.workload.digest(self.work, stdouts)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"output unreadable: {exc!r}"
        if problem is not None:
            return problem
        self.digests.append(digest)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            return f"digest {digest} differs from {self.reference}"
        return None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cpu_probe_ms() -> float:
    """Wall time of a fixed pure-Python loop.  On a shared host it shows how
    fast this process was running, which the load average does not."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return (time.perf_counter() - start) * 1000


def environment(start: dict) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), **start,
            "loadavg_1m_end": os.getloadavg()[0],
            "cpu_probe_ms_end": cpu_probe_ms()}


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path, reference: str | None) -> dict:
    """Run one workload; returns the result line's fields plus details."""
    env_start = {"loadavg_1m_start": os.getloadavg()[0],
                 "cpu_probe_ms_start": cpu_probe_ms()}
    work.mkdir(parents=True, exist_ok=False)
    origin = time.perf_counter()
    prep_times = []
    for i in range(1 if trace else SETUP_REPEATS):
        prep_dir = work / f"prep{i}"
        prep_dir.mkdir()
        start = time.perf_counter()
        commands = workload.prepare(prep_dir, seed)
        prep_times.append(time.perf_counter() - start)
        if i > 0:
            shutil.rmtree(work / f"prep{i - 1}")
    checker = Checker(workload, commands, prep_dir, reference)
    warmup_s = checker.timed_pass()
    setup_s = statistics.median(prep_times) + warmup_s

    if trace:
        details = _traced_passes(checker, seconds, origin)
    else:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(checker.timed_pass())
        q1, median, q3 = _quartiles(passes)
        details = {"passes_s": passes, "pass_q1_s": q1, "pass_q3_s": q3,
                   "metrics": {
                       "setup_s": {"value": setup_s, "unit": "s"},
                       "pass_s": {"value": median, "unit": "s"},
                       "peak_rss_mb": {
                           "value": resource.getrusage(
                               resource.RUSAGE_SELF).ru_maxrss / 1024,
                           "unit": "MB"}}}
    correct = checker.failed == 0 and details.get("bindings_restored", True)
    return {"correct": correct, "attempted": checker.attempted,
            "failed": checker.failed,
            "error_rate": checker.failed / checker.attempted,
            "setup_s": setup_s, "prep_s": prep_times, "warmup_s": warmup_s,
            "digests": sorted(set(checker.digests)),
            "reference": checker.reference,
            "environment": environment(env_start), **details}


def _traced_passes(checker: Checker, seconds: float, origin: float) -> dict:
    t = tracer.Tracer()
    before = tracer.bindings()
    traced, untraced, stats = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t.install()
        try:
            traced.append(checker.timed_pass())
        finally:
            stats.append(t.remove())
        untraced.append(checker.timed_pass())
    restored = tracer.same_bindings(before, tracer.bindings())
    first = stats[0]
    repeatable = all(s.counters() == first.counters() for s in stats)
    if not repeatable:
        print("warning: traced passes disagree on call counts",
              file=sys.stderr)
    metrics = {}
    for name in tracer.NAMES:
        metrics[f"{name}.calls"] = {"value": first.calls[name],
                                    "unit": "count"}
        metrics[f"{name}.self_s"] = {
            "value": statistics.median(s.self_s[name] for s in stats),
            "unit": "s"}
    for name in tracer.ROWS:
        metrics[f"{name}.rows"] = {"value": first.rows[name], "unit": "rows"}
    metrics["fft.score_range.distinct_ratio"] = {
        "value": first.distinct_ratio, "unit": "ratio"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(untraced),
        "unit": "s"}
    return {"traced_passes_s": traced, "untraced_passes_s": untraced,
            "bindings_restored": restored, "counters_repeat": repeatable,
            "counters": first.counters(), "pass_stats": stats,
            "origin": origin, "metrics": metrics}


def write_spans(path: Path, stats: list, origin: float):
    """Spans of every traced pass as tab-separated lines, times in seconds
    from the start of the run."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("pass\tspan\tparent\tname\tstart_s\tend_s\n")
        for n, s in enumerate(stats):
            for span, parent, index, start, end in sorted(s.spans):
                fh.write(f"{n}\t{span}\t{parent}\t{tracer.NAMES[index]}\t"
                         f"{start - origin:.9f}\t{end - origin:.9f}\n")


WORKLOADS = default_workloads()
