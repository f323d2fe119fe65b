"""Benchmark of the frugal CLI.

    python3 perfbench/run.py --workload rig-version --seed 7 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Each workload drives ``frugal.cli.main`` in-process, single-threaded, on
inputs generated from ``--seed`` (see ``workloads.json`` for why each
workload exists and which layer metrics it should move).  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  The last
line of standard output is the result as one JSON object; the full report
goes to ``.perfbench-run/results/`` and traced spans to
``.perfbench-run/traces/``.  ``--workload all`` runs every workload, each
in its own process.
"""

import os

# BLAS/OpenMP pools must be pinned before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-run"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="rig-version, rig-cv, cli-score or all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _summary(name: str, args, result: dict) -> list[str]:
    env = result["environment"]
    m = result["metrics"]
    lines = [f"workload {name}  seed {args.seed}  trace {args.trace}"]
    if args.trace:
        lines.append(f"  traced passes {len(result['traced_passes_s'])}, "
                     f"overhead {m['trace.overhead_s']['value']:.3f} s, "
                     f"bindings restored {result['bindings_restored']}, "
                     f"counters repeat {result['counters_repeat']}")
    else:
        lines += [
            f"  setup_s      {m['setup_s']['value']:.4f} s  (median input "
            f"preparation of {len(result['prep_s'])} + warm-up pass "
            f"{result['warmup_s']:.4f} s)",
            f"  pass_s       {m['pass_s']['value']:.4f} s  (q1 "
            f"{result['pass_q1_s']:.4f} s, q3 {result['pass_q3_s']:.4f} s, "
            f"{len(result['passes_s'])} passes)",
            f"  peak_rss_mb  {m['peak_rss_mb']['value']:.1f} MB"]
    lines += [
        f"  error_rate   {result['error_rate']:.4f} ratio  "
        f"({result['failed']} of {result['attempted']} passes failed)",
        f"  digest       {', '.join(result['digests']) or 'none'}",
        f"  environment  python {env['python']}, numpy {env['numpy']}, "
        f"nproc {env['nproc']}, loadavg 1m {env['loadavg_1m_start']:.2f} -> "
        f"{env['loadavg_1m_end']:.2f}, cpu probe "
        f"{env['cpu_probe_ms_start']:.1f} -> {env['cpu_probe_ms_end']:.1f} ms"]
    return lines


def run_all(args) -> int:
    status = 0
    for name in ("rig-version", "rig-cv", "cli-score"):
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], check=False)
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "frugal" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'frugal'} not found; run the "
              "benchmark from the root of a frugal checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import bench    # imports frugal, so it must follow the path set-up

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    try:
        result = bench.measure(workload, args.seed, args.seconds,
                               bool(args.trace), work,
                               bench.reference_digest(args.workload,
                                                      args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        bench.write_spans(OUT / "traces" / f"{tag}.spans.tsv",
                          result.pop("pass_stats"), result.pop("origin"))
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n")
    print("\n".join(_summary(args.workload, args, result)))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
