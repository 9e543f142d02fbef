"""Run one strokegen benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout. The last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of BENCHMARK.json,
measured with tracing off; with ``--trace 1`` they are the ``per_layer``
list, from a run that also writes its spans to ``.perfbench/``. The line
before the result records the BLAS thread count, numpy and Python versions,
processor count, git sha and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

# One BLAS thread: the full-scale step runs no faster on two (measured on a
# 2-core box), run-to-run spread is lower, and seeded checkpoints are
# byte-identical only at equal thread counts.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_blas_threads() -> int:
    """Pin BLAS threads (at most the usable processor count) before numpy loads."""
    threads = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for name in BLAS_ENV:
        os.environ[name] = str(threads)
    return threads


def git_sha() -> str:
    """HEAD of the checkout, read without starting git; "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric_units(kind: str) -> dict[str, str]:
    with open(SPEC) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "strokegen" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a strokegen checkout; no package under {SRC} "
              f"or no {SPEC.name}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy
    import strokegen
    import workloads

    if Path(strokegen.__file__).resolve().parent != SRC / "strokegen":
        print(f"error: strokegen imported from {strokegen.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": threads,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "run_id": f"{args.workload}-s{args.seed}-{os.getpid()}-{int(time.time())}",
    }
    kind = "per_layer" if args.trace else "end_to_end"
    trace_path = (TRACE_DIR / f"trace-{args.workload}-s{args.seed}.jsonl.gz"
                  if args.trace else None)
    result = workloads.run(args.workload, args.seed, args.seconds,
                           workloads.BENCH,
                           trace_path=trace_path, env=env)
    units = metric_units(kind)
    missing = sorted(set(units) - set(result.metrics))
    extra = sorted(set(result.metrics) - set(units))
    if result.correct and (missing or extra):
        print(f"error: metrics differ from BENCHMARK.json {kind}: "
              f"missing {missing}, unexpected {extra}", file=sys.stderr)
        return 1
    for failure in result.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items() if name in result.metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
