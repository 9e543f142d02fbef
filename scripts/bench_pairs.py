"""Alternate benchmark runs between a parent commit and the working tree.

    python3 scripts/bench_pairs.py --label pr6 --parent HEAD --seed 301

For each workload of BENCHMARK.json (or the subset ``--workload`` names) and
pair i, ``perfbench/run.py --seed <seed + i>`` runs untraced for the
benchmark's ``run_seconds``, once on the parent and once on the working tree,
each from its own checkout, with the side that runs first alternating
between pairs. Both sides run the same way, from a ``git archive`` export in
a temporary directory: the parent's committed files, and a snapshot of the
working tree, its tracked files as they are now plus its untracked files
that are not ignored. The snapshot is a git tree written through a temporary
index, so neither the real index nor any ref changes. No run sees the
working tree's ``.git``, caches or ignored files. Runs are serial. On a
clean working tree ``--parent HEAD`` runs HEAD's tree on both sides, each
from its own export: an A/A run that measures the benchmark's noise floor
(its report's ``change_tree`` is the parent's tree).

Writes ``BENCH_<label>.json`` at the repository root: for every end-to-end
metric of BENCHMARK.json and each side, the per-run values, median and
quartiles; the per-pair ratio change/parent with its median, quartiles and
range (paired ratios cancel host drift between pairs, separate medians do
not); the number of pairs the working tree won (ties count for neither
side); whether a claimed gain is met (``gain_met``: the change wins at least
9 in 10 pairs and its median beats the parent's by more than the parent's
q3 - q1) and whether the change regressed (``regressed``: its median is
worse than the parent's by more than the metric's bound times the parent's
median); the ``# env`` line of every run; failed-check counts; both
commit shas (the working tree's as HEAD plus a flag for uncommitted changes)
and the id of the snapshot tree that the change side ran.
Exits 1 after writing the file when any run crashed or failed a check, and
lists each such (workload, side, seed) on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(("git", *args), cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_commit(ref: str, dest: Path):
    """Extract the files of the commit or tree ``ref`` into ``dest``."""
    archive = subprocess.run(("git", "archive", "--format=tar", ref), cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(("tar", "-x", "-C", str(dest)), input=archive, check=True)


def snapshot_tree() -> str:
    """The id of a git tree holding the working tree's tracked files as they
    are now and its untracked files that are not ignored."""
    with tempfile.TemporaryDirectory(prefix="bench-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        subprocess.run(("git", "add", "-A"), cwd=ROOT, env=env, check=True,
                       capture_output=True)
        return subprocess.run(("git", "write-tree"), cwd=ROOT, env=env,
                              check=True, capture_output=True,
                              text=True).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its env line, result line and wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": None,
                  "metrics": {}}
    if proc.returncode != 0 or not result["correct"]:
        print(f"  {workload} seed {seed} in {checkout}: exit "
              f"{proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
    return {"seed": seed, "exit": proc.returncode, "wall_s": round(wall, 2),
            "env": env, "correct": result["correct"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict[str, list[dict]], spec: list[dict]) -> dict:
    """Per metric: each side's runs, median and quartiles, the per-pair
    ratio change/parent, change wins, and whether a gain is met and whether
    the change regressed."""
    out = {}
    for m in spec:
        name = m["name"]
        pairs = [(p["metrics"].get(name), c["metrics"].get(name))
                 for p, c in zip(runs["parent"], runs["change"])]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        sign = 1 if m["better"] == "higher" else -1
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        ratios = [c / p for p, c in pairs if p != 0]
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        before, after = quartiles(parent), quartiles(change)
        gain = sign * (after["median"] - before["median"])
        bound = m.get("bound")
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": bound,
            "parent": {**before, "runs": parent},
            "change": {**after, "runs": change},
            "ratio": {**quartiles(ratios), "min": min(ratios),
                      "max": max(ratios), "runs": ratios} if ratios else None,
            "change_wins": wins,
            "ties": sum(c == p for p, c in pairs),
            "pairs": len(pairs),
            "gain_met": (10 * wins >= 9 * len(pairs)
                         and gain > before["q3"] - before["q1"]),
            "regressed": (None if bound is None
                          else -gain > bound * abs(before["median"])),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent", default="HEAD",
                    help="commit to compare the working tree against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True,
                    help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--workload", nargs="+",
                    help="run only these workloads (default: all of them)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be >= 1, got {args.pairs}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; BENCHMARK.json has {names}")
    seconds = spec["run_seconds"]
    parent_sha = git("rev-parse", args.parent)
    change_sha = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    change_tree = snapshot_tree()
    report = {
        "label": args.label,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g}",
        "parent_sha": parent_sha,
        "change_sha": change_sha,
        "change_tree": change_tree,
        "change_has_uncommitted_changes": dirty,
        "pairs": args.pairs,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "order": "pair i runs the parent first when i is even",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change_dir:
        sides = {"parent": Path(parent_dir), "change": Path(change_dir)}
        export_commit(parent_sha, sides["parent"])
        export_commit(change_tree, sides["change"])
        for workload in workloads:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change",
                                                                  "parent")
                for side in order:
                    run = run_once(sides[side], workload, seed, seconds)
                    runs[side].append(run)
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          + json.dumps(run["metrics"]), flush=True)
            report["workloads"][workload] = {
                "metrics": summarize(runs, spec["end_to_end"]),
                "failed": {side: [r["failed"] for r in rs]
                           for side, rs in runs.items()},
                "runs": runs,
            }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for workload, data in report["workloads"].items():
        for name, m in data["metrics"].items():
            print(ratio_line(workload, name, m))
    print(f"wrote {path}")
    failing = failed_runs(report)
    for workload, side, seed in failing:
        print(f"failed: {workload} {side} seed {seed}", file=sys.stderr)
    return 1 if failing else 0


def ratio_line(workload: str, name: str, m: dict) -> str:
    """One metric's medians, paired ratio, change wins and the gain and
    regression verdicts, as one line."""
    r = m["ratio"]
    ratio = ("no ratio" if r is None else
             f"ratio {r['median']:.3f} [{r['q1']:.3f}, {r['q3']:.3f}] "
             f"range {r['min']:.3f}-{r['max']:.3f}")
    verdict = {True: "yes", False: "no", None: "no bound"}
    return (f"{workload} {name}: parent {m['parent']['median']:.4g}, change "
            f"{m['change']['median']:.4g}, {ratio}, change wins "
            f"{m['change_wins']}/{m['pairs']}, gain met "
            f"{verdict[m['gain_met']]}, regressed {verdict[m['regressed']]}")


def failed_runs(report: dict) -> list[tuple[str, str, int]]:
    """(workload, side, seed) of every run that crashed or failed a check."""
    return [(workload, side, run["seed"])
            for workload, data in report["workloads"].items()
            for side, runs in data["runs"].items() for run in runs
            if run["exit"] != 0 or not run["correct"]]


if __name__ == "__main__":
    sys.exit(main())
