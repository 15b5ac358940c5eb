"""Alternating parent/change pairs of the benchmark, written to BENCH_<pr>.json.

    python3 tools/pairs.py --pr N [--parent REV] [--pairs 10] [--first-seed S]
                           [--workload W ...] [--seconds 25] [--scratch DIR]

The change is the repository's working tree, uncommitted edits included; the
parent (default HEAD, so run it before committing, or pass --parent HEAD~1;
a clean tree is never compared with its own HEAD) is checked out with
``git worktree add`` under a fresh directory inside --scratch and removed
again at exit.  For each workload, pair i runs both trees' own
``perfbench/run.py --trace 0`` on seed first-seed + i, the parent first in
odd pairs (1, 3, ...) and the change first in even ones.  Runs go one at a
time; nothing is pinned and no cache is dropped.

BENCH_<pr>.json, at the root of the working tree, holds per workload the
seeds, every run's ``correct`` and, per end-to-end metric, the parent's
median and quartiles, the change's median, each run's value, how many pairs
the change won (ties count for neither side), its relative move, the
parent's quartile spread relative to its median, and the bound from
BENCHMARK.json, plus one host line.  A metric is ``unresolved`` when that
spread exceeds its bound: such a run cannot show the metric unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """One untraced benchmark run of ``tree``: (its last JSON line, its '#' header
    line), or ({"correct": False, "error": ...}, "") when it fails."""
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", f"{seconds:g}", "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    header = next((ln for ln in lines if ln.startswith(f"# {workload} ")), "")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "error": f"exit {proc.returncode}: {tail}"}, header
    return result, header


def summarize(parent: list[dict], change: list[dict], bounds: dict[str, dict]) -> dict:
    """Per-metric statistics of one workload's pairs (parent[i], change[i])."""
    out = {}
    names = dict.fromkeys(m for run in parent + change for m in run.get("metrics", {}))
    for name in names:
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)
                 if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        if not pairs:
            continue
        before, after = np.array(pairs, dtype=float).T
        q1, median, q3 = map(float, np.percentile(before, [25, 50, 75]))
        new = float(np.median(after))
        sign = -1.0 if bounds.get(name, {}).get("better", "lower") == "higher" else 1.0
        bound = bounds.get(name, {}).get("bound")
        move = new / median - 1.0 if median else None
        spread = (q3 - q1) / abs(median) if median else None
        out[name] = {
            "unit": next(r["metrics"][name]["unit"] for r in parent + change
                         if name in r.get("metrics", {})),
            "better": "higher" if sign < 0 else "lower",
            "pairs": len(pairs),
            "parent_median": median, "parent_q1": q1, "parent_q3": q3,
            "change_median": new,
            "change_wins": int(np.sum(sign * after < sign * before)),
            "change_rel": move,
            "parent_iqr_rel": spread,
            "bound": bound,
            "worse_than_bound": None if None in (bound, move) else sign * move > bound,
            "unresolved": None if None in (bound, spread) else spread > bound,
            "parent": before.tolist(), "change": after.tolist(),
        }
    return out


def host_line(header: str) -> str:
    """Python, CPU count and BLAS threads as a run's '#' header reports them
    (after its ``passes=N``), and numpy's version."""
    reported = header.partition(" passes=")[2].partition(" ")[2]
    return (f"{reported or f'python={platform.python_version()} nproc={os.cpu_count()}'} "
            f"numpy={np.__version__}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload of BENCHMARK.json")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--scratch", default=tempfile.gettempdir(),
                        help="directory to hold the parent's worktree")
    parser.add_argument("--repo", default=str(Path(__file__).resolve().parent.parent),
                        help="the repository whose working tree is the change")
    args = parser.parse_args(argv)
    repo = Path(args.repo).resolve()
    bench = json.loads((repo / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench.get("end_to_end", [])}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    parent_rev = git(repo, "rev-parse", "--verify", f"{args.parent}^{{commit}}")
    dirty = bool(git(repo, "status", "--porcelain"))
    head = git(repo, "rev-parse", "HEAD")
    if parent_rev == head and not dirty:
        parser.error(f"--parent {args.parent} is HEAD and the working tree is clean, so both "
                     f"sides would be the same tree; pass the parent's revision")

    holder = Path(tempfile.mkdtemp(prefix="pairs-", dir=Path(args.scratch).resolve()))
    parent_tree = holder / "parent"
    git(repo, "worktree", "add", "--detach", str(parent_tree), parent_rev)
    report = {"pr": args.pr, "parent": parent_rev,
              "change": head + (" with uncommitted changes" if dirty else ""),
              "seconds": args.seconds, "host": "", "workloads": {}}
    header = ""
    try:
        for workload in workloads:
            seeds = [args.first_seed + i for i in range(args.pairs)]
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    res, line = run_once(parent_tree if side == "parent" else repo,
                                         workload, seed, args.seconds)
                    runs[side].append(res)
                    header = header or line
                    print(f"pairs: {workload} seed {seed} {side}: "
                          f"{res.get('error') or 'correct=' + str(res['correct'])}",
                          file=sys.stderr, flush=True)
            report["workloads"][workload] = {
                "seeds": seeds,
                "correct": {side: [bool(r["correct"]) for r in rs] for side, rs in runs.items()},
                "metrics": summarize(runs["parent"], runs["change"], bounds),
            }
    finally:
        subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force",
                        str(parent_tree)], capture_output=True)
        subprocess.run(["git", "-C", str(repo), "worktree", "prune"], capture_output=True)
        shutil.rmtree(holder, ignore_errors=True)
    report["host"] = host_line(header)
    out = repo / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"pairs: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
