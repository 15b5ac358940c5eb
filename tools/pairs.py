"""Alternating parent/change pairs of the benchmark, written to BENCH_<pr>.json.

    python3 tools/pairs.py --pr N [--parent REV] [--pairs 10] [--first-seed S]
                           [--workload W ...] [--seconds 25] [--scratch DIR]
                           [--ops KIND ...]

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

With ``--ops KIND ...`` the runs are per op instead, for each named library
workload (lib-spectra, lib-integrals).  Round i starts one child process per
tree, in the same alternating order on seed first-seed + i.  A child imports
its own tree's ``perfbench/ops.py`` and ``src/fourierkit``, builds the
workload's op list for the seed, runs every op of the named kinds once as a
warm-up checked by each op's own oracle, then times each kind, all of its
ops in list order, best of OPS_BEST_OF.  The ``ops`` section of
BENCH_<pr>.json then holds per workload and kind the per-round bests, their
medians, how many rounds the change won, the ratio of the change's median to
the parent's, each round's ``correct``, and whether the two trees' warm-up
results pickled to the same bytes in each round (``same_bits``).

Every workload section of either mode records the ``tree`` it measured:
HEAD, plus a digest of the uncommitted changes under src/ and perfbench/
(untracked files included), the code the runs execute.  A run keeps the
sections of an existing BENCH_<pr>.json that have the same parent and the
same tree as its own, and drops the others.
"""

from __future__ import annotations

import argparse
import hashlib
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


def tree_of(repo: Path) -> str:
    """HEAD, plus a digest of the uncommitted changes under src/ and perfbench/."""
    head = git(repo, "rev-parse", "HEAD")
    diff = subprocess.run(["git", "-C", str(repo), "diff", "HEAD", "--binary", "--", "src",
                           "perfbench"], check=True, capture_output=True).stdout
    untracked = sorted(filter(None, git(repo, "ls-files", "--others", "--exclude-standard",
                                        "-z", "--", "src", "perfbench").split("\0")))
    if not diff and not untracked:
        return head
    digest = hashlib.sha256(diff)
    for name in untracked:
        digest.update(name.encode() + b"\0" + (repo / name).read_bytes())
    return f"{head}+{digest.hexdigest()[:16]}"


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


OPS_BEST_OF = 5

# The child of one tree in --ops mode: argv is tree, workload, seed, best-of and
# kinds; it prints {kind: {"best_s": seconds, "error": null or the first failure,
# "sha256": digest of the pickled warm-up results}}.
_OPS_CHILD = r"""
import hashlib, json, pickle, sys, time
from pathlib import Path
tree, workload, seed, best_of, kinds = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), \
    int(sys.argv[4]), sys.argv[5:]
sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
import ops
build = {"lib-spectra": "spectra_ops", "lib-integrals": "integrals_ops"}[workload]
listed = getattr(ops, build)(seed)
out = {}
for kind in kinds:
    chosen = [op for op in listed if op.kind == kind]
    if not chosen:
        out[kind] = {"best_s": None, "error": f"no op of kind {kind}", "sha256": None}
        continue
    values = [op.run() for op in chosen]
    error = next((e for e in (op.check(v) for op, v in zip(chosen, values)) if e), None)
    digest = hashlib.sha256(pickle.dumps(values)).hexdigest()
    del values
    best = float("inf")
    for _ in range(best_of):
        start = time.perf_counter()
        for op in chosen:
            op.run()
        best = min(best, time.perf_counter() - start)
    out[kind] = {"best_s": best, "error": error, "sha256": digest}
print(json.dumps(out))
"""


def run_ops(tree: Path, workload: str, seed: int, kinds: list[str]) -> dict:
    """One --ops child of ``tree``: {kind: {"best_s", "error", "sha256"}}, each kind
    failed with the child's last stderr line when the child fails."""
    proc = subprocess.run([sys.executable, "-c", _OPS_CHILD, str(tree), workload, str(seed),
                           str(OPS_BEST_OF), *kinds], cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {kind: {"best_s": None, "error": f"exit {proc.returncode}: {tail}", "sha256": None}
                for kind in kinds}


def summarize_ops(parent: list[dict], change: list[dict], kinds: list[str]) -> dict:
    """Per-kind statistics of one workload's rounds (parent[i], change[i])."""
    out = {}
    for kind in kinds:
        runs = {"parent": [r[kind] for r in parent], "change": [r[kind] for r in change]}
        best = {side: [r["best_s"] for r in rs] for side, rs in runs.items()}
        timed = [(p, c) for p, c in zip(best["parent"], best["change"])
                 if p is not None and c is not None]
        before, after = np.array(timed, dtype=float).reshape(-1, 2).T
        median, new = (float(np.median(before)), float(np.median(after))) if timed else (None,) * 2
        out[kind] = {
            "rounds": len(timed), "best_of": OPS_BEST_OF,
            "parent_median_s": median, "change_median_s": new,
            "change_wins": int(np.sum(after < before)),
            "ratio": new / median if median else None,
            "correct": {side: [r["error"] is None for r in rs] for side, rs in runs.items()},
            "same_bits": [p["sha256"] is not None and p["sha256"] == c["sha256"]
                          for p, c in zip(runs["parent"], runs["change"])],
            "first_error": next((r["error"] for rs in runs.values() for r in rs if r["error"]),
                                None),
            "parent": best["parent"], "change": best["change"],
        }
    return out


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
    parser.add_argument("--ops", nargs="+", metavar="KIND",
                        help="time these op kinds of each --workload instead of whole runs")
    args = parser.parse_args(argv)
    if args.ops and not args.workload:
        parser.error("--ops needs --workload: the library workload whose op list holds the kinds")
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

    measured = tree_of(repo)
    out = repo / f"BENCH_{args.pr}.json"
    report = {"pr": args.pr, "parent": parent_rev,
              "change": head + (" with uncommitted changes" if dirty else ""),
              "seconds": args.seconds, "host": "", "workloads": {}, "ops": {}}
    if out.is_file():
        kept = json.loads(out.read_text())
        if kept.get("parent") == parent_rev:
            for key in ("workloads", "ops"):
                report[key] = {name: section for name, section in kept.get(key, {}).items()
                               if section.get("tree") == measured}
            if report["workloads"] or report["ops"]:
                report.update({key: kept[key] for key in ("seconds", "host") if key in kept})
    holder = Path(tempfile.mkdtemp(prefix="pairs-", dir=Path(args.scratch).resolve()))
    parent_tree = holder / "parent"
    git(repo, "worktree", "add", "--detach", str(parent_tree), parent_rev)
    header = ""
    try:
        for workload in workloads:
            seeds = [args.first_seed + i for i in range(args.pairs)]
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    tree = parent_tree if side == "parent" else repo
                    if args.ops:
                        res = run_ops(tree, workload, seed, args.ops)
                        status = " ".join(f"{kind}={r['error'] or r['best_s']}"
                                          for kind, r in res.items())
                    else:
                        res, line = run_once(tree, workload, seed, args.seconds)
                        header = header or line
                        status = res.get("error") or f"correct={res['correct']}"
                    runs[side].append(res)
                    print(f"pairs: {workload} seed {seed} {side}: {status}",
                          file=sys.stderr, flush=True)
            if args.ops:
                report["ops"][workload] = {
                    "tree": measured, "seeds": seeds,
                    "kinds": summarize_ops(runs["parent"], runs["change"], args.ops)}
                continue
            report["seconds"] = args.seconds
            report["workloads"][workload] = {
                "tree": measured, "seeds": seeds,
                "correct": {side: [bool(r["correct"]) for r in rs] for side, rs in runs.items()},
                "metrics": summarize(runs["parent"], runs["change"], bounds),
            }
    finally:
        subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force",
                        str(parent_tree)], capture_output=True)
        subprocess.run(["git", "-C", str(repo), "worktree", "prune"], capture_output=True)
        shutil.rmtree(holder, ignore_errors=True)
    if header or not report["host"]:
        report["host"] = host_line(header)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"pairs: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
