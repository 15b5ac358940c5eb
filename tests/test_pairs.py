"""tools/pairs.py against a fake benchmark that prints fixed JSON."""

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"

# Reads which tree it belongs to from SIDE, logs the order of runs, and prints
# a header and a result whose values depend on the tree and the seed only.
_FAKE_RUN = """
import json, os, sys
from pathlib import Path
side = (Path(__file__).resolve().parent.parent / "SIDE").read_text().strip()
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(os.environ["PAIRS_LOG"], "a") as fh:
    fh.write(f"{side} {seed}\\n")
print(f"# lib-spectra seed={seed} seconds=1 trace=0 passes=2 python=3.0 nproc=9 BLAS x")
wall = {"parent": 2.0, "change": 1.5}[side] + seed / 10
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
    "wall_s": {"value": wall, "unit": "s"},
    "rows": {"value": 10 + (side == "change"), "unit": "count"}}}))
"""

# The --ops children's op list: "pause" sleeps half as long in the change,
# "tagged" returns the tree's side, which its check refuses in the change, and
# "hold" allocates 4 MiB in the parent and 1 MiB in the change.
_FAKE_OPS = """
import os, time
from dataclasses import dataclass
from pathlib import Path
side = (Path(__file__).resolve().parent.parent / "SIDE").read_text().strip()


@dataclass
class Op:
    kind: str
    run: object
    check: object


def integrals_ops(seed):
    with open(os.environ["PAIRS_LOG"], "a") as fh:
        fh.write(f"{side} {seed}\\n")
    pause = {"parent": 0.01, "change": 0.005}[side]
    return [Op("pause", lambda: time.sleep(pause) or seed, lambda r: None if r == seed else "?"),
            Op("tagged", lambda: side, lambda r: "tagged as the change" if r == "change" else None),
            Op("pause", lambda: time.sleep(pause) or seed, lambda r: None),
            Op("hold", lambda: len(bytearray({"parent": 4, "change": 1}[side] << 20)),
               lambda r: None)]
"""

# The cli-tables op list of the --ops children: each op is a run of the tree's
# own fake ``python -m fourierkit``, below, and its check reads the table.
_FAKE_CLI_OPS = """

@dataclass
class CliOp:
    kind: str
    argv: list
    output: str
    check: object


def cli_ops(workdir, seed, python):
    with open(os.environ["PAIRS_LOG"], "a") as fh:
        fh.write(f"{side} {seed} {workdir}\\n")
    tagged = lambda p: "tagged as the change" if Path(p).read_text() == "change" else None
    return [CliOp("pause", ["pause"], "out-pause.csv", lambda p: None),
            CliOp("tagged", ["tagged"], "out-tagged.csv", tagged)]
"""

# "pause" writes the same table from both trees, sleeping a tenth as long in the
# change, a gap wider than a process's start-up jitter; "tagged" writes the tree's side.
_FAKE_MAIN = """
import sys, time
from pathlib import Path
side = (Path(__file__).resolve().parents[2] / "SIDE").read_text().strip()
kind, path = sys.argv[1], sys.argv[sys.argv.index("-o") + 1]
if kind == "pause":
    time.sleep({"parent": 0.2, "change": 0.02}[side])
Path(path).write_text("t,v\\n0,1\\n" if kind == "pause" else side)
"""

_BENCHMARK = {"workloads": [{"name": "lib-spectra"}],
              "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                             {"name": "rows", "better": "higher", "bound": 0.01}]}


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   check=True, capture_output=True)


def _committed_repo(tmp_path):
    """A repository whose one commit holds the fake benchmark with SIDE "parent",
    an empty scratch directory, and the path of the run log."""
    repo, scratch, log = tmp_path / "repo", tmp_path / "scratch", tmp_path / "log"
    (repo / "perfbench").mkdir(parents=True)
    scratch.mkdir()
    (repo / "perfbench" / "run.py").write_text(_FAKE_RUN)
    (repo / "perfbench" / "ops.py").write_text(_FAKE_OPS + _FAKE_CLI_OPS)
    (repo / "src" / "fourierkit").mkdir(parents=True)
    (repo / "src" / "fourierkit" / "__init__.py").write_text("")
    (repo / "src" / "fourierkit" / "__main__.py").write_text(_FAKE_MAIN)
    (repo / "BENCHMARK.json").write_text(json.dumps(_BENCHMARK))
    (repo / "SIDE").write_text("parent\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    return repo, scratch, log


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_pairs_alternate_and_summarize_the_parent_against_the_working_tree(tmp_path):
    repo, scratch, log = _committed_repo(tmp_path)
    (repo / "SIDE").write_text("change\n")  # uncommitted: the change is the working tree

    subprocess.run([sys.executable, str(PAIRS), "--pr", "7", "--pairs", "4", "--seconds", "1",
                    "--repo", str(repo), "--scratch", str(scratch)],
                   env={**os.environ, "PAIRS_LOG": str(log)}, check=True, capture_output=True)

    assert log.read_text().split("\n")[:-1] == [
        "parent 1", "change 1", "change 2", "parent 2",
        "parent 3", "change 3", "change 4", "parent 4"]
    report = json.loads((repo / "BENCH_7.json").read_text())
    assert report["change"].endswith("with uncommitted changes")
    assert report["host"].startswith("python=3.0 nproc=9 BLAS x numpy=")
    spectra = report["workloads"]["lib-spectra"]
    assert spectra["seeds"] == [1, 2, 3, 4]
    assert spectra["correct"] == {"parent": [True] * 4, "change": [True] * 4}
    wall = spectra["metrics"]["wall_s"]
    assert wall["unit"] == "s" and wall["pairs"] == 4 and wall["change_wins"] == 4
    assert wall["parent"] == pytest.approx([2.1, 2.2, 2.3, 2.4])
    assert (wall["parent_q1"], wall["parent_median"], wall["parent_q3"],
            wall["change_median"]) == pytest.approx((2.175, 2.25, 2.325, 1.75))
    assert wall["parent_iqr_rel"] == pytest.approx(0.15 / 2.25)
    assert not wall["unresolved"] and not wall["worse_than_bound"]
    rows = spectra["metrics"]["rows"]
    assert rows["better"] == "higher" and rows["change_wins"] == 4
    assert rows["change_rel"] == pytest.approx(0.1) and not rows["worse_than_bound"]
    # the parent's worktree is gone, and git no longer lists it
    assert not any(scratch.iterdir())
    listed = subprocess.run(["git", "-C", str(repo), "worktree", "list"],
                            capture_output=True, text=True, check=True).stdout
    assert len(listed.splitlines()) == 1


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_pairs_refuse_a_clean_tree_against_its_own_head(tmp_path):
    repo, scratch, log = _committed_repo(tmp_path)

    proc = subprocess.run([sys.executable, str(PAIRS), "--pr", "7", "--pairs", "2",
                           "--seconds", "1", "--repo", str(repo), "--scratch", str(scratch)],
                          env={**os.environ, "PAIRS_LOG": str(log)}, capture_output=True,
                          text=True)

    assert proc.returncode != 0
    assert "working tree is clean" in proc.stderr
    assert not list(repo.glob("BENCH_*.json"))
    assert not log.exists() and not any(scratch.iterdir())


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_pairs_time_op_kinds_in_alternating_rounds_and_keep_sections_of_the_same_tree(tmp_path):
    repo, scratch, log = _committed_repo(tmp_path)
    (repo / "SIDE").write_text("change\n")
    env = {**os.environ, "PAIRS_LOG": str(log)}
    common = [sys.executable, str(PAIRS), "--pr", "7", "--repo", str(repo), "--scratch",
              str(scratch)]
    subprocess.run(common + ["--pairs", "2", "--seconds", "1"], env=env, check=True,
                   capture_output=True)
    log.unlink()

    subprocess.run(common + ["--pairs", "4", "--first-seed", "11", "--workload", "lib-integrals",
                             "--ops", "pause", "tagged", "absent"],
                   env=env, check=True, capture_output=True)

    assert log.read_text().split("\n")[:-1] == [
        "parent 11", "change 11", "change 12", "parent 12",
        "parent 13", "change 13", "change 14", "parent 14"]
    report = json.loads((repo / "BENCH_7.json").read_text())
    assert report["workloads"]["lib-spectra"]["seeds"] == [1, 2]  # the earlier run's section
    section = report["ops"]["lib-integrals"]
    assert section["seeds"] == [11, 12, 13, 14]
    pause, tagged, absent = (section["kinds"][k] for k in ("pause", "tagged", "absent"))
    assert pause["rounds"] == 4 and pause["change_wins"] == 4 and pause["ratio"] < 0.9
    assert pause["parent_median_s"] == statistics.median(pause["parent"]) >= 0.02  # two sleeps
    assert pause["correct"] == {"parent": [True] * 4, "change": [True] * 4}
    assert pause["same_bits"] == [True] * 4
    assert tagged["correct"] == {"parent": [True] * 4, "change": [False] * 4}
    assert tagged["first_error"] == "tagged as the change" and tagged["same_bits"] == [False] * 4
    assert absent["rounds"] == 0 and absent["ratio"] is None and absent["same_bits"] == [False] * 4
    assert absent["first_error"] == "no op of kind absent"
    head = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    assert section["tree"] == report["workloads"]["lib-spectra"]["tree"] == head
    assert not any(scratch.iterdir())

    # a change to the code the runs execute makes a new tree: the old sections go
    (repo / "perfbench" / "ops.py").write_text(_FAKE_OPS + "# edited\n")
    subprocess.run(common + ["--pairs", "2", "--workload", "lib-integrals", "--ops", "pause"],
                   env=env, check=True, capture_output=True)
    report = json.loads((repo / "BENCH_7.json").read_text())
    assert report["workloads"] == {} and list(report["ops"]) == ["lib-integrals"]
    section = report["ops"]["lib-integrals"]
    assert section["tree"].startswith(head + "+") and section["seeds"] == [1, 2]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_pairs_time_cli_ops_as_processes_of_each_tree(tmp_path):
    repo, scratch, log = _committed_repo(tmp_path)
    (repo / "SIDE").write_text("change\n")

    subprocess.run([sys.executable, str(PAIRS), "--pr", "7", "--repo", str(repo), "--scratch",
                    str(scratch), "--pairs", "2", "--workload", "cli-tables", "--ops", "pause",
                    "tagged"], env={**os.environ, "PAIRS_LOG": str(log)}, check=True,
                   capture_output=True)

    logged = [line.split() for line in log.read_text().splitlines()]
    assert [line[:2] for line in logged] == [["parent", "1"], ["change", "1"],
                                             ["change", "2"], ["parent", "2"]]
    assert not any(Path(line[2]).exists() for line in logged)  # the op directories
    kinds = json.loads((repo / "BENCH_7.json").read_text())["ops"]["cli-tables"]["kinds"]
    pause, tagged = kinds["pause"], kinds["tagged"]
    assert pause["rounds"] == 2 and pause["change_wins"] == 2 and pause["ratio"] < 0.9
    assert pause["parent_median_s"] >= 0.04
    assert pause["same_bits"] == [True, True]
    assert pause["correct"] == {"parent": [True, True], "change": [True, True]}
    assert tagged["correct"] == {"parent": [True, True], "change": [False, False]}
    assert tagged["first_error"] == "tagged as the change"
    assert tagged["same_bits"] == [False, False]
    assert pause["peak_mb"] == {"parent": [None, None], "change": [None, None]}
    assert pause["parent_peak_median_mb"] is None and pause["change_peak_median_mb"] is None
    assert not any(scratch.iterdir())


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_pairs_record_the_peak_memory_of_each_kind_warm_up(tmp_path):
    repo, scratch, log = _committed_repo(tmp_path)
    (repo / "SIDE").write_text("change\n")

    subprocess.run([sys.executable, str(PAIRS), "--pr", "7", "--repo", str(repo), "--scratch",
                    str(scratch), "--pairs", "2", "--workload", "lib-integrals", "--ops", "hold",
                    "absent"], env={**os.environ, "PAIRS_LOG": str(log)}, check=True,
                   capture_output=True)

    kinds = json.loads((repo / "BENCH_7.json").read_text())["ops"]["lib-integrals"]["kinds"]
    hold, absent = kinds["hold"], kinds["absent"]
    assert all(4 <= mb < 4.5 for mb in hold["peak_mb"]["parent"])
    assert all(1 <= mb < 1.5 for mb in hold["peak_mb"]["change"])
    assert hold["parent_peak_median_mb"] == statistics.median(hold["peak_mb"]["parent"])
    assert hold["change_peak_median_mb"] == statistics.median(hold["peak_mb"]["change"])
    assert absent["peak_mb"] == {"parent": [None, None], "change": [None, None]}
    assert absent["parent_peak_median_mb"] is None


def test_pairs_refuse_ops_without_a_workload(tmp_path):
    proc = subprocess.run([sys.executable, str(PAIRS), "--pr", "7", "--ops", "wvd",
                           "--repo", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 2 and "--ops needs --workload" in proc.stderr
