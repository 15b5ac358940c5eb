"""fourierkit benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cli-tables|lib-spectra|lib-integrals|all
                             --seed N --seconds S --trace 0|1

Run it from anywhere; it uses the ``src/`` tree next to this directory and
writes only under ``.perfbench-work/`` (inputs, removed at exit) and
``.perfbench-out/`` (spans of traced runs) at the root of that tree.

With ``--trace 0`` it times whole passes over the workload's op list and
prints wall_s, op_p50_ms, op_tail_ms, fail_ratio, peak_rss_mb and setup_s.
With ``--trace 1`` it runs the separate traced run and prints the per-layer
metrics.  Every op's output is checked against an oracle; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-tables", "lib-spectra", "lib-integrals")

# A run makes round(seconds / PASS_SECONDS) passes (at least MIN_PASSES), a
# count fixed by the arguments alone: the number of ops, and with it the
# percentile op_tail_ms reports, must not depend on how fast one run went.
# The figures are typical pass times on a 2-core shared x86-64 VM, except that
# lib-spectra's is set so that 25 s make three passes: up to five passes keep
# its op_tail_ms inside the block of large Bluestein ops (see ops.TAIL_BLOCK).
PASS_SECONDS = {"cli-tables": 7.0, "lib-spectra": 8.0, "lib-integrals": 3.0}
MIN_PASSES = 2
# On a machine much slower than that, a run stops starting passes after
# OVERRUN times --seconds, so that it still ends well inside its time limit.
OVERRUN = 3.0
# cli-tables measures a fresh import before the passes and after every
# SETUP_EVERY ops, so the samples span the run like the timed ops do; the
# library workloads take one set-up before and one after the timed worker,
# whose own set-up is the third.
SETUP_EVERY = 4
IMPORT_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0


def child(argv: list[str], lines: int = 0, stderr=None) -> tuple[list[tuple[float, list[str]]],
                                                                   float, int, float]:
    """Run one child process to its end.

    Returns (the first ``lines`` stdout lines, each with the seconds from
    spawn to its arrival), wall seconds, exit code and the child's own peak
    resident memory in MB.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE if lines else subprocess.DEVNULL,
                            stderr=stderr, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    got: list[tuple[float, list[str]]] = []
    status = None
    try:
        while len(got) < lines:
            line = proc.stdout.readline()
            if not line:
                break
            got.append((time.perf_counter() - start, line.decode().split()))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        if proc.stdout:
            proc.stdout.close()
        if status is None:
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return got, wall, proc.returncode, usage.ru_maxrss / 1024.0


def passes_for(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with at least 10 ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"{n} ops are too few for a tail with 10 beyond it")
    return ordered[n - 11], 100.0 * (n - 10) / n


def blas_threads() -> str:
    """The thread count of the OpenBLAS that numpy loaded, as it reports it."""
    import numpy  # noqa: F401  loads the library this reads

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return f"OpenBLAS {fn()} threads"
    return "BLAS thread count unknown"


def worker(mode: str, workload: str, seed: int, passes: int, out: Path, deadline: float = 0.0,
           spans: Path | None = None) -> list[str]:
    argv = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(passes),
            repr(deadline), str(out)]
    return argv + ([str(spans)] if spans else [])


def setup_sample(got: list[tuple[float, list[str]]]) -> float:
    """Spawn-to-import seconds plus the worker's own warm-up seconds."""
    if len(got) < 2 or got[0][1] != ["imported"] or got[1][1][0] != "warm":
        raise RuntimeError("worker ended before its warm-up finished")
    return got[0][0] + float(got[1][1][1])


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing fourierkit after numpy."""
    code = ("import time; import numpy; t = time.perf_counter(); import fourierkit; "
            "print(time.perf_counter() - t, flush=True)")
    got, _, status, _ = child([sys.executable, "-c", code], lines=1)
    if status != 0 or not got:
        raise RuntimeError("import fourierkit failed in a fresh interpreter")
    return float(got[0][1][0])


# ---------------------------------------------------------------------------
# the timed run (--trace 0)
# ---------------------------------------------------------------------------

def timed_cli(seed: int, passes: int, deadline: float, workdir: Path) -> dict:
    from ops import Verifier, cli_ops

    python = [sys.executable, "-m", "fourierkit"]
    setups = []

    def setup() -> None:
        got, _, code, _ = child([sys.executable, "-c", "import fourierkit; print('imported')"],
                                lines=1)
        if code != 0 or not got:
            raise RuntimeError("import fourierkit failed in a fresh interpreter")
        setups.append(got[0][0])

    setup()
    ops = cli_ops(str(workdir), seed, python)
    res = {"attempted": 0, "failed": 0, "first_failure": None, "latencies": [], "pass_s": [],
           "rss": [], "setups": setups}
    errors = workdir / "stderr.txt"
    verifier = Verifier()
    for done in range(passes):
        if done >= MIN_PASSES and time.time() > deadline:
            break
        pass_s = 0.0
        for op in ops:
            out = workdir / op.output
            with open(errors, "wb") as err:
                _, wall, code, rss = child(python + op.argv + ["-o", str(out)], stderr=err)
            pass_s += wall
            res["latencies"].append(wall)
            res["rss"].append(rss)
            if code != 0:
                message = f"{op.kind}: exit status {code}: {errors.read_text().strip()[-300:]}"
            else:
                message = verifier.verify(op.kind, op.kind, out.read_bytes(),
                                          lambda: op.check(str(out)))
            res["attempted"] += 1
            if message:
                res["failed"] += 1
                res["first_failure"] = res["first_failure"] or message
            out.unlink(missing_ok=True)
            if res["attempted"] % SETUP_EVERY == 0:
                setup()
        res["pass_s"].append(pass_s)
    return res


def timed_lib(workload: str, seed: int, passes: int, deadline: float,
              workdir: Path) -> dict:
    def setup() -> float:
        got, _, code, _ = child(worker("setup", workload, seed, 0, workdir / "setup.json"),
                                lines=2)
        if code != 0:
            raise RuntimeError(f"setup worker exited with status {code}")
        return setup_sample(got)

    setups = [setup()]
    out = workdir / "timed.json"
    got, _, code, rss = child(worker("timed", workload, seed, passes, out, deadline), lines=2)
    if code != 0:
        raise RuntimeError(f"timed worker exited with status {code}")
    setups += [setup_sample(got), setup()]
    res = json.loads(out.read_text())
    res.update(setups=setups, rss=[rss])
    return res


def timed_metrics(res: dict) -> dict[str, tuple[float, str, str]]:
    lat = res["latencies"]
    tail_s, pct = tail(lat)
    return {
        "wall_s": (statistics.median(res["pass_s"]), "s",
                   f"median of {len(res['pass_s'])} passes"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms", f"median of {len(lat)} ops"),
        "op_tail_ms": (tail_s * 1e3, "ms", f"p{pct:.1f} of {len(lat)} ops, 10 beyond it"),
        "fail_ratio": ((res["failed"] + 1) / (res["attempted"] + 1), "1",
                       f"(failed + 1) / (attempted + 1); {res['failed']} of "
                       f"{res['attempted']} ops failed"),
        "peak_rss_mb": (max(res["rss"]), "MB", f"max over {len(res['rss'])} processes"),
        "setup_s": (statistics.median(res["setups"]), "s",
                    f"median of {len(res['setups'])} fresh interpreters"),
    }


# ---------------------------------------------------------------------------
# the traced run (--trace 1)
# ---------------------------------------------------------------------------

def traced(workload: str, seed: int, passes: int, deadline: float, workdir: Path) -> dict:
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-seed{seed}.json"
    # A fresh import of fourierkit minus one of numpy, measured as the time
    # fourierkit's import takes once numpy is loaded, in the same interpreter.
    import_s = statistics.median(import_seconds() for _ in range(IMPORT_SAMPLES))
    out = workdir / "traced.json"
    _, _, code, _ = child(worker("traced", workload, seed, passes, out, deadline, spans),
                          lines=2)
    if code != 0:
        raise RuntimeError(f"traced worker exited with status {code}")
    res = json.loads(out.read_text())
    layers = res["layers"]
    res["metrics"] = {name: (value, unit, "") for name, (value, unit) in layers.items()}
    res["metrics"]["cli.import_s"] = (import_s, "s",
                                      f"median of {IMPORT_SAMPLES} fresh interpreters")
    res["metrics"]["trace.overhead_ratio"] = (
        *layers["trace.overhead_ratio"],
        f"traced pass {statistics.median(res['traced_pass_s']):.4f} s over untraced "
        f"{statistics.median(res['plain_pass_s']):.4f} s, {passes} of each")
    res["spans"] = str(spans.relative_to(ROOT))
    return res


# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work_root = ROOT / ".perfbench-work"
    workdir = work_root / f"{workload}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # The traced run splits its time between untraced and traced passes.
    passes = passes_for(workload, seconds)
    if trace:
        passes = max(1, passes // 2)
    deadline = time.time() + OVERRUN * seconds
    try:
        if trace:
            res = traced(workload, seed, passes, deadline, workdir)
        elif workload == "cli-tables":
            res = timed_cli(seed, passes, deadline, workdir)
        else:
            res = timed_lib(workload, seed, passes, deadline, workdir)
        if not trace:
            res["metrics"] = timed_metrics(res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work_root.exists() and not any(work_root.iterdir()):
            work_root.rmdir()
    print(f"# {workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"passes={passes} "
          f"python={sys.version.split()[0]} nproc={os.cpu_count()} {blas_threads()}")
    if res.get("spans"):
        print(f"# spans written to {res['spans']}")
    if res["first_failure"]:
        print(f"# first failure: {res['first_failure']}")
    for name, (value, unit, note) in res["metrics"].items():
        print(f"{workload:>13}  {name:<40} {value:>14.6g} {unit:<8} {note}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in res["metrics"].items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fourierkit" / "__init__.py").is_file():
        print(f"perfbench: no fourierkit source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    # Compile fourierkit's bytecode once, untimed, so no timed start-up pays for it.
    if child([sys.executable, "-c", "import fourierkit"])[2] != 0:
        print("perfbench: import fourierkit failed", file=sys.stderr)
        return 2
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        print(json.dumps(run(workload, args.seed, args.seconds, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
