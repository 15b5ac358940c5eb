"""Worker process of the benchmark.  run.py starts it; it is not run by hand.

    worker.py MODE WORKLOAD SEED PASSES DEADLINE OUT [SPANS]

It imports fourierkit before anything else and prints ``imported``, so the
parent can time interpreter start plus import.  It then builds the seeded op
list (untimed), runs one warm-up op of each kind and prints ``warm SECONDS``.

MODE ``setup`` stops there.  ``timed`` runs PASSES passes and writes the op
latencies, pass times and failures to OUT as JSON.  ``traced`` alternates
untraced and traced passes, PASSES of each, writes the spans to SPANS and
the per-layer metrics to OUT.  After two passes, no new pass starts once the
clock is past DEADLINE (seconds since the epoch).  For cli-tables only
``traced`` is used: it replays the CLI argv in-process through
``fourierkit.cli.main``, with ``-o`` pointing at a file next to OUT.
"""

import sys
import time


def main() -> int:
    import fourierkit  # noqa: F401  first, so the parent times only start-up and import
    print("imported", flush=True)

    import gc
    import json
    import os
    import pickle

    import numpy as np

    import ops as bench_ops
    import tracing

    mode, workload, seed, passes, deadline, out_path = sys.argv[1:7]
    seed, passes, deadline = int(seed), int(passes), float(deadline)
    result: dict = {"attempted": 0, "failed": 0, "first_failure": None}
    files: dict[int, dict] | None = None
    verifier = bench_ops.Verifier()

    def record(message: str | None) -> None:
        result["attempted"] += 1
        if message:
            result["failed"] += 1
            if result["first_failure"] is None:
                result["first_failure"] = message

    if workload == "cli-tables":
        from fourierkit import cli

        workdir = os.path.dirname(out_path)
        ops = bench_ops.cli_ops(workdir, seed, [sys.executable, "-m", "fourierkit"])
        files = {}

        def call(i: int):
            return _exit_code(cli.main, ops[i].argv + ["-o", os.path.join(workdir, ops[i].output)])

        def verify(i: int, code) -> str | None:
            op = ops[i]
            if code != 0:
                return f"{op.kind}: exit status {code}"
            out = os.path.join(workdir, op.output)
            with open(out, "rb") as fh:
                data = fh.read()
            files[i] = {"input_rows": op.input_rows, "output_rows": data.count(b"\n") - 1,
                        "output_bytes": len(data)}
            message = verifier.verify(i, op.kind, data, lambda: op.check(out))
            os.remove(out)
            return message
    else:
        build = bench_ops.spectra_ops if workload == "lib-spectra" else bench_ops.integrals_ops
        ops = build(seed)

        def call(i: int):
            try:
                return ops[i].run()
            except Exception as exc:  # a failing op is a measured outcome, not a crash
                return _Failed(f"{ops[i].label}: {type(exc).__name__}: {exc}")

        def verify(i: int, value) -> str | None:
            if isinstance(value, _Failed):
                return value.message
            return verifier.verify(i, ops[i].label, pickle.dumps(value),
                                   lambda: ops[i].check(value))

    warm = 0.0
    kinds = set()
    for i, op in enumerate(ops):
        if op.kind not in kinds:
            kinds.add(op.kind)
            start = time.perf_counter()
            call(i)
            warm += time.perf_counter() - start
    print(f"warm {warm!r}", flush=True)
    if mode == "setup":
        return 0

    # The ops run in list order on every pass: a seeded order would change the
    # allocation sequence, and with it the peak RSS, from seed to seed.
    def run_pass(recorder=None) -> list[float]:
        gc.collect()
        latencies = []
        for i in range(len(ops)):
            if recorder:
                recorder.op = i
            start = time.perf_counter()
            value = call(i)
            latencies.append(time.perf_counter() - start)
            record(verify(i, value))
            del value
        return latencies

    def more(done: int) -> bool:
        return done < passes and (done < 2 or time.time() < deadline)

    if mode == "timed":
        latencies = []
        while more(len(latencies)):
            latencies.append(run_pass())
        result["latencies"] = [t for lat in latencies for t in lat]
        result["pass_s"] = [sum(lat) for lat in latencies]
    else:
        recorder = tracing.Recorder()
        plain, traced = [], []

        def traced_pass() -> None:
            recorder.install()
            try:
                traced.append(sum(run_pass(recorder)))
            finally:
                recorder.uninstall()

        # One pass first that neither side counts (the first pass after the
        # warm-up ops still grows the heap), then untraced/traced,
        # traced/untraced, and so on, so that a drift of the machine's speed
        # over the run hits both sides alike.
        run_pass()
        while more(len(plain)):
            if len(plain) % 2 == 0:
                plain.append(sum(run_pass()))
                traced_pass()
            else:
                traced_pass()
                plain.append(sum(run_pass()))
        recorder.dump(sys.argv[7])
        layers = tracing.layer_metrics(recorder.spans, len(traced), files)
        layers["trace.overhead_ratio"] = (float(np.median(traced) / np.median(plain)), "1")
        layers.update(tracing.baselines(seed))
        result["layers"] = layers
        result["plain_pass_s"], result["traced_pass_s"] = plain, traced
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


class _Failed:
    def __init__(self, message: str):
        self.message = message


def _exit_code(main, argv: list[str]):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad flags by exiting
        return exc.code
    except Exception as exc:  # the subprocess form would exit nonzero here
        return f"{type(exc).__name__}: {exc}"


if __name__ == "__main__":
    sys.exit(main())
