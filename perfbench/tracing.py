"""Outside-in tracing of fourierkit for the per-layer metrics.

The recorder replaces public functions of the program's modules with
wrappers that record a span (name, start, end, parent, op id) per call and
count evaluations of the map a caller passes in.  Per-row helpers such as
``bin_to_frequency`` and the Gabor atom evaluators are left alone, so their
cost stays in the caller's span (for the CLI, in ``cli.output_s``).  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
import tracemalloc

import numpy as np

from ops import is_pow2, rel_err, stft_ref

WRAPPED = {
    "cli": ("main",),
    "transforms": ("fft", "ifft", "dft", "quad_ft", "half_transform"),
    "timefreq": ("stft", "wvd", "analytic_signal", "uncertainty_product"),
    "series": ("series_coefficients", "half_series_coefficients"),
    "sampling": ("sample", "sinc_reconstruct", "convolve_circular"),
}
LAYERS = tuple(WRAPPED)

# Calls whose map argument is counted, and calls whose arguments are kept for
# the numpy comparisons, errors and memory peaks taken after the passes.
# Results are not kept: holding them would change how the traced pass
# allocates memory, and with it its time.
_COUNTS_MAP = {"transforms.quad_ft", "transforms.half_transform",
               "series.series_coefficients", "series.half_series_coefficients"}
_KEEPS = {"transforms.fft", "transforms.ifft", "transforms.dft", "timefreq.stft",
          "sampling.convolve_circular"}


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "evals", "size", "unconverged",
                 "args")

    def __init__(self, name: str, parent: int, op: int):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.evals = self.size = self.unconverged = 0
        self.args = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def counting(self, fn):
        """Wrap a map so each evaluated point adds to this span's ``evals``."""
        def counted(x):
            out = fn(x)
            self.evals += x.size if isinstance(x, np.ndarray) else 1
            return out
        return counted


def _describe(span: Span, args: tuple, result) -> None:
    """Record the size of a finished call (outside its timed interval)."""
    name = span.name
    if name in ("transforms.fft", "transforms.ifft", "transforms.dft"):
        span.size = len(args[0])
    elif name in ("timefreq.stft", "timefreq.wvd"):
        span.size = result.values.shape[0]
    elif name in ("series.series_coefficients", "series.half_series_coefficients"):
        span.size = 1 + result.harmonics * (2 if name.endswith(".series_coefficients") else 1)
        span.unconverged = sum(not ok for ok in result.converged)
    elif name == "transforms.quad_ft":
        span.unconverged = int(not result.converged)
    elif name == "sampling.sample":
        span.size = len(result)
    elif name == "sampling.sinc_reconstruct":
        span.size = 1


class Recorder:
    """Wraps the program's public functions while installed; keeps spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, names in WRAPPED.items():
            module = importlib.import_module(f"fourierkit.{layer}")
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(f"{layer}.{name}", original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, span_name: str, fn):
        spans, stack = self.spans, self._stack
        counts_map, keeps = span_name in _COUNTS_MAP, span_name in _KEEPS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(span_name, stack[-1] if stack else -1, self.op)
            if counts_map:
                args = (span.counting(args[0]),) + args[1:]
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            _describe(span, args, result)
            if keeps:
                span.args = args
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write the spans as [name, start, end, parent, op] rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.op] for s in self.spans], fh)


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------

def best_seconds(fn, reps: int) -> float:
    best = math.inf
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best


def peak_mb(fn) -> float:
    """tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], passes: int, cli_ops: dict[int, dict] | None = None
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer figures of ``passes`` traced passes, per pass.

    ``cli_ops`` maps a CLI op id to its input_rows, output_rows and
    output_bytes, read by the harness from the files.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.seconds
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s, covered in zip(spans, child_s):
        self_s[s.name.split(".")[0]] += s.seconds - covered

    def pick(name, where=lambda s: True):
        return [s for s in spans if s.name == name and where(s)]

    def total(group):
        return sum(s.seconds for s in group) / passes

    out: dict[str, tuple[float, str]] = {}

    cli_in = cli_out = cli_compute = 0.0
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0 and spans[s.parent].name == "cli.main":
            children.setdefault(s.parent, []).append(s)
    for i, kids in children.items():
        main = spans[i]
        cli_in += kids[0].start - main.start
        cli_out += main.end - kids[-1].end
        cli_compute += sum(k.seconds for k in kids)
    cli_ops = cli_ops or {}
    rows_in = sum(c["input_rows"] for c in cli_ops.values())
    rows_out = sum(c["output_rows"] for c in cli_ops.values())
    mb_out = sum(c["output_bytes"] for c in cli_ops.values()) / 1e6
    out["cli.input_s"] = (cli_in / passes, "s")
    out["cli.input_rows"] = (rows_in, "count")
    out["cli.output_s"] = (cli_out / passes, "s")
    out["cli.output_rows"] = (rows_out, "count")
    out["cli.output_mb"] = (mb_out, "MB")
    out["cli.output_mb_per_s"] = (_ratio(mb_out, cli_out / passes), "MB/s")
    out["cli.compute_s"] = (cli_compute / passes, "s")

    pow2 = pick("transforms.fft", lambda s: s.size > 1 and is_pow2(s.size))
    blue = pick("transforms.fft", lambda s: s.size > 1 and not is_pow2(s.size))
    dfts = pick("transforms.dft")
    np_pow2 = sum(best_seconds(lambda s=s: np.fft.fft(s.args[0].samples), 3) for s in pow2)
    np_blue = sum(best_seconds(lambda s=s: np.fft.fft(s.args[0].samples), 3) for s in blue)
    np_dft = sum(best_seconds(lambda s=s: np.fft.fft(s.args[0].samples), 3) for s in dfts)
    flops = sum(5.0 * s.size * math.log2(s.size) for s in pow2)
    out["transforms.fft_pow2_s"] = (total(pow2), "s")
    out["transforms.fft_pow2_calls"] = (len(pow2) / passes, "count")
    out["transforms.fft_pow2_points"] = (sum(s.size for s in pow2) / passes, "count")
    out["transforms.fft_pow2_vs_numpy"] = (_ratio(total(pow2), np_pow2 / passes), "1")
    out["transforms.fft_pow2_gflops"] = (_ratio(flops / 1e9, sum(s.seconds for s in pow2)),
                                         "GFLOP/s")
    out["transforms.fft_bluestein_s"] = (total(blue), "s")
    out["transforms.fft_bluestein_calls"] = (len(blue) / passes, "count")
    out["transforms.fft_bluestein_points"] = (sum(s.size for s in blue) / passes, "count")
    out["transforms.fft_bluestein_vs_numpy"] = (_ratio(total(blue), np_blue / passes), "1")
    biggest = max(blue, key=lambda s: s.size, default=None)
    out["transforms.fft_bluestein_peak_mb"] = (
        peak_mb(lambda: _original("transforms", "fft")(biggest.args[0])) if biggest else 0.0, "MB")
    out["transforms.ifft_s"] = (total(pick("transforms.ifft")), "s")
    out["transforms.dft_s"] = (total(dfts), "s")
    out["transforms.dft_vs_numpy"] = (_ratio(total(dfts), np_dft / passes), "1")
    fft, ifft = _original("transforms", "fft"), _original("transforms", "ifft")
    errs = [rel_err(fft(w).bins, np.fft.fft(w.samples)) for w in _distinct(pow2 + blue)]
    errs += [rel_err(ifft(s).samples, np.fft.ifft(s.bins))
             for s in _distinct(pick("transforms.ifft"))]
    out["transforms.fft_max_rel_err"] = (max(errs, default=0.0), "1")
    quad = pick("transforms.quad_ft")
    out["transforms.quad_ft_s"] = (total(quad), "s")
    out["transforms.quad_ft_calls"] = (len(quad) / passes, "count")
    out["transforms.quad_ft_evals"] = (sum(s.evals for s in quad) / passes, "count")
    out["transforms.quad_ft_unconverged"] = (sum(s.unconverged for s in quad) / passes, "count")
    half = pick("transforms.half_transform")
    out["transforms.half_transform_s"] = (total(half), "s")
    out["transforms.half_transform_evals"] = (sum(s.evals for s in half) / passes, "count")

    stfts = pick("timefreq.stft")
    frames = sum(s.size for s in stfts)
    np_stft = sum(best_seconds(lambda s=s: stft_ref(s.args[0].samples, s.args[0].sample_interval,
                                                    s.args[0].start_time, *s.args[1:]), 3)
                  for s in stfts)
    out["timefreq.stft_s"] = (total(stfts), "s")
    out["timefreq.stft_frames"] = (frames / passes, "count")
    out["timefreq.stft_us_per_frame"] = (_ratio(sum(s.seconds for s in stfts) * 1e6, frames), "us")
    out["timefreq.stft_vs_numpy"] = (_ratio(total(stfts), np_stft / passes), "1")
    wvds = pick("timefreq.wvd")
    out["timefreq.wvd_s"] = (total(wvds), "s")
    out["timefreq.wvd_rows"] = (sum(s.size for s in wvds) / passes, "count")
    out["timefreq.analytic_signal_s"] = (total(pick("timefreq.analytic_signal")), "s")
    out["timefreq.uncertainty_product_s"] = (total(pick("timefreq.uncertainty_product")), "s")

    full = pick("series.series_coefficients")
    halves = pick("series.half_series_coefficients")
    evals = sum(s.evals for s in full + halves)
    out["series.coefficients_s"] = (total(full), "s")
    out["series.coefficients_calls"] = (len(full) / passes, "count")
    out["series.coefficients_unconverged"] = (
        sum(s.unconverged for s in full + halves) / passes, "count")
    out["series.map_evals"] = (evals / passes, "count")
    out["series.map_evals_per_coefficient"] = (
        _ratio(evals, sum(s.size for s in full + halves)), "count")
    out["series.half_s"] = (total(halves), "s")

    samples = pick("sampling.sample")
    out["sampling.sample_s"] = (total(samples), "s")
    out["sampling.sample_points"] = (sum(s.size for s in samples) / passes, "count")
    sincs = pick("sampling.sinc_reconstruct")
    out["sampling.sinc_reconstruct_s"] = (total(sincs), "s")
    out["sampling.sinc_reconstruct_points"] = (len(sincs) / passes, "count")
    convs = pick("sampling.convolve_circular")
    out["sampling.convolve_circular_s"] = (total(convs), "s")
    conv = max(convs, key=lambda s: len(s.args[0]), default=None)
    out["sampling.convolve_circular_peak_mb"] = (
        peak_mb(lambda: _original("sampling", "convolve_circular")(*conv.args)) if conv else 0.0,
        "MB")

    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer] / passes, "s")
    return out


def _distinct(spans: list[Span]) -> list:
    """The first arguments of the spans, each distinct object once."""
    return list({id(s.args[0]): s.args[0] for s in spans}.values())


def _original(layer: str, name: str):
    """The function as the module holds it now (the recorder is uninstalled)."""
    return getattr(importlib.import_module(f"fourierkit.{layer}"), name)


# ---------------------------------------------------------------------------
# baselines at the sizes of the ROADMAP's one-off probes
# ---------------------------------------------------------------------------

def baselines(seed: int) -> dict[str, tuple[float, str]]:
    """Best-of-N time of fourierkit over numpy on the same input."""
    from fourierkit import timefreq, transforms
    from fourierkit.core import Waveform

    rng = np.random.default_rng([seed, 9])
    out = {}
    for name, n, fk_reps in (("fft_pow2_1024", 1024, 20), ("fft_pow2_1048576", 1 << 20, 2),
                             ("fft_bluestein_1000", 1000, 20),
                             ("fft_bluestein_1000003", 1000003, 1), ("dft_4096", 4096, 2)):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = Waveform(x, 1.0)
        run = transforms.dft if name.startswith("dft") else transforms.fft
        fk = best_seconds(lambda: run(w), fk_reps)
        ref = best_seconds(lambda: np.fft.fft(x), max(3, fk_reps))
        out[f"baseline.{name}_vs_numpy"] = (fk / ref, "1")
    x = rng.standard_normal(8192)
    w = Waveform(x, 1.0 / 1000.0)
    fk = best_seconds(lambda: timefreq.stft(w, 0.0, 1, 64), 2)
    ref = best_seconds(lambda: stft_ref(x, 1.0 / 1000.0, 0.0, 0.0, 1, 64), 3)
    out["baseline.stft_8192_frame64_hop1_vs_numpy"] = (fk / ref, "1")
    return out
