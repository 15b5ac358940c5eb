"""Command line front end.

Each command turns its parsed flags into one table: a header, its columns
and, for a time-frequency grid, its time and frequency axes (else None).  It
reads waveforms from CSV/WAV files or built-in generators, imports and calls
the library modules it needs and writes nothing.  ``main`` writes the table as
plain CSV (UTF-8, LF, 17 significant digits) that plots directly, to stdout
or to an ``-o`` file that is replaced only by a complete table.  Exit
status: 0 on success, 1 on runtime errors, 2 on bad flags.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import re
import shutil
import sys
import warnings
import wave
from typing import Callable

import numpy as np

from . import config, transforms
from .core import (FourierKitError, GaborAtom, ParseError, Spectrum, Waveform, _as_array,
                   _as_float)

# Rows formatted per write: bounds the text held in memory for large tables.
_BLOCK_ROWS = 8192


def _replaceable(path: str) -> bool:
    """Whether ``path`` is new, or a writable regular file with no other hard
    link in a directory that takes a temporary file beside it.

    Anything else (a device, a FIFO, ``/dev/stdout``, a read-only or
    hard-linked file) is opened and written in place.
    """
    if not os.path.exists(path):
        return True
    real = os.path.realpath(path)
    return (os.path.isfile(real) and os.stat(real).st_nlink == 1
            and os.access(real, os.W_OK) and os.access(os.path.dirname(real), os.W_OK))


@contextlib.contextmanager
def _output(path: str | None):
    """Stdout, or a temporary file beside ``path`` that replaces it once complete."""
    if not path:
        yield sys.stdout
        return
    if not _replaceable(path):
        with open(path, "w", encoding="utf-8", newline="") as out:
            yield out
        return
    path = os.path.realpath(path)  # through a symlink, replace the file it names
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    out = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(path, tmp)  # a replaced file keeps its permissions
        with out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_table(path: str | None, header: list[str], *columns, axes=None) -> None:
    """Write equal-length columns as CSV: integers as %d, floats with 17 digits.

    2-D columns are flattened row-major.  With ``axes=(times, freqs)`` the
    columns are grids of shape (len(times), len(freqs)), and each row starts
    with its time and frequency; each axis value is formatted once.  A
    non-finite float cell raises before the output is opened.  No header or
    cell contains a comma, quote or newline, so no field needs CSV quoting.
    """
    cols = [np.ravel(c) for c in columns]
    for name, c in zip(header, [*(axes or ()), *cols]):
        _as_array(f"column {name!r}", c, c.dtype, FourierKitError)
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in cols) + "\n"
    if axes is None:
        step = _BLOCK_ROWS
    else:
        # a formatted float holds no "%", so the axis strings go into the
        # block's format string; a block is whole frames
        times, freqs = (["%.17g" % v for v in a.tolist()] for a in axes)
        frame = [f + "," + row for f in freqs]
        step = max(1, _BLOCK_ROWS // len(frame)) * len(frame)
    with _output(path) as out:
        out.write(",".join(header) + "\n")
        for lo in range(0, cols[0].size, step):
            block = [c[lo:lo + step].tolist() for c in cols]
            rows = len(block[0])
            if axes is None:
                template = row * rows
            else:
                template = "".join(t + "," + (t + ",").join(frame)
                                   for t in times[lo // len(frame):(lo + rows) // len(frame)])
            cells = [None] * (rows * len(block))
            for j, values in enumerate(block):
                cells[j::len(block)] = values
            out.write(template % tuple(cells))


# ---------------------------------------------------------------------------
# input
# ---------------------------------------------------------------------------

def _read_wav(path: str) -> Waveform:
    with wave.open(path, "rb") as fh:
        if fh.getnchannels() != 1:
            raise ParseError(f"{path}: only mono WAV input is supported")
        if fh.getsampwidth() != 2:
            raise ParseError(f"{path}: only 16-bit PCM WAV input is supported")
        if fh.getcomptype() != "NONE":
            raise ParseError(f"{path}: compressed WAV input is not supported")
        rate = fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    pcm = np.frombuffer(raw, dtype="<i2").astype(float) / 32768.0
    return Waveform(pcm, 1.0 / rate, 0.0)


def _read_table(path: str) -> dict[str, np.ndarray]:
    """Columns of a CSV by header name; every cell must be a finite number.

    One ``np.loadtxt`` call reads a plain table.  Anything it refuses, warns
    about or reads as non-finite, and any header with a quote (a quoted field
    may span lines), goes to the csv reader, which decides and names the line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if '"' not in first:
            header = [h.strip() for h in next(csv.reader([first]))]
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    table = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None, dtype=float)
            except (ValueError, Warning):  # the csv reader below reports what is wrong
                table = None
            if (table is not None and table.shape[0] and table.shape[1] == len(header)
                    and np.isfinite(table).all()):
                return _columns(header, table.T.copy())
    return _read_csv(path)


def _columns(header: list[str], table: np.ndarray) -> dict[str, np.ndarray]:
    """The rows of ``table`` by header name; the first of a repeated name wins."""
    columns: dict[str, np.ndarray] = {}
    for name, col in zip(header, table):
        columns.setdefault(name, col)
    return columns


def _read_csv(path: str) -> dict[str, np.ndarray]:
    """``_read_table`` through the csv module, one row at a time."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        lines = []  # line number of each data row

        def cells():
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(f"{path}:{lineno}: ragged rows or header/data mismatch")
                try:
                    yield from map(float, row)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from None
                lines.append(lineno)

        values = np.fromiter(cells(), float)
    if not lines:
        raise ParseError(f"{path}: no data rows")
    table = values.reshape(len(lines), len(header)).T.copy()
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():
        raise ParseError(f"{path}:{lines[np.argmin(finite)]}: non-finite value")
    return _columns(header, table)


def _read_waveform_csv(path: str, fs: float | None) -> Waveform:
    cols = _read_table(path)
    if "re" not in cols:
        raise ParseError(f"{path}: waveform CSV needs a 're' column, got {list(cols)}")
    samples = cols["re"] + 1j * cols["im"] if "im" in cols else cols["re"]
    times = cols.get("time_s")
    if times is not None and len(times) > 1:
        interval = float(times[1] - times[0])
        start = float(times[0])
        # the bound also allows for the rounding of large absolute times
        slack = 1e-6 * abs(interval) + 4.0 * np.spacing(np.abs(times).max())
        if np.any(np.abs(np.diff(times) - interval) > slack):
            raise ParseError(f"{path}: time_s is not uniformly spaced")
    elif fs:  # a single time_s row still gives the start time
        interval, start = 1.0 / fs, 0.0 if times is None else float(times[0])
    else:
        what = "no time_s column" if times is None else "one time_s row sets no sample rate"
        raise ParseError(f"{path}: {what}; pass --fs to set the sample rate")
    return Waveform(samples, interval, start)


def _read_spectrum_csv(path: str, fs: float | None) -> Spectrum:
    cols = _read_table(path)
    if "re" not in cols or "im" not in cols:
        raise ParseError(f"{path}: spectrum CSV needs 're' and 'im' columns, got {list(cols)}")
    bins = cols["re"] + 1j * cols["im"]
    freqs = cols.get("freq_hz")
    if freqs is not None and len(freqs) > 1:
        # bins 0 and 1 are fs/n apart; at n=2 bin 1 is written as -fs/2
        spacing = abs(float(freqs[1] - freqs[0]))
    elif fs:
        spacing = fs / len(bins)
    else:
        what = "no freq_hz column" if freqs is None else "one freq_hz row sets no bin spacing"
        raise ParseError(f"{path}: {what}; pass --fs to set the bin spacing")
    return Spectrum(bins, spacing)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

GENERATORS = ("dc", "impulse", "sine", "square", "chirp", "gabor")


def _square_wave(cycles: np.ndarray) -> np.ndarray:
    """Unit square wave at phases given in cycles, zero exactly at the jumps.

    sign(sin(2*pi*cycles)) drifts off the jump values in floating point
    (sin(pi) evaluates to ~1.2e-16, so the sign comes out +1 where the
    half-value convention wants 0); folding the phase keeps the jumps exact.
    ``np.remainder`` folds as Python's float ``%`` does.
    """
    u = np.remainder(cycles, 1.0)
    return np.where((u == 0.0) | (u == 0.5), 0.0, np.where(u < 0.5, 1.0, -1.0))


def _need(parser: argparse.ArgumentParser, args: argparse.Namespace, names: list[str]) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        parser.error(f"generator '{args.gen}' needs {', '.join(missing)}")


def _generated_waveform(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Waveform:
    fs = args.fs if args.fs else 1.0
    n = args.n
    interval = 1.0 / fs
    phase = args.phase or 0.0
    if args.gen == "dc":
        return Waveform(np.ones(n), interval)
    if args.gen == "impulse":
        samples = np.zeros(n)
        samples[0] = 1.0
        return Waveform(samples, interval)
    from . import sampling

    # each frequency flag must keep its phase finite at the last sample time, with the
    # factors in the order its generator multiplies them
    last = (n - 1) * interval
    if args.gen == "sine":
        _need(parser, args, ["f"])
        f = _as_float("--f", args.f, 2.0 * math.pi, last)
        return sampling.sample(lambda t: np.sin(2.0 * math.pi * f * t + phase), interval, n)
    if args.gen == "square":
        _need(parser, args, ["f"])
        f = _as_float("--f", args.f, last)
        return sampling.sample(lambda t: _square_wave(f * t + phase / (2.0 * math.pi)),
                               interval, n)
    if args.gen == "chirp":
        _need(parser, args, ["f0", "f1"])
        f0, f1 = (_as_float(name, value, last, 2.0 * math.pi)
                  for name, value in (("--f0", args.f0), ("--f1", args.f1)))
        dur = n * interval
        rate = _as_float("--f1 - --f0", f1 - f0, last, 2.0 * math.pi) / (2.0 * dur)
        return sampling.sample(lambda t: np.cos(2.0 * math.pi * (f0 * t + rate * t * t) + phase),
                               interval, n)
    if args.gen == "gabor":
        _need(parser, args, ["t0", "f0", "alpha"])
        from . import timefreq

        atom = GaborAtom(args.t0, _as_float("--f0", args.f0, 2.0 * math.pi, last), args.alpha,
                         phase)
        timefreq.gabor_atom_eval(atom, last)  # the phase is monotone in t: the last one decides
        return sampling.sample(lambda t: timefreq.gabor_atom_eval(atom, t), interval, n)
    parser.error(f"unknown generator {args.gen!r}")


def _input_waveform(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Waveform:
    if args.input:
        if args.input.lower().endswith(".wav"):
            return _read_wav(args.input)
        return _read_waveform_csv(args.input, args.fs)
    if args.gen:
        return _generated_waveform(parser, args)
    parser.error("give an input file or --gen")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_transform(parser, args, settings) -> tuple:
    method = args.method or settings.get("fft_strategy") or "fft"
    if method not in ("dft", "fft"):
        parser.error(f"--method must be dft or fft, got {method!r}")
    if args.inverse:
        if not args.input:
            parser.error("--inverse needs a spectrum CSV input")
        spec = _read_spectrum_csv(args.input, args.fs)
        return _waveform_table(transforms.idft(spec) if method == "dft"
                               else transforms.ifft(spec))
    w = _input_waveform(parser, args)
    s = transforms.dft(w) if method == "dft" else transforms.fft(w)
    n = len(s)
    re, im = s.bins.real, s.bins.imag
    # np.hypot matches the scalar abs() bit for bit; np.abs and np.arctan2 take
    # SIMD paths that can differ in the last bit, so the phase uses math.atan2.
    phase = np.fromiter(map(math.atan2, im.tolist(), re.tolist()), float, n)
    return (["bin", "freq_hz", "re", "im", "mag", "phase"],
            (np.arange(n), transforms.bin_frequencies(n, s.bin_spacing * n),
             re, im, np.hypot(re, im), phase), None)


def _waveform_table(w: Waveform) -> tuple:
    return (["index", "time_s", "re", "im"],
            (np.arange(len(w)), w.times, w.samples.real, w.samples.imag), None)


def _series_map(parser, args) -> Callable[[np.ndarray], np.ndarray]:
    period = args.period
    if args.gen == "square":
        return lambda t: _square_wave(t / period)
    if args.gen == "sine":
        return lambda t: np.sin(2.0 * math.pi * t / period)
    if args.gen == "dc":
        return np.ones_like
    parser.error(f"series supports --gen square|sine|dc, got {args.gen!r}")


def _cmd_series(parser, args, settings) -> tuple:
    from . import series

    tol = args.tolerance or float(settings.get("quad_tolerance", config.QUADRATURE_TOLERANCE))
    qspec = transforms.QuadratureSpec(0.0, args.period, abs_tolerance=tol)
    coeffs = series.series_coefficients(_series_map(parser, args), args.period,
                                        args.k, qspec)
    missed = [i for i, ok in enumerate(coeffs.converged) if not ok]
    if missed:
        k = coeffs.harmonics
        names = ", ".join(f"a{i}" if i <= k else f"b{i - k}" for i in missed[:5])
        more = ", ..." if len(missed) > 5 else ""
        print(f"fourierkit: warning: {len(missed)} of {2 * k + 1} coefficients missed "
              f"tolerance {tol:g} ({names}{more})", file=sys.stderr)
    if args.synthesize:
        ts = np.linspace(0.0, args.period, args.synthesize, endpoint=False)
        return ["t", "value"], (ts, series.series_synthesize(coeffs, ts)), None
    return (["n", "a", "b"], (np.arange(coeffs.harmonics + 1),
            np.r_[coeffs.a0, coeffs.cosine], np.r_[0.0, coeffs.sine]), None)


def _cmd_sample(parser, args, settings) -> tuple:
    return _waveform_table(_generated_waveform(parser, args))


def _cmd_reconstruct(parser, args, settings) -> tuple:
    from . import sampling

    w = _input_waveform(parser, args)
    span = w.sample_interval * (len(w) - 1)
    ts = w.start_time + np.linspace(0.0, span, args.grid)
    vals = np.array([sampling.sinc_reconstruct(w, t, args.taps) for t in ts.tolist()])
    return ["t", "re", "im"], (ts, vals.real, vals.imag), None


def _cmd_stft(parser, args, settings) -> tuple:
    from . import timefreq

    w = _input_waveform(parser, args)
    dist = timefreq.stft(w, args.window_alpha, args.hop, args.frame)
    return (["t", "f", "re", "im"], (dist.values.real, dist.values.imag),
            (dist.time_axis, dist.freq_axis))


def _cmd_wvd(parser, args, settings) -> tuple:
    from . import timefreq

    w = _input_waveform(parser, args)
    dist = timefreq.wvd(w)
    return ["t", "f", "value"], (dist.values,), (dist.time_axis, dist.freq_axis)


def _cmd_atoms(parser, args, settings) -> tuple:
    from . import timefreq

    atom = GaborAtom(args.t0, args.f0, args.alpha, args.phase or 0.0)
    if args.domain == "time":
        span = 5.0 / atom.alpha
        xs = np.linspace(atom.t0 - span, atom.t0 + span, args.points)
        vals, axis = timefreq.gabor_atom_eval(atom, xs), "t"
    else:
        span = 5.0 * atom.alpha / math.pi
        xs = np.linspace(atom.f0 - span, atom.f0 + span, args.points)
        vals, axis = timefreq.gabor_atom_spectrum(atom, xs), "f"
    return [axis, "re", "im"], (xs, vals.real, vals.imag), None


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _checked(kind: type, ok: Callable[[float], bool], what: str) -> Callable[[str], float]:
    """An argparse ``type=`` that parses with ``kind`` and rejects values failing ``ok``."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_COUNT = _checked(int, lambda v: v > 0, "a positive integer")
_HARMONIC = _checked(int, lambda v: v >= 0, "a non-negative integer")
_POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "a positive finite number")
_NON_NEGATIVE = _checked(float, lambda v: 0.0 <= v < math.inf, "a non-negative finite number")
_FINITE = _checked(float, math.isfinite, "a finite number")


def _add_gen_flags(p: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        p.add_argument("input", nargs="?", help="input CSV or WAV file")
    p.add_argument("--gen", choices=GENERATORS, help="built-in signal generator")
    p.add_argument("--n", type=_COUNT, default=64, help="sample count for generators")
    p.add_argument("--fs", type=_POSITIVE, help="sample rate in Hz (generators and raw CSV)")
    p.add_argument("--f", type=_FINITE, help="tone frequency in Hz")
    p.add_argument("--phase", type=_FINITE, help="phase offset in radians")
    p.add_argument("--f0", type=_FINITE, help="start frequency / atom frequency in Hz")
    p.add_argument("--f1", type=_FINITE, help="chirp end frequency in Hz")
    p.add_argument("--t0", type=_FINITE, help="atom center time in seconds")
    p.add_argument("--alpha", type=_POSITIVE, help="atom width parameter")
    p.add_argument("-o", "--output", help="output CSV path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourierkit",
        description="Fourier analysis toolkit: transforms, series, sampling, "
                    "and time-frequency tables as CSV.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="discrete transform of a waveform")
    _add_gen_flags(p)
    p.add_argument("--inverse", action="store_true", help="invert a spectrum CSV")
    p.add_argument("--method", choices=("dft", "fft"), help="direct or fast path")
    p.set_defaults(run=_cmd_transform)

    p = sub.add_parser("series", help="trigonometric series coefficients")
    p.add_argument("--gen", required=True, help="periodic map: square, sine, or dc")
    p.add_argument("--period", type=_POSITIVE, required=True, help="period in seconds")
    p.add_argument("--k", type=_HARMONIC, required=True, help="highest harmonic")
    p.add_argument("--synthesize", type=_COUNT, metavar="POINTS",
                   help="emit the partial sum on a grid instead of coefficients")
    p.add_argument("--tolerance", type=_POSITIVE, help="quadrature tolerance per coefficient")
    p.add_argument("-o", "--output", help="output CSV path (default: stdout)")
    p.set_defaults(run=_cmd_series)

    p = sub.add_parser("sample", help="sample a generator to a waveform table")
    _add_gen_flags(p, with_input=False)
    p.set_defaults(run=_cmd_sample)

    p = sub.add_parser("reconstruct", help="truncated sinc interpolation table")
    _add_gen_flags(p)
    p.add_argument("--taps", type=_COUNT, default=64, help="samples used per side")
    p.add_argument("--grid", type=_COUNT, default=257, help="output grid size")
    p.set_defaults(run=_cmd_reconstruct)

    p = sub.add_parser("stft", help="short-time spectra under a Gaussian window")
    _add_gen_flags(p)
    p.add_argument("--window-alpha", type=_NON_NEGATIVE, default=0.0,
                   help="Gaussian window width parameter (0 = flat)")
    p.add_argument("--hop", type=_COUNT, required=True, help="frame advance in samples")
    p.add_argument("--frame", type=_COUNT, required=True, help="frame length in samples")
    p.set_defaults(run=_cmd_stft)

    p = sub.add_parser("wvd", help="time-frequency distribution table")
    _add_gen_flags(p)
    p.set_defaults(run=_cmd_wvd)

    p = sub.add_parser("atoms", help="Gabor atom waveform or spectrum table")
    p.add_argument("--t0", type=_FINITE, required=True, help="center time in seconds")
    p.add_argument("--f0", type=_FINITE, required=True, help="center frequency in Hz")
    p.add_argument("--alpha", type=_POSITIVE, required=True, help="width parameter")
    p.add_argument("--phase", type=_FINITE, help="phase offset in radians")
    p.add_argument("--domain", choices=("time", "freq"), default="time")
    p.add_argument("--points", type=_COUNT, default=257, help="grid size")
    p.add_argument("-o", "--output", help="output CSV path (default: stdout)")
    p.set_defaults(run=_cmd_atoms)

    # -1e-3 is a value, as in Python 3.13's argparse; 3.10-3.12 read it as a flag
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = config.load_config()
        header, columns, axes = args.run(parser, args, settings)
        _write_table(args.output, header, *columns, axes=axes)
        return 0
    except BrokenPipeError:
        return 1
    except (FourierKitError, OSError, ValueError, MemoryError) as exc:
        print(f"fourierkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
