"""Seeded op lists and their oracles for the three workloads.

Every op carries a ``check`` that compares its output with an independent
reference: ``numpy.fft`` for discrete transforms, closed forms for
integrals, and direct numpy evaluation of the documented formula where
neither exists (truncated sinc sums, the lag-product distribution).  A check
returns None when the output matches and a one-line message otherwise.

The seed changes the data and, within narrow strata, the sizes, k values and
frequencies; the cost profile of a pass is fixed by the strata, so that the
spread across seeds stays small.  Nothing here imports fourierkit at module
level: the parent process uses the CLI op list without loading the program.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import wave
from dataclasses import dataclass
from typing import Callable

import numpy as np

# The oracles keep their own copies of config.DISCRETE_TOLERANCE and
# config.QUADRATURE_TOLERANCE, so a change to the program cannot loosen them.
DISCRETE_TOL = 1e-9
QUAD_TOL = 1e-6


@dataclass
class Op:
    """One in-process library call and the check of its result."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class CliOp:
    """One ``python -m fourierkit`` call; ``check`` reads the output file."""

    kind: str
    argv: list[str]
    output: str
    input_rows: int
    check: Callable[[str], str | None]


class Verifier:
    """Checks an op's output against its oracle, remembering what passed.

    An output bit-identical to an earlier output of the same op that passed
    its oracle passes without running the oracle again; any other output is
    checked in full.  This keeps every pass checked at a fraction of the cost.
    """

    def __init__(self):
        self._passed: dict[object, bytes] = {}

    def verify(self, key, label: str, data: bytes, check: Callable[[], str | None]
               ) -> str | None:
        digest = hashlib.blake2b(data, digest_size=16).digest()
        if self._passed.get(key) == digest:
            return None
        try:
            message = check()
        except Exception as exc:  # an output the oracle cannot read is a failed op
            message = f"{label}: output check raised {type(exc).__name__}: {exc}"
        if message is None:
            self._passed[key] = digest
        return message


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------

def rel_err(got, want) -> float:
    """max |got - want| scaled by max(1, max |want|)."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return math.inf
    if want.size == 0:
        return 0.0
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


def _within(what: str, got, want, tol: float) -> str | None:
    err = rel_err(got, want)
    if err <= tol:
        return None
    shape = np.shape(got), np.shape(want)
    return f"{what}: error {err:.3e} > {tol:g} (shapes {shape[0]} vs {shape[1]})"


def _first(*messages: str | None) -> str | None:
    return next((m for m in messages if m), None)


def bin_freqs(n: int, fs: float) -> np.ndarray:
    """Bin frequencies in transform order, as the docs define them."""
    k = np.arange(n)
    return np.where(k < (n + 1) // 2, k, k - n) * fs / n


def is_pow2(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, math.isqrt(n) + 1))


def _draw_length(rng: np.random.Generator, lo: int, hi: int, prime: bool) -> int:
    """A length in (lo, hi) that is prime, or composite and not a power of two."""
    while True:
        n = int(rng.integers(lo + 1, hi))
        if _is_prime(n) == prime and not is_pow2(n):
            return n


def _strata(rng: np.random.Generator, lo: float, hi: float, count: int) -> np.ndarray:
    """One uniform draw from each of ``count`` equal strata of [lo, hi)."""
    edges = np.linspace(lo, hi, count + 1)
    return edges[:-1] + rng.random(count) * np.diff(edges)


# ---------------------------------------------------------------------------
# numpy references for the time-frequency layer
# ---------------------------------------------------------------------------

def gaussian_window(frame: int, interval: float, alpha: float) -> np.ndarray:
    half = (frame - 1) / 2.0
    offsets = (np.arange(frame) - half) * interval
    if alpha == 0.0:
        return np.ones(frame)
    win = np.exp(-(alpha ** 2) * offsets ** 2)
    win[np.abs(offsets) > 4.0 / alpha] = 0.0
    return win


def stft_ref(x: np.ndarray, interval: float, start: float, alpha: float, hop: int,
             frame: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(frame spectra, frame-center times, bin frequencies) via numpy.fft."""
    frames = np.lib.stride_tricks.sliding_window_view(x, frame)[::hop]
    values = np.fft.fft(frames * gaussian_window(frame, interval, alpha), axis=1)
    starts = np.arange(0, x.size - frame + 1, hop)
    times = start + (starts + (frame - 1) / 2.0) * interval
    return values, times, bin_freqs(frame, 1.0 / interval)


def analytic_ref(x: np.ndarray) -> np.ndarray:
    n = x.size
    gains = np.zeros(n)
    gains[0] = 1.0
    if n % 2 == 0:
        gains[n // 2] = 1.0
        gains[1:n // 2] = 2.0
    else:
        gains[1:(n + 1) // 2] = 2.0
    return np.fft.ifft(np.fft.fft(x) * gains)


def wvd_ref(x: np.ndarray, interval: float, start: float):
    """(rows, times, freqs) of the lag-product distribution of a real input."""
    psi = analytic_ref(x)
    n = psi.size
    lags = n // 2
    reach = lags // 2 - 1
    centers = np.arange(reach, n - reach)
    m = np.arange(reach + 1)
    prod = psi[centers[:, None] + m] * np.conj(psi[centers[:, None] - m])
    r = np.zeros((centers.size, lags), dtype=np.complex128)
    r[:, m] = prod
    r[:, -m[1:]] = np.conj(prod[:, 1:])
    rows = np.fft.fft(r, axis=1).real
    return rows, start + centers * interval, np.arange(lags) / (2.0 * lags * interval)


def uncertainty_ref(x: np.ndarray, interval: float, start: float) -> tuple[float, float, float]:
    psi = analytic_ref(x)
    energy = float(np.sum(np.abs(psi) ** 2))
    ts = start + interval * np.arange(psi.size)
    pt = np.abs(psi) ** 2 / energy
    mean_t = float(np.dot(ts, pt))
    sigma_t = math.sqrt(float(np.dot((ts - mean_t) ** 2, pt)))
    spec = np.abs(np.fft.fft(psi, 8 * psi.size)) ** 2
    freqs = bin_freqs(8 * psi.size, 1.0 / interval)
    pf = spec / float(spec.sum())
    mean_f = float(np.dot(freqs, pf))
    sigma_f = math.sqrt(float(np.dot((freqs - mean_f) ** 2, pf)))
    return sigma_t, sigma_f, sigma_t * sigma_f


def sinc_ref(x: np.ndarray, interval: float, start: float, ts: np.ndarray,
             taps: int) -> np.ndarray:
    """Truncated sinc interpolation as documented: ``taps`` samples each side."""
    out = np.empty(ts.size, dtype=np.complex128)
    for i, t in enumerate(ts):
        pos = (t - start) / interval
        anchor = int(np.floor(pos))
        lo = max(0, anchor - taps + 1)
        hi = min(x.size - 1, anchor + taps)
        n = np.arange(lo, hi + 1)
        out[i] = np.dot(x[lo:hi + 1], np.sinc(pos - n)) if hi >= lo else 0.0
    return out


def square_wave(cycles: float) -> float:
    """Unit square wave with the half value 0 at the jumps, as the CLI's
    generator computes it: exact only where the phase lands exactly on 0.5."""
    u = cycles % 1.0
    if u == 0.0 or u == 0.5:
        return 0.0
    return 1.0 if u < 0.5 else -1.0


def square_map(period: float) -> Callable[[float], float]:
    """Square wave of the given period that returns the half value at grid
    nodes within rounding of a jump, so the quadrature sees the midpoint
    there for any period (t / period misses 0.5 by an ulp for some periods)."""
    def value(t: float) -> float:
        u = (t / period) % 1.0
        if min(u, abs(u - 0.5), 1.0 - u) < 1e-12:
            return 0.0
        return 1.0 if u < 0.5 else -1.0
    return value


def square_sines(k: int) -> np.ndarray:
    ks = np.arange(1, k + 1)
    return np.where(ks % 2 == 1, 4.0 / (np.pi * ks), 0.0)


# ---------------------------------------------------------------------------
# lib-spectra: discrete transforms and the time-frequency layer
# ---------------------------------------------------------------------------

def _signal(rng: np.random.Generator, n: int, complex_valued: bool) -> np.ndarray:
    x = rng.standard_normal(n)
    if complex_valued:
        x = x + 1j * rng.standard_normal(n)
    return x


# Bluestein transforms per pass in the block that holds op_tail_ms.
TAIL_BLOCK = 16


def spectra_ops(seed: int) -> list[Op]:
    """fft/ifft at 64..2^18 (half powers of two), stft, wvd, analytic signal,
    uncertainty product, and a minority of direct dft and circular convolution."""
    from fourierkit import sampling, timefreq, transforms
    from fourierkit.core import Spectrum, Waveform

    rng = np.random.default_rng([seed, 1])
    interval = 1.0 / float(rng.choice([8000.0, 16000.0, 44100.0, 48000.0]))
    ops: list[Op] = []

    def fft_op(n: int, inverse: bool) -> Op:
        x = _signal(rng, n, complex_valued=inverse or bool(rng.integers(2)))
        path = "pow2" if is_pow2(n) else "bluestein"
        if inverse:
            s = Spectrum(x, 1.0 / (n * interval))
            return Op(f"ifft-{path}", f"ifft n={n}", lambda: transforms.ifft(s),
                      lambda r: _within(f"ifft n={n}", r.samples, np.fft.ifft(x), DISCRETE_TOL))
        w = Waveform(x, interval)
        return Op(f"fft-{path}", f"fft n={n}", lambda: transforms.fft(w),
                  lambda r: _within(f"fft n={n}", r.bins, np.fft.fft(x), DISCRETE_TOL))

    # Many small transforms: 8 radix-2 ones at each power of two from 64 to
    # 2048, and 60 Bluestein ones from 65 to 4095 points.  A Bluestein
    # transform costs what its padded power-of-two convolution costs, so each
    # octave of lengths is a plateau of equal latencies.  Thirty of the 60
    # lie in the 257..511 octave, which the counts put in the middle of the
    # latency order: ranks 62 to 91 of 148, above the 48 radix-2 ones, the 12
    # Bluestein ones below 257 and the 4096-point one.  So op_p50_ms falls
    # well inside one plateau, not on a step between two, where it would jump
    # with the seed and the host ...
    pow2 = rng.permutation(np.resize(1 << np.arange(6, 12), 48))
    lengths = [_draw_length(rng, 64 << octave, 128 << octave, prime=i % 2 == 0)
               for octave, count in enumerate((6, 6, 30, 6, 6, 6)) for i in range(count)]
    lengths = rng.permutation(lengths)
    small: list[Op] = []
    for i, n in enumerate(lengths):
        if i < pow2.size:
            small.append(fft_op(int(pow2[i]), inverse=i % 2 == 1))
        small.append(fft_op(int(n), inverse=i % 4 >= 2))
    # ... one to three large ones per octave from 2^12 to 2^18 ...
    for j in range(12, 19):
        ops.append(fft_op(1 << j, inverse=False))
        if j % 2 == 1:
            ops.append(fft_op(1 << j, inverse=True))
        if j < 17:
            ops.append(fft_op(_draw_length(rng, 1 << j, 1 << (j + 1), prime=j % 2 == 1),
                              inverse=j % 2 == 0))
    # ... and a block of Bluestein transforms at prime lengths between 2^17 and
    # 2^18, all of them padded to the same 2^19-point convolution.  With three
    # passes, the two stft ops of each pass are six of the ten ops beyond the
    # tail rank, so op_tail_ms falls inside this dense block of vectorized
    # calls, not on one interpreter-bound stft call whose speed swings with
    # the host.
    for i, n in enumerate(_strata(rng, 1 << 17, (1 << 18) - 2000, TAIL_BLOCK).astype(int)):
        ops.append(fft_op(_draw_length(rng, int(n) - 1, int(n) + 2000, prime=True),
                          inverse=i % 2 == 1))

    def stft_op(n: int, frame: int, hop: int) -> Op:
        t = interval * np.arange(n)
        f0, f1 = rng.uniform(0.01, 0.05) / interval, rng.uniform(0.2, 0.45) / interval
        x = np.cos(2 * np.pi * (f0 * t + (f1 - f0) / (2 * n * interval) * t * t))
        x = x + 0.1 * rng.standard_normal(n)
        alpha = 3.0 / (frame * interval / 2.0)
        w = Waveform(x, interval)
        label = f"stft n={n} frame={frame} hop={hop}"

        def check(r):
            vals, times, freqs = stft_ref(x, interval, 0.0, alpha, hop, frame)
            return _first(_within(label, r.values, vals, DISCRETE_TOL),
                          _within(label + " times", r.time_axis, times, DISCRETE_TOL),
                          _within(label + " freqs", r.freq_axis, freqs, DISCRETE_TOL))

        return Op(f"stft-{'pow2' if is_pow2(frame) else 'bluestein'}", label,
                  lambda: timefreq.stft(w, alpha, hop, frame), check)

    ops.append(stft_op(8192, 64, 1))
    ops.append(stft_op(8192, 1000, 16))

    x_wvd = _signal(rng, 2048, False)
    w_wvd = Waveform(x_wvd, interval)

    def check_wvd(r):
        rows, times, freqs = wvd_ref(x_wvd, interval, 0.0)
        return _first(_within("wvd n=2048", r.values, rows, DISCRETE_TOL),
                      _within("wvd times", r.time_axis, times, DISCRETE_TOL),
                      _within("wvd freqs", r.freq_axis, freqs, DISCRETE_TOL))

    ops.append(Op("wvd", "wvd n=2048", lambda: timefreq.wvd(w_wvd), check_wvd))

    x_an = _signal(rng, 65536, False)
    w_an = Waveform(x_an, interval)
    ops.append(Op("analytic", "analytic_signal n=65536", lambda: timefreq.analytic_signal(w_an),
                  lambda r: _within("analytic_signal", r.samples, analytic_ref(x_an),
                                    DISCRETE_TOL)))

    n = 4096
    t = interval * np.arange(n)
    centre, width = rng.uniform(0.4, 0.6) * n * interval, n * interval / rng.uniform(8, 12)
    carrier = rng.uniform(0.05, 0.2) / interval
    x_un = np.exp(-((t - centre) / width) ** 2) * np.cos(2 * np.pi * carrier * t)
    w_un = Waveform(x_un, interval)
    ops.append(Op("uncertainty", "uncertainty_product n=4096",
                  lambda: timefreq.uncertainty_product(w_un),
                  lambda r: _within("uncertainty_product", tuple(r),
                                    uncertainty_ref(x_un, interval, 0.0), DISCRETE_TOL)))

    for _ in range(2):
        x = _signal(rng, 1024, True)
        ops.append(Op("dft", "dft n=1024",
                      lambda w=Waveform(x, interval): transforms.dft(w),
                      lambda r, x=x: _within("dft n=1024", r.bins, np.fft.fft(x), DISCRETE_TOL)))
        a, b = _signal(rng, 2048, True), _signal(rng, 2048, False)
        ops.append(Op("convolve", "convolve_circular n=2048",
                      lambda a=a, b=b: sampling.convolve_circular(a, b),
                      lambda r, a=a, b=b: _within("convolve_circular n=2048", r,
                                                  np.fft.ifft(np.fft.fft(a) * np.fft.fft(b)),
                                                  DISCRETE_TOL)))
    # The host's speed for sub-millisecond calls swings by up to 70% in phases of
    # seconds.  Spread evenly between the larger ops, the small ones sample
    # it at 40 moments of each pass; run back to back, they would sample it
    # once per pass, and op_p50_ms would follow the phase at three moments.
    spread: list[Op] = []
    for i, op in enumerate(ops):
        spread += small[i * len(small) // len(ops):(i + 1) * len(small) // len(ops)] + [op]
    return spread


# ---------------------------------------------------------------------------
# lib-integrals: series, quadrature transforms, sampling
# ---------------------------------------------------------------------------

def integrals_ops(seed: int) -> list[Op]:
    """Series (scalar square, vectorized rectifier, half-range), quad_ft of a
    Gaussian (one damped), half_transform of e^-x, sampling and sinc grids."""
    from fourierkit import sampling, series, transforms
    from fourierkit.transforms import QuadratureSpec

    rng = np.random.default_rng([seed, 2])
    ops: list[Op] = []

    for k in np.round(_strata(rng, 5, 100, 12) - 0.5).astype(int):
        k = int(k)
        period = float(rng.uniform(0.5, 2.0))
        want = square_sines(k)
        ops.append(Op("series-square", f"series square k={k}",
                      lambda k=k, p=period: series.series_coefficients(square_map(p), p, k),
                      lambda r, k=k, want=want: _first(
                          _within(f"series square k={k} sines", r.sine, want, QUAD_TOL),
                          _within(f"series square k={k} cosines", r.cosine, np.zeros(k), QUAD_TOL),
                          _within(f"series square k={k} mean", r.a0, 0.0, QUAD_TOL))))

    def rectifier(t):
        return np.abs(np.sin(np.pi * t))

    for lo, hi in ((40, 50), (90, 100), (196, 201)):
        k = int(rng.integers(lo, hi))
        ks = np.arange(1, k + 1)
        want = -4.0 / (np.pi * (4.0 * ks ** 2 - 1.0))
        ops.append(Op("series-rectifier", f"series rectifier k={k}",
                      lambda k=k: series.series_coefficients(rectifier, 1.0, k),
                      lambda r, k=k, want=want: _first(
                          _within(f"rectifier k={k} mean", r.a0, 2.0 / np.pi, QUAD_TOL),
                          _within(f"rectifier k={k} cosines", r.cosine, want, QUAD_TOL),
                          _within(f"rectifier k={k} sines", r.sine, np.zeros(k), QUAD_TOL))))

    for kind in ("cosine", "sine", "cosine", "sine"):
        k = int(rng.integers(40, 61))
        extent = float(rng.uniform(1.0, 3.0))
        ks = np.arange(1, k + 1)
        q = ks * np.pi / extent
        tail = 1.0 - (-1.0) ** ks * math.exp(-extent)
        if kind == "cosine":
            want = (2.0 / extent) * tail / (1.0 + q ** 2)
            want0 = (1.0 - math.exp(-extent)) / extent
        else:
            want = (2.0 / extent) * q * tail / (1.0 + q ** 2)
            want0 = 0.0
        label = f"half series {kind} e^-x k={k}"
        ops.append(Op(f"half-series-{kind}", label,
                      lambda kind=kind, k=k, e=extent: series.half_series_coefficients(
                          lambda x: math.exp(-x), e, kind, k),
                      lambda r, kind=kind, label=label, want=want, want0=want0: _first(
                          _within(label, r.cosine if kind == "cosine" else r.sine, want, QUAD_TOL),
                          _within(label + " mean", r.a0, want0, QUAD_TOL))))

    def gaussian(t: float) -> float:
        return math.exp(-math.pi * t * t)

    # Eight alike quad_ft ops sit in the middle of the latency order, so that
    # op_p50_ms falls inside them rather than between two unlike ops.
    window = QuadratureSpec(-6.0, 6.0)
    for _ in range(8):
        freqs = _strata(rng, 0.0, 3.0, 16)
        want = np.exp(-np.pi * freqs ** 2)
        ops.append(Op("quad-ft", "quad_ft gaussian x16",
                      lambda fs=freqs: [transforms.quad_ft(gaussian, float(f), window) for f in fs],
                      lambda rs, want=want: _check_quad("quad_ft gaussian", rs, want)))
    damping = float(rng.uniform(0.5, 2.0))
    damped = QuadratureSpec(-6.0, 6.0, damping=damping)
    freqs = _strata(rng, 0.0, 3.0, 32)
    want = _damped_gaussian_ft(freqs, damping, 6.0)
    ops.append(Op("quad-ft-damped", f"quad_ft damped gaussian d={damping:.3f} x32",
                  lambda fs=freqs: [transforms.quad_ft(gaussian, float(f), damped) for f in fs],
                  lambda rs, want=want: _check_quad("quad_ft damped gaussian", rs, want)))

    half_window = QuadratureSpec(0.0, 40.0)
    for kind in ("cosine", "sine", "cosine", "sine"):
        qs = _strata(rng, 0.1, 8.0, 16)
        want = (1.0 if kind == "cosine" else qs) / (1.0 + qs ** 2)
        ops.append(Op(f"half-transform-{kind}", f"half_transform {kind} e^-x x16",
                      lambda kind=kind, qs=qs: [transforms.half_transform(
                          lambda x: math.exp(-x), float(q), kind, half_window) for q in qs],
                      lambda vs, kind=kind, want=want: _within(
                          f"half_transform {kind}", np.array(vs), want, QUAD_TOL)))

    for _ in range(2):
        interval, n, taps = 1.0 / 64.0, 2048, 64
        tones = _strata(rng, 1.0, 30.0, 3)
        amps = rng.uniform(0.2, 1.0, 3)

        def band_limited(t, tones=tones, amps=amps):
            return sum(a * np.sin(2 * np.pi * f * t) for a, f in zip(amps, tones))

        grid = np.linspace(0.0, (n - 1) * interval, 4097)

        def reconstruct(band_limited=band_limited, grid=grid):
            w = sampling.sample(band_limited, interval, n)
            return w, np.array([sampling.sinc_reconstruct(w, float(t), taps) for t in grid])

        def check_sinc(r, band_limited=band_limited, grid=grid):
            w, got = r
            x = band_limited(interval * np.arange(n))
            return _first(_within("sample band-limited", w.samples, x, DISCRETE_TOL),
                          _within("sinc_reconstruct x4097", got,
                                  sinc_ref(x, interval, 0.0, grid, taps), DISCRETE_TOL))

        ops.append(Op("sinc-grid", "sample + sinc_reconstruct x4097", reconstruct, check_sinc))

    for _ in range(2):
        f0, f1, fs, n = rng.uniform(1, 5), rng.uniform(20, 30), 256.0, 16384
        rate = (f1 - f0) / (2.0 * n / fs)

        def chirp(t, f0=f0, rate=rate):
            return math.cos(2.0 * math.pi * (f0 * t + rate * t * t))

        ts = np.arange(n) / fs
        want = np.cos(2.0 * np.pi * (f0 * ts + rate * ts * ts))
        ops.append(Op("sample-scalar", f"sample scalar chirp n={n}",
                      lambda chirp=chirp, fs=fs, n=n: sampling.sample(chirp, 1.0 / fs, n),
                      lambda r, want=want: _within("sample chirp", r.samples, want,
                                                   DISCRETE_TOL)))
    return ops


def _check_quad(label: str, results, want: np.ndarray) -> str | None:
    unconverged = sum(not r.converged for r in results)
    if unconverged:
        return f"{label}: {unconverged} of {len(results)} results not converged"
    return _within(label, np.array([r.value for r in results]), want, QUAD_TOL)


def _damped_gaussian_ft(freqs: np.ndarray, damping: float, half_width: float) -> np.ndarray:
    """Reference for quad_ft with damping: the integrand is even, so the
    transform is 2 * int_0^L exp(-pi t^2 - d t) cos(2 pi f t) dt, computed by
    composite 40-point Gauss-Legendre on 240 panels (error far below 1e-12)."""
    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(0.0, half_width, 241)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * nodes).ravel()
    wt = (half[:, None] * weights).ravel()
    g = np.exp(-np.pi * t * t - damping * t)
    return 2.0 * np.cos(2.0 * np.pi * np.outer(freqs, t)) @ (g * wt)


# ---------------------------------------------------------------------------
# cli-tables: generated files, argv, and output checks
# ---------------------------------------------------------------------------

def _load(path: str, columns: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
    if header.count(",") != columns - 1:
        raise ValueError(f"{os.path.basename(path)}: header {header.strip()!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _write_re_csv(path: str, x: np.ndarray) -> None:
    np.savetxt(path, x, fmt="%.17g", header="re", comments="")


def _write_wav(path: str, pcm: np.ndarray, rate: int) -> None:
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.astype("<i2").tobytes())


def _check_transform(path: str, x: np.ndarray, fs: float) -> str | None:
    t = _load(path, 6)
    want = np.fft.fft(x)
    n = x.size
    return _first(
        None if t.shape[0] == n else f"transform: {t.shape[0]} rows, expected {n}",
        _within("transform bins", t[:, 2] + 1j * t[:, 3], want, DISCRETE_TOL),
        _within("transform bin index", t[:, 0], np.arange(n), 0.0),
        _within("transform freq_hz", t[:, 1], bin_freqs(n, fs), DISCRETE_TOL),
        _within("transform mag", t[:, 4], np.abs(want), DISCRETE_TOL))


def cli_ops(workdir: str, seed: int, python: list[str]) -> list[CliOp]:
    """Write the seeded input files into ``workdir`` and return the op list.

    The spectrum read by ``transform --inverse`` is the tool's own output for
    the 65536-row CSV; ``python`` is the argv prefix that runs the program.
    """
    rng = np.random.default_rng([seed, 3])
    fs = float(rng.choice([1000.0, 8000.0, 16000.0]))

    def tones(n: int) -> np.ndarray:
        t = np.arange(n) / fs
        x = 0.05 * rng.standard_normal(n)
        for f, a in zip(rng.uniform(0.01, 0.45, 4) * fs, rng.uniform(0.1, 1.0, 4)):
            x += a * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
        return x

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    x_pow2, x_prime = tones(65536), tones(65537)
    _write_re_csv(path("pow2.csv"), x_pow2)
    _write_re_csv(path("prime.csv"), x_prime)
    wav_rate = int(rng.choice([44100, 48000]))
    pcm = np.clip(np.round(tones(48000) * 8000.0), -32768, 32767).astype(np.int16)
    _write_wav(path("tone.wav"), pcm, wav_rate)
    subprocess.run(python + ["transform", path("pow2.csv"), "--fs", repr(fs),
                             "-o", path("spectrum.csv")], check=True)

    ops = [
        CliOp("transform-radix2", ["transform", path("pow2.csv"), "--fs", repr(fs)],
              "out-pow2.csv", 65536, lambda p: _check_transform(p, x_pow2, fs)),
        CliOp("transform-bluestein", ["transform", path("prime.csv"), "--fs", repr(fs)],
              "out-prime.csv", 65537, lambda p: _check_transform(p, x_prime, fs)),
        CliOp("transform-wav", ["transform", path("tone.wav")], "out-wav.csv", 48000,
              lambda p: _check_transform(p, pcm / 32768.0, float(wav_rate))),
    ]

    def check_inverse(p: str) -> str | None:
        t = _load(p, 4)
        return _first(_within("inverse samples", t[:, 2] + 1j * t[:, 3], x_pow2, DISCRETE_TOL),
                      _within("inverse time_s", t[:, 1], np.arange(x_pow2.size) / fs,
                              DISCRETE_TOL))

    ops.append(CliOp("transform-inverse", ["transform", "--inverse", path("spectrum.csv")],
                     "out-inverse.csv", 65536, check_inverse))

    cfs = float(rng.choice([1000.0, 2000.0]))
    f0, f1 = rng.uniform(0.005, 0.05) * cfs, rng.uniform(0.2, 0.45) * cfs

    def chirp(n: int) -> np.ndarray:
        t = np.arange(n) / cfs
        return np.cos(2 * np.pi * (f0 * t + (f1 - f0) / (2.0 * n / cfs) * t * t))

    chirp_flags = ["--gen", "chirp", "--fs", repr(cfs), "--f0", repr(f0), "--f1", repr(f1)]

    def check_stft(p: str) -> str | None:
        vals, times, freqs = stft_ref(chirp(8192), 1.0 / cfs, 0.0, 8.0, 16, 256)
        t = _load(p, 4)
        if t.shape[0] != vals.size:
            return f"stft: {t.shape[0]} rows, expected {vals.size}"
        return _first(_within("stft values", t[:, 2] + 1j * t[:, 3], vals.ravel(), DISCRETE_TOL),
                      _within("stft t", t[:, 0], np.repeat(times, 256), DISCRETE_TOL),
                      _within("stft f", t[:, 1], np.tile(freqs, times.size), DISCRETE_TOL))

    ops.append(CliOp("stft", ["stft", *chirp_flags, "--n", "8192", "--frame", "256",
                              "--hop", "16", "--window-alpha", "8"],
                     "out-stft.csv", 0, check_stft))

    def check_wvd(p: str) -> str | None:
        rows, times, freqs = wvd_ref(chirp(512), 1.0 / cfs, 0.0)
        t = _load(p, 3)
        if t.shape[0] != rows.size:
            return f"wvd: {t.shape[0]} rows, expected {rows.size}"
        return _first(_within("wvd values", t[:, 2], rows.ravel(), DISCRETE_TOL),
                      _within("wvd t", t[:, 0], np.repeat(times, rows.shape[1]), DISCRETE_TOL),
                      _within("wvd f", t[:, 1], np.tile(freqs, times.size), DISCRETE_TOL))

    ops.append(CliOp("wvd", ["wvd", *chirp_flags, "--n", "512"], "out-wvd.csv", 0, check_wvd))

    sq_f, sq_fs = float(rng.uniform(5.0, 50.0)), 1000.0

    def check_sample(p: str) -> str | None:
        ts = (1.0 / sq_fs) * np.arange(65536)
        want = np.array([square_wave(sq_f * t) for t in ts])
        t = _load(p, 4)
        return _first(_within("sample values", t[:, 2] + 1j * t[:, 3], want, DISCRETE_TOL),
                      _within("sample time_s", t[:, 1], ts, DISCRETE_TOL))

    ops.append(CliOp("sample", ["sample", "--gen", "square", "--fs", repr(sq_fs),
                                "--f", repr(sq_f), "--n", "65536"],
                     "out-sample.csv", 0, check_sample))

    def check_reconstruct(p: str) -> str | None:
        grid = np.linspace(0.0, (x_pow2.size - 1) / fs, 257)
        t = _load(p, 3)
        want = sinc_ref(x_pow2.astype(complex), 1.0 / fs, 0.0, grid, 64)
        return _first(_within("reconstruct values", t[:, 1] + 1j * t[:, 2], want, DISCRETE_TOL),
                      _within("reconstruct t", t[:, 0], grid, DISCRETE_TOL))

    ops.append(CliOp("reconstruct", ["reconstruct", path("pow2.csv"), "--fs", repr(fs),
                                     "--grid", "257"], "out-reconstruct.csv", 65536,
                     check_reconstruct))

    def check_series(p: str) -> str | None:
        t = _load(p, 3)
        return _first(None if t.shape[0] == 100 else f"series: {t.shape[0]} rows, expected 100",
                      _within("series sines", t[1:, 2], square_sines(99), QUAD_TOL),
                      _within("series cosines", t[:, 1], np.zeros(100), QUAD_TOL))

    ops.append(CliOp("series", ["series", "--gen", "square", "--period", "1", "--k", "99"],
                     "out-series.csv", 0, check_series))

    # Both atom domains: an odd op count puts op_p50_ms inside one op's
    # latencies instead of halfway across the gap between two.
    t0, af0, alpha = (float(v) for v in (rng.uniform(0, 1), rng.uniform(1, 8), rng.uniform(2, 8)))

    def check_atoms(p: str) -> str | None:
        ts = np.linspace(t0 - 5.0 / alpha, t0 + 5.0 / alpha, 257)
        want = np.exp(-(alpha ** 2) * (ts - t0) ** 2 + 2j * np.pi * af0 * ts)
        t = _load(p, 3)
        return _first(_within("atoms values", t[:, 1] + 1j * t[:, 2], want, DISCRETE_TOL),
                      _within("atoms t", t[:, 0], ts, DISCRETE_TOL))

    def check_atoms_freq(p: str) -> str | None:
        fs = np.linspace(af0 - 5.0 * alpha / np.pi, af0 + 5.0 * alpha / np.pi, 257)
        df = fs - af0
        want = np.exp(-((np.pi / alpha) ** 2) * df ** 2 - 2j * np.pi * t0 * df)
        t = _load(p, 3)
        return _first(_within("atoms spectrum", t[:, 1] + 1j * t[:, 2], want, DISCRETE_TOL),
                      _within("atoms f", t[:, 0], fs, DISCRETE_TOL))

    atom = ["atoms", "--t0", repr(t0), "--f0", repr(af0), "--alpha", repr(alpha)]
    ops.append(CliOp("atoms", atom, "out-atoms.csv", 0, check_atoms))
    ops.append(CliOp("atoms-freq", atom + ["--domain", "freq"], "out-atoms-freq.csv", 0,
                     check_atoms_freq))
    return ops
