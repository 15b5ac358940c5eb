"""Sampling, aliasing, windowing, convolution, and reconstruction.

Sampling is pointwise evaluation on a uniform grid; there is no implicit
anti-alias filtering, so frequencies separated by a multiple of the sample
rate produce identical sample sequences by construction.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .core import (
    ImpulseTrain,
    InvalidParameter,
    LengthMismatch,
    FREQUENCY,
    REAL,
    Waveform,
    _INTERVAL,
    _as_count,
    _as_float,
    _eval_map,
    _require_finite_times,
)
from .kernels import rect
from .transforms import _fft_raw


def sample(map: Callable[[float], complex], sample_interval: float, count: int,
           start_time: float = 0.0) -> Waveform:
    """Evaluate a map at t0 + n*T for n = 0..count-1.

    The result is tagged real exactly when every imaginary part is zero.
    Raises, before the map is called, InvalidParameter unless count is an
    integer >= 1 that numpy can size an array by, NonPositiveInterval unless
    0 < sample_interval < inf with a finite span count * sample_interval, and
    InvalidParameter unless every sample time is finite.  Raises
    NonFiniteSample unless the map gives a finite number at every time.
    """
    count = _as_count("count", count)
    interval = _as_float("sample_interval", sample_interval, count, **_INTERVAL)
    start = _as_float("start_time", start_time)
    _require_finite_times(start, interval, count)
    ts = start + interval * np.arange(count)
    return Waveform(_eval_map(map, ts, complex), interval, start)


def alias_frequency(f: float, sample_rate: float) -> float:
    """Fold a finite f into the principal band [-Fs/2, Fs/2), congruent mod Fs."""
    sample_rate = _as_float("sample_rate", sample_rate, **_INTERVAL)
    half = 0.5 * sample_rate
    return (_as_float("f", f) + half) % sample_rate - half


def convolve_linear(x: Sequence[complex], y: Sequence[complex]) -> np.ndarray:
    """Direct O(len(x) len(y)) linear convolution; output length len(x) + len(y) - 1."""
    xa = np.asarray(x, dtype=np.complex128).reshape(-1)
    ya = np.asarray(y, dtype=np.complex128).reshape(-1)
    if xa.size == 0 or ya.size == 0:
        raise LengthMismatch("convolution needs nonempty sequences")
    return np.convolve(xa, ya)


def convolve_circular(x: Sequence[complex], y: Sequence[complex]) -> np.ndarray:
    """Direct circular convolution of two equal-length sequences.

    The linear convolution is folded onto one period: output k collects
    the terms at k and k + N.  Memory stays O(N).
    """
    xa = np.asarray(x, dtype=np.complex128).reshape(-1)
    ya = np.asarray(y, dtype=np.complex128).reshape(-1)
    if xa.size != ya.size:
        raise LengthMismatch(f"lengths differ: {xa.size} vs {ya.size}")
    if xa.size == 0:
        raise LengthMismatch("convolution needs nonempty sequences")
    n = xa.size
    out = convolve_linear(xa, ya)
    out[:n - 1] += out[n:]
    return out[:n]


def window_rect(w: Waveform, width: float, center: float) -> Waveform:
    """Multiply by a rectangle of the given width centered at a finite ``center``.

    Samples landing exactly on a window edge are halved, matching the
    rectangle kernel's jump convention.
    """
    gains = rect(w.times - _as_float("center", center), width)
    return Waveform._of(w.samples * gains, w.sample_interval, w.start_time, w.tag)


# The offsets d = K, K - 1, ..., -K of a sinc window from its nearest sample and
# (-1)^d / pi, built once: a window of up to K taps a side is a slice of them.
_SINC_TAPS = 1024
_SINC_D = np.arange(_SINC_TAPS, -_SINC_TAPS - 1, -1, dtype=float)
_SINC_SIGN = np.where(_SINC_D % 2 == 0.0, 1.0 / np.pi, -1.0 / np.pi)
_SINC_D.setflags(write=False)
_SINC_SIGN.setflags(write=False)


def sinc_reconstruct(w: Waveform, t: float, taps: int) -> complex:
    """Band-limited interpolant sum_n x[n] sinc((t - t_n)/T), truncated.

    ``taps`` samples are used on each side of t (clipped at the record
    edges); there is no taper, so the truncation error decays like the
    tail of the sinc series it cuts off.  At a sample instant inside the
    record the value is that sample, exactly, regardless of taps.  With t
    at offset d + f samples from sample n, d an integer and |f| <= 1/2,
    sin(pi (d + f)) = (-1)^d sin(pi f), so a call takes one sine and at
    most 2 * taps divisions; its cost does not grow with the record.
    Raises InvalidParameter unless taps is an integer >= 1 and both t and
    its offset (t - t0)/T in samples are finite.
    """
    taps = _as_count("taps", taps)
    t = _as_float("t", t)
    pos = (t - w.start_time) / w.sample_interval
    if not math.isfinite(pos):
        raise InvalidParameter(f"t {t!r} is an overflowing number of samples from start_time")
    x = w.samples
    anchor = math.floor(pos)
    lo = max(0, anchor - taps + 1)
    hi = min(x.size - 1, anchor + taps)
    if hi < lo:
        return 0.0 + 0.0j
    near = round(pos)
    f = pos - near  # exact, and -1/2 <= f <= 1/2
    # at a sample instant every other term is sinc of a nonzero integer, 0; within
    # 2**-60 samples of one they are below 2**-60 of their samples (and 1/f may overflow)
    if abs(f) < 2.0 ** -60:
        return complex(x[near]) if 0 <= near < x.size else 0.0 + 0.0j
    # sinc(pos - n) = (-1)^d sin(pi f) / (pi (d + f)) with d = near - n
    top, count = near - lo, hi - lo + 1
    at = _SINC_TAPS - top
    if 0 <= at and at + count <= _SINC_D.size:
        d, sign = _SINC_D[at:at + count], _SINC_SIGN[at:at + count]
    else:
        d = np.arange(top, top - count, -1, dtype=float)
        sign = np.where(d % 2 == 0.0, 1.0 / np.pi, -1.0 / np.pi)
    s = d + f
    np.divide(sign, s, out=s)
    x = x[lo:hi + 1]
    return complex(s.dot(x.real if w.tag == REAL else x) * math.sin(math.pi * f))


def sample_spectrum(spectrum_map: Callable[[float], complex], bin_spacing: float,
                    count: int) -> tuple[ImpulseTrain, Waveform]:
    """Sample a spectrum at ``count`` multiples of ``bin_spacing`` around 0
    and synthesize the periodic waveform those lines imply.

    Returns the line spectrum as an impulse train and a waveform holding
    x(t) = sum_k X(k F) exp(i 2 pi k F t) sampled over two periods of 1/F,
    oversampled four times past the highest line: one transform of the
    lines placed at bins -k mod 4 * count.  The waveform is tagged real,
    keeping the real part, exactly when X(-kF) = conj(X(kF)) for every line
    (a line whose partner was not sampled pairs with 0).  Raises
    InvalidParameter unless count is an integer >= 1 that numpy can size the
    two periods by, and NonFiniteSample unless the map gives a finite number
    at every frequency.
    """
    bin_spacing = _as_float("bin_spacing", bin_spacing, **_INTERVAL)
    count = _as_count("count", count, 8)  # two periods of 4 * count samples
    ks = np.arange(-(count // 2), count - count // 2)
    freqs = ks * bin_spacing
    weights = _eval_map(spectrum_map, freqs, complex, "spectrum_map", "f")
    train = ImpulseTrain._of(freqs, weights, FREQUENCY)

    per_period = 4 * count
    lines = np.zeros(per_period, dtype=np.complex128)
    lines[-ks % per_period] = weights
    samples = np.tile(_fft_raw(lines), 2)
    interval = 1.0 / (bin_spacing * per_period)
    if np.array_equal(lines, np.conj(lines[-np.arange(per_period) % per_period])):
        return train, Waveform._of(samples.real, interval)
    return train, Waveform._of(samples, interval)
