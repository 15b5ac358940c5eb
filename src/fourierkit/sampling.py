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
    NonFiniteSample,
    FREQUENCY,
    Waveform,
    _eval_map,
    _require_positive,
)
from .kernels import rect, sinc
from .transforms import _fft_raw


def _require_finite(vals: np.ndarray, at: np.ndarray, name: str) -> None:
    """Raise NonFiniteSample at the first point of ``at`` whose value is not finite."""
    bad = ~np.isfinite(vals)
    if bad.any():
        raise NonFiniteSample(f"map produced a non-finite value at {name} = "
                              f"{float(at[np.argmax(bad)])!r}")


def sample(map: Callable[[float], complex], sample_interval: float, count: int,
           start_time: float = 0.0) -> Waveform:
    """Evaluate a map at t0 + n*T for n = 0..count-1.

    The result is tagged real exactly when every imaginary part is zero.
    Raises NonFiniteSample if the map produces NaN or infinity.
    """
    _require_positive("sample_interval", sample_interval)
    if count < 1:
        raise InvalidParameter(f"count must be >= 1, got {count}")
    if not math.isfinite(start_time):
        raise InvalidParameter(f"start_time must be finite, got {start_time!r}")
    ts = start_time + sample_interval * np.arange(count)
    vals = _eval_map(map, ts, complex)
    _require_finite(vals, ts, "t")
    return Waveform(vals, sample_interval, start_time)


def alias_frequency(f: float, sample_rate: float) -> float:
    """Fold f into the principal band [-Fs/2, Fs/2), congruent mod Fs."""
    _require_positive("sample_rate", sample_rate)
    half = 0.5 * sample_rate
    return (float(f) + half) % sample_rate - half


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
    """Multiply by a rectangle of the given width centered at ``center``.

    Samples landing exactly on a window edge are halved, matching the
    rectangle kernel's jump convention.
    """
    gains = rect(w.times - center, width)
    return Waveform(w.samples * gains, w.sample_interval, w.start_time, tag=w.tag)


def sinc_reconstruct(w: Waveform, t: float, taps: int) -> complex:
    """Band-limited interpolant sum_n x[n] sinc((t - t_n)/T), truncated.

    ``taps`` samples are used on each side of t (clipped at the record
    edges); there is no taper, so the truncation error decays like the
    tail of the sinc series it cuts off.  At a sample instant the value is
    exact regardless of taps.
    """
    if taps < 1:
        raise InvalidParameter(f"taps must be >= 1, got {taps}")
    if not math.isfinite(t):
        raise InvalidParameter(f"t must be finite, got {t!r}")
    pos = (float(t) - w.start_time) / w.sample_interval
    anchor = int(np.floor(pos))
    lo = max(0, anchor - taps + 1)
    hi = min(len(w) - 1, anchor + taps)
    if hi < lo:
        return 0.0 + 0.0j
    n = np.arange(lo, hi + 1)
    return complex(np.dot(w.samples[lo:hi + 1], sinc(pos - n)))


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
    NonFiniteSample if the map produces NaN or infinity.
    """
    _require_positive("bin_spacing", bin_spacing)
    if count < 1:
        raise InvalidParameter(f"count must be >= 1, got {count}")
    ks = np.arange(-(count // 2), count - count // 2)
    freqs = ks * bin_spacing
    weights = _eval_map(spectrum_map, freqs, complex)
    _require_finite(weights, freqs, "f")
    train = ImpulseTrain(tuple(zip(freqs.tolist(), weights.tolist())), domain=FREQUENCY)

    per_period = 4 * count
    lines = np.zeros(per_period, dtype=np.complex128)
    lines[-ks % per_period] = weights
    samples = np.tile(_fft_raw(lines), 2)
    interval = 1.0 / (bin_spacing * per_period)
    if np.array_equal(lines, np.conj(lines[-np.arange(per_period) % per_period])):
        return train, Waveform(samples.real, interval, 0.0)
    return train, Waveform(samples, interval, 0.0)
