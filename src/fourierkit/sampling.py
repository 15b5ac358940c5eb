"""Sampling, aliasing, windowing, convolution, and reconstruction.

Sampling is pointwise evaluation on a uniform grid; there is no implicit
anti-alias filtering, so frequencies separated by a multiple of the sample
rate produce identical sample sequences by construction.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .core import (
    ImpulseTrain,
    InvalidParameter,
    LengthMismatch,
    NonFiniteSample,
    NonPositiveInterval,
    FREQUENCY,
    Waveform,
    _eval_map,
    validate_waveform,
)
from .kernels import rect, sinc


def sample(map: Callable[[float], complex], sample_interval: float, count: int,
           start_time: float = 0.0) -> Waveform:
    """Evaluate a map at t0 + n*T for n = 0..count-1.

    The result is tagged real exactly when every imaginary part is zero.
    Raises NonFiniteSample if the map produces NaN or infinity.
    """
    if not sample_interval > 0.0:
        raise NonPositiveInterval(f"sample_interval must be > 0, got {sample_interval!r}")
    if count < 1:
        raise InvalidParameter(f"count must be >= 1, got {count}")
    ts = start_time + sample_interval * np.arange(count)
    vals = _eval_map(map, ts, complex)
    if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
        bad = int(np.flatnonzero(~(np.isfinite(vals.real) & np.isfinite(vals.imag)))[0])
        raise NonFiniteSample(f"map produced a non-finite value at t = {ts[bad]!r}")
    return Waveform(vals, sample_interval, start_time)


def alias_frequency(f: float, sample_rate: float) -> float:
    """Fold f into the principal band [-Fs/2, Fs/2), congruent mod Fs."""
    if not sample_rate > 0.0:
        raise NonPositiveInterval(f"sample_rate must be > 0, got {sample_rate!r}")
    half = 0.5 * sample_rate
    return (float(f) + half) % sample_rate - half


def convolve_linear(x: Sequence[complex], y: Sequence[complex]) -> np.ndarray:
    """Direct linear convolution; output length len(x) + len(y) - 1."""
    xa = np.asarray(x, dtype=np.complex128).reshape(-1)
    ya = np.asarray(y, dtype=np.complex128).reshape(-1)
    if xa.size == 0 or ya.size == 0:
        raise LengthMismatch("convolution needs nonempty sequences")
    out = np.zeros(xa.size + ya.size - 1, dtype=np.complex128)
    for m, xv in enumerate(xa):
        out[m:m + ya.size] += xv * ya
    return out


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
    validate_waveform(w)
    gains = rect(w.times - center, width)
    return Waveform(w.samples * gains, w.sample_interval, w.start_time, tag=w.tag)


def sinc_reconstruct(w: Waveform, t: float, taps: int) -> complex:
    """Band-limited interpolant sum_n x[n] sinc((t - t_n)/T), truncated.

    ``taps`` samples are used on each side of t (clipped at the record
    edges); there is no taper, so the truncation error decays like the
    tail of the sinc series it cuts off.  At a sample instant the value is
    exact regardless of taps.
    """
    validate_waveform(w)
    if taps < 1:
        raise InvalidParameter(f"taps must be >= 1, got {taps}")
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
    oversampled four times past the highest line.
    """
    if not bin_spacing > 0.0:
        raise NonPositiveInterval(f"bin_spacing must be > 0, got {bin_spacing!r}")
    if count < 1:
        raise InvalidParameter(f"count must be >= 1, got {count}")
    ks = np.arange(-(count // 2), count - count // 2)
    weights = np.array([complex(spectrum_map(k * bin_spacing)) for k in ks])
    train = ImpulseTrain(tuple(zip((ks * bin_spacing).tolist(), weights.tolist())),
                         domain=FREQUENCY)

    per_period = 4 * count
    interval = 1.0 / (bin_spacing * per_period)
    ts = interval * np.arange(2 * per_period)
    phases = np.exp(2j * np.pi * bin_spacing * np.outer(ts, ks))
    samples = phases @ weights
    if np.all(samples.imag == 0.0):
        return train, Waveform(samples.real, interval, 0.0)
    return train, Waveform(samples, interval, 0.0)
