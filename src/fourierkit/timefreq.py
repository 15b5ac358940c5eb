"""Time-frequency layer: analytic signal, Gabor atoms, short-time spectra,
the discrete distribution built from the instantaneous autocorrelation, and
RMS duration-bandwidth products.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    FrameTooLong,
    GaborAtom,
    InvalidParameter,
    OddLength,
    REAL,
    RealTagViolation,
    TFDistribution,
    Waveform,
    ZeroEnergy,
    _as_array,
    _as_count,
    _as_float,
    _gaussian_width_ok,
    _match,
)
from .transforms import _block_rows, _fft_raw, _ifft_raw, bin_frequencies


def analytic_signal(w: Waveform) -> Waveform:
    """One-sided counterpart of a real waveform.

    Built in the transform domain: DC and (for even N) the midpoint bin are
    kept, positive-frequency bins are doubled, negative-frequency bins are
    zeroed, then the inverse transform is applied.  The real part of the
    result reproduces the input.
    """
    if w.tag != REAL:
        raise RealTagViolation("analytic signal needs a real-tagged waveform")
    n = len(w)
    if n < 2:
        raise InvalidParameter(f"need at least 2 samples, got {n}")
    gains = np.zeros(n)
    gains[0] = 1.0
    gains[1:(n + 1) // 2] = 2.0
    if n % 2 == 0:
        gains[n // 2] = 1.0
    bins = _fft_raw(w.samples) * gains
    return Waveform(_ifft_raw(bins), w.sample_interval, w.start_time)


def gabor_atom_eval(g: GaborAtom, t):
    """Atom value exp(-alpha^2 (t - t0)^2) * cis(2 pi f0 t + phase)."""
    ts = _as_array("t", t)
    out = np.exp(-(g.alpha ** 2) * (ts - g.t0) ** 2
                 + 1j * (2.0 * np.pi * g.f0 * ts + g.phase))
    return _match(t, out, complex)


def gabor_atom_spectrum(g: GaborAtom, f):
    """Atom spectrum with unit peak at f0.

    The continuous transform of the atom is (sqrt(pi)/alpha) times this
    value; that constant is dropped so the envelope peaks at 1, leaving
    exp(-(pi/alpha)^2 (f - f0)^2) * cis(phase - 2 pi t0 (f - f0)).
    """
    fs = _as_array("f", f)
    df = fs - g.f0
    out = np.exp(-((np.pi / g.alpha) ** 2) * df ** 2
                 + 1j * (g.phase - 2.0 * np.pi * g.t0 * df))
    return _match(f, out, complex)


def stft(w: Waveform, window_alpha: float, hop: int, frame: int) -> TFDistribution:
    """Short-time spectra under a Gaussian window.

    Args:
        w: input waveform (real or complex).
        window_alpha: Gaussian width parameter, with alpha^2 and
            (pi/alpha)^2 finite as for a GaborAtom; 0 gives a flat
            (rectangular) window, making the result a blockwise discrete
            transform.
        hop: frame advance in samples.
        frame: frame length in samples; frames never cross the record edge.

    Returns:
        TFDistribution of kind "stft-complex": one row per frame position,
        row time at the frame center, columns in transform bin order.
    """
    window_alpha = _as_float("window_alpha", window_alpha)
    if not (window_alpha == 0.0 or _gaussian_width_ok(window_alpha)):
        raise InvalidParameter(f"window_alpha must be 0, or > 0 with alpha^2 and (pi/alpha)^2 "
                               f"finite, got {window_alpha!r}")
    hop, frame = _as_count("hop", hop), _as_count("frame", frame)
    n = len(w)
    if frame > n:
        raise FrameTooLong(f"frame {frame} longer than record {n}")

    half = (frame - 1) / 2.0
    offsets = (np.arange(frame) - half) * w.sample_interval
    if window_alpha == 0.0:
        window = np.ones(frame)
    else:  # zero past 4 / alpha, where the square of an offset could overflow
        window, inside = np.zeros(frame), np.abs(offsets) <= 4.0 / window_alpha
        window[inside] = np.exp(-(window_alpha ** 2) * offsets[inside] ** 2)

    starts = np.arange(0, n - frame + 1, hop)
    rows = _fft_raw(sliding_window_view(w.samples, frame)[::hop] * window)
    times = w.start_time + (starts + half) * w.sample_interval
    freqs = bin_frequencies(frame, 1.0 / w.sample_interval)
    return TFDistribution(rows, times, freqs, kind="stft-complex")


def wvd(w: Waveform) -> TFDistribution:
    """Discrete distribution from the instantaneous autocorrelation.

    A real input is first made analytic.  For each time index n the lag
    product Psi(n+m) * conj(Psi(n-m)) is formed over a symmetric lag window
    of half the record and transformed over m; rows are emitted only where
    the full lag window fits, so every row has the same frequency
    resolution.  Because the lag product is conjugate symmetric each row is
    real up to round-off; the stored values are exactly real.

    The lag variable advances two samples of delay per step, so a tone at
    f0 peaks at the bin nearest 2 * f0 * T * M on a frequency axis of
    k / (2 * M * T), i.e. at f0 in axis units.
    """
    n = len(w)
    if n % 2 != 0:
        raise OddLength(f"need an even sample count, got {n}")
    if n < 4:
        raise InvalidParameter(f"need at least 4 samples, got {n}")
    psi = analytic_signal(w).samples if w.tag == REAL else w.samples

    lags = n // 2
    reach = lags // 2 - 1
    centers = np.arange(reach, n - reach)
    m = np.arange(0, reach + 1)
    rows = np.empty((centers.size, lags))
    # one block of lag rows, reused: lags 0..reach, their mirrors at lags - reach..lags - 1,
    # and the zeros between them, which no block writes
    step = _block_rows(lags)
    lagged = np.zeros((min(step, centers.size), lags), dtype=np.complex128)
    for lo in range(0, centers.size, step):
        c = centers[lo:lo + step, None]
        block = lagged[:c.shape[0]]
        prod = block[:, :reach + 1]
        np.multiply(psi[c + m], np.conj(psi[c - m]), out=prod)
        block[:, lags - reach:] = np.conj(prod[:, :0:-1])
        rows[lo:lo + c.shape[0]] = _fft_raw(block).real
    times = w.start_time + centers * w.sample_interval
    freqs = np.arange(lags) / (2.0 * lags * w.sample_interval)
    return TFDistribution(rows, times, freqs, kind="wvd-real")


class UncertaintyProduct(NamedTuple):
    sigma_t: float
    sigma_f: float
    product: float


def uncertainty_product(w: Waveform) -> UncertaintyProduct:
    """RMS duration, RMS bandwidth, and their product.

    A real input is replaced by its analytic form so the spectral centroid
    is one-sided.  sigma_t is the RMS width of |x(t)|^2 over the sample
    grid; sigma_f the RMS width of |X(f)|^2 on an eight-fold zero-padded
    transform grid.  For a well-resolved Gaussian envelope on a carrier the
    product approaches 1/(4 pi), the smallest value any waveform attains.
    The waveform is scaled to a peak magnitude of 1 first, so the result
    does not depend on its amplitude.
    """
    psi = analytic_signal(w).samples if w.tag == REAL else w.samples
    peak = float(np.max(np.abs(psi)))
    if peak == 0.0:
        raise ZeroEnergy("uncertainty product of an all-zero waveform")
    psi = psi / peak  # at a peak of 1, |psi|^2 neither overflows nor underflows to 0
    energy = float(np.sum(np.abs(psi) ** 2))

    ts = w.times
    pt = np.abs(psi) ** 2 / energy
    mean_t = float(np.dot(ts, pt))
    sigma_t = math.sqrt(float(np.dot((ts - mean_t) ** 2, pt)))

    padded = np.zeros(8 * psi.size, dtype=np.complex128)
    padded[:psi.size] = psi
    spec = np.abs(_fft_raw(padded)) ** 2
    freqs = bin_frequencies(padded.size, 1.0 / w.sample_interval)
    pf = spec / float(spec.sum())
    mean_f = float(np.dot(freqs, pf))
    sigma_f = math.sqrt(float(np.dot((freqs - mean_f) ** 2, pf)))
    return UncertaintyProduct(sigma_t, sigma_f, sigma_t * sigma_f)
