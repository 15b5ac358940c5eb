"""Transform family.

Discrete side: ``dft`` is the direct O(N^2) summation and is kept as the
reference path; ``fft`` runs one batched core that transforms the last axis
of a (..., N) array.  A length N = 2^a 3^b 5^c 7^d runs as mixed-radix
stages of radix 16, 9, 25 or 7 and one each of 8/4/2, 3 and 5 for what is
left, each one stacked matrix product with the r-point DFT matrix plus
twiddles from small cached tables.  Any other length runs as a chirp
convolution padded to the cheapest such length.  The time-frequency layer
hands the core all of its frames in one call.  Forward transforms are
unscaled, inverses carry 1/N.

Continuous side: ``quad_ft`` integrates map(t) * exp(-+ i 2 pi f t) with an
adaptive Simpson rule, with an optional exponential damping factor for
slowly decaying tails, and ``half_transform`` does the cosine/sine integral
over the half line with the kernel argument in radians per second.  The
rule refines level by level over arrays of intervals (the global strategy
of QUADPACK applied to adaptive Simpson), so the map and the kernel are
evaluated on all new points of a level at once.  Which intervals pass
depends only on their own samples, depth and tolerance; when the split
budget runs out, a level spends what is left on its leftmost intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from numbers import Integral
from typing import Callable

import numpy as np

from .config import MAX_SUBDIVISIONS, QUADRATURE_TOLERANCE
from .core import (
    EmptyBins,
    IndexOutOfRange,
    InvalidParameter,
    NonPositiveInterval,
    Spectrum,
    ToleranceNotReached,
    Waveform,
    _eval_map,
    _require_positive,
)

FORWARD = "forward"
INVERSE = "inverse"
COSINE = "cosine"
SINE = "sine"


# ---------------------------------------------------------------------------
# discrete transforms
# ---------------------------------------------------------------------------

_BLOCK_ENTRIES = 2_000_000  # entries per block of a direct sum's kernel matrix


def _dft_raw(x: np.ndarray, sign: float = -1.0) -> np.ndarray:
    """Direct summation sum_n x[n] exp(sign * i 2 pi k n / N).

    The kernel gathers from one table of the N roots of unity at (k*n) mod N,
    an exact integer index, so conjugate bins agree to machine precision even
    for large N.  Rows are processed in chunks to keep the kernel matrix
    small.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    out = np.empty(n, dtype=np.complex128)
    idx = np.arange(n, dtype=np.int64)
    roots = np.exp((sign * 2j * np.pi / n) * idx)
    chunk = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, n, chunk):
        ang = idx[lo:lo + chunk, None] * idx
        ang %= n  # in place: one index matrix per chunk, not two
        out[lo:lo + chunk] = roots[ang] @ x
    return out


def dft(w: Waveform) -> Spectrum:
    """Forward discrete transform by direct summation, no scaling."""
    n = len(w)
    return Spectrum(_dft_raw(w.samples, -1.0), bin_spacing=1.0 / (n * w.sample_interval))


def idft(s: Spectrum) -> Waveform:
    """Inverse discrete transform by direct summation, scaled by 1/N.

    The spectrum carries no time origin, so the waveform starts at t = 0.
    """
    n = len(s)
    samples = _dft_raw(s.bins, +1.0) / n
    return Waveform(samples, sample_interval=1.0 / (n * s.bin_spacing))


# (prime p, power k) of the full radices p^k = 16, 9, 25 and 7 of the stage
# plans.  They take as many stages as they can, then one stage of 2, 4 or 8,
# one of 3 and one of 5 take what is left, so a power of two keeps its
# radix-16 stages and its remainder last.
_FULL_RADICES = ((2, 4), (3, 2), (5, 2), (7, 1))


@lru_cache(maxsize=512)
def _plan(n: int) -> tuple[int, ...] | None:
    """Stage radices of an n-point transform, or None if n has a prime
    factor above 7."""
    full, rest = [], []
    for p, k in _FULL_RADICES:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        full += [p ** k] * (e // k)
        rest += [p ** (e % k)] if e % k else []
    return tuple(full + rest) if n == 1 else None


@lru_cache(maxsize=512)
def _twiddle(m: int, rows: int, step: int, r: int) -> np.ndarray:
    """Table exp(-i 2 pi (j * step * k mod m) / m) of shape (r, rows), indexed
    [k, j], immutable once built; ``_twiddle(r, r, 1, r)`` is the r-point DFT
    matrix.  The angle is reduced in integers to the nearest quarter turn,
    whose factor is exact, and a remainder of at most an eighth of a turn."""
    j = np.arange(rows, dtype=np.int64)
    k = np.arange(r, dtype=np.int64)
    q = 4 * ((k[:, None] * (j * step)) % m)
    quarter = (q + m // 2) // m
    w = np.exp((-2j * np.pi / (4 * m)) * (q - quarter * m))
    w *= np.array([1.0, -1j, -1.0, 1j])[quarter % 4]
    w.setflags(write=False)
    return w


# Largest batch, in padded points, that one kernel call transforms at once;
# bigger batches go through in row blocks so the scratch buffers stay bounded.
_CHUNK_POINTS = 1 << 19


def _by_chunks(kernel: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
               padded: int) -> np.ndarray:
    """Apply ``kernel`` to the rows of x (last axis) in blocks of at most
    _CHUNK_POINTS points once each row is padded to ``padded``."""
    rows = x.reshape(-1, x.shape[-1])
    step = max(1, _CHUNK_POINTS // padded)
    if rows.shape[0] <= step:
        return kernel(rows).reshape(x.shape)
    out = np.empty(rows.shape, dtype=np.complex128)
    for lo in range(0, rows.shape[0], step):
        out[lo:lo + step] = kernel(rows[lo:lo + step])
    return out.reshape(x.shape)


def _fft_smooth(x: np.ndarray, conj: bool = False) -> np.ndarray:
    """Cooley-Tukey transform of the last axis, whose length n must have a
    ``_plan``, in one stage per radix of the plan; with ``conj`` it
    transforms conj(x) without touching x.

    A stage sees each row as (t1, t2, done): t1 the leading time digit of
    radix r, t2 the rest of the sub-transform's time index, and done the
    output digits found so far.  One stacked matmul with the r-point DFT
    matrix contracts t1 into the output digit k1.  The twiddles
    exp(-i 2 pi t2 k1 / m) of the length-m sub-transform then apply in place
    as two small factors, split at the next stage's leading digit of t2, and
    one copy stores the row as (t2, k1, done) so that digit leads.  The last
    stage needs no twiddles and leaves the row in natural order.  Every
    stage writes into the same two preallocated buffers.  The batch stays
    out of the matmul's column count: every row runs the same BLAS call, so
    a batch gives the bits of row-by-row calls.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    batch = x.size // n
    plan = _plan(n)
    spec, store = (np.empty((batch, n), dtype=np.complex128) for _ in range(2))
    src = np.conjugate(x.reshape(batch, n), out=store) if conj else x.reshape(batch, n)
    m, done = n, 1
    for r, lead in zip(plan, plan[1:] + (1,)):
        np.matmul(_twiddle(r, r, 1, r), src.reshape(batch, r, n // r),
                  out=spec.reshape(batch, r, n // r))
        if lead == 1:
            return spec.reshape(x.shape)
        rest = m // r
        low = rest // lead
        y = spec.reshape(batch, r, lead, low, done)
        y *= _twiddle(m, lead, low, r)[:, :, None, None]
        y *= _twiddle(m, low, 1, r)[:, None, :, None]
        # a plain copy moves the digit; a ufunc writing through the transposed
        # view is several times slower on large rows
        np.copyto(store.reshape(batch, lead, low, r, done).transpose(0, 3, 1, 2, 4), y)
        src, m, done = store, rest, done * r


@lru_cache(maxsize=512)
def _bluestein_length(n: int) -> int:
    """Convolution length of an n-point Bluestein transform: of the lengths
    m >= 2n-1 that have a plan and are at most the next power of two, the
    one with the fewest points times stages (the smaller on a tie)."""
    low = 2 * n - 1
    top = 1 << (low - 1).bit_length()
    odds = [1]
    for p in (3, 5, 7):
        odds = [o * p ** e for o in odds for e in range(top.bit_length()) if o * p ** e <= top]
    # each odd part times the least power of two that reaches low
    lengths = (o << ((low - 1) // o).bit_length() for o in odds)
    return min((m * len(_plan(m)), m) for m in lengths if m <= top)[1]


def _bluestein(x: np.ndarray, conj: bool) -> np.ndarray:
    """Arbitrary-length transform of the last axis (of conj(x) with
    ``conj``) as a chirp-modulated convolution of ``_bluestein_length``
    points.

    The quadratic exponent is reduced mod 2N in integer arithmetic before
    the complex exponential so large N does not lose phase accuracy.  The
    chirp and the spectrum of the convolution kernel are built once per
    call and shared by every row.
    """
    n = x.shape[-1]
    chirp = np.exp((-1j * np.pi / n) * (np.arange(n, dtype=np.int64) ** 2 % (2 * n)))
    m = _bluestein_length(n)
    kernel = np.zeros(m, dtype=np.complex128)
    kernel[:n] = np.conj(chirp)
    kernel[m - n + 1:] = np.conj(chirp[1:])[::-1]
    kernel = _fft_smooth(kernel)  # rebinding frees the padded chirp before the rows run

    def convolve(rows: np.ndarray) -> np.ndarray:
        a = np.zeros((rows.shape[0], m), dtype=np.complex128)
        head = np.conjugate(rows, out=a[:, :n]) if conj else rows
        np.multiply(head, chirp, out=a[:, :n])
        np.multiply(_fft_smooth(a), kernel, out=a)
        # inverse transform as conj(fft(conj(.))) / m
        out = np.conjugate(_fft_smooth(a, conj=True)[:, :n])
        out /= m
        out *= chirp
        return out

    return _by_chunks(convolve, x, m)


def _transform(x: np.ndarray, inverse: bool) -> np.ndarray:
    """Transform of the last axis of a (..., n) array: mixed-radix stages for
    lengths 2^a 3^b 5^c 7^d, a chirp convolution padded to such a length for
    the others.  The inverse is conj(fft(conj(x))) / n, with the input
    conjugated into the kernel's scratch so x is neither copied nor changed."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    if n <= 1:
        return x.copy()
    if _plan(n) is None:
        out = _bluestein(x, conj=inverse)
    else:
        out = _by_chunks(partial(_fft_smooth, conj=inverse), x, n)
    if inverse:
        np.conjugate(out, out=out)
        out /= n
    return out


def _fft_raw(x: np.ndarray) -> np.ndarray:
    """Forward transform of the last axis of a (..., n) array, unscaled."""
    return _transform(x, inverse=False)


def _ifft_raw(x: np.ndarray) -> np.ndarray:
    """Inverse transform of the last axis of a (..., n) array, scaled by 1/n."""
    return _transform(x, inverse=True)


def fft(w: Waveform) -> Spectrum:
    """Fast transform, same contract as ``dft``."""
    n = len(w)
    return Spectrum(_fft_raw(w.samples), bin_spacing=1.0 / (n * w.sample_interval))


def ifft(s: Spectrum) -> Waveform:
    """Fast inverse, same contract as ``idft``."""
    n = len(s)
    return Waveform(_ifft_raw(s.bins), sample_interval=1.0 / (n * s.bin_spacing))


def dtft_eval(w: Waveform, f: float) -> complex:
    """Evaluate sum_n x[n] exp(-i 2 pi f n T) at one frequency.

    This is the sample-sum transform of the sequence; it is periodic in f
    with period 1/T.  The waveform's start time does not enter.
    """
    if not math.isfinite(f):
        raise InvalidParameter(f"frequency must be finite, got {f!r}")
    n = np.arange(len(w))
    return complex(np.dot(w.samples, np.exp(-2j * np.pi * f * w.sample_interval * n)))


def _bin_frequency(k, n: int, sample_rate: float):
    """Frequency in Hz of bin k (an int or int array): k*Fs/N below the midpoint, negative above."""
    if n < 1:
        raise EmptyBins(f"bin count must be >= 1, got {n}")
    _require_positive("sample_rate", sample_rate)
    return np.where(k < (n + 1) // 2, k, k - n) * sample_rate / n


def bin_to_frequency(k: int, n: int, sample_rate: float) -> float:
    """Frequency in Hz of bin k: k*Fs/N below the midpoint, negative above."""
    if n >= 1 and not 0 <= k < n:  # an empty n is reported as EmptyBins
        raise IndexOutOfRange(f"bin {k} outside 0..{n - 1}")
    return float(_bin_frequency(k, n, sample_rate))


def bin_frequencies(n: int, sample_rate: float) -> np.ndarray:
    """Frequencies in Hz of bins 0..n-1, each equal to ``bin_to_frequency``."""
    return _bin_frequency(np.arange(n), n, sample_rate)


def centered(s: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Reorder bins for display: (frequencies ascending, matching values)."""
    n = len(s)
    freqs = bin_frequencies(n, s.bin_spacing * n)
    order = np.argsort(freqs, kind="stable")
    return freqs[order], s.bins[order]


# ---------------------------------------------------------------------------
# numerically integrated transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Integration window and budget for the adaptive rule.

    ``max_subdivisions`` caps the number of interval halvings; ``damping``
    multiplies the integrand by exp(-damping * |t|) to tame slowly decaying
    oscillatory tails.
    """

    lower: float
    upper: float
    max_subdivisions: int = MAX_SUBDIVISIONS
    abs_tolerance: float = QUADRATURE_TOLERANCE
    damping: float = 0.0

    def __post_init__(self):
        if not -math.inf < self.lower < self.upper < math.inf:
            raise NonPositiveInterval(f"need finite lower < upper: [{self.lower}, {self.upper}]")
        if not isinstance(self.max_subdivisions, Integral) or self.max_subdivisions < 1:
            raise InvalidParameter(
                f"max_subdivisions must be an integer >= 1, got {self.max_subdivisions!r}")
        if not 0.0 < self.abs_tolerance < math.inf:
            raise InvalidParameter(f"abs_tolerance must be finite and > 0: {self.abs_tolerance!r}")
        if not 0.0 <= self.damping < math.inf:
            raise InvalidParameter(f"damping must be finite and >= 0: {self.damping!r}")


@dataclass(frozen=True)
class QuadResult:
    """Integral estimate with its error estimate and convergence flag."""

    value: complex
    error: float
    converged: bool


_MIN_DEPTH = 2   # forced halvings so an oscillatory integrand cannot pass on a coarse fluke
_MAX_DEPTH = 60  # past this, interval widths reach the floating point floor


def _integrate(g: Callable[[np.ndarray], np.ndarray], lower: float, upper: float,
               abs_tolerance: float, max_subdivisions: int, panels: int) -> QuadResult:
    """Adaptive Simpson over an initial uniform panelization, refined level
    by level; ``g`` maps an array of points to an array of values.

    One call evaluates the panel edges and midpoints, then one call per
    level the quarter-points of all its intervals.  An interval at depth
    >= _MIN_DEPTH whose halves agree with it to 15 * tol is accepted with
    its Richardson correction; the others are split, tol halving per level,
    while ``max_subdivisions`` splits last.  A level that wants more splits
    than are left spends them on its leftmost intervals and keeps the rest
    unconverged.
    """
    edges = np.linspace(lower, upper, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    f = g(np.r_[edges, mids])
    # rows: left edge, midpoint and right edge of each interval, left to right
    x = np.stack((edges[:-1], mids, edges[1:]))
    fx = np.stack((f[:panels], f[panels + 1:], f[1:panels + 1]))
    whole = ((x[2] - x[0]) / 6.0) * (fx[0] + 4.0 * fx[1] + fx[2])
    tol, budget, depth, converged = abs_tolerance / panels, max_subdivisions, 0, True
    values, errors = [], []
    while x.shape[1]:
        # row 0 of these pairs is the left half of each interval, row 1 the right
        mid = 0.5 * (x[:2] + x[1:])
        fmid = g(mid.ravel()).reshape(mid.shape)
        halves = ((x[1:] - x[:2]) / 6.0) * (fx[:2] + 4.0 * fmid + fx[1:])
        refined = halves[0] + halves[1]
        err = np.abs(refined - whole)
        passed = err <= 15.0 * tol if depth >= _MIN_DEPTH else np.zeros(err.shape, dtype=bool)
        values.append(refined[passed] + (refined[passed] - whole[passed]) / 15.0)
        errors.append(err[passed] / 15.0)
        failed = np.flatnonzero(~passed)
        splits = 0 if depth >= _MAX_DEPTH else min(failed.size, budget)
        split, kept = failed[:splits], failed[splits:]
        values.append(refined[kept])
        errors.append(err[kept])
        converged = converged and kept.size == 0
        budget -= splits
        # the two halves of each split interval become the next level, in order
        x, fx = (np.stack((v[:2], vmid, v[1:]))[:, :, split].transpose(0, 2, 1).reshape(3, -1)
                 for v, vmid in ((x, mid), (fx, fmid)))
        whole = halves[:, split].T.ravel()
        tol, depth = tol / 2.0, depth + 1
    return QuadResult(complex(np.sum(np.concatenate(values))),
                      float(np.sum(np.concatenate(errors))), converged)


def _initial_panels(cycles: float) -> int:
    """At least 16 panels, or 8 per oscillation cycle, capped at 4096."""
    return int(min(4096, max(16, math.ceil(8.0 * cycles))))


def quad_ft(map: Callable[[float], complex], f: float, spec: QuadratureSpec,
            direction: str = FORWARD) -> QuadResult:
    """Continuous transform value integral map(t) exp(-+ i 2 pi f t) dt.

    direction "forward" uses exp(-i 2 pi f t), "inverse" exp(+i 2 pi f t).
    The damping factor exp(-damping |t|) from ``spec`` multiplies the
    integrand.  On budget exhaustion the best estimate is returned with
    ``converged = False`` rather than raising.
    """
    if direction not in (FORWARD, INVERSE):
        raise InvalidParameter(f"direction must be 'forward' or 'inverse', got {direction!r}")
    if not math.isfinite(f):
        raise InvalidParameter(f"frequency must be finite, got {f!r}")
    sign = -2j * np.pi * f if direction == FORWARD else 2j * np.pi * f

    def g(t: np.ndarray) -> np.ndarray:
        return _eval_map(map, t, complex) * np.exp(sign * t - spec.damping * np.abs(t))

    panels = _initial_panels(abs(f) * (spec.upper - spec.lower))
    return _integrate(g, spec.lower, spec.upper, spec.abs_tolerance,
                      spec.max_subdivisions, panels)


def half_transform(map: Callable[[float], float], q: float, kind: str,
                   spec: QuadratureSpec) -> float:
    """Half-line integral of map(x) cos(q x) or map(x) sin(q x), x >= 0.

    ``q`` is in radians per second.  Integration runs from max(spec.lower, 0)
    to spec.upper; raises ToleranceNotReached if the budget runs out.
    """
    if kind not in (COSINE, SINE):
        raise InvalidParameter(f"kind must be 'cosine' or 'sine', got {kind!r}")
    if not math.isfinite(q):
        raise InvalidParameter(f"q must be finite, got {q!r}")
    kernel = np.cos if kind == COSINE else np.sin
    lower = max(0.0, spec.lower)
    if not lower < spec.upper:
        raise NonPositiveInterval(f"empty half-line window [{lower}, {spec.upper}]")

    def g(x: np.ndarray) -> np.ndarray:
        return _eval_map(map, x, float) * kernel(q * x) * np.exp(-spec.damping * x)

    panels = _initial_panels(abs(q) / (2.0 * math.pi) * (spec.upper - lower))
    result = _integrate(g, lower, spec.upper, spec.abs_tolerance,
                        spec.max_subdivisions, panels)
    if not result.converged:
        raise ToleranceNotReached(
            f"half transform stopped at estimate {result.value.real!r} "
            f"with error {result.error:.3e} after exhausting the budget")
    return float(result.value.real)
