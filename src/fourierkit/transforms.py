"""Transform family.

Discrete side: ``dft`` is the direct O(N^2) summation and is kept as the
reference path; ``fft`` runs one batched core that transforms the last axis
of a (..., N) array.  A length N = 2^a 3^b 5^c 7^d runs as mixed-radix
stages of radix 16, 9, 25 or 7 and one each of 8/4/2, 3 and 5 for what is
left, each one stacked matrix product with the r-point DFT matrix plus
twiddles from cached tables.  Any other length runs as a chirp
convolution padded to the cheapest such length, three transforms of that
length.  The time-frequency layer hands the core all of its frames in one
call.  The core computes forward transforms only, unscaled; an inverse is
the forward transform read backwards, at -k mod N, and divided by N.

Continuous side: ``quad_ft`` integrates map(t) * exp(-+ i 2 pi f t) with an
adaptive Gauss-Kronrod rule, with an optional exponential damping factor
for slowly decaying tails, and ``half_transform`` does the cosine/sine
integral over the half line with the kernel argument in radians per
second.  The rule applies QUADPACK's 7/15-point pair to every interval of a
level at once, so the map and the kernel are evaluated on the 15 nodes of
all open intervals in one call.  Which intervals pass depends only on their
own samples and tolerance; when the split budget runs out, a level spends
what is left on its leftmost intervals.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
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
    _INTERVAL,
    _as_count,
    _as_float,
    _eval_map,
)

FORWARD = "forward"
INVERSE = "inverse"
COSINE = "cosine"
SINE = "sine"


# ---------------------------------------------------------------------------
# discrete transforms
# ---------------------------------------------------------------------------

# Padded points of one block of rows in every batched transform, and of the
# direct sum's kernel matrix: small enough that a block and its buffers stay in
# cache.  A row's bits do not depend on the block it runs in.
_BLOCK_POINTS = 1 << 14


def _block_rows(padded: int) -> int:
    """Rows of one block, for rows of ``padded`` points."""
    return max(1, _BLOCK_POINTS // padded)


def _dft_raw(x: np.ndarray) -> np.ndarray:
    """Direct summation sum_n x[n] exp(-i 2 pi k n / N).

    The kernel gathers from one table of the N roots of unity at (k*n) mod N,
    an exact integer index, so conjugate bins agree to machine precision even
    for large N.  Rows of the kernel matrix are built one block at a time,
    and no block holds a lone row: BLAS sums a one-row product as a dot
    product, in another order than the matrix-vector product of every other
    row, so a lone last row would change its bits with the block size.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    out = np.empty(n, dtype=np.complex128)
    idx = np.arange(n, dtype=np.int64)
    roots = np.exp((-2j * np.pi / n) * idx)
    step = max(2, _block_rows(n))
    for lo in range(0, n, step):
        lo = max(0, min(lo, n - 2))  # the last block starts early rather than hold one row
        ang = idx[lo:lo + step, None] * idx
        ang %= n  # in place: one index matrix per block, not two
        out[lo:lo + step] = roots[ang] @ x
    return out


def dft(w: Waveform) -> Spectrum:
    """Forward discrete transform by direct summation, no scaling."""
    n = len(w)
    return Spectrum(_dft_raw(w.samples), bin_spacing=1.0 / (n * w.sample_interval))


def idft(s: Spectrum) -> Waveform:
    """Inverse discrete transform by direct summation, scaled by 1/N: the
    forward sum read backwards, at -k mod N.

    The spectrum carries no time origin, so the waveform starts at t = 0.
    """
    n = len(s)
    return Waveform(_backwards(_dft_raw(s.bins)), sample_interval=1.0 / (n * s.bin_spacing))


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


# Bytes of twiddle tables kept between calls.  The tables of an n-point plan
# hold about n/r1 + n/r2 entries, r1 and r2 its first two radices: 1 MiB near
# 2^19.  A pass of the lib-spectra benchmark, whose 16 largest transforms pad
# to about a dozen lengths between 2.7e5 and 2^19, builds 10-12 MiB of them.
_TWIDDLE_BYTES = 32 << 20


class _TableCache(dict):
    """Twiddle tables by key, each built by ``build(*key)`` on first use and
    kept while the bytes they hold stay within ``limit``, the oldest going
    first past it: a transform's tables grow with its length, so a bound by
    count would not bound memory.  A hit is one dict lookup.  ``nbytes`` is
    what it holds; ``cache_clear`` empties it."""

    def __init__(self, build: Callable[..., np.ndarray], limit: int):
        super().__init__()
        self._build, self._limit = build, limit
        self._lock = threading.Lock()
        self.nbytes = 0

    def __missing__(self, key: tuple) -> np.ndarray:
        table = self._build(*key)
        with self._lock:
            if key not in self:
                self[key] = table
                self.nbytes += table.nbytes
            while self.nbytes > self._limit:  # a table above the bound is not kept
                self.nbytes -= self.pop(next(iter(self))).nbytes
        return table

    def cache_clear(self) -> None:
        with self._lock:
            self.clear()
            self.nbytes = 0


def _twiddle_table(m: int, rows: int, step: int, r: int) -> np.ndarray:
    """Table exp(-i 2 pi (j * step * k mod m) / m) of shape (r, rows), indexed
    [k, j], immutable once built; ``_twiddle[r, r, 1, r]`` is the r-point DFT
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


_twiddle = _TableCache(_twiddle_table, _TWIDDLE_BYTES)


def _fft_smooth(x: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """Forward Cooley-Tukey transform of the last axis, whose length n must
    have a ``_plan``, in one stage per radix of the plan.

    A stage sees each row as (t1, t2, done): t1 the leading time digit of
    radix r, t2 the rest of the sub-transform's time index, and done the
    output digits found so far.  One stacked matmul with the r-point DFT
    matrix contracts t1 into the output digit k1.  The twiddles
    exp(-i 2 pi t2 k1 / m) of the length-m sub-transform then apply, and the
    row is stored as (t2, k1, done) so that the next stage's digit leads.
    From the second stage on, that is one multiply by an m-entry table
    straight into the transposed store, whose contiguous runs are ``done``
    points.  The first stage's runs are one point, so it twiddles in place,
    by two small factors split at the next stage's leading digit of t2, and
    stores the row with one plain copy.  The last stage needs no twiddles
    and leaves the row in natural order.  Every stage writes into the same
    two buffers: ``out``, which receives the result, and ``work``, each a
    C-contiguous complex128 array of x's size.
    Only the first stage reads x, so x may serve as ``work`` when it may be
    overwritten; otherwise x is left unchanged.
    The batch stays out of the matmul's column count: every row runs the
    same BLAS call, so a batch gives the bits of row-by-row calls.
    """
    n = x.shape[-1]
    batch = x.size // n
    plan = _plan(n)
    spec, store = out.reshape(batch, n), work.reshape(batch, n)
    src, m, done = x.reshape(batch, n), n, 1
    for r, lead in zip(plan, plan[1:] + (1,)):
        np.matmul(_twiddle[r, r, 1, r], src.reshape(batch, r, n // r),
                  out=spec.reshape(batch, r, n // r))
        if lead == 1:
            return
        rest = m // r
        low = rest // lead
        y = spec.reshape(batch, r, lead, low, done)
        moved = store.reshape(batch, lead, low, r, done).transpose(0, 3, 1, 2, 4)
        if done == 1:
            # the moved rows' contiguous run is one point here, where a ufunc
            # writing through the transposed view is several times slower
            # than twiddling in place and a plain copy
            y *= _twiddle[m, lead, low, r][:, :, None, None]
            y *= _twiddle[m, low, 1, r][:, None, :, None]
            np.copyto(moved, y)
        else:
            np.multiply(y, _twiddle[m, rest, 1, r].reshape(r, lead, low, 1), out=moved)
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


# From this length on, the two tables of ``_chirp`` cost less than n/2 complex
# exponentials: below it, building them takes more numpy calls than it saves.
_CHIRP_TABLES = 1024


def _chirp(n: int) -> np.ndarray:
    """exp(-i pi k^2 / n) for k = 0..n-1, with the exponent r = k^2 mod 2n
    reduced in integers.  Only k <= n/2 are computed: (n - k)^2 = k^2 + n^2
    mod 2n, and n^2 is n mod 2n for odd n and 0 for even n, so the value at
    n - k is (-1)^n times the value at k.  From ``_CHIRP_TABLES`` points on,
    exp(-i pi r / n) is the product of two tables of about sqrt(2n)
    exponentials each, at angles within half a turn, indexed by the high and
    the low bits of r, so a call takes about 2 sqrt(2n) complex exponentials,
    not n/2."""
    half = n // 2 + 1
    r = np.arange(half, dtype=np.int64)
    r *= r
    r %= 2 * n
    angle = -1j * np.pi / n
    chirp = np.empty(n, dtype=np.complex128)
    if n < _CHIRP_TABLES:
        np.exp(angle * r, out=chirp[:half])
    else:
        bits = ((2 * n - 1).bit_length() + 1) // 2  # r < 2^(2 bits)
        high = np.arange(0, 2 * n, 1 << bits)
        high[(n >> bits) + 1:] -= 2 * n  # the same roots, at angles within half a turn
        np.take(np.exp(angle * high), r >> bits, out=chirp[:half])
        r &= (1 << bits) - 1
        chirp[:half] *= np.exp(angle * np.arange(1 << bits))[r]
    np.multiply(chirp[n - half:0:-1], (-1) ** n, out=chirp[half:])
    return chirp


def _bluestein(x: np.ndarray) -> np.ndarray:
    """Forward arbitrary-length transform of the last axis as a
    chirp-modulated convolution of m = ``_bluestein_length`` points: three
    m-point transforms and a few passes over the data.

    One allocation holds the kernel's spectrum and two row buffers for one
    block of rows.  The kernel, with the 1/m of the convolution's inverse
    transform folded in, is built in the first row buffer and transformed
    into its place once per call.  Each block of rows goes into the first
    buffer, its transform into the second, which is multiplied by the
    kernel's spectrum and transformed back into the first.  That transform
    is forward: the inverse at j is the forward one at -j mod m, so its
    result is read backwards, times the chirp, into the output.  A one-row
    call peaks near three padded buffers plus the chirp and the output.
    Freed as one block, the scratch stays in glibc's heap for the next call
    instead of being returned to the system and faulted in again.
    """
    n = x.shape[-1]
    m = _bluestein_length(n)
    chirp = _chirp(n)
    rows = x.reshape(-1, n)
    block = min(_block_rows(m), max(1, len(rows)))  # an empty batch still builds its kernel
    scratch = np.empty((1 + 2 * block, m), dtype=np.complex128)
    kernel, pad = scratch[0], scratch[1]
    np.conjugate(chirp, out=pad[:n])
    pad[:n] /= m
    pad[n:m - n + 1] = 0.0
    pad[m - n + 1:] = pad[n - 1:0:-1]
    _fft_smooth(pad, kernel, pad)
    out = np.empty(rows.shape, dtype=np.complex128)
    for lo in range(0, len(rows), block):
        res = out[lo:lo + block]
        a, spec = scratch[1:1 + len(res)], scratch[1 + block:1 + block + len(res)]
        np.multiply(rows[lo:lo + block], chirp, out=a[:, :n])
        a[:, n:] = 0.0
        _fft_smooth(a, spec, a)
        spec *= kernel
        _fft_smooth(spec, a, spec)
        # X[j] = chirp[j] a[-j mod m]
        res[:, 0] = a[:, 0]  # chirp[0] is 1
        np.multiply(a[:, :m - n:-1], chirp[1:], out=res[:, 1:])
    return out.reshape(x.shape)


def _fft_raw(x: np.ndarray) -> np.ndarray:
    """Forward transform of the last axis of a (..., n) array, unscaled, x
    left unchanged: mixed-radix stages for lengths 2^a 3^b 5^c 7^d, a chirp
    convolution padded to such a length for the others.  The stages run one
    block of rows at a time, each straight into the result, through one
    reused work block."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    if n <= 1:
        return x.copy()
    if not _plan(n):
        return _bluestein(x)
    rows = x.reshape(-1, n)
    step = _block_rows(n)
    out = np.empty(rows.shape, dtype=np.complex128)
    work = np.empty_like(out[:step])
    for lo in range(0, len(rows), step):
        _fft_smooth(rows[lo:lo + step], out[lo:lo + step], work[:len(rows) - lo])
    return out.reshape(x.shape)


def _backwards(spec: np.ndarray) -> np.ndarray:
    """A forward transform F of the last axis read backwards, F at -k mod n,
    and divided by n, into a fresh array: the inverse transform."""
    n = spec.shape[-1]
    out = np.empty_like(spec)
    np.divide(spec[..., :1], n, out=out[..., :1])
    np.divide(spec[..., :0:-1], n, out=out[..., 1:])
    return out


def _ifft_raw(x: np.ndarray) -> np.ndarray:
    """Inverse transform of the last axis of a (..., n) array."""
    return _backwards(_fft_raw(x))


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
    with period 1/T.  The start time does not enter; 2 pi f T n must be finite.
    """
    f = _as_float("f", f, 2.0 * math.pi, w.sample_interval, len(w) - 1)
    n = np.arange(len(w))
    return complex(np.dot(w.samples, np.exp(-2j * np.pi * f * w.sample_interval * n)))


def _bin_frequency(k, n: int, sample_rate: float):
    """Frequency in Hz of bin k (an int or int array): k*Fs/N below the midpoint, negative above."""
    if n < 1:
        raise EmptyBins(f"bin count must be >= 1, got {n}")
    # n // 2 is the largest |k|: bound the product before it is divided
    sample_rate = _as_float("sample_rate", sample_rate, n // 2, **_INTERVAL)
    return np.where(k < (n + 1) // 2, k, k - n) * sample_rate / n


def bin_to_frequency(k: int, n: int, sample_rate: float) -> float:
    """Frequency in Hz of bin k: k*Fs/N below the midpoint, negative above."""
    n, k = _as_count("bin count", n, least=-math.inf), _as_count("bin", k, least=-math.inf)
    if n >= 1 and not 0 <= k < n:  # an empty n is reported as EmptyBins
        raise IndexOutOfRange(f"bin {k} outside 0..{n - 1}")
    return float(_bin_frequency(k, n, sample_rate))


def bin_frequencies(n: int, sample_rate: float) -> np.ndarray:
    """Frequencies in Hz of bins 0..n-1, each equal to ``bin_to_frequency``."""
    n = _as_count("bin count", n, least=-math.inf)
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

    ``max_subdivisions`` caps the number of interval splits; ``damping``
    multiplies the integrand by exp(-damping * |t|) to tame slowly decaying
    oscillatory tails.  Float fields are stored as floats; the window and its
    width must be finite.
    """

    lower: float
    upper: float
    max_subdivisions: int = MAX_SUBDIVISIONS
    abs_tolerance: float = QUADRATURE_TOLERANCE
    damping: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lower", _as_float("lower", self.lower, error=NonPositiveInterval))
        object.__setattr__(self, "upper", _as_float("upper", self.upper, error=NonPositiveInterval))
        if not (self.lower < self.upper and self.upper - self.lower < math.inf):
            raise NonPositiveInterval(
                f"need lower < upper, a finite width apart: [{self.lower}, {self.upper}]")
        object.__setattr__(self, "max_subdivisions",
                           _as_count("max_subdivisions", self.max_subdivisions))
        object.__setattr__(self, "abs_tolerance",
                           _as_float("abs_tolerance", self.abs_tolerance, above=0.0))
        object.__setattr__(self, "damping", _as_float("damping", self.damping))
        if self.damping < 0.0:
            raise InvalidParameter(f"damping must be >= 0, got {self.damping!r}")


@dataclass(frozen=True)
class QuadResult:
    """Integral estimate with its error estimate and convergence flag."""

    value: complex
    error: float
    converged: bool


# QUADPACK's qk15 on [-1, 1]: Kronrod nodes and weights from the outermost node
# in to the centre, and the Gauss weights of every other node, the centre's too.
_XK = np.array((0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
                0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0))
_WK = np.array((0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
                0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
                0.20443294007529889, 0.20948214108472782))
_WG = np.array((0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694))
_NODES = np.r_[-_XK[:7], _XK[::-1]]  # ascending, the centre at index 7
_KRONROD = np.r_[_WK, _WK[-2::-1]]
# K15 - G7 weights, Gauss in the odd slots; taken of the samples minus the centre
# one, they give 0 on a constant, where the Gauss weights (sum 2 - 2.2e-16) would not.
_DIFF = _KRONROD.copy()
_DIFF[1::2] -= np.r_[_WG, _WG[-2::-1]]
_MAX_DEPTH = 60  # past this, interval widths reach the floating point floor


def _integrate(g: Callable[[np.ndarray], np.ndarray], lower: float, upper: float,
               abs_tolerance: float, max_subdivisions: int, panels: int) -> QuadResult:
    """Adaptive Gauss-Kronrod over an initial uniform panelization, refined
    level by level in one call of ``g`` (array of points to array of values)
    on the 15 nodes of every open interval, kept as centres and one shared
    half-width.  An interval's value is K15; it passes when |K15 - G7| <= tol,
    else it splits in two while ``max_subdivisions`` splits last, up to
    _MAX_DEPTH levels, tol halving per level.  A level that wants more splits
    than are left spends them on its leftmost intervals and keeps the rest
    unconverged.
    """
    half = 0.5 * (upper - lower) / panels
    centres = lower + half * np.arange(1, 2 * panels, 2)
    tol, budget, converged = abs_tolerance / panels, max_subdivisions, True
    values, errors = [], []
    for depth in range(_MAX_DEPTH + 1):
        f = g((centres[:, None] + half * _NODES).ravel()).reshape(-1, 15)
        value = half * (f @ _KRONROD)
        err = np.abs(half * ((f - f[:, 7:8]) @ _DIFF))
        failed = np.flatnonzero(err > tol)
        split = failed[:budget if depth < _MAX_DEPTH else 0]
        values.append(np.delete(value, split))
        errors.append(np.delete(err, split))
        converged = converged and split.size == failed.size
        budget -= split.size
        if not split.size:
            break
        half, tol = 0.5 * half, 0.5 * tol
        # the two halves of each split interval, in place, left to right
        centres = (centres[split, None] + [-half, half]).ravel()
    return QuadResult(complex(np.sum(np.concatenate(values))),
                      float(np.sum(np.concatenate(errors))), converged)


def _initial_panels(cycles: float) -> int:
    """At least 4 panels, or 1 per oscillation cycle, capped at 4096."""
    return max(4, math.ceil(min(cycles, 4096.0)))


def quad_ft(map: Callable[[float], complex], f: float, spec: QuadratureSpec,
            direction: str = FORWARD) -> QuadResult:
    """Continuous transform value integral map(t) exp(-+ i 2 pi f t) dt.

    direction "forward" uses exp(-i 2 pi f t), "inverse" exp(+i 2 pi f t).
    The damping factor exp(-damping |t|) from ``spec`` multiplies the
    integrand.  On budget exhaustion the best estimate is returned with
    ``converged = False`` rather than raising.  The phase 2 pi f t must be
    finite over the window (else InvalidParameter), and the map must give a
    finite number at every node (else NonFiniteSample, naming its first t).
    """
    if direction not in (FORWARD, INVERSE):
        raise InvalidParameter(f"direction must be 'forward' or 'inverse', got {direction!r}")
    f = _as_float("f", f, 2.0 * math.pi, max(abs(spec.lower), abs(spec.upper)))
    sign = -2j * np.pi * f if direction == FORWARD else 2j * np.pi * f

    def g(t: np.ndarray) -> np.ndarray:
        return _eval_map(map, t, complex) * np.exp(sign * t - spec.damping * np.abs(t))

    panels = _initial_panels(abs(f) * (spec.upper - spec.lower))
    return _integrate(g, spec.lower, spec.upper, spec.abs_tolerance,
                      spec.max_subdivisions, panels)


def half_transform(map: Callable[[float], float], q: float, kind: str,
                   spec: QuadratureSpec) -> float:
    """Half-line integral of map(x) cos(q x) or map(x) sin(q x), x >= 0.

    ``q`` is in radians per second, and q * spec.upper must be finite (else
    InvalidParameter).  Integration runs from max(spec.lower, 0) to
    spec.upper; raises ToleranceNotReached if the budget runs out, and
    NonFiniteSample unless the map gives a finite real number at every node.
    """
    if kind not in (COSINE, SINE):
        raise InvalidParameter(f"kind must be 'cosine' or 'sine', got {kind!r}")
    q = _as_float("q", q, spec.upper)
    kernel = np.cos if kind == COSINE else np.sin
    lower = max(0.0, spec.lower)
    if not lower < spec.upper:
        raise NonPositiveInterval(f"empty half-line window [{lower}, {spec.upper}]")

    def g(x: np.ndarray) -> np.ndarray:
        return _eval_map(map, x, float, label="x") * kernel(q * x) * np.exp(-spec.damping * x)

    panels = _initial_panels(abs(q) / (2.0 * math.pi) * (spec.upper - lower))
    result = _integrate(g, lower, spec.upper, spec.abs_tolerance,
                        spec.max_subdivisions, panels)
    if not result.converged:
        raise ToleranceNotReached(
            f"half transform stopped at estimate {result.value.real!r} "
            f"with error {result.error:.3e} after exhausting the budget")
    return float(result.value.real)
