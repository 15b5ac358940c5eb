"""Trigonometric series analysis and synthesis.

Coefficients follow the mean-plus-harmonics normalization: a0 is the mean
over one period, a_n and b_n carry the factor 2/period.  Integrals run over
[0, period] by composite Simpson quadrature on a uniform grid of a power of
two panels sized to resolve the highest requested harmonic.  On that grid
all 2K+1 weighted sums are one DFT of the Simpson-weighted samples, taken by
the power-of-two (radix-16) core of ``transforms``.  The grid is refined by
doubling, which keeps every sample taken so far, until every coefficient
passes the tolerance or the panel budget is reached.  Synthesis is the plain
finite partial sum, so jump behavior (midpoint convergence, overshoot) is
faithful rather than smoothed away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .core import (InvalidParameter, _INTERVAL, _MAX_COUNT, _ReadOnlyState, _as_array, _as_count,
                   _as_float, _eval_map, _frozen, _match)
from .transforms import QuadratureSpec, _fft_raw

_BLOCK_ENTRIES = 2_000_000  # entries per block of series_synthesize's angle matrices


@dataclass(frozen=True, eq=False)
class SeriesCoefficients(_ReadOnlyState):
    """Real-form coefficients a0, a_1..a_K, b_1..b_K for one period.

    ``converged`` mirrors the coefficient layout (a0, then cosines, then
    sines); an empty tuple means every integral met its tolerance.
    """

    a0: float
    cosine: np.ndarray
    sine: np.ndarray
    period: float
    converged: tuple[bool, ...] = ()

    def __post_init__(self):
        cos = _as_array("cosine", self.cosine).reshape(-1)
        sin = _as_array("sine", self.sine).reshape(-1)
        if cos.size != sin.size:
            raise InvalidParameter("cosine and sine coefficient counts differ")
        object.__setattr__(self, "period", _as_float("period", self.period, **_INTERVAL))
        object.__setattr__(self, "cosine", _frozen(cos))
        object.__setattr__(self, "sine", _frozen(sin))
        object.__setattr__(self, "a0", _as_float("a0", self.a0))

    @property
    def harmonics(self) -> int:
        return self.cosine.size


@dataclass(frozen=True, eq=False)
class ComplexSeriesCoefficients:
    """Exponential-form coefficients: harmonic m -> c_m, m in [-K, K].

    Built with integer harmonics that numpy can size an array by and finite
    complex values (else InvalidParameter), held as ints and Python complex.
    """

    terms: Mapping[int, complex]
    period: float

    def __post_init__(self):
        terms = dict(self.terms)
        ms = [_as_count("harmonic", m, least=-_MAX_COUNT) for m in terms]
        cs = _as_array("complex coefficients", list(terms.values()), complex).tolist()
        object.__setattr__(self, "terms", dict(zip(ms, cs)))
        object.__setattr__(self, "period", _as_float("period", self.period, **_INTERVAL))

    @property
    def harmonics(self) -> int:
        return max((abs(m) for m in self.terms), default=0)


def _refine(map: Callable[[float], float], span: float, k: int,
            spec: QuadratureSpec | None, periodic: bool,
            read: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, tuple[bool, ...]]:
    """Richardson-refined coefficients ``read(c)`` of ``map`` on [0, span],
    with converged flags: () or one per read coefficient.

    c[m] = (2/span) * integral of map(x) exp(-2 pi i m x / L) over [0, span]
    for m = 0..k, L = span when ``periodic`` and 2 * span otherwise, with
    c[0] halved to the mean.  On P Simpson panels these are one DFT of the
    weighted samples: length 2P with the node at ``span`` folded onto node 0
    when periodic, zero-padded to 4P otherwise.  P starts at 64 panels per
    harmonic over the period L (so 32 over [0, span] when L = 2 * span), at
    least 64, rounded up to a power of two, so the transform takes the
    power-of-two (radix-16) core, capped at the budget.  Each doubling keeps
    the samples taken so far and evaluates only the new midpoints.
    """
    k = _as_count("harmonic count", k, least=0)
    spec = spec or QuadratureSpec(0.0, 1.0)
    tol, max_panels = spec.abs_tolerance, spec.max_subdivisions
    per_harmonic = 64 if periodic else 32
    panels = min(1 << (max(64, per_harmonic * k) - 1).bit_length(), max_panels)
    samples = _eval_map(map, np.linspace(0.0, span, 2 * panels + 1), float)
    coarse = None
    while True:
        # Simpson weights 1 4 2 ... 2 4 1, times 6P/span: exact in floating point
        weighted = samples * np.r_[1.0, np.tile([4.0, 2.0], panels)[:-1], 1.0]
        if periodic:
            weighted[0] += weighted[-1]
            spectrum = _fft_raw(weighted[:-1])
        else:
            spectrum = _fft_raw(np.r_[weighted, np.zeros(2 * panels - 1)])
        c = spectrum.take(np.arange(k + 1), mode="wrap") / (3.0 * panels)
        c[0] /= 2.0
        fine = read(c)
        if coarse is not None:
            est = np.abs(fine - coarse) / 15.0
            done = bool(np.all(est <= tol))
            if done or 2 * panels > max_panels:  # no budget for another doubling
                flags = () if done else tuple(bool(e <= tol) for e in est)
                return fine + (fine - coarse) / 15.0, flags
        coarse = fine
        finer = np.empty(4 * panels + 1)
        finer[0::2] = samples
        finer[1::2] = _eval_map(map, np.arange(1, 4 * panels, 2) * (span / (4 * panels)), float)
        samples, panels = finer, 2 * panels


def series_coefficients(map: Callable[[float], float], period: float, k: int,
                        spec: QuadratureSpec | None = None) -> SeriesCoefficients:
    """Analyze one period of ``map`` into harmonics 0..k.

    The grid starts at 64 panels per highest harmonic, rounded up to a power
    of two, and doubles until the Richardson error estimate of every
    coefficient is within tolerance or ``spec.max_subdivisions`` panels
    would be exceeded; unmet coefficients are flagged in ``converged``
    rather than raised.  Raises NonFiniteSample unless the map gives a
    finite real number at every node.
    """
    period = _as_float("period", period, **_INTERVAL)
    v, flags = _refine(map, period, k, spec, True, lambda c: np.r_[c.real, -c.imag[1:]])
    return SeriesCoefficients(v[0], v[1:k + 1], v[k + 1:], period, flags)


def half_series_coefficients(map: Callable[[float], float], extent: float, kind: str,
                             k: int, spec: QuadratureSpec | None = None) -> SeriesCoefficients:
    """Expand a map given on [0, extent] by its even or odd reflection.

    kind "cosine" uses the even extension (a0 and cosines, sines zero);
    kind "sine" uses the odd extension (sines only).  The result has period
    2 * extent.  The grid starts at 32 panels per highest harmonic and is
    refined as in ``series_coefficients``.  Raises NonFiniteSample unless
    the map gives a finite real number at every node.
    """
    if kind not in ("cosine", "sine"):
        raise InvalidParameter(f"kind must be 'cosine' or 'sine', got {kind!r}")
    extent = _as_float("extent", extent, **_INTERVAL)
    if kind == "cosine":
        v, flags = _refine(map, extent, k, spec, False, lambda c: c.real)
        return SeriesCoefficients(v[0], v[1:], np.zeros(k), 2.0 * extent, flags)
    v, flags = _refine(map, extent, k, spec, False, lambda c: np.r_[0.0, -c.imag[1:]])
    return SeriesCoefficients(0.0, np.zeros(k), v[1:], 2.0 * extent, flags)


def series_synthesize(c: SeriesCoefficients, t) -> float:
    """Partial sum a0 + sum_n a_n cos(2 pi n t / P) + b_n sin(2 pi n t / P),
    in blocks of points so the (points, K) angle matrices never exist whole."""
    ts = _as_array("t", t)
    out = np.full(ts.size, c.a0)
    if c.harmonics:
        flat, m = ts.reshape(-1), np.arange(1, c.harmonics + 1)
        # whole multiples of 64 rows keep each row on the kernel path of one
        # unblocked single-threaded BLAS product, so blocking moves no bits
        rows = max(64, _BLOCK_ENTRIES // c.harmonics // 64 * 64)
        for lo in range(0, flat.size, rows):
            angles = np.multiply.outer(flat[lo:lo + rows], m) * (2.0 * np.pi / c.period)
            out[lo:lo + rows] = c.a0 + np.cos(angles) @ c.cosine + np.sin(angles) @ c.sine
    return _match(t, out.reshape(ts.shape), float)


def to_complex(c: SeriesCoefficients) -> ComplexSeriesCoefficients:
    """Exponential form: c_0 = a0, c_m = (a_m - i b_m)/2, c_-m = (a_m + i b_m)/2."""
    terms: dict[int, complex] = {0: complex(c.a0)}
    for m in range(1, c.harmonics + 1):
        a = c.cosine[m - 1]
        b = c.sine[m - 1]
        terms[m] = 0.5 * (a - 1j * b)
        terms[-m] = 0.5 * (a + 1j * b)
    return ComplexSeriesCoefficients(terms, c.period)


def from_complex(cc: ComplexSeriesCoefficients) -> SeriesCoefficients:
    """Inverse of ``to_complex``; missing harmonics are treated as zero."""
    k = cc.harmonics
    a0 = cc.terms.get(0, 0.0 + 0.0j).real
    cos = np.zeros(k)
    sin = np.zeros(k)
    for m in range(1, k + 1):
        plus = complex(cc.terms.get(m, 0.0))
        minus = complex(cc.terms.get(-m, 0.0))
        cos[m - 1] = (plus + minus).real
        sin[m - 1] = ((minus - plus) * -1j).real
    return SeriesCoefficients(a0, cos, sin, cc.period)
