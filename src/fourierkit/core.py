"""Shared value types: waveforms, spectra, impulse trains, piecewise maps,
Gabor atoms, and time-frequency grids, plus the helpers the other modules
share: map evaluation, scalar-or-array results, and the two argument rules,
``_as_float`` and ``_as_count``, that every scalar float and count goes through once.

Every type here is an immutable value object.  Operations in the rest of the
package take these values and return new ones; nothing is mutated in place,
so instances are safe to share between threads.  A Waveform and a Spectrum
check every invariant once, when they are built, and operations never
re-check them.  A real-tagged Waveform owns its samples.  Other arrays passed
to a constructor are not copied when numpy can use them as they are, so they
must not be written afterwards; the caller's array itself stays writable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

REAL = "real"
COMPLEX = "complex"

TIME = "time"
FREQUENCY = "frequency"


class FourierKitError(Exception):
    """Base class for every error raised by this package."""


class NonPositiveInterval(FourierKitError, ValueError):
    """A sample interval, bin spacing, period, or width was not > 0."""


class EmptySamples(FourierKitError, ValueError):
    """A waveform with no samples was passed where data is required."""


class EmptyBins(FourierKitError, ValueError):
    """A spectrum with no bins was passed where data is required."""


class RealTagViolation(FourierKitError, ValueError):
    """A waveform tagged real carries a nonzero imaginary part."""


class IndexOutOfRange(FourierKitError, IndexError):
    """A bin or sample index fell outside 0..N-1."""


class LengthMismatch(FourierKitError, ValueError):
    """Two sequences that must share a length do not."""


class NonFiniteSample(FourierKitError, ValueError):
    """A sampled map produced NaN or infinity."""


class ToleranceNotReached(FourierKitError, RuntimeError):
    """A quadrature budget ran out before the requested tolerance was met."""


class FrameTooLong(FourierKitError, ValueError):
    """An analysis frame is longer than the waveform it should slide over."""


class OddLength(FourierKitError, ValueError):
    """An operation that needs an even sample count got an odd one."""


class ZeroEnergy(FourierKitError, ValueError):
    """An all-zero waveform was passed where moments must be normalized."""


class InvalidParameter(FourierKitError, ValueError):
    """A parameter or a record length is outside the range an operation accepts."""


class ParseError(FourierKitError, ValueError):
    """An input file exists but its contents cannot be understood."""


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself stays writable."""
    v = a.view()
    v.setflags(write=False)
    return v


def _eval_map(fn: Callable, xs: np.ndarray, kind: type) -> np.ndarray:
    """Values of ``fn`` at the points ``xs`` as a ``kind`` (float or complex)
    array: one call on the whole array when the map takes it and answers one
    value per point, otherwise one call per point on a Python float, each
    value converted by ``kind``."""
    try:
        vals = np.asarray(fn(xs), dtype=kind)
        if vals.shape == xs.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.fromiter(map(kind, map(fn, xs.astype(float, copy=False).tolist())), kind, xs.size)


def _match(x, out: np.ndarray, kind: type):
    """``kind(out)`` (float or complex) when ``x`` is a scalar, else ``out``."""
    return kind(out) if np.ndim(x) == 0 else out


def _gaussian_width_ok(alpha: float) -> bool:
    """Whether the float alpha is > 0 with both alpha^2 and (pi/alpha)^2 finite,
    the rates of a Gaussian envelope and of its spectrum."""
    widest = max(alpha, math.pi / alpha) if alpha > 0.0 else math.nan
    return widest * widest < math.inf


def _as_float(name: str, value: float, *span: float,
              error: type[FourierKitError] = InvalidParameter, above: float = -math.inf) -> float:
    """float(value), once; ``error`` naming ``name`` unless it is finite, > ``above``, and
    finite times the ``span`` factors, left to right.  A huge integer fails like an infinite one."""
    try:
        x = float(value)
    except OverflowError:
        raise error(f"{name} is an integer too large for a float") from None
    if not above < x < math.inf:
        raise error(f"{name} must be in ({above:g}, inf), got {value!r}")
    if span and not math.isfinite(math.prod(span, start=x)):
        raise error(f"{name} {value!r} times {' * '.join(map(repr, span))} is not finite")
    return x


# _as_float's bound and error for a spacing, interval, rate, period, extent or width.
_INTERVAL = {"error": NonPositiveInterval, "above": 0.0}

_MAX_COUNT = int(np.iinfo(np.intp).max) // 16  # complex128 values whose byte count fits an intp


def _as_count(name: str, value: int, width: int = 1, least: float = 1) -> int:
    """operator.index(value); InvalidParameter naming ``name`` unless it is an integer >=
    ``least`` and numpy can size an array of ``width`` complex128 values per unit of it."""
    top = _MAX_COUNT // width
    try:
        count = operator.index(value)
    except TypeError:
        count = math.nan  # not an integer: fails both comparisons below
    if not least <= count <= top:
        raise InvalidParameter(f"{name} must be an integer from {least} to {top}, got {value!r}")
    return count


def _require_finite_times(start_time: float, sample_interval: float, count: int) -> None:
    """Raise InvalidParameter unless the last sample time start_time + (count - 1) *
    sample_interval of a finite start_time is finite: the times rise with n, so it decides."""
    if not math.isfinite(start_time + sample_interval * (count - 1)):
        raise InvalidParameter(f"start_time must give finite sample times, got {start_time!r} "
                               f"for {count} samples at interval {sample_interval!r}")


@dataclass(frozen=True, eq=False)
class Waveform:
    """Uniformly sampled signal x(t0 + n*T) for n = 0..N-1.

    Samples are stored as complex128 regardless of tag; ``tag == "real"``
    asserts that every imaginary part is exactly zero.  When ``tag`` is
    omitted it is inferred from the data; an explicit real tag on data with
    a nonzero imaginary part raises RealTagViolation here, once.

    The other invariants are checked here too, and operations never
    re-check them: NonPositiveInterval unless 0 < sample_interval < inf with
    a finite span len * sample_interval, EmptySamples for no samples,
    InvalidParameter for an unknown tag or a start_time whose first or last
    sample time is not finite.  An integer too large for a float counts as
    infinite.

    A real-tagged waveform owns its samples: a complex128 array passed in is
    copied, so later writes to it cannot break the tag.  Other samples are
    not copied when ``np.asarray`` can use them as they are; do not write to
    such an array afterwards.
    """

    samples: np.ndarray
    sample_interval: float
    start_time: float = 0.0
    tag: str | None = None

    def __post_init__(self):
        given = np.asarray(self.samples, dtype=np.complex128)
        real = bool(np.all(given.imag == 0.0))
        if self.tag is None:
            object.__setattr__(self, "tag", REAL if real else COMPLEX)
        elif self.tag == REAL and not real:
            raise RealTagViolation("waveform tagged real has nonzero imaginary parts")
        object.__setattr__(self, "sample_interval", _as_float(
            "sample_interval", self.sample_interval, given.size, **_INTERVAL))
        if given.size == 0:
            raise EmptySamples("waveform has no samples")
        if self.tag not in (REAL, COMPLEX):
            raise InvalidParameter(f"unknown tag {self.tag!r}")
        object.__setattr__(self, "start_time", _as_float("start_time", self.start_time))
        _require_finite_times(self.start_time, self.sample_interval, given.size)
        arr = given.reshape(-1)
        if self.tag == REAL and (given is self.samples or not given.flags.owndata):
            arr = arr.copy()  # the caller's own memory: it could still write to it
        object.__setattr__(self, "samples", _frozen(arr))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        """Sample instants t0 + n*T."""
        return self.start_time + self.sample_interval * np.arange(self.samples.size)

    @property
    def duration(self) -> float:
        return self.sample_interval * self.samples.size


def validate_waveform(w: Waveform) -> Waveform:
    """Return ``w`` unchanged.

    Every Waveform checked its invariants when it was built and cannot
    change since, so nothing is left to check; operations do not call this.
    """
    return w


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Discrete transform output: bin k holds X(k), k = 0..N-1.

    Bin ordering follows the transform itself: bin 0 is DC and bins past
    the midpoint wrap to negative frequencies.  ``centered`` in transforms
    reorders for display only.

    Built with at least one bin (else EmptyBins), 0 < bin_spacing < inf, a
    finite span len * bin_spacing and a finite record length 1 / bin_spacing
    (else NonPositiveInterval, also for an integer too large for a float);
    operations never re-check these.
    """

    bins: np.ndarray
    bin_spacing: float

    def __post_init__(self):
        arr = np.asarray(self.bins, dtype=np.complex128).reshape(-1)
        if arr.size == 0:
            raise EmptyBins("spectrum has no bins")
        spacing = _as_float("bin_spacing", self.bin_spacing, arr.size, **_INTERVAL)
        if 1.0 / spacing == math.inf:
            raise NonPositiveInterval(f"bin_spacing {spacing!r} gives an infinite record length")
        object.__setattr__(self, "bins", _frozen(arr))
        object.__setattr__(self, "bin_spacing", spacing)

    def __len__(self) -> int:
        return self.bins.size


@dataclass(frozen=True, eq=False)
class ImpulseTrain:
    """Weighted impulses on a time or frequency axis.

    ``impulses`` is a tuple of (location, weight) pairs with strictly
    increasing locations.  Impulses are never evaluated pointwise; they are
    consumed by sifting and synthesis operations.
    """

    impulses: tuple[tuple[float, complex], ...]
    domain: str = TIME

    def __post_init__(self):
        pairs = tuple((float(loc), complex(wt)) for loc, wt in self.impulses)
        pairs = tuple(sorted(pairs, key=lambda p: p[0]))
        locs = [p[0] for p in pairs]
        if len(set(locs)) != len(locs):
            raise InvalidParameter("impulse locations must be distinct")
        if self.domain not in (TIME, FREQUENCY):
            raise InvalidParameter(f"domain must be 'time' or 'frequency', got {self.domain!r}")
        object.__setattr__(self, "impulses", pairs)

    def locations(self) -> np.ndarray:
        return np.array([loc for loc, _ in self.impulses], dtype=float)

    def weights(self) -> np.ndarray:
        return np.array([wt for _, wt in self.impulses], dtype=np.complex128)

    def __len__(self) -> int:
        return len(self.impulses)


@dataclass(frozen=True, eq=False)
class SegmentedFunction:
    """Piecewise map: a sorted tuple of (a, b, map) pieces, zero outside.

    Pieces may share endpoints but must not overlap.  Evaluation at a shared
    endpoint averages the adjacent pieces (see ``segmented_eval``).
    """

    segments: tuple[tuple[float, float, Callable[[float], float]], ...]

    def __post_init__(self):
        segs = tuple((float(a), float(b), m) for a, b, m in self.segments)
        segs = tuple(sorted(segs, key=lambda s: s[0]))
        for a, b, _ in segs:
            if not b > a:
                raise NonPositiveInterval(f"segment ({a}, {b}) has nonpositive length")
        for (_, b0, _), (a1, _, _) in zip(segs, segs[1:]):
            if a1 < b0:
                raise InvalidParameter("segments overlap")
        object.__setattr__(self, "segments", segs)


def segmented_eval(s: SegmentedFunction, x: float) -> float:
    """Evaluate a piecewise map with half-value junctions.

    Interior points use the covering piece; a junction shared by two pieces
    yields the mean of both; a boundary next to the implicit zero region
    yields half the one-sided value; everywhere else the value is 0.
    """
    x = float(x)
    touching = []
    for a, b, m in s.segments:
        if a < x < b:
            return float(m(x))
        if x == a or x == b:
            touching.append(m)
    if not touching:
        return 0.0
    if len(touching) == 1:
        return 0.5 * float(touching[0](x))
    return 0.5 * (float(touching[0](x)) + float(touching[1](x)))


@dataclass(frozen=True)
class GaborAtom:
    """Gaussian-envelope tone: exp(-alpha^2 (t-t0)^2) * cis(2 pi f0 t + phase).

    Every field is stored as a finite float, and alpha > 0 with alpha^2 and
    (pi/alpha)^2, the rates of envelope and spectrum, finite (else InvalidParameter).
    """

    t0: float
    f0: float
    alpha: float
    phase: float = 0.0

    def __post_init__(self):
        for name in ("t0", "f0", "alpha", "phase"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        if not _gaussian_width_ok(self.alpha):
            raise InvalidParameter(
                f"alpha must be > 0 with alpha^2 and (pi/alpha)^2 finite, got {self.alpha!r}")


@dataclass(frozen=True, eq=False)
class TFDistribution:
    """Time-frequency grid: values[i, j] at time_axis[i], freq_axis[j].

    ``kind`` is "stft-complex" for short-time spectra or "wvd-real" for the
    distribution rows, which are real by construction.
    """

    values: np.ndarray
    time_axis: np.ndarray
    freq_axis: np.ndarray
    kind: str

    def __post_init__(self):
        vals = np.asarray(self.values)
        ta = np.asarray(self.time_axis, dtype=float).reshape(-1)
        fa = np.asarray(self.freq_axis, dtype=float).reshape(-1)
        if vals.ndim != 2 or vals.shape != (ta.size, fa.size):
            raise LengthMismatch(
                f"values shape {vals.shape} does not match axes ({ta.size}, {fa.size})"
            )
        if self.kind not in ("stft-complex", "wvd-real"):
            raise InvalidParameter(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "values", _frozen(vals))
        object.__setattr__(self, "time_axis", _frozen(ta))
        object.__setattr__(self, "freq_axis", _frozen(fa))
