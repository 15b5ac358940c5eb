"""Shared value types: waveforms, spectra, impulse trains, piecewise maps,
Gabor atoms, and time-frequency grids, plus the helpers the other modules
share: scalar-or-array results, the argument rules ``_as_float``, ``_as_array`` and
``_as_count`` that every scalar float, array and count goes through once, and the map rule
``_eval_map`` that every value of a caller's map goes through once.

Every type here is an immutable value object, and every one holds its fields by one rule,
``_ReadOnlyState.__setstate__``: its arrays as read-only views, the caller's array itself
staying writable.  Operations take these values and return new ones, so instances are safe to
share between threads.  Each type checks its invariants once, when it is built (so a
TFDistribution raises NonFiniteSample for a non-finite value), and operations never re-check
them.  A real-tagged Waveform owns its samples: a caller's array is copied, one the package
built is not.  Other arrays passed to a constructor are not copied when numpy can use them as
they are, so they must not be written afterwards.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

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
    """A sample, a bin or a sampled map's value was NaN or infinity."""


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


class _ReadOnlyState:
    """Base of the value types: ``__setstate__`` alone writes their fields, arrays read-only."""

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                value = value.view()
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, *args):
        """A value of the package's own fresh arrays: the fields ``cls._hold(*args)`` checks."""
        value = object.__new__(cls)
        value.__setstate__(cls._hold(*args))
        return value


def _eval_map(fn: Callable, xs: np.ndarray, kind: type, name: str = "map",
              label: str = "t") -> np.ndarray:
    """Values of ``fn`` at the points ``xs`` as a ``kind`` (float or complex) array: one call on
    the whole array when the map takes it and answers one value per point, otherwise one call
    per point on a Python float, but a FourierKitError from the array call propagates unless a
    scalar-only package function raised it for ``float(xs)``'s TypeError.  Either way, the one
    rule for a caller's map: NonFiniteSample naming ``name`` unless ``_as_array`` finds each
    value a finite ``kind``, the first non-finite one named by its point ``label = x``."""
    try:
        vals = fn(xs)
        whole = np.shape(vals) == xs.shape
    except (TypeError, ValueError) as e:
        if isinstance(e, FourierKitError) and not isinstance(e.__context__, TypeError):
            raise
        whole = False
    if not whole:
        vals = list(map(fn, xs.astype(float, copy=False).tolist()))
    return _as_array(name, vals, kind, NonFiniteSample, at=(label, xs))


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
    except (TypeError, ValueError):
        raise error(f"{name} must be a real number, got {value!r}") from None
    if not above < x < math.inf:
        raise error(f"{name} must be in ({above:g}, inf), got {value!r}")
    if span and not math.isfinite(math.prod(span, start=x)):
        raise error(f"{name} {value!r} times {' * '.join(map(repr, span))} is not finite")
    return x


def _as_array(name: str, value, kind: type | np.dtype = float,
              error: type[FourierKitError] = InvalidParameter,
              at: tuple[str, np.ndarray] | None = None) -> np.ndarray:
    """np.asarray(value) as ``kind``, once; ``error`` naming ``name`` for a huge integer, a None, a
    complex array of a real kind, or its first non-finite entry, by flat index or ``at=(label,
    points)``."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind == "O" and any(v is None for v in arr.flat):
            raise TypeError  # numpy would cast None to NaN
        if arr.dtype.kind == "c" and np.dtype(kind).kind != "c":
            raise TypeError  # numpy would drop the imaginary parts with only a warning
        arr = arr.astype(kind, copy=False)
    except OverflowError:
        raise error(f"{name} holds an integer too large for a float") from None
    except (TypeError, ValueError):
        raise error(f"{name} must hold {np.dtype(kind).name} numbers") from None
    if not np.isfinite(arr).all():  # one pass; only a failure looks for the index
        i = int(np.argmin(np.isfinite(arr).reshape(-1)))
        where = f"{at[0]} = {float(np.ravel(at[1])[i])!r}" if at else f"index {i}"
        raise error(f"{name} has a non-finite value at {where}")
    return arr


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
class Waveform(_ReadOnlyState):
    """Uniformly sampled signal x(t0 + n*T) for n = 0..N-1.

    Samples are stored as complex128 regardless of tag; ``tag == "real"``
    asserts that every imaginary part is exactly zero.  When ``tag`` is
    omitted it is inferred from the data; an explicit real tag on data with
    a nonzero imaginary part raises RealTagViolation here, once.

    The other invariants are checked here too, and operations never
    re-check them: NonFiniteSample unless every sample is finite,
    NonPositiveInterval unless 0 < sample_interval < inf with a finite span
    len * sample_interval, EmptySamples for no samples, InvalidParameter for
    an unknown tag or a start_time whose first or last sample time is not
    finite.  An integer too large for a float counts as infinite.

    A real-tagged waveform owns its samples: a caller's complex128 array is
    copied, so later writes to it cannot break the tag, but not the package's
    own fresh samples.  Other samples are not copied when ``np.asarray`` can
    use them as they are; do not write to such an array afterwards.
    """

    samples: np.ndarray
    sample_interval: float
    start_time: float = 0.0
    tag: str | None = None

    def __post_init__(self):
        state = self._hold(self.samples, self.sample_interval, self.start_time, self.tag)
        if state["tag"] == REAL and np.may_share_memory(state["samples"], self.samples):
            state["samples"] = state["samples"].copy()  # the caller could still write to it
        self.__setstate__(state)

    @staticmethod
    def _hold(samples, sample_interval: float, start_time: float = 0.0, tag=None) -> dict:
        """The checked fields of every waveform, its samples one complex128 array."""
        given = _as_array("samples", samples, np.complex128, NonFiniteSample)
        real = bool(np.all(given.imag == 0.0))
        if tag is None:
            tag = REAL if real else COMPLEX
        elif tag == REAL and not real:
            raise RealTagViolation("waveform tagged real has nonzero imaginary parts")
        interval = _as_float("sample_interval", sample_interval, given.size, **_INTERVAL)
        if given.size == 0:
            raise EmptySamples("waveform has no samples")
        if tag not in (REAL, COMPLEX):
            raise InvalidParameter(f"unknown tag {tag!r}")
        start = _as_float("start_time", start_time)
        _require_finite_times(start, interval, given.size)
        return dict(samples=given.reshape(-1), sample_interval=interval, start_time=start, tag=tag)

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
class Spectrum(_ReadOnlyState):
    """Discrete transform output: bin k holds X(k), k = 0..N-1.

    Bin ordering follows the transform itself: bin 0 is DC and bins past
    the midpoint wrap to negative frequencies.  ``centered`` in transforms
    reorders for display only.

    Built with finite bins (else NonFiniteSample), at least one (else
    EmptyBins), 0 < bin_spacing < inf, a finite span len * bin_spacing and a
    finite record length 1 / bin_spacing (else NonPositiveInterval, also for
    an integer too large for a float); operations never re-check these.
    """

    bins: np.ndarray
    bin_spacing: float

    def __post_init__(self):
        arr = _as_array("bins", self.bins, np.complex128, NonFiniteSample).reshape(-1)
        if arr.size == 0:
            raise EmptyBins("spectrum has no bins")
        spacing = _as_float("bin_spacing", self.bin_spacing, arr.size, **_INTERVAL)
        if 1.0 / spacing == math.inf:
            raise NonPositiveInterval(f"bin_spacing {spacing!r} gives an infinite record length")
        self.__setstate__(dict(bins=arr, bin_spacing=spacing))

    def __len__(self) -> int:
        return self.bins.size


@dataclass(frozen=True, eq=False, init=False)
class ImpulseTrain(_ReadOnlyState):
    """Weighted impulses on a time or frequency axis.

    Built from (location, weight) pairs, finite (else InvalidParameter) with distinct
    locations, and held as two read-only arrays sorted by location; ``impulses`` builds
    the pairs on demand.  Impulses are never evaluated pointwise; sifting and synthesis
    operations consume them.
    """

    domain: str

    def __init__(self, impulses: Iterable[tuple[float, complex]], domain: str = TIME):
        pairs = [(loc, wt) for loc, wt in impulses]
        self.__setstate__(self._hold([loc for loc, _ in pairs], [wt for _, wt in pairs], domain))

    @staticmethod
    def _hold(locations, weights, domain: str) -> dict:
        """The checked fields: the locations, sorted, with their weights or one for all."""
        locs = _as_array("impulse locations", locations)
        wts = _as_array("impulse weights", weights, complex)
        if locs.ndim != 1 or wts.shape not in (locs.shape, ()):
            raise InvalidParameter("each impulse must be one location and one weight")
        order = np.argsort(locs, kind="stable")
        locs = locs[order]
        if not (np.diff(locs) > 0.0).all():
            raise InvalidParameter("impulse locations must be distinct")
        if domain not in (TIME, FREQUENCY):
            raise InvalidParameter(f"domain must be 'time' or 'frequency', got {domain!r}")
        return dict(domain=domain, _locs=locs, _wts=np.broadcast_to(wts, locs.shape)[order])

    @property
    def impulses(self) -> tuple[tuple[float, complex], ...]:
        return tuple(zip(self._locs.tolist(), self._wts.tolist()))

    def locations(self) -> np.ndarray:
        return self._locs

    def weights(self) -> np.ndarray:
        return self._wts

    def __len__(self) -> int:
        return self._locs.size


@dataclass(frozen=True, eq=False)
class SegmentedFunction(_ReadOnlyState):
    """Piecewise map: a sorted tuple of (a, b, map) pieces, zero outside.

    Pieces may share endpoints but must not overlap.  Evaluation at a shared
    endpoint averages the adjacent pieces (see ``segmented_eval``).
    """

    segments: tuple[tuple[float, float, Callable[[float], float]], ...]

    def __post_init__(self):
        segs = tuple((_as_float("segment start", a), _as_float("segment end", b), m)
                     for a, b, m in self.segments)
        segs = tuple(sorted(segs, key=lambda s: s[0]))
        for a, b, _ in segs:
            if not b > a:
                raise NonPositiveInterval(f"segment ({a}, {b}) has nonpositive length")
        for (_, b0, _), (a1, _, _) in zip(segs, segs[1:]):
            if a1 < b0:
                raise InvalidParameter("segments overlap")
        self.__setstate__(dict(segments=segs))


def segmented_eval(s: SegmentedFunction, x: float) -> float:
    """Evaluate a piecewise map with half-value junctions.

    Interior points use the covering piece; a junction shared by two pieces
    yields the mean of both; a boundary next to the implicit zero region
    yields half the one-sided value; everywhere else the value is 0.  x must
    be finite (else InvalidParameter), and a piece's value at x a finite real
    number (else NonFiniteSample).
    """
    x = _as_float("x", x)

    def value(m: Callable[[float], float]) -> float:
        return _as_float(f"segment map at x = {x!r}", m(x), error=NonFiniteSample)

    touching = []
    for a, b, m in s.segments:
        if a < x < b:
            return value(m)
        if x == a or x == b:
            touching.append(m)
    if not touching:
        return 0.0
    if len(touching) == 1:
        return 0.5 * value(touching[0])
    return 0.5 * (value(touching[0]) + value(touching[1]))


@dataclass(frozen=True)
class GaborAtom(_ReadOnlyState):
    """Gaussian-envelope tone: exp(-alpha^2 (t-t0)^2) * cis(2 pi f0 t + phase).

    Every field is stored as a finite float, and alpha > 0 with alpha^2 and
    (pi/alpha)^2, the rates of envelope and spectrum, finite (else InvalidParameter).
    """

    t0: float
    f0: float
    alpha: float
    phase: float = 0.0

    def __post_init__(self):
        fields = {name: _as_float(name, value) for name, value in vars(self).items()}
        if not _gaussian_width_ok(fields["alpha"]):
            raise InvalidParameter(
                f"alpha must be > 0 with alpha^2 and (pi/alpha)^2 finite, got {fields['alpha']!r}")
        self.__setstate__(fields)


@dataclass(frozen=True, eq=False)
class TFDistribution(_ReadOnlyState):
    """Time-frequency grid: values[i, j] at time_axis[i], freq_axis[j].

    ``kind`` is "stft-complex" for short-time spectra, held as complex128, or "wvd-real"
    for the distribution rows, real by construction and held as float64.  NonFiniteSample
    unless every value is finite, InvalidParameter unless every axis point is.
    """

    values: np.ndarray
    time_axis: np.ndarray
    freq_axis: np.ndarray
    kind: str

    def __post_init__(self):
        dtype = {"stft-complex": complex, "wvd-real": float}.get(self.kind)
        if dtype is None:
            raise InvalidParameter(f"unknown kind {self.kind!r}")
        vals = _as_array("values", self.values, dtype, NonFiniteSample)
        ta = _as_array("time_axis", self.time_axis).reshape(-1)
        fa = _as_array("freq_axis", self.freq_axis).reshape(-1)
        if vals.ndim != 2 or vals.shape != (ta.size, fa.size):
            raise LengthMismatch(
                f"values shape {vals.shape} does not match axes ({ta.size}, {fa.size})")
        self.__setstate__(dict(values=vals, time_axis=ta, freq_axis=fa))
