"""Shared value types: waveforms, spectra, impulse trains, piecewise maps,
Gabor atoms, and time-frequency grids, plus the helpers the other modules
share: map evaluation, scalar-or-array results and the interval check.

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


def _require_positive(name: str, value: float) -> None:
    """Raise NonPositiveInterval unless 0 < value < inf."""
    if not 0.0 < value < np.inf:
        raise NonPositiveInterval(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True, eq=False)
class Waveform:
    """Uniformly sampled signal x(t0 + n*T) for n = 0..N-1.

    Samples are stored as complex128 regardless of tag; ``tag == "real"``
    asserts that every imaginary part is exactly zero.  When ``tag`` is
    omitted it is inferred from the data; an explicit real tag on data with
    a nonzero imaginary part raises RealTagViolation here, once.

    The other invariants are checked here too, and operations never
    re-check them: NonPositiveInterval unless 0 < sample_interval < inf,
    EmptySamples for no samples, InvalidParameter for an unknown tag or a
    non-finite start_time.

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
        interval, start = float(self.sample_interval), float(self.start_time)
        _require_positive("sample_interval", interval)
        if given.size == 0:
            raise EmptySamples("waveform has no samples")
        if self.tag not in (REAL, COMPLEX):
            raise InvalidParameter(f"unknown tag {self.tag!r}")
        if not math.isfinite(start):
            raise InvalidParameter(f"start_time must be finite, got {start!r}")
        arr = given.reshape(-1)
        if self.tag == REAL and (given is self.samples or not given.flags.owndata):
            arr = arr.copy()  # the caller's own memory: it could still write to it
        object.__setattr__(self, "samples", _frozen(arr))
        object.__setattr__(self, "sample_interval", interval)
        object.__setattr__(self, "start_time", start)

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

    Built with at least one bin (else EmptyBins) and 0 < bin_spacing < inf
    (else NonPositiveInterval); operations never re-check these.
    """

    bins: np.ndarray
    bin_spacing: float

    def __post_init__(self):
        arr = np.asarray(self.bins, dtype=np.complex128).reshape(-1)
        if arr.size == 0:
            raise EmptyBins("spectrum has no bins")
        spacing = float(self.bin_spacing)
        _require_positive("bin_spacing", spacing)
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
    """Gaussian-envelope tone: exp(-alpha^2 (t-t0)^2) * cis(2 pi f0 t + phase)."""

    t0: float
    f0: float
    alpha: float
    phase: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha < np.inf:
            raise InvalidParameter(f"alpha must be finite and > 0, got {self.alpha!r}")


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
