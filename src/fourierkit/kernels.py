"""Named kernels and impulse calculus.

Scalar in, scalar out; numpy arrays broadcast elementwise.  The rectangle and
step take the half value at their jumps, which is the value every partial sum
and inversion formula in this package actually converges to there.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import ImpulseTrain, TIME, _INTERVAL, _as_array, _as_count, _as_float, _eval_map, _match

# Below this, sin(theta/2) is treated as zero and the kernel's limit is used.
_SINGULAR = 1e-12


def dirichlet_sum(i: int, theta) -> float:
    """Truncated cosine kernel 1/2 + sum_{m=1..i} cos(m*theta)."""
    i = _as_count("order", i, least=0)
    th = _as_array("theta", theta)
    m = np.arange(1, i + 1)
    out = 0.5 + np.cos(np.multiply.outer(th, m)).sum(axis=-1)
    return _match(theta, out, float)


def dirichlet_closed(i: int, theta) -> float:
    """Closed form sin((i+1/2)theta) / (2 sin(theta/2)) of the same kernel.

    The quotient repeats every full turn, and near a turn the two sines must
    stay correlated or rounding in the numerator is divided by a vanishing
    denominator.  Reducing theta to the nearest turn first keeps them on the
    same small argument; the (-1)^m factors picked up by numerator and
    denominator cancel because 2i+1 is odd.  At the turns themselves the
    quotient is replaced by its limit i + 1/2.
    """
    i = _as_count("order", i, least=0)
    th = _as_array("theta", theta)
    ph = th - 2.0 * np.pi * np.round(th / (2.0 * np.pi))
    half = np.sin(ph / 2.0)
    singular = np.abs(half) < _SINGULAR
    denom = np.where(singular, 1.0, 2.0 * half)
    out = np.where(singular, i + 0.5, np.sin((i + 0.5) * ph) / denom)
    return _match(theta, out, float)


def rect(t, width: float = 1.0):
    """Rectangle of unit height: 1 inside (-w/2, w/2), 1/2 at the edges."""
    width = _as_float("width", width, **_INTERVAL)
    at = np.abs(_as_array("t", t))
    half = width / 2.0
    out = np.where(at < half, 1.0, np.where(at == half, 0.5, 0.0))
    return _match(t, out, float)


def sinc(u):
    """Normalized sinc sin(pi u)/(pi u) with sinc(0) = 1."""
    arr = _as_array("u", u)
    pu = np.pi * np.where(arr == 0.0, 1.0, arr)
    out = np.where(arr == 0.0, 1.0, np.sin(pu) / pu)
    return _match(u, out, float)


def sinc_scaled(u, width: float):
    """Transform of a width-`width` rectangle: width * sinc(width * u)."""
    width = _as_float("width", width, **_INTERVAL)
    return width * sinc(np.multiply(_as_array("u", u), width))


def step(x):
    """Unit step: 0 for x < 0, 1 for x > 0, 1/2 at x = 0."""
    arr = _as_array("x", x)
    out = np.where(arr < 0.0, 0.0, np.where(arr > 0.0, 1.0, 0.5))
    return _match(x, out, float)


def make_comb(period: float, count: int, weight: complex = 1.0, domain: str = TIME) -> ImpulseTrain:
    """Equally weighted impulses at 0, period, ..., (count-1)*period."""
    count = _as_count("count", count)  # fails at once for a huge count
    locations = _as_float("period", period, count - 1, **_INTERVAL) * np.arange(count)
    return ImpulseTrain._of(locations, weight, domain)


def sift(train: ImpulseTrain, map: Callable[[float], complex]) -> complex:
    """Apply the train to a map: sum of weight * map(location), with the map
    called on all locations at once when it takes an array."""
    return complex(np.dot(train.weights(), _eval_map(map, train.locations(), complex)))
