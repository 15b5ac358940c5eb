"""Properties of the integrated transforms against scipy.integrate.quad.

scipy and hypothesis are test-only oracles; without either the module is
skipped and the rest of the suite runs.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
integrate = pytest.importorskip("scipy.integrate")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fourierkit import QuadratureSpec, half_transform, quad_ft  # noqa: E402

# fixed examples and no example database, so every run checks the same cases
_EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_TOLERANCE = 1e-8


def _oscillatory(fn, lower, upper, omega, weight):
    """Integral of fn(t) * weight(omega t) over [lower, upper] by QUADPACK's
    oscillatory rule."""
    value, _ = integrate.quad(fn, lower, upper, weight=weight, wvar=omega,
                              epsabs=1e-12, epsrel=1e-12, limit=200)
    return value


@_EXAMPLES
@given(width=st.floats(0.5, 4.0), center=st.floats(-1.0, 1.0), tone=st.floats(0.0, 3.0),
       f=st.floats(-4.0, 4.0), damping=st.sampled_from([0.0, 0.4, 1.7]),
       direction=st.sampled_from(["forward", "inverse"]))
def test_quad_ft_of_gaussian_times_tone_matches_scipy(width, center, tone, f, damping,
                                                      direction):
    half = abs(center) + 7.0 / math.sqrt(width)  # the envelope is below 1e-21 outside

    def tone_map(t):
        return np.exp(-width * (t - center) ** 2) * np.cos(2 * np.pi * tone * t)

    def damped(t):
        return tone_map(t) * np.exp(-damping * np.abs(t))

    spec = QuadratureSpec(-half, half, abs_tolerance=_TOLERANCE, damping=damping)
    got = quad_ft(tone_map, f, spec, direction)
    # split at 0, where exp(-damping |t|) has its kink
    parts = ((-half, 0.0), (0.0, half))
    re = sum(_oscillatory(damped, lo, hi, 2 * np.pi * f, "cos") for lo, hi in parts)
    im = sum(_oscillatory(damped, lo, hi, 2 * np.pi * f, "sin") for lo, hi in parts)
    want = complex(re, -im if direction == "forward" else im)
    assert got.converged
    assert abs(got.value - want) <= _TOLERANCE


@_EXAMPLES
@given(rate=st.floats(0.3, 3.0), upper=st.floats(1.0, 30.0), q=st.floats(0.0, 10.0),
       damping=st.sampled_from([0.0, 0.5]), kind=st.sampled_from(["cosine", "sine"]))
def test_half_transform_of_decaying_map_matches_scipy(rate, upper, q, damping, kind):
    spec = QuadratureSpec(0.0, upper, abs_tolerance=_TOLERANCE, damping=damping)
    got = half_transform(lambda x: np.exp(-rate * x) * (1.0 + x), q, kind, spec)
    want = _oscillatory(lambda x: np.exp(-(rate + damping) * x) * (1.0 + x), 0.0, upper, q,
                        "cos" if kind == "cosine" else "sin")
    assert abs(got - want) <= _TOLERANCE
