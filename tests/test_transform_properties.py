"""Properties of the discrete transform core for each plan kind: powers of
two, smooth mixed-radix lengths and Bluestein lengths.

The oracles are the transform's own identities, so numpy.fft plays no part.
hypothesis is a test-only dependency; without it the module is skipped and
the rest of the suite runs.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fourierkit.transforms import _fft_raw, _ifft_raw, _plan  # noqa: E402

# fixed examples and no example database, so every run checks the same cases
_EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_TOLERANCE = 1e-12  # relative to the largest magnitude on the compared side

_LENGTHS = {
    "pow2": st.integers(1, 14).map(lambda e: 1 << e),
    "smooth": st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 2),
                        st.integers(0, 1))
                .map(lambda e: 2 ** e[0] * 3 ** e[1] * 5 ** e[2] * 7 ** e[3])
                .filter(lambda n: n & (n - 1) != 0),
    "bluestein": st.integers(2, 5000).filter(lambda n: _plan(n) is None),
}
_KINDS = sorted(_LENGTHS)
_WEIGHTS = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


def _signal(seed, n, rows=()):
    rng = np.random.default_rng(seed)
    shape = (*rows, n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _close(got, want):
    return np.max(np.abs(got - want)) <= _TOLERANCE * max(1.0, np.max(np.abs(want)))


def _data(kind):
    return st.tuples(_LENGTHS[kind], st.integers(0, 2 ** 32 - 1))


@pytest.mark.parametrize("kind", _KINDS)
@_EXAMPLES
@given(data=st.data())
def test_round_trip(kind, data):
    n, seed = data.draw(_data(kind))
    x = _signal(seed, n)
    assert _close(_ifft_raw(_fft_raw(x)), x)
    assert _close(_fft_raw(_ifft_raw(x)), x)


@pytest.mark.parametrize("kind", _KINDS)
@_EXAMPLES
@given(data=st.data())
def test_parseval(kind, data):
    n, seed = data.draw(_data(kind))
    x = _signal(seed, n)
    energy = np.sum(np.abs(x) ** 2)
    assert abs(np.sum(np.abs(_fft_raw(x)) ** 2) / n - energy) <= _TOLERANCE * energy


@pytest.mark.parametrize("kind", _KINDS)
@_EXAMPLES
@given(data=st.data(), a=_WEIGHTS, b=_WEIGHTS)
def test_linearity(kind, data, a, b):
    n, seed = data.draw(_data(kind))
    x, y = _signal(seed, n, (2,))
    for raw in (_fft_raw, _ifft_raw):
        assert _close(raw(a * x + b * y), a * raw(x) + b * raw(y))


@pytest.mark.parametrize("kind", _KINDS)
@_EXAMPLES
@given(data=st.data(), shift=st.integers(0, 10 ** 6))
def test_shift_and_modulation(kind, data, shift):
    n, seed = data.draw(_data(kind))
    x, s = _signal(seed, n), shift % n
    # exp(-+ i 2 pi k s / n) with k*s reduced mod n in integers
    phase = np.exp((-2j * np.pi / n) * (np.arange(n) * s % n))
    spectrum = _fft_raw(x)
    assert _close(_fft_raw(np.roll(x, s)), spectrum * phase)
    assert _close(_fft_raw(x * np.conj(phase)), np.roll(spectrum, s))


@pytest.mark.parametrize("kind", _KINDS)
@_EXAMPLES
@given(data=st.data(), rows=st.integers(1, 5))
def test_batch_equals_single_rows(kind, data, rows):
    n, seed = data.draw(_data(kind))
    x = _signal(seed, n, (rows,))
    for raw in (_fft_raw, _ifft_raw):
        assert np.array_equal(raw(x), np.array([raw(row) for row in x]))
