"""Sampling, aliasing, windowing, convolutions, and sinc reconstruction."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from fourierkit import (
    LengthMismatch,
    NonFiniteSample,
    NonPositiveInterval,
    Spectrum,
    Waveform,
    alias_frequency,
    convolve_circular,
    convolve_linear,
    dft,
    idft,
    sample,
    sample_spectrum,
    sinc,
    sinc_reconstruct,
    window_rect,
)
from fourierkit.core import _eval_map


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_scalar_and_vectorized_maps_agree():
    vec = sample(lambda t: np.cos(t), 0.5, 8, start_time=-1.0)
    scal = sample(lambda t: math.cos(t), 0.5, 8, start_time=-1.0)
    assert np.array_equal(vec.samples, scal.samples)
    assert vec.start_time == -1.0
    assert vec.sample_interval == 0.5


def test_sample_calls_a_map_per_point_unless_it_answers_every_point():
    # a constant answers an array with one value, the second map with too few
    assert np.array_equal(sample(lambda t: 2.0, 0.5, 4).samples, np.full(4, 2.0))
    got = sample(lambda t: t[:2] if np.ndim(t) else t, 1.0, 5)
    assert np.array_equal(got.samples, np.arange(5.0))
    # float(t) fails on the whole array, so each map runs point by point on a
    # Python float, and every return type converts as complex() and float() do
    ts = np.arange(5.0)
    returns = [
        (lambda t: int(float(t)) * 3, [0.0, 3.0, 6.0, 9.0, 12.0]),
        (lambda t: float(t) > 2.0, [0.0, 0.0, 0.0, 1.0, 1.0]),
        (lambda t: float(t) / 4.0, [0.0, 0.25, 0.5, 0.75, 1.0]),
        (lambda t: np.float64(float(t)) * 0.5, [0.0, 0.5, 1.0, 1.5, 2.0]),
        (lambda t: np.array(float(t) - 1.5), [-1.5, -0.5, 0.5, 1.5, 2.5]),
    ]
    for fn, want in returns:
        assert np.array_equal(sample(fn, 1.0, 5).samples, np.array(want, dtype=complex))
        got = _eval_map(fn, ts, float)
        assert got.dtype == np.float64 and np.array_equal(got, want)
    got = sample(lambda t: complex(float(t), -1.0), 1.0, 5)
    assert np.array_equal(got.samples, ts - 1j) and got.tag == "complex"
    with pytest.raises(NonFiniteSample):
        _eval_map(lambda t: complex(float(t), -1.0), ts, float)
    # integer sample times still reach a per-point map as Python floats
    got = sample(lambda t: 1.0 if type(t) is float else None, 1, 4, start_time=0)
    assert np.array_equal(got.samples, np.ones(4))


def test_sample_tags_real_and_complex():
    assert sample(lambda t: math.sin(t), 1.0, 4).tag == "real"
    assert sample(lambda t: complex(0.0, t), 1.0, 4).tag == "complex"


def test_sample_rejects_non_finite_values():
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteSample):
        sample(lambda t: 1.0 / (t - 2.0), 1.0, 5)


def test_sample_validation():
    with pytest.raises(NonPositiveInterval):
        sample(lambda t: 1.0, 0.0, 4)
    with pytest.raises(ValueError):
        sample(lambda t: 1.0, 1.0, 0)


# ---------------------------------------------------------------------------
# aliasing
# ---------------------------------------------------------------------------

def test_alias_frequency_known_values():
    assert alias_frequency(3.0, 8.0) == 3.0
    assert alias_frequency(5.0, 8.0) == -3.0
    assert alias_frequency(8.0, 8.0) == 0.0
    assert alias_frequency(4.0, 8.0) == -4.0   # band edge folds to -Fs/2
    assert alias_frequency(-4.0, 8.0) == -4.0
    assert alias_frequency(0.3, 8.0) == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(NonPositiveInterval):
        alias_frequency(1.0, 0.0)


def test_alias_frequency_lands_in_base_band():
    rng = np.random.default_rng(42)
    for f in rng.uniform(-40.0, 40.0, 200):
        fa = alias_frequency(float(f), 8.0)
        assert -4.0 <= fa < 4.0
        # congruent mod Fs
        assert (f - fa) / 8.0 == pytest.approx(round((f - fa) / 8.0), abs=1e-9)


def test_alias_tone_is_sample_identical():
    fs = 8.0
    rng = np.random.default_rng(42)
    for _ in range(20):
        f = float(rng.uniform(-5.0 * fs, 5.0 * fs))
        ph = float(rng.uniform(0.0, 2.0 * np.pi))
        fa = alias_frequency(f, fs)
        w1 = sample(lambda t: math.cos(2.0 * math.pi * f * t + ph), 1.0 / fs, 64)
        w2 = sample(lambda t: math.cos(2.0 * math.pi * fa * t + ph), 1.0 / fs, 64)
        assert np.max(np.abs(w1.samples - w2.samples)) <= 1e-12


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_convolve_linear_against_direct_sum():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(7)
    y = rng.standard_normal(5)
    got = convolve_linear(x, y)
    assert got.size == 11
    want = np.array([sum(x[m] * y[k - m] for m in range(7) if 0 <= k - m < 5)
                     for k in range(11)])
    assert np.max(np.abs(got - want)) <= 1e-13


def test_convolve_linear_identity_and_commutativity():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert np.max(np.abs(convolve_linear(x, [1.0]) - x)) == 0.0
    y = rng.standard_normal(4)
    assert np.max(np.abs(convolve_linear(x, y) - convolve_linear(y, x))) <= 1e-13


def test_convolve_circular_against_direct_sum():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    got = convolve_circular(x, y)
    want = np.array([sum(x[m] * y[(k - m) % 8] for m in range(8))
                     for k in range(8)])
    assert np.max(np.abs(got - want)) <= 1e-13


def test_convolve_circular_matches_transform_product():
    rng = np.random.default_rng(15)
    x = rng.standard_normal(12)
    y = rng.standard_normal(12)
    direct = convolve_circular(x, y)
    spec = Spectrum(dft(Waveform(x, 1.0)).bins * dft(Waveform(y, 1.0)).bins,
                    1.0 / 12.0)
    via_bins = idft(spec).samples
    assert np.max(np.abs(direct - via_bins)) <= 1e-12


def test_convolve_circular_memory_stays_linear():
    # an n x n index matrix would need about 4 GiB here
    n = 16384
    rng = np.random.default_rng(17)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    tracemalloc.start()
    try:
        out = convolve_circular(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n,)
    assert peak < 8 * 2 ** 20


def test_zero_padded_circular_equals_linear():
    rng = np.random.default_rng(16)
    x = rng.standard_normal(7)
    y = rng.standard_normal(5)
    lin = convolve_linear(x, y)
    circ = convolve_circular(np.concatenate([x, np.zeros(4)]),
                             np.concatenate([y, np.zeros(6)]))
    assert np.max(np.abs(circ - lin)) <= 1e-13


def test_convolve_validation():
    with pytest.raises(LengthMismatch):
        convolve_linear([], [1.0])
    with pytest.raises(LengthMismatch):
        convolve_circular([1.0, 2.0], [1.0])


# ---------------------------------------------------------------------------
# windowing
# ---------------------------------------------------------------------------

def test_window_rect_keeps_interior_and_halves_edges():
    w = Waveform(np.ones(10), 1.0)
    # edges at 1.0 and 8.0 land on samples and get the half value
    got = window_rect(w, width=7.0, center=4.5)
    assert np.array_equal(got.samples.real,
                          [0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.0])
    # edges between samples: plain zero/one mask
    got2 = window_rect(w, width=6.0, center=4.5)
    assert np.array_equal(got2.samples.real,
                          [0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0])


def test_window_rect_weight_sum_equals_width_over_interval():
    w = Waveform(np.ones(10), 1.0)
    for center, width in ((4.5, 7.0), (4.5, 6.0), (4.0, 4.0)):
        got = window_rect(w, width=width, center=center)
        assert float(np.sum(got.samples.real)) == pytest.approx(width, abs=1e-12)


def test_window_rect_preserves_tag_and_grid():
    w = Waveform(np.ones(6), 0.5, start_time=-1.0)
    got = window_rect(w, width=1.0, center=0.0)
    assert got.tag == "real"
    assert got.start_time == -1.0
    assert got.sample_interval == 0.5


# ---------------------------------------------------------------------------
# sinc reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_is_exact_at_sample_instants():
    # every other term of the sum is sinc of a nonzero integer, exactly 0
    assert sinc_reconstruct(Waveform(np.ones(1024), 1.0), 300.0, 4) == 1.0
    rng = np.random.default_rng(23)
    for x in (rng.standard_normal(300), rng.standard_normal(300) + 1j * rng.standard_normal(300)):
        w = Waveform(x, 0.25, -40.0)  # t0 + k T and (t - t0) / T are exact
        for taps in (1, 4, 64, 1000):
            got = [sinc_reconstruct(w, -40.0 + 0.25 * k, taps) for k in range(x.size)]
            assert got == x.tolist()


def test_reconstruct_matches_explicit_truncated_sum():
    fs = 4.0
    w = sample(lambda t: math.sin(2.0 * math.pi * t), 1.0 / fs, 4096,
               start_time=-512.0)
    rng = np.random.default_rng(5)
    for t in rng.uniform(-400.0, 400.0, 10):
        pos = (t - w.start_time) / w.sample_interval
        anchor = math.floor(pos)
        lo, hi = max(0, anchor - 39), min(len(w), anchor + 41)
        ns = np.arange(lo, hi)
        want = complex(np.dot(w.samples[ns], sinc(pos - ns)))
        assert abs(sinc_reconstruct(w, float(t), 40) - want) <= 1e-12


def _reference_reconstruct(w, t, taps):
    # the generic-kernel formula that sinc_reconstruct replaced by a window built in place
    pos = (float(t) - w.start_time) / w.sample_interval
    anchor = int(np.floor(pos))
    lo = max(0, anchor - taps + 1)
    hi = min(len(w) - 1, anchor + taps)
    if hi < lo:
        return 0.0 + 0.0j
    return complex(np.dot(w.samples[lo:hi + 1], sinc(pos - np.arange(lo, hi + 1))))


_PI = 4 * np.arctan(np.longdouble(1))
_WIDE = np.finfo(np.longdouble).eps < np.finfo(float).eps


def _longdouble_reconstruct(w, t, taps):
    """The documented sum at the pos the library rounds, in long double, with sinc
    exactly 0 at nonzero integers: (sum, sum of |x_n sinc|, sum of |x_n|) over the window."""
    pos = (float(t) - w.start_time) / w.sample_interval
    anchor = math.floor(pos)
    lo, hi = max(0, anchor - taps + 1), min(len(w) - 1, anchor + taps)
    if hi < lo:
        return 0j, 0.0, 0.0
    u = np.longdouble(pos) - np.arange(lo, hi + 1).astype(np.longdouble)
    kernel = (u == 0).astype(np.longdouble)
    off = u != np.round(u)
    kernel[off] = np.sin(_PI * u[off]) / (_PI * u[off])
    x = w.samples[lo:hi + 1]
    value = complex(float(np.dot(x.real.astype(np.longdouble), kernel)),
                    float(np.dot(x.imag.astype(np.longdouble), kernel)))
    return value, float(np.dot(np.abs(x), np.abs(kernel))), float(np.sum(np.abs(x)))


@pytest.mark.parametrize("n", [1, 5, 50])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("start_time", [0.0, -1.5])
def test_reconstruct_matches_the_generic_kernel_bit_for_bit(n, kind, start_time):
    # Bit for bit with the sample at sample instants, where the generic kernel adds
    # terms sin(pi k)/(pi k) of about 1e-17 and the one-sine window does not; within
    # rounding of the generic kernel elsewhere, and no further than it from the
    # long-double sum.  (The name is older than the one-sine window; the ids stay.)
    # The agreement bound is in ulps of sum |x_n|, not of sum |x_n sinc|: at an
    # instant the generic kernel's rounded zeros leave it up to 240 ulps of the
    # latter off, each term rounded to about an ulp of its sample.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    if kind == "complex":
        x = x + 1j * rng.standard_normal(n)
    w = Waveform(x, 0.25, start_time)
    assert w.tag == kind
    for taps in (1, 2, 12):
        # every sample instant from taps + 2 before the record to taps + 2 after it,
        # and the same instants shifted by fractions of a sample
        k = np.arange(-(taps + 2), n + taps + 2).astype(float)
        for shift in (0.0, 0.25, 0.5, 0.7, -0.1):
            for t in (start_time + 0.25 * (k + shift)).tolist():
                got, generic = sinc_reconstruct(w, t, taps), _reference_reconstruct(w, t, taps)
                truth, size, under = _longdouble_reconstruct(w, t, taps)
                pos = (t - start_time) / 0.25
                if pos == math.floor(pos):
                    assert got == (x[int(pos)] if 0 <= pos < n else 0.0)
                assert abs(got - generic) <= 2 * eps * under
                if _WIDE:
                    assert abs(got - truth) <= max(abs(generic - truth), 2 * eps * size)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_reconstruct_an_ulp_before_a_sample_instant(kind):
    # 0.3 - (0.1 + 0.2) is -2**-54 samples: the fraction is taken from the nearest
    # sample, since from the floor, -1, it would round 1 - 2**-54 to 1
    eps = np.finfo(float).eps
    rng = np.random.default_rng(31)
    x = rng.standard_normal(8)
    if kind == "complex":
        x = x + 1j * rng.standard_normal(8)
    w = Waveform(x, 1.0, 0.1 + 0.2)
    assert (0.3 - w.start_time) / w.sample_interval == -2.0 ** -54
    for taps in (1, 4, 64):
        assert abs(sinc_reconstruct(w, 0.3, taps) - x[0]) <= 2 * eps * np.sum(np.abs(x))
    w = Waveform(x, 1.0)
    for j in range(9):
        for t in (np.nextafter(float(j), -np.inf), -2.0 ** -54 * (j + 1), j - 2.0 ** -70):
            for taps in (1, 4, 64):
                want, _, under = _longdouble_reconstruct(w, t, taps)
                assert abs(sinc_reconstruct(w, t, taps) - want) <= 2 * eps * under


def test_reconstruct_past_the_offset_table_agrees_with_the_long_double_sum():
    # taps past 1024 a side take offsets computed per call, not a slice of the table
    eps = np.finfo(float).eps
    rng = np.random.default_rng(17)
    w = Waveform(rng.standard_normal(2600) + 1j * rng.standard_normal(2600), 0.5, 3.0)
    for taps in (1024, 1025, 1300):
        for t in (3.2, 3.0 + 0.5 * 1299.7, 3.0 + 0.5 * 2598.6, 3.0 + 0.5 * 1000.0):
            want, _, under = _longdouble_reconstruct(w, t, taps)
            got = sinc_reconstruct(w, t, taps)
            assert abs(got - want) <= 2 * eps * under
            assert abs(got - _reference_reconstruct(w, t, taps)) <= 2 * eps * under


def test_reconstruct_truncation_error_halves_as_taps_double():
    # midpoint of a DC record: the cut-off sinc tails dominate the error
    w = Waveform(np.ones(1024), 1.0)
    errs = [abs(sinc_reconstruct(w, 512.5, taps) - 1.0)
            for taps in (8, 16, 32, 64, 128, 256)]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    for a, b in zip(errs, errs[1:]):
        assert a / b == pytest.approx(2.0, rel=0.05)
    # absolute scale: error at 64 taps is about 5e-3, not smaller
    assert 4e-3 <= errs[3] <= 6e-3


def test_reconstruct_half_band_tone_error_scale():
    fs = 4.0
    w = sample(lambda t: math.sin(2.0 * math.pi * t), 1.0 / fs, 4096,
               start_time=-512.0)
    truth = math.sin(2.0 * math.pi * 0.125)
    err128 = abs(sinc_reconstruct(w, 0.125, 128) - truth)
    err320 = abs(sinc_reconstruct(w, 0.125, 320) - truth)
    # untapered truncation decays like 1/taps; about 2.5e-3 at 128 taps
    assert 2e-3 <= err128 <= 3e-3
    assert err320 <= 1.1e-3


def test_reconstruct_far_outside_record_is_zero():
    w = Waveform(np.ones(16), 1.0)
    assert sinc_reconstruct(w, -1e6, 8) == 0.0


def test_reconstruct_with_huge_taps_allocates_only_its_record():
    rng = np.random.default_rng(12)
    w = Waveform(rng.standard_normal(16), 0.5)
    tracemalloc.start()
    try:
        inside = [sinc_reconstruct(w, t, 10 ** 12) for t in (0.3, 3.0, 7.49)]
        far = sinc_reconstruct(w, -2e6 + 0.1, 10 ** 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024  # a 16-sample window, not 2 * 10**12 kernel values
    # past 16 taps the window is the whole record either way
    assert inside == [sinc_reconstruct(w, t, 16) for t in (0.3, 3.0, 7.49)]
    want, _, under = _longdouble_reconstruct(w, -2e6 + 0.1, 10 ** 12)
    assert abs(far - want) <= 2 * np.finfo(float).eps * under


def test_reconstruct_rejects_bad_taps():
    with pytest.raises(ValueError):
        sinc_reconstruct(Waveform([1.0], 1.0), 0.5, 0)


def test_reconstruct_costs_the_taps_not_the_record():
    # a call reads 2 * taps samples; a scan of the whole record per call would
    # make the 2^20-sample one about a hundred times slower than the 2^10 one
    rng = np.random.default_rng(9)

    def per_call(n):
        w = Waveform(rng.standard_normal(n), 1.0)
        best = math.inf
        for _ in range(7):
            start = time.perf_counter()
            for k in range(50):
                sinc_reconstruct(w, 500.3 + 0.01 * k, 16)
            best = min(best, time.perf_counter() - start)
        return best

    assert per_call(1 << 20) < 10.0 * per_call(1 << 10)


# ---------------------------------------------------------------------------
# spectrum sampling
# ---------------------------------------------------------------------------

def test_sample_spectrum_dc_line():
    train, w = sample_spectrum(lambda f: 1.0 if f == 0.0 else 0.0, 0.5, 9)
    assert train.domain == "frequency"
    assert len(train) == 9
    assert np.allclose(train.locations(), np.arange(-4, 5) * 0.5)
    assert w.tag == "real"
    assert np.max(np.abs(w.samples - 1.0)) <= 1e-13


def test_sample_spectrum_cosine_pair():
    # lines of weight 1/2 at -1 and +1 Hz synthesize cos(2 pi t)
    train, w = sample_spectrum(
        lambda f: 0.5 if abs(abs(f) - 1.0) < 1e-9 else 0.0, 0.5, 9)
    want = np.cos(2.0 * np.pi * w.times)
    assert w.tag == "real"
    assert np.max(np.abs(w.samples.real - want)) <= 1e-12


def test_sample_spectrum_output_spans_two_periods():
    _, w = sample_spectrum(
        lambda f: 0.5 if abs(abs(f) - 1.0) < 1e-9 else 0.0, 0.5, 9)
    half = len(w) // 2
    assert np.max(np.abs(w.samples[:half] - w.samples[half:])) <= 1e-12
    assert w.duration == pytest.approx(4.0)  # two periods of 1/0.5


def test_sample_spectrum_single_line_is_complex():
    train, w = sample_spectrum(lambda f: 1.0 if f == 1.0 else 0.0, 1.0, 4)
    assert w.tag == "complex"
    want = np.exp(2j * np.pi * w.times)
    assert np.max(np.abs(w.samples - want)) <= 1e-12


def test_sample_spectrum_conjugate_symmetric_lines_are_real():
    # real even lines, and the odd imaginary pair -i/2, +i/2 at +-1 Hz: sin(2 pi t)
    _, w = sample_spectrum(lambda f: math.exp(-f * f), 0.5, 9)
    assert w.tag == "real"
    _, w = sample_spectrum(lambda f: 0.5j * (abs(f + 1.0) < 1e-9) - 0.5j * (abs(f - 1.0) < 1e-9),
                           0.5, 9)
    assert w.tag == "real"
    assert np.max(np.abs(w.samples.real - np.sin(2.0 * np.pi * w.times))) <= 1e-12
    # with an even count the line at -count/2 has no partner, so it is complex
    _, w = sample_spectrum(lambda f: math.exp(-f * f), 0.5, 8)
    assert w.tag == "complex"


def test_sample_spectrum_matches_integer_phase_oracle():
    count, spacing = 101, 0.1
    _, w = sample_spectrum(lambda f: math.exp(-f * f), spacing, count)
    ks = np.arange(-(count // 2), count - count // 2)
    weights = np.array([math.exp(-f * f) for f in ks * spacing])
    per_period = 4 * count
    j = np.arange(2 * per_period)
    # j * k reduced mod the period in integers, so no phase carries rounding
    want = np.exp(2j * np.pi * ((np.outer(j, ks) % per_period) / per_period)) @ weights
    assert np.max(np.abs(w.samples - want)) <= 2e-14


def test_sample_spectrum_memory_stays_linear():
    # a (2 * 4 * count, count) phase matrix would need about 128 MiB here
    tracemalloc.start()
    try:
        _, w = sample_spectrum(lambda f: math.exp(-f * f), 0.01, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w) == 8 * 1024
    assert peak < 2 * 10 ** 6


def test_sample_spectrum_validation():
    with pytest.raises(NonPositiveInterval):
        sample_spectrum(lambda f: 0.0, 0.0, 4)
    with pytest.raises(ValueError):
        sample_spectrum(lambda f: 0.0, 1.0, 0)


def test_sample_spectrum_rejects_non_finite_lines():
    with pytest.raises(NonFiniteSample):
        sample_spectrum(lambda f: math.nan, 1.0, 4)
    with pytest.raises(NonFiniteSample, match="f = 2.0"):
        sample_spectrum(lambda f: complex(1.0, math.inf) if f == 2.0 else 1.0, 1.0, 5)
