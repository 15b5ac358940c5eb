"""Analytic signal, Gabor atoms, short-time spectra, distribution rows."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.fft import fft as np_fft

from fourierkit import (
    FourierKitError,
    FrameTooLong,
    GaborAtom,
    InvalidParameter,
    NonFiniteSample,
    OddLength,
    QuadratureSpec,
    RealTagViolation,
    Waveform,
    ZeroEnergy,
    analytic_signal,
    dft,
    gabor_atom_eval,
    gabor_atom_spectrum,
    quad_ft,
    sample,
    stft,
    uncertainty_product,
    wvd,
)
import fourierkit.transforms as transforms
from fourierkit.transforms import _fft_raw


# ---------------------------------------------------------------------------
# analytic signal
# ---------------------------------------------------------------------------

def test_analytic_signal_of_cosine_is_cis():
    fs, n, f0 = 64.0, 256, 5.0
    w = sample(lambda t: math.cos(2.0 * math.pi * f0 * t), 1.0 / fs, n)
    a = analytic_signal(w)
    want = np.exp(2j * np.pi * f0 * w.times)
    assert np.max(np.abs(a.samples - want)) <= 1e-12


@pytest.mark.parametrize("n", [64, 65, 128])
def test_analytic_signal_preserves_real_part(n):
    rng = np.random.default_rng(9)
    x = rng.standard_normal(n)
    a = analytic_signal(Waveform(x, 0.01))
    assert np.max(np.abs(a.samples.real - x)) <= 1e-12


@pytest.mark.parametrize("n", [64, 65, 128])
def test_analytic_signal_has_one_sided_spectrum(n):
    rng = np.random.default_rng(10)
    a = analytic_signal(Waveform(rng.standard_normal(n), 0.01))
    bins = dft(a).bins
    negative = bins[n // 2 + 1:]
    assert np.max(np.abs(negative)) <= 1e-12


def test_analytic_signal_energy_bookkeeping():
    # doubling positive bins doubles the energy, less the DC and Nyquist share
    rng = np.random.default_rng(11)
    n = 128
    x = rng.standard_normal(n)
    w = Waveform(x, 0.01)
    a = analytic_signal(w)
    bins = dft(w).bins
    want = 2.0 * np.sum(x ** 2) - (abs(bins[0]) ** 2 + abs(bins[n // 2]) ** 2) / n
    got = np.sum(np.abs(a.samples) ** 2)
    assert got == pytest.approx(want, rel=1e-12)


def test_analytic_signal_rejects_complex_input():
    with pytest.raises(RealTagViolation):
        analytic_signal(Waveform([1.0 + 1.0j, 0.0], 1.0))


def test_analytic_signal_needs_two_samples():
    with pytest.raises(ValueError):
        analytic_signal(Waveform([1.0], 1.0))


# ---------------------------------------------------------------------------
# Gabor atoms
# ---------------------------------------------------------------------------

ATOM = GaborAtom(t0=0.7, f0=4.0, alpha=3.0, phase=0.9)


def test_atom_peaks_at_center_with_unit_magnitude():
    v = gabor_atom_eval(ATOM, 0.7)
    assert abs(v) == pytest.approx(1.0, abs=1e-15)
    offsets = np.array([0.1, 0.2, 0.4])
    left = np.abs(gabor_atom_eval(ATOM, 0.7 - offsets))
    right = np.abs(gabor_atom_eval(ATOM, 0.7 + offsets))
    assert np.max(np.abs(left - right)) <= 1e-15


def test_atom_spectrum_peaks_at_f0_with_atom_phase():
    v = gabor_atom_spectrum(ATOM, 4.0)
    assert abs(v) == pytest.approx(1.0, abs=1e-15)
    assert math.atan2(v.imag, v.real) == pytest.approx(0.9, abs=1e-12)


def test_atom_spectrum_matches_quadrature_up_to_area_constant():
    # the integrated transform equals (sqrt(pi)/alpha) times the unit-peak model
    const = math.sqrt(math.pi) / ATOM.alpha
    spec = QuadratureSpec(0.7 - 3.0, 0.7 + 3.0, abs_tolerance=1e-12)
    for f in (4.0, 4.25, 4.5, 5.0, 3.5, 3.0, 6.0, 2.5, 5.75):
        got = quad_ft(lambda t: gabor_atom_eval(ATOM, t), f, spec)
        assert got.converged
        want = const * gabor_atom_spectrum(ATOM, f)
        assert abs(got.value - want) <= 1e-9


def test_atom_eval_scalar_matches_array():
    # the offset is squared as d * d on both paths: a scalar ** 2 goes through pow, which can
    # misround a square where the array's square does not.  The grids are the atoms
    # command's reference case and a large one, in both domains.
    ref, wide = GaborAtom(0.25, 3.5, 5.0, 0.7), GaborAtom(-1.5, 30.0, 2.0)
    for value, atom, xs in [
        (gabor_atom_eval, ATOM, np.array([0.0, 0.7, 1.4])),
        (gabor_atom_spectrum, ATOM, np.array([3.0, 4.0])),
        (gabor_atom_eval, ref, np.linspace(-0.75, 1.25, 199)),
        (gabor_atom_spectrum, ref, np.linspace(3.5 - 25.0 / math.pi, 3.5 + 25.0 / math.pi, 199)),
        (gabor_atom_eval, wide, np.linspace(-4.0, 1.0, 65536)),
        (gabor_atom_spectrum, wide, np.linspace(30.0 - 10.0 / math.pi, 30.0 + 10.0 / math.pi,
                                                65536)),
    ]:
        each = np.array([value(atom, x) for x in xs.tolist()])
        assert each.tobytes() == value(atom, xs).tobytes()


def test_an_overflowing_envelope_gives_zero_without_a_warning():
    atom = GaborAtom(0.0, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gabor_atom_eval(atom, np.array([1e200, 0.5]))
        assert got[1] == gabor_atom_eval(atom, 0.5)
        spectrum = gabor_atom_spectrum(atom, np.array([-1e200, 1.5]))
        assert spectrum[1] == gabor_atom_spectrum(atom, 1.5)
    assert got[0] == 0.0 and spectrum[0] == 0.0


@pytest.mark.parametrize("call, where", [
    (lambda: gabor_atom_eval(GaborAtom(0.0, 1e308, 1.0), np.array([0.0, 10.0])), "t = 0.0"),
    (lambda: gabor_atom_eval(GaborAtom(0.0, 1e308, 1.0), 0.0), "t = 0.0"),
    (lambda: gabor_atom_spectrum(GaborAtom(1e308, 1.0, 1.0), np.array([3.0, 1.0])), "f = 3.0"),
    (lambda: gabor_atom_spectrum(GaborAtom(1e308, 1.0, 1.0), 3.0), "f = 3.0"),
], ids=["eval-array", "eval-point", "spectrum-array", "spectrum-point"])
def test_a_phase_that_is_not_finite_names_its_first_point(call, where):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter, match=f"phase .* non-finite value at {where}$"):
            call()


# ---------------------------------------------------------------------------
# short-time spectra
# ---------------------------------------------------------------------------

def test_stft_tone_concentrates_in_one_bin():
    fs, n, f0 = 64.0, 512, 10.0
    w = sample(lambda t: np.exp(2j * np.pi * f0 * np.asarray(t)), 1.0 / fs, n)
    dist = stft(w, window_alpha=8.0, hop=16, frame=64)
    assert dist.kind == "stft-complex"
    assert dist.values.shape == (29, 64)
    expected_bin = round(f0 / fs * 64)
    for row in np.abs(dist.values):
        assert np.argmax(row) == expected_bin
    assert dist.freq_axis[expected_bin] == pytest.approx(f0)


def test_stft_axes():
    w = Waveform(np.ones(512), 1.0 / 64.0)
    dist = stft(w, window_alpha=8.0, hop=16, frame=64)
    # row times sit at frame centers
    assert dist.time_axis[0] == pytest.approx(31.5 / 64.0)
    assert dist.time_axis[-1] == pytest.approx((448 + 31.5) / 64.0)
    # frequency axis follows transform bin order, wrapping past the midpoint
    assert dist.freq_axis[0] == 0.0
    assert dist.freq_axis[32] == -32.0
    assert dist.freq_axis[63] == -1.0


def test_stft_flat_window_is_blockwise_transform():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    w = Waveform(x, 0.01)
    dist = stft(w, window_alpha=0.0, hop=32, frame=32)
    assert dist.values.shape == (8, 32)
    for b in range(8):
        block = dft(Waveform(x[32 * b:32 * (b + 1)], 0.01)).bins
        assert np.max(np.abs(dist.values[b] - block)) <= 1e-12


def test_stft_separated_bursts_do_not_leak():
    fs, n = 128.0, 1024
    t = np.arange(n) / fs
    sig = (np.exp(-((t - 2.0) * 6.0) ** 2) * np.cos(2.0 * np.pi * 12.0 * t)
           + np.exp(-((t - 6.0) * 6.0) ** 2) * np.cos(2.0 * np.pi * 40.0 * t))
    dist = stft(Waveform(sig, 1.0 / fs), window_alpha=4.0, hop=32, frame=128)
    energy = np.sum(np.abs(dist.values) ** 2, axis=1)
    away = (np.abs(dist.time_axis - 2.0) >= 1.5) & (np.abs(dist.time_axis - 6.0) >= 1.5)
    assert energy[away].sum() / energy.sum() <= 1e-6


def _stft_reference(w, window_alpha, hop, frame):
    """Frame-by-frame short-time spectra: one 1-D transform per frame."""
    half = (frame - 1) / 2.0
    offsets = (np.arange(frame) - half) * w.sample_interval
    if window_alpha == 0.0:
        window = np.ones(frame)
    else:
        window = np.exp(-(window_alpha ** 2) * offsets ** 2)
        window[np.abs(offsets) > 4.0 / window_alpha] = 0.0
    starts = np.arange(0, len(w) - frame + 1, hop)
    rows = np.empty((starts.size, frame), dtype=np.complex128)
    for i, s in enumerate(starts):
        rows[i] = _fft_raw(w.samples[s:s + frame] * window)
    return rows, w.start_time + (starts + half) * w.sample_interval


@pytest.mark.parametrize("n, alpha, hop, frame", [
    (512, 8.0, 16, 64),      # radix-2 frames
    (512, 0.0, 7, 60),       # Bluestein frames, flat window
    (2600, 4.0, 1, 100),     # Bluestein frames spanning two batch chunks
    (300, 2.0, 5, 300),      # a single frame
])
def test_stft_equals_per_frame_reference(n, alpha, hop, frame):
    rng = np.random.default_rng(n + frame)
    w = Waveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), 1.0 / 64.0,
                 start_time=-0.75)
    dist = stft(w, window_alpha=alpha, hop=hop, frame=frame)
    rows, times = _stft_reference(w, alpha, hop, frame)
    assert np.array_equal(dist.values, rows)
    assert np.array_equal(dist.time_axis, times)


def test_stft_window_is_zero_where_its_offsets_would_overflow():
    # offsets of 1e300 lie far outside the 4 / alpha support, and squaring them
    # would overflow: pytest turns that warning into an error
    dist = stft(Waveform(np.ones(8), 1e300), 1.0, 1, 4)
    assert not dist.values.any() and np.isfinite(dist.freq_axis).all()


def test_stft_validation():
    w = Waveform(np.ones(16), 1.0)
    with pytest.raises(FrameTooLong):
        stft(w, window_alpha=0.0, hop=4, frame=32)
    with pytest.raises(ValueError):
        stft(w, window_alpha=-1.0, hop=4, frame=8)
    with pytest.raises(ValueError):
        stft(w, window_alpha=0.0, hop=0, frame=8)
    with pytest.raises(ValueError):
        stft(w, window_alpha=0.0, hop=4, frame=0)


# ---------------------------------------------------------------------------
# distribution rows
# ---------------------------------------------------------------------------

def _lag_rows_reference(psi, centers, lags):
    """Independent row construction: explicit lag products + numpy fft."""
    reach = lags // 2 - 1
    rows = np.empty((centers.size, lags), dtype=complex)
    for i, c in enumerate(centers):
        m = np.arange(0, reach + 1)
        prod = psi[c + m] * np.conj(psi[c - m])
        lag = np.zeros(lags, dtype=complex)
        lag[m] = prod
        lag[lags - m[1:]] = np.conj(prod[1:])
        rows[i] = np_fft(lag)
    return rows


def _wvd_rows_reference(psi):
    """Row-by-row distribution: one lag vector and 1-D transform per center."""
    n = psi.size
    lags = n // 2
    reach = lags // 2 - 1
    centers = np.arange(reach, n - reach)
    rows = np.empty((centers.size, lags))
    m = np.arange(0, reach + 1)
    for i, c in enumerate(centers):
        r = np.zeros(lags, dtype=np.complex128)
        prod = psi[c + m] * np.conj(psi[c - m])
        r[m] = prod
        r[-m[1:]] = np.conj(prod[1:])
        rows[i] = _fft_raw(r).real
    return rows


@pytest.mark.parametrize("n", [4, 64, 130, 512])
def test_wvd_equals_row_by_row_reference(n):
    rng = np.random.default_rng(n)
    real = Waveform(rng.standard_normal(n), 0.5)
    cplx = Waveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), 0.5)
    for w, psi in ((real, analytic_signal(real).samples), (cplx, cplx.samples)):
        assert np.array_equal(wvd(w).values, _wvd_rows_reference(psi))


def _wvd_whole_matrix(psi):
    """Every lag row built at once and transformed in one call."""
    n = psi.size
    lags = n // 2
    reach = lags // 2 - 1
    centers = np.arange(reach, n - reach)
    m = np.arange(0, reach + 1)
    prod = psi[centers[:, None] + m] * np.conj(psi[centers[:, None] - m])
    lagged = np.zeros((centers.size, lags), dtype=np.complex128)
    lagged[:, m] = prod
    lagged[:, lags - m[1:]] = np.conj(prod[:, 1:])
    return _fft_raw(lagged).real


# 2 * 1009 has a prime lag length, so its rows take the chirp path
@pytest.mark.parametrize("n", [6, 8, 130, 2048, 2 * 1009])
def test_wvd_in_row_blocks_keeps_the_bits_of_the_whole_matrix(n):
    rng = np.random.default_rng(n)
    real = Waveform(rng.standard_normal(n), 0.5)
    cplx = Waveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), 0.5)
    for w, psi in ((real, analytic_signal(real).samples), (cplx, cplx.samples)):
        assert np.array_equal(wvd(w).values, _wvd_whole_matrix(psi))


# blocks of 3 lag rows over 68 and 266 rows leave a partial last block; the prime
# 263 lags of 2 * 263 take the chirp path, in blocks of one padded row
@pytest.mark.parametrize("n", [130, 2 * 263])
def test_wvd_with_a_partial_last_block_keeps_the_bits_of_one_block(monkeypatch, n):
    w = Waveform(np.random.default_rng(n).standard_normal(n), 0.5)
    lags = n // 2
    monkeypatch.setattr(transforms, "_BLOCK_POINTS", n * n)  # one block
    whole = _wvd_whole_matrix(analytic_signal(w).samples)
    monkeypatch.setattr(transforms, "_BLOCK_POINTS", 3 * lags + 1)
    assert transforms._block_rows(lags) == 3 and len(whole) % 3
    assert np.array_equal(wvd(w).values, whole)


def test_wvd_peaks_near_its_output():
    w = Waveform(np.random.default_rng(4).standard_normal(4096), 0.5)
    tracemalloc.start()
    try:
        values = wvd(w).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole-matrix form peaked at six times the output
    assert peak <= 1.25 * values.nbytes + 4 * 2 ** 20


def test_wvd_tone_ridge_and_axis():
    n, interval = 128, 1.0
    f0 = 25.0 / 128.0  # exactly representable on the doubled-lag bin grid
    w = sample(lambda t: math.cos(2.0 * math.pi * f0 * t), interval, n)
    dist = wvd(w)
    lags = dist.values.shape[1]
    assert lags == 64
    assert dist.kind == "wvd-real"
    expected_bin = round(2.0 * f0 * interval * lags)
    for row in dist.values:
        assert np.argmax(row) == expected_bin
    assert dist.freq_axis[expected_bin] == pytest.approx(f0)
    # rows exist only where the full lag window fits
    reach = lags // 2 - 1
    assert dist.values.shape[0] == n - 2 * reach
    assert dist.time_axis[0] == pytest.approx(reach * interval)


def test_wvd_matches_independent_lag_transform():
    n = 128
    w = sample(lambda t: math.cos(2.0 * math.pi * 25.0 / 128.0 * t), 1.0, n)
    dist = wvd(w)
    lags = dist.values.shape[1]
    reach = lags // 2 - 1
    psi = analytic_signal(w).samples
    centers = np.arange(reach, n - reach)
    ref = _lag_rows_reference(psi, centers, lags)
    scale = np.max(np.abs(ref.real))
    assert np.max(np.abs(ref.imag)) <= 1e-12 * scale   # rows are real
    assert np.max(np.abs(ref.real - dist.values)) <= 1e-10


def test_wvd_time_marginal_tracks_instantaneous_power():
    n = 128
    w = sample(lambda t: math.cos(2.0 * math.pi * 25.0 / 128.0 * t), 1.0, n)
    dist = wvd(w)
    lags = dist.values.shape[1]
    reach = lags // 2 - 1
    psi = analytic_signal(w).samples
    centers = np.arange(reach, n - reach)
    marginal = dist.values.sum(axis=1)
    want = lags * np.abs(psi[centers]) ** 2
    assert np.max(np.abs(marginal - want)) <= 1e-9 * np.max(want)


def test_wvd_chirp_ridge_follows_instantaneous_frequency():
    n = 256
    f_lo = 0.05
    rate = (0.20 - 0.05) / (2.0 * n)

    def chirp(t):
        return math.cos(2.0 * math.pi * (f_lo * t + rate * t * t))

    dist = wvd(sample(chirp, 1.0, n))
    lags = dist.values.shape[1]
    reach = lags // 2 - 1
    for i, c in enumerate(range(reach, n - reach)):
        f_inst = f_lo + 2.0 * rate * c
        assert abs(np.argmax(dist.values[i]) - 2.0 * f_inst * lags) <= 1.0


def test_wvd_accepts_pre_made_analytic_input():
    n = 128
    f0 = 25.0 / 128.0
    w = sample(lambda t: np.exp(2j * np.pi * f0 * np.asarray(t)), 1.0, n)
    assert w.tag == "complex"
    dist = wvd(w)
    for row in dist.values:
        assert np.argmax(row) == 25


@pytest.mark.parametrize("call", [lambda: wvd(Waveform(np.full(16, 1e200), 1.0)),
                                  lambda: stft(Waveform(np.full(64, 1e308), 1.0), 0.0, 1, 8)],
                         ids=["wvd", "stft"])
def test_a_grid_that_overflows_is_refused(call):
    # finite samples whose lag products or frame sums overflow: numpy warns, and
    # the grid raises instead of holding nan and inf cells
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteSample, match="^values has a non-finite value at index 0$"):
            call()


def test_wvd_validation():
    with pytest.raises(OddLength):
        wvd(Waveform(np.ones(7), 1.0))
    with pytest.raises(ValueError):
        wvd(Waveform(np.ones(2), 1.0))


def test_parameter_errors_belong_to_the_package():
    w = Waveform(np.ones(16), 1.0)
    calls = [
        lambda: stft(w, window_alpha=-1.0, hop=4, frame=8),
        lambda: stft(w, window_alpha=0.0, hop=0, frame=8),
        lambda: stft(w, window_alpha=0.0, hop=4, frame=0),
        lambda: analytic_signal(Waveform([1.0], 1.0)),
        lambda: wvd(Waveform(np.ones(2), 1.0)),
    ]
    for call in calls:
        with pytest.raises(InvalidParameter) as info:
            call()
        assert isinstance(info.value, FourierKitError)
        assert isinstance(info.value, ValueError)


# ---------------------------------------------------------------------------
# uncertainty product
# ---------------------------------------------------------------------------

BOUND = 1.0 / (4.0 * math.pi)


def _gauss_tone(alpha, tc, fc, fs, n):
    return sample(lambda t: math.exp(-(alpha * (t - tc)) ** 2)
                  * math.cos(2.0 * math.pi * fc * t), 1.0 / fs, n)


def test_gaussian_envelope_attains_the_bound():
    up = uncertainty_product(_gauss_tone(1.0, 8.0, 8.0, 64.0, 1024))
    assert up.sigma_t == pytest.approx(0.5, abs=1e-9)          # 1/(2 alpha)
    assert up.product == pytest.approx(BOUND, rel=1e-9)
    assert up.product == up.sigma_t * up.sigma_f


def test_uncertainty_product_is_scale_invariant():
    narrow = uncertainty_product(_gauss_tone(1.0, 8.0, 8.0, 64.0, 1024))
    wide = uncertainty_product(_gauss_tone(0.5, 16.0, 8.0, 64.0, 2048))
    assert wide.sigma_t == pytest.approx(2.0 * narrow.sigma_t, rel=1e-9)
    assert wide.product == pytest.approx(narrow.product, rel=1e-9)


def test_random_envelopes_respect_the_bound():
    rng = np.random.default_rng(17)
    fs, n = 64.0, 1024
    for _ in range(20):
        a = rng.uniform(0.5, 2.0)
        tc = rng.uniform(6.0, 10.0)
        fc = rng.uniform(4.0, 20.0)
        cr = rng.uniform(-0.5, 0.5)
        ph = rng.uniform(0.0, 2.0 * np.pi)
        w = sample(lambda t: math.exp(-(a * (t - tc)) ** 2)
                   * math.cos(2.0 * math.pi * (fc * t + cr * (t - tc) ** 2) + ph),
                   1.0 / fs, n)
        assert uncertainty_product(w).product >= BOUND * (1.0 - 1e-3)


def test_sharp_envelope_exceeds_gaussian_product():
    fs, n = 64.0, 1024
    gate = sample(lambda t: (1.0 if abs(t - 8.0) < 2.0 else 0.0)
                  * math.cos(2.0 * math.pi * 8.0 * t), 1.0 / fs, n)
    gauss = uncertainty_product(_gauss_tone(1.0, 8.0, 8.0, fs, n))
    assert uncertainty_product(gate).product > gauss.product


@pytest.mark.parametrize("amplitude", [1e-200, 1e200])
def test_uncertainty_product_does_not_depend_on_the_amplitude(amplitude):
    # |psi|^2 underflowed to an all-zero energy at 1e-200 and overflowed at 1e200
    w = _gauss_tone(1.0, 8.0, 8.0, 64.0, 1024)
    up = uncertainty_product(Waveform(amplitude * w.samples, w.sample_interval))
    assert up == pytest.approx(uncertainty_product(w), rel=1e-12)


def test_uncertainty_rejects_zero_energy():
    with pytest.raises(ZeroEnergy):
        uncertainty_product(Waveform(np.zeros(16), 0.1))
