"""Discrete and integrated transforms, with numpy.fft as an outside oracle."""

import cmath
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.fft import fft as np_fft
from numpy.fft import ifft as np_ifft

import fourierkit
import fourierkit.transforms as transforms
from fourierkit import (
    EmptyBins,
    IndexOutOfRange,
    NonPositiveInterval,
    QuadratureSpec,
    Spectrum,
    ToleranceNotReached,
    Waveform,
    bin_frequencies,
    bin_to_frequency,
    centered,
    dft,
    dtft_eval,
    fft,
    half_transform,
    idft,
    ifft,
    quad_ft,
    rect,
    sinc,
)
from fourierkit.transforms import (
    _BLOCK_POINTS,
    _bluestein_length,
    _chirp,
    _dft_raw,
    _fft_raw,
    _ifft_raw,
    _integrate,
    _plan,
    _twiddle,
)


def _random_waveform(rng, n, interval=1.0):
    data = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return Waveform(data, interval)


# ---------------------------------------------------------------------------
# discrete transforms
# ---------------------------------------------------------------------------

def test_dft_known_sequence():
    # cos at half Nyquist: [1, 0, -1, 0] -> [0, 2, 0, 2]
    s = dft(Waveform([1.0, 0.0, -1.0, 0.0], 1.0))
    assert np.allclose(s.bins, [0.0, 2.0, 0.0, 2.0], atol=1e-14)


def test_dft_impulse_is_flat():
    s = dft(Waveform([1.0, 0.0, 0.0, 0.0, 0.0], 1.0))
    assert np.allclose(s.bins, np.ones(5), atol=1e-15)


def test_dft_dc_concentrates_in_bin_zero():
    s = dft(Waveform(np.ones(8), 1.0))
    assert s.bins[0] == pytest.approx(8.0, abs=1e-13)
    assert np.max(np.abs(s.bins[1:])) <= 1e-13


def test_dft_single_sample():
    s = dft(Waveform([3.0 - 1.0j], 1.0))
    assert s.bins[0] == pytest.approx(3.0 - 1.0j)


def test_dft_linearity():
    rng = np.random.default_rng(0)
    x = _random_waveform(rng, 33)
    y = _random_waveform(rng, 33)
    lhs = dft(Waveform(2.0 * x.samples - 1.5j * y.samples, 1.0)).bins
    rhs = 2.0 * dft(x).bins - 1.5j * dft(y).bins
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_dft_shift_theorem():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    shifted = np.roll(x, 3)
    lhs = dft(Waveform(shifted, 1.0)).bins
    k = np.arange(16)
    rhs = dft(Waveform(x, 1.0)).bins * np.exp(-2j * np.pi * k * 3 / 16)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def _dft_by_angles(x):
    """The forward direct DFT with one complex exponential per (k*n) mod N
    angle, in chunks of rows as small as the library's."""
    n = x.size
    out = np.empty(n, dtype=np.complex128)
    idx = np.arange(n, dtype=np.int64)
    chunk = max(1, 2_000_000 // n)
    for lo in range(0, n, chunk):
        ang = (idx[lo:lo + chunk, None] * idx[None, :]) % n
        out[lo:lo + chunk] = np.exp((-2j * np.pi / n) * ang) @ x
    return out


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 1024, 4096])
def test_dft_root_table_equals_per_angle_exponentials(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.array_equal(_dft_raw(x), _dft_by_angles(x))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12, 32, 60, 64, 128, 255, 256, 512, 1024, 2048])
def test_fft_matches_dft_and_numpy(n):
    rng = np.random.default_rng(n)
    w = _random_waveform(rng, n)
    ours_fast = fft(w).bins
    ours_direct = dft(w).bins
    oracle = np_fft(w.samples)
    scale = np.max(np.abs(oracle)) or 1.0
    assert np.max(np.abs(ours_fast - ours_direct)) <= 1e-12 * scale
    assert np.max(np.abs(ours_fast - oracle)) <= 1e-12 * scale


# 140009 pads to the mixed-radix 281250, 262139 to 2^19
@pytest.mark.parametrize("n", [2 ** 18, 131101, 140009, 262139])
def test_large_fft_matches_numpy(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for ours, oracle in ((_fft_raw, np_fft), (_ifft_raw, np_ifft)):
        want = oracle(x)
        assert np.max(np.abs(ours(x) - want)) <= 1e-13 * np.max(np.abs(want))


# plans of four and five stages, whose later stages twiddle as they move their
# digit, among them the padded lengths of Bluestein transforms between 2^17
# and 2^18; then two such Bluestein lengths, three padded transforms each
@pytest.mark.parametrize("n, bound", [
    *((n, 1e-15) for n in (8192, 6561, 48000, 44100, 2 ** 18, 437500, 455625, 480000,
                           490000, 500000, 518400)),
    *((n, 2e-15) for n in (214789, 244333))])
def test_one_pass_stages_stay_close_to_numpy(n, bound):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for ours, oracle in ((_fft_raw, np_fft), (_ifft_raw, np_ifft)):
        want = oracle(x)
        assert np.max(np.abs(ours(x) - want)) <= bound * np.max(np.abs(want))


def test_twiddle_cache_stays_within_its_byte_bound():
    # 200 smooth lengths near 2^19 hold about 1 MiB of tables each
    _twiddle.cache_clear()
    near = _SMOOTH[np.argsort(np.abs(_SMOOTH - 2 ** 19), kind="stable")[:200]]
    for n in near.tolist():
        _fft_raw(np.ones(n, dtype=np.complex128))
        assert _twiddle.nbytes <= transforms._TWIDDLE_BYTES
    assert _twiddle.nbytes > transforms._TWIDDLE_BYTES // 2


def test_a_length_transformed_twice_builds_its_tables_once(monkeypatch):
    built, table = [], transforms._twiddle_table

    def build(*key):
        built.append(key)
        return table(*key)

    x = np.random.default_rng(22).standard_normal(490000) + 1j
    _twiddle.cache_clear()
    monkeypatch.setattr(_twiddle, "_build", build)
    first = _fft_raw(x)
    assert len(built) == len(set(built)) > 0
    held = _twiddle.nbytes
    assert np.array_equal(_fft_raw(x), first)
    assert len(built) == len(set(built)) and _twiddle.nbytes == held


_RADICES = {16, 8, 4, 2, 9, 3, 25, 5, 7}
_RADIX_CASES = [3, 5, 7, 9, 25, 49, 60, 210, 1000, 44100, 48000, 3 * 2 ** 16]


@pytest.mark.parametrize("n", _RADIX_CASES)
def test_every_radix_matches_numpy(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for ours, oracle in ((_fft_raw, np_fft), (_ifft_raw, np_ifft)):
        want = oracle(x)
        assert np.max(np.abs(ours(x) - want)) <= 1e-13 * np.max(np.abs(want))


def test_the_radix_cases_cover_every_radix():
    assert set().union(*map(_plan, _RADIX_CASES)) == _RADICES


def _prime_factors(n):
    factors, p = [], 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    return factors + ([n] if n > 1 else [])


def test_plan_multiplies_out_to_its_length():
    for n in (*range(1, 2049), 2 ** 18, 3 * 2 ** 16, 48000, 44100, 65537):
        plan = _plan(n)
        if max(_prime_factors(n), default=1) > 7:
            assert plan is None
            continue
        assert math.prod(plan) == n and set(plan) <= _RADICES
        if n & (n - 1) == 0:  # a power of two keeps its radix-16 stages, remainder last
            assert plan[:-1] == (16,) * (len(plan) - 1)


def _smooth_lengths(top):
    """Every 2^a 3^b 5^c 7^d up to top, by dividing out the small primes."""
    rest = np.arange(1, top + 1)
    for p in (2, 3, 5, 7):
        for _ in range(top.bit_length()):
            rest[rest % p == 0] //= p
    return np.flatnonzero(rest == 1) + 1


_SMOOTH = _smooth_lengths(1 << 20)
_NEAR_2_18 = [*range(2 ** 18 - 40, 2 ** 18 + 40),
              *np.random.default_rng(18).integers(2 ** 17, 2 ** 18, 40).tolist()]


@pytest.mark.parametrize("ns", [range(2, 5001), _NEAR_2_18], ids=["to-5000", "near-2^18"])
def test_bluestein_pads_to_the_cheapest_smooth_length(ns):
    for n in ns:
        m, low = _bluestein_length(n), 2 * n - 1
        top = 1 << (low - 1).bit_length()
        cost = m * len(_plan(m))
        assert low <= m <= top and max(_prime_factors(m)) <= 7
        assert cost <= top * len(_plan(top))
        lengths = _SMOOTH[(_SMOOTH >= low) & (_SMOOTH <= top)]
        assert (cost, m) == min((int(c) * len(_plan(int(c))), int(c)) for c in lengths)


def _traced_peak(fn, x):
    """tracemalloc peak of fn(x), with the twiddle tables built inside it."""
    _twiddle.cache_clear()
    tracemalloc.start()
    try:
        out = fn(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == x.shape
    return peak


def test_pow2_transform_memory_stays_near_two_buffers():
    x = np.random.default_rng(18).standard_normal(2 ** 18) + 0j
    assert _traced_peak(_fft_raw, x) <= 2.5 * x.nbytes


def test_inverse_leaves_its_input_and_stays_near_two_buffers():
    x = np.random.default_rng(18).standard_normal(2 ** 18) + 1j
    before = x.copy()
    assert _traced_peak(_ifft_raw, x) <= 2.5 * x.nbytes
    assert np.array_equal(x, before)


def test_bluestein_memory_stays_near_four_padded_buffers():
    x = np.random.default_rng(19).standard_normal(131101) + 1j
    before = x.copy()
    padded_bytes = 16 * _bluestein_length(131101)
    assert _traced_peak(_fft_raw, x) <= 5 * padded_bytes
    assert _traced_peak(_ifft_raw, x) <= 5 * padded_bytes
    assert np.array_equal(x, before)


def test_bluestein_peak_stays_below_four_and_a_quarter_padded_buffers():
    # the kernel's spectrum and two row buffers, plus the n-point chirp and output
    x = np.random.default_rng(19).standard_normal(131101) + 1j
    padded_bytes = 16 * _bluestein_length(131101)
    assert _traced_peak(_fft_raw, x) <= 4.25 * padded_bytes
    assert _traced_peak(_ifft_raw, x) <= 4.25 * padded_bytes


# primes near 2^17, 2^18 and 2^20
@pytest.mark.parametrize("n", [131101, 262139, 1048573])
def test_two_table_chirp_is_as_close_to_the_exact_chirp_as_direct_exponentials(n):
    if np.finfo(np.longdouble).precision < 18:
        pytest.skip("long double is no wider than double on this platform")
    k = np.arange(n, dtype=np.int64)
    r = k * k % (2 * n)
    # exp(-i pi r / n) with the angle in extended precision, rounded once
    angle = np.longdouble("3.14159265358979323846264338327950288") * r / n
    exact = np.cos(angle).astype(float) - 1j * np.sin(angle).astype(float)
    # the direct formula's angle spans a whole turn, so it rounds further off
    direct = np.exp(-1j * np.pi * r / n)
    err = np.max(np.abs(_chirp(n) - exact))
    assert err <= 6e-16
    assert err < np.max(np.abs(direct - exact))


# sha256 of the transforms of power-of-two inputs (numpy 2.4 with OpenBLAS on
# x86-64).  64 has two stages, so its forward digest is still the radix-16
# kernel's from before mixed-radix plans.  2^16 and 2^18 have four and five
# stages, and from the second stage on each one applies its twiddles as one
# m-entry table in the pass that moves its digit, which rounds otherwise than
# two factors: their digests are those of the one-pass stages.  The inverse
# digests are those of the forward transform read backwards and divided by n.
_POW2_DIGESTS = {
    64: ("a82b2d3c32f4e09ebe418b731a64b848e5661d32e8f67d895ccc827bace7f299",
         "0eec51c5e2d5bf64cbff4c7b0c0a044609f85b6bcd5c4bf0aa5c07242af7e216"),
    2 ** 16: ("d0141a1375ea8d5e01c5b1cdfcab953644017066c50e602315b3a7dca5350f1c",
              "36972b7196c479a64b4063ba2a3c88280da562b60ac26ad81d49b9baffe81fc9"),
    2 ** 18: ("d9a29b133640abe37e697d642d7e0a301cc30f84655dbb68281c8a80274eccf4",
              "12c19bdb5ccd15d6ae167a088b221e216c94960c1208c994e9f9d0919adce4a0"),
}


@pytest.mark.parametrize("n", sorted(_POW2_DIGESTS))
def test_pow2_transform_bits_are_pinned(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = tuple(hashlib.sha256(raw(x).tobytes()).hexdigest() for raw in (_fft_raw, _ifft_raw))
    assert got == _POW2_DIGESTS[n]


_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from fourierkit.transforms import _fft_raw, _ifft_raw
rng = np.random.default_rng(7)
for n in (64, 2 ** 16, 48000, 65537, 140009):
    x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    for raw in (_fft_raw, _ifft_raw):
        print(n, hashlib.sha256(raw(x).tobytes()).hexdigest())
"""


def test_transform_bytes_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(fourierkit.__file__))
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", _DIGEST_SCRIPT]
    default = subprocess.run(argv, env=env, capture_output=True, check=True, text=True)
    single = subprocess.run(argv, env={**env, "OPENBLAS_NUM_THREADS": "1"},
                            capture_output=True, check=True, text=True)
    assert default.stdout.count("\n") == 10
    assert single.stdout == default.stdout


@pytest.mark.parametrize("n", [1, 2, 5, 16, 60, 255, 1024])
def test_round_trip_both_paths(n):
    rng = np.random.default_rng(1000 + n)
    w = _random_waveform(rng, n, interval=0.125)
    scale = np.max(np.abs(w.samples))
    for fwd, inv in ((dft, idft), (fft, ifft)):
        back = inv(fwd(w))
        assert np.max(np.abs(back.samples - w.samples)) <= 1e-12 * scale
        assert back.sample_interval == pytest.approx(w.sample_interval, rel=1e-15)


@pytest.mark.parametrize("n", [64, 255, 1024])
def test_hermitian_symmetry_for_real_input(n):
    rng = np.random.default_rng(n)
    w = Waveform(rng.standard_normal(n), 1.0)
    bins = dft(w).bins
    k = np.arange(1, n)
    assert np.max(np.abs(bins[n - k] - np.conj(bins[k]))) <= 1e-12


def test_parseval():
    rng = np.random.default_rng(12)
    w = _random_waveform(rng, 300)
    energy_t = np.sum(np.abs(w.samples) ** 2)
    energy_f = np.sum(np.abs(dft(w).bins) ** 2) / 300
    assert abs(energy_t - energy_f) <= 1e-12 * energy_t


def test_bin_spacing_and_inverse_interval():
    w = Waveform(np.ones(100), 0.01)
    s = dft(w)
    assert s.bin_spacing == pytest.approx(1.0, rel=1e-15)
    back = idft(s)
    assert back.sample_interval == pytest.approx(0.01, rel=1e-15)
    assert back.start_time == 0.0
    # a spacing or interval that overflows to inf or underflows to 0 is refused
    for forward, inverse in ((dft, idft), (fft, ifft)):
        with pytest.raises(NonPositiveInterval):
            forward(Waveform([1.0, 2.0], 1e-320))
        with pytest.raises(NonPositiveInterval):
            inverse(Spectrum([1.0, 2.0], 1e308))


def test_bin_to_frequency_even_and_odd():
    # even count: bins 0..3 nonnegative, 4 is -Fs/2, 5..7 negative
    fs = 8.0
    got = [bin_to_frequency(k, 8, fs) for k in range(8)]
    assert got == [0.0, 1.0, 2.0, 3.0, -4.0, -3.0, -2.0, -1.0]
    # odd count has no Nyquist bin
    got5 = [bin_to_frequency(k, 5, 10.0) for k in range(5)]
    assert got5 == [0.0, 2.0, 4.0, -4.0, -2.0]


def test_bin_to_frequency_validation():
    with pytest.raises(IndexOutOfRange):
        bin_to_frequency(8, 8, 1.0)
    with pytest.raises(IndexOutOfRange):
        bin_to_frequency(-1, 8, 1.0)
    with pytest.raises(EmptyBins):
        bin_to_frequency(0, 0, 1.0)
    with pytest.raises(NonPositiveInterval):
        bin_to_frequency(0, 8, 0.0)
    with pytest.raises(EmptyBins):
        bin_frequencies(0, 1.0)
    with pytest.raises(NonPositiveInterval):
        bin_frequencies(8, 0.0)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 4096])
def test_bin_frequencies_equal_per_bin_values(n):
    for fs in (8.0, 44100.0, 1.0 / 0.3):
        want = [bin_to_frequency(k, n, fs) for k in range(n)]
        assert np.array_equal(bin_frequencies(n, fs), want)


@pytest.mark.parametrize("n", [1, 2, 32, 64, 128, 256, 1024, 8192, 7, 12, 60, 1000, 11, 263])
def test_batched_transform_equals_row_by_row(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((3, 5, n)) + 1j * rng.standard_normal((3, 5, n))
    for raw in (_fft_raw, _ifft_raw):
        got = raw(x)
        want = np.array([[raw(row) for row in block] for block in x])
        assert got.shape == x.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n, padded", [(256, 256), (1009, 2025)])
def test_batch_larger_than_one_chunk_equals_row_by_row(n, padded):
    assert padded == (n if _plan(n) else _bluestein_length(n))
    rng = np.random.default_rng(n)
    rows = _BLOCK_POINTS // padded + 3
    x = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    got = _fft_raw(x)
    assert np.array_equal(got, np.array([_fft_raw(row) for row in x]))


# blocks of 3 rows over 7 rows or 1000 kernel rows leave a partial last block
@pytest.mark.parametrize("raw, shape, padded", [(_fft_raw, (7, 64), 64),
                                                (_fft_raw, (7, 263), _bluestein_length(263)),
                                                (_ifft_raw, (7, 263), _bluestein_length(263)),
                                                (_dft_raw, (1000,), 1000)],
                         ids=["smooth", "bluestein", "bluestein-inverse", "dft"])
def test_partial_last_block_keeps_the_bits_of_one_block(monkeypatch, raw, shape, padded):
    rng = np.random.default_rng(shape[-1])
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    monkeypatch.setattr(transforms, "_BLOCK_POINTS", padded * shape[-1])  # one block
    whole = raw(x)
    monkeypatch.setattr(transforms, "_BLOCK_POINTS", 3 * padded + padded // 2)
    assert transforms._block_rows(padded) == 3
    assert np.array_equal(raw(x), whole)


def test_batch_peaks_at_its_output_plus_two_blocks():
    # the parent's 2^19-point blocks peaked at twice the output
    x = np.random.default_rng(20).standard_normal((1024, 1024)) + 1j
    assert _traced_peak(_fft_raw, x) <= x.nbytes + 2 * 16 * _BLOCK_POINTS + 2 ** 16


def test_direct_sum_peaks_at_a_few_blocks():
    # a 2·10^6-entry kernel matrix peaked at 45.9 MiB for 4096 points
    x = np.random.default_rng(21).standard_normal(4096) + 1j
    assert _traced_peak(_dft_raw, x) <= 4 * 16 * _BLOCK_POINTS


# smooth lengths, Bluestein lengths, and batches of many blocks of rows
@pytest.mark.parametrize("shape", [(64,), (48000,), (263,), (65537,), (3, 64), (3, 48000),
                                   (3, 263), (3, 65537), (2051, 256), (261, 1009)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_inverse_is_the_forward_transform_read_backwards_over_n(shape):
    rng = np.random.default_rng(shape[-1])
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = _fft_raw(x)  # read at -k mod n and divided by n
    assert np.array_equal(_ifft_raw(x), np.concatenate([f[..., :1], f[..., :0:-1]], -1) / shape[-1])


@pytest.mark.parametrize("shape", [(0, 16), (0, 11), (2, 0, 11)])
def test_empty_batch_keeps_its_shape(shape):
    for raw in (_fft_raw, _ifft_raw):
        assert raw(np.zeros(shape, dtype=np.complex128)).shape == shape


def test_centered_orders_frequencies():
    rng = np.random.default_rng(3)
    w = _random_waveform(rng, 8, interval=0.125)
    s = fft(w)
    freqs, vals = centered(s)
    assert np.all(np.diff(freqs) > 0)
    assert freqs[0] == -4.0 and freqs[-1] == 3.0
    # bin 0 of the spectrum is DC and must sit at frequency 0
    assert vals[np.where(freqs == 0.0)[0][0]] == s.bins[0]


def test_dtft_matches_dft_at_bin_frequencies():
    rng = np.random.default_rng(5)
    w = _random_waveform(rng, 64, interval=1.0 / 16.0)
    bins = dft(w).bins
    for k in (0, 1, 7, 32, 63):
        f = bin_to_frequency(k, 64, 16.0)
        assert abs(dtft_eval(w, f) - bins[k]) <= 1e-10


def test_dtft_periodic_in_sample_rate():
    rng = np.random.default_rng(6)
    w = _random_waveform(rng, 48, interval=0.25)
    for f in (-1.3, 0.7, 1.9):
        assert abs(dtft_eval(w, f + 4.0) - dtft_eval(w, f)) <= 1e-10


def test_dtft_ignores_start_time():
    rng = np.random.default_rng(7)
    data = rng.standard_normal(20)
    a = Waveform(data, 0.5, start_time=0.0)
    b = Waveform(data, 0.5, start_time=-3.25)
    assert dtft_eval(a, 0.77) == dtft_eval(b, 0.77)


def test_windowed_tone_peak_and_nulls():
    # 32 kept samples of a unit complex tone: peak 32 at f0, nulls Fs/32 away
    fs, n, f0 = 16.0, 64, 3.0
    t = np.arange(n) / fs
    w = Waveform(np.exp(2j * np.pi * f0 * t), 1.0 / fs)
    gains = rect(t - (n / 2 - 0.5) / fs, 32.0 / fs)
    ww = Waveform(w.samples * gains, 1.0 / fs)
    assert dtft_eval(ww, f0) == pytest.approx(32.0, abs=1e-10)
    assert abs(dtft_eval(ww, f0 + fs / 32.0)) <= 1e-10
    assert abs(dtft_eval(ww, f0 - fs / 32.0)) <= 1e-10


# ---------------------------------------------------------------------------
# integrated transforms
# ---------------------------------------------------------------------------

def test_quadrature_spec_validation():
    spec = QuadratureSpec(0, 1)
    assert all(type(getattr(spec, name)) is float
               for name in ("lower", "upper", "abs_tolerance", "damping"))
    with pytest.raises(NonPositiveInterval):
        QuadratureSpec(1.0, 1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(0.0, 1.0, max_subdivisions=0)
    with pytest.raises(ValueError):
        QuadratureSpec(0.0, 1.0, abs_tolerance=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(0.0, 1.0, damping=-0.5)


def test_quad_ft_rect_gives_sinc():
    spec = QuadratureSpec(-0.5, 0.5, abs_tolerance=1e-8)
    for f in np.linspace(-10.0, 10.0, 21):
        result = quad_ft(lambda t: rect(t), float(f), spec)
        assert result.converged
        assert abs(result.value - sinc(float(f))) <= 1e-7


def test_quad_ft_gaussian_self_transform():
    # exp(-pi t^2) transforms to exp(-pi f^2)
    spec = QuadratureSpec(-6.0, 6.0, abs_tolerance=1e-10)
    for f in (0.0, 0.5, 1.0, 2.0):
        result = quad_ft(lambda t: math.exp(-math.pi * t * t), f, spec)
        assert result.converged
        assert abs(result.value - math.exp(-math.pi * f * f)) <= 1e-8


def test_quad_ft_inverse_direction():
    spec = QuadratureSpec(-6.0, 6.0, abs_tolerance=1e-10)
    result = quad_ft(lambda f: math.exp(-math.pi * f * f), 0.3, spec,
                     direction="inverse")
    assert abs(result.value - math.exp(-math.pi * 0.09)) <= 1e-8


def test_quad_ft_shift_shows_as_linear_phase():
    spec = QuadratureSpec(-0.25, 0.75, abs_tolerance=1e-10)
    result = quad_ft(lambda t: rect(t - 0.25), 1.5, spec)
    want = cmath.exp(-2j * math.pi * 1.5 * 0.25) * sinc(1.5)
    assert abs(result.value - want) <= 1e-8


def test_quad_ft_damping_factor():
    # map 1 with damping d=1 integrates exp(-|t|): transform 2 / (1 + (2 pi f)^2)
    spec = QuadratureSpec(-40.0, 40.0, abs_tolerance=1e-10, damping=1.0)
    result = quad_ft(lambda t: 1.0, 0.7, spec)
    want = 2.0 / (1.0 + (2.0 * math.pi * 0.7) ** 2)
    assert result.converged
    assert abs(result.value - want) <= 1e-8


def test_quad_ft_reports_budget_exhaustion_without_raising():
    spec = QuadratureSpec(0.0, 10.0, max_subdivisions=1, abs_tolerance=1e-14)
    result = quad_ft(lambda t: math.sin(50.0 * t), 3.0, spec)
    assert not result.converged
    assert result.error > 0.0


def test_quad_ft_rejects_bad_direction():
    spec = QuadratureSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        quad_ft(lambda t: 1.0, 0.0, spec, direction="backward")


def test_half_transform_exponential_pair():
    # integral of exp(-x) cos(qx) is 1/(1+q^2); with sin it is q/(1+q^2)
    spec = QuadratureSpec(0.0, 40.0, abs_tolerance=1e-10)
    got_cos = half_transform(lambda x: math.exp(-x), 1.0, "cosine", spec)
    got_sin = half_transform(lambda x: math.exp(-x), 1.0, "sine", spec)
    assert abs(got_cos - 0.5) <= 1e-8
    assert abs(got_sin - 0.5) <= 1e-8


def test_half_transform_unit_window():
    spec = QuadratureSpec(0.0, 1.0, abs_tolerance=1e-10)
    q = 2.0
    assert abs(half_transform(lambda x: 1.0, q, "cosine", spec)
               - math.sin(q) / q) <= 1e-8
    assert abs(half_transform(lambda x: 1.0, q, "sine", spec)
               - (1.0 - math.cos(q)) / q) <= 1e-8
    # q = 0 degenerates to the plain window integral
    assert half_transform(lambda x: 1.0, 0.0, "cosine", spec) == pytest.approx(1.0)
    assert half_transform(lambda x: 1.0, 0.0, "sine", spec) == pytest.approx(0.0)


def test_half_transform_clips_negative_lower_bound():
    a = half_transform(lambda x: 1.0, 2.0, "sine", QuadratureSpec(0.0, 1.0))
    b = half_transform(lambda x: 1.0, 2.0, "sine", QuadratureSpec(-5.0, 1.0))
    assert a == b


def test_half_transform_raises_when_budget_runs_out():
    spec = QuadratureSpec(0.0, 10.0, max_subdivisions=1, abs_tolerance=1e-14)
    with pytest.raises(ToleranceNotReached):
        half_transform(lambda x: math.sin(50.0 * x), 30.0, "cosine", spec)


def test_half_transform_rejects_bad_kind():
    with pytest.raises(ValueError):
        half_transform(lambda x: 1.0, 0.0, "tangent", QuadratureSpec(0.0, 1.0))


def test_half_transform_rejects_empty_window():
    with pytest.raises(NonPositiveInterval):
        half_transform(lambda x: 1.0, 0.0, "cosine", QuadratureSpec(-2.0, -1.0))


# ---------------------------------------------------------------------------
# the level-wise Gauss-Kronrod rule: the depth-first Simpson rule it
# replaced, oracles, evaluation counts, contracts
# ---------------------------------------------------------------------------

def _depth_first(g, lower, upper, abs_tolerance, max_subdivisions, cycles):
    """An independent reference: adaptive Simpson with a Richardson
    correction and two forced halvings, by depth-first recursion over 8
    panels per oscillation cycle (at least 16), spending the split budget as
    it goes; g maps one point to one value."""
    budget = {"left": max_subdivisions, "ok": True}

    def simpson(fa, fm, fb, h):
        return (h / 6.0) * (fa + 4.0 * fm + fb)

    def adapt(a, m, b, fa, fm, fb, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = g(lm)
        frm = g(rm)
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        refined = left + right
        err = abs(refined - whole)
        if depth >= 2 and err <= 15.0 * tol:
            return refined + (refined - whole) / 15.0, err / 15.0
        if budget["left"] <= 0 or depth >= 60:
            budget["ok"] = False
            return refined, err
        budget["left"] -= 1
        v1, e1 = adapt(a, lm, m, fa, flm, fm, left, tol / 2.0, depth + 1)
        v2, e2 = adapt(m, rm, b, fm, frm, fb, right, tol / 2.0, depth + 1)
        return v1 + v2, e1 + e2

    panels = int(min(4096, max(16, math.ceil(8.0 * cycles))))
    edges = np.linspace(lower, upper, panels + 1)
    tol = abs_tolerance / panels
    total, err = 0.0 + 0.0j, 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        m = 0.5 * (a + b)
        fa, fm, fb = g(a), g(m), g(b)
        v, e = adapt(a, m, b, fa, fm, fb, simpson(fa, fm, fb, b - a), tol, 0)
        total += v
        err += e
    return total, err, budget["ok"]


def _depth_first_quad_ft(map, f, spec, direction):
    sign = -2j * np.pi * f if direction == "forward" else 2j * np.pi * f
    d = spec.damping

    def g(t):
        return complex(map(t)) * np.exp(sign * t - d * abs(t))

    return _depth_first(g, spec.lower, spec.upper, spec.abs_tolerance, spec.max_subdivisions,
                        abs(f) * (spec.upper - spec.lower))


def _depth_first_half_transform(map, q, kind, spec):
    kernel = math.cos if kind == "cosine" else math.sin
    d = spec.damping
    lower = max(0.0, spec.lower)

    def g(x):
        val = float(map(x)) * kernel(q * x)
        if d:
            val *= math.exp(-d * x)
        return val

    return _depth_first(g, lower, spec.upper, spec.abs_tolerance, spec.max_subdivisions,
                        abs(q) / (2.0 * math.pi) * (spec.upper - lower))


class _Counted:
    """A map that counts the points it is evaluated at.  A scalar map
    refuses arrays, as math.exp does."""

    def __init__(self, fn, vectorized):
        self.fn, self.vectorized, self.points = fn, vectorized, 0

    def __call__(self, t):
        if isinstance(t, np.ndarray):
            if not self.vectorized:
                raise TypeError("scalar map")
            self.points += t.size
        else:
            self.points += 1
        return self.fn(t)


def _gaussian(t):
    return math.exp(-math.pi * t * t)


def _gaussian_array(t):
    return np.exp(-np.pi * t * t)


def _atom(t):
    # complex Gaussian-times-tone map, with the same bits for a scalar as for
    # an array (a scalar ** 2 can round differently from the array's square)
    return np.exp(-2.0 * (t - 0.3) * (t - 0.3) + 2j * np.pi * 1.7 * t)


_QUAD_CASES = [
    (fn, vectorized, f, spec, direction)
    for fn, vectorized in ((_gaussian, False), (_gaussian_array, True), (_atom, True))
    for spec in (QuadratureSpec(-6.0, 6.0), QuadratureSpec(-6.0, 6.0, damping=0.8),
                 QuadratureSpec(-6.0, 6.0, abs_tolerance=1e-10))
    for f in (0.0, 0.37, 1.3, 2.9)
    for direction in ("forward", "inverse")
] + [
    # the unit gate of c11, a constant map that returns one value for an array
    (lambda t: 1.0, False, f, QuadratureSpec(-0.5, 0.5, abs_tolerance=1e-8), "forward")
    for f in (-10.0, -3.0, -0.5, 0.0, 0.7, 4.0, 10.0)
] + [
    (rect, True, f, QuadratureSpec(-0.5, 0.5, abs_tolerance=1e-8), "forward")
    for f in (0.0, 1.5, 7.0)
]


def _scipy_ft(fn, f, spec, direction):
    """quad_ft's integral by scipy.integrate.quad, split at the kink of the
    damping factor at 0."""
    integrate = pytest.importorskip("scipy.integrate")
    sign = -2j * math.pi * f if direction == "forward" else 2j * math.pi * f

    def g(t):
        return complex(fn(t)) * cmath.exp(sign * t - spec.damping * abs(t))

    parts = ((spec.lower, 0.0), (0.0, spec.upper))
    return sum(complex(integrate.quad(lambda t: g(t).real, lo, hi, epsabs=1e-13, limit=200)[0],
                       integrate.quad(lambda t: g(t).imag, lo, hi, epsabs=1e-13, limit=200)[0])
               for lo, hi in parts)


def _quad_oracle(fn, f, spec, direction):
    """Closed forms, whose tails outside the windows are below 1e-28, and
    scipy for the damped cases."""
    if spec.damping:
        return _scipy_ft(fn, f, spec, direction)
    if fn is _atom:  # sqrt(pi/a) exp(i w t0 - w^2 / 4a) with a = 2, t0 = 0.3
        w = 2.0 * math.pi * (1.7 - f if direction == "forward" else 1.7 + f)
        return math.sqrt(math.pi / 2.0) * cmath.exp(0.3j * w - w * w / 8.0)
    if fn in (_gaussian, _gaussian_array):
        return math.exp(-math.pi * f * f)
    return sinc(f)  # the unit gate, by a constant map or by rect


@pytest.mark.parametrize("fn, vectorized, f, spec, direction", _QUAD_CASES)
def test_quad_ft_matches_depth_first_rule(fn, vectorized, f, spec, direction):
    # two different rules, each within the tolerance of the integral, and
    # the Gauss-Kronrod one on no more points
    ref_map, new_map = _Counted(fn, vectorized), _Counted(fn, vectorized)
    v, _, ok = _depth_first_quad_ft(ref_map, f, spec, direction)
    got = quad_ft(new_map, f, spec, direction)
    assert ok and got.converged
    assert abs(got.value - v) <= spec.abs_tolerance
    assert new_map.points <= ref_map.points


@pytest.mark.parametrize("fn, vectorized, f, spec, direction", _QUAD_CASES)
def test_quad_ft_cases_meet_their_tolerance(fn, vectorized, f, spec, direction):
    got = quad_ft(_Counted(fn, vectorized), f, spec, direction)
    assert got.converged
    assert abs(got.value - _quad_oracle(fn, f, spec, direction)) <= spec.abs_tolerance


@pytest.mark.parametrize("kind", ["cosine", "sine"])
@pytest.mark.parametrize("fn, vectorized, spec", [
    (lambda x: math.exp(-x), False, QuadratureSpec(0.0, 40.0)),
    (lambda x: np.exp(-x), True, QuadratureSpec(0.0, 40.0, abs_tolerance=1e-10)),
    (lambda x: 1.0, False, QuadratureSpec(-5.0, 1.0)),
    (lambda x: 1.0 / (1.0 + x * x), True, QuadratureSpec(0.0, 30.0, damping=0.3)),
])
def test_half_transform_matches_depth_first_rule(kind, fn, vectorized, spec):
    for q in (0.0, 0.1, 1.0, 3.7, 7.9):
        ref_map, new_map = _Counted(fn, vectorized), _Counted(fn, vectorized)
        v, _, ok = _depth_first_half_transform(ref_map, q, kind, spec)
        assert ok
        got = half_transform(new_map, q, kind, spec)
        assert abs(got - v.real) <= spec.abs_tolerance
        assert new_map.points <= ref_map.points


@pytest.mark.parametrize("kind", ["cosine", "sine"])
@pytest.mark.parametrize("fn, vectorized, spec", [
    (lambda x: math.exp(-x), False, QuadratureSpec(0.0, 40.0)),
    (lambda x: np.exp(-x), True, QuadratureSpec(0.0, 40.0, abs_tolerance=1e-10)),
    (lambda x: 1.0, False, QuadratureSpec(-5.0, 1.0)),
    (lambda x: 1.0 / (1.0 + x * x), True, QuadratureSpec(0.0, 30.0, damping=0.3)),
])
def test_half_transform_cases_meet_their_tolerance(kind, fn, vectorized, spec):
    cosine = kind == "cosine"
    for q in (0.0, 0.1, 1.0, 3.7, 7.9):
        got = half_transform(_Counted(fn, vectorized), q, kind, spec)
        if spec.damping:
            integrate = pytest.importorskip("scipy.integrate")
            want = integrate.quad(lambda x: fn(x) * math.exp(-spec.damping * x), 0.0, spec.upper,
                                  weight="cos" if cosine else "sin", wvar=q, epsabs=1e-13)[0]
        elif spec.upper == 1.0:  # the map 1 on [0, 1]
            want = (math.sin(q) if cosine else 1.0 - math.cos(q)) / q if q else float(cosine)
        else:  # e^-x, whose tail past 40 is below 1e-17
            want = (1.0 if cosine else q) / (1.0 + q * q)
        assert abs(got - want) <= spec.abs_tolerance


def test_gaussian_transforms_stay_under_an_evaluation_ceiling():
    # the benchmark's op: 16 frequencies of exp(-pi t^2) on [-6, 6] at 1e-6
    spec, gaussian = QuadratureSpec(-6.0, 6.0), _Counted(_gaussian, False)
    for f in (np.arange(16) + 0.5) * 3.0 / 16.0:
        got = quad_ft(gaussian, float(f), spec)
        assert got.converged
        assert abs(got.value - math.exp(-math.pi * f * f)) <= 1e-6
    assert gaussian.points <= 6000


def test_split_budget_is_spent_left_to_right_per_level():
    # 2 panels and 3 splits at a tolerance nothing meets: level 0 splits both
    # panels, level 1 lists the four quarters left to right and splits only
    # [0, 2], and level 2 evaluates its halves and keeps them unconverged
    calls = []

    def g(t):
        calls.append(t.copy())
        return np.exp(t) + 0j

    got = _integrate(g, 0.0, 8.0, 1e-300, 3, 2)
    assert [c.size for c in calls] == [30, 60, 30]
    assert all(np.all(np.diff(c) > 0.0) for c in calls)
    assert 0.0 < calls[2].min() and calls[2].max() < 2.0
    assert not got.converged
    assert got.value.real == pytest.approx(math.expm1(8.0), rel=1e-14)


def test_refinement_stops_at_the_depth_cap():
    # a spike on the smallest point of every call fails its interval at every
    # level, while the budget is too large to run out
    calls = []

    def g(t):
        calls.append(t.size)
        out = np.zeros(t.shape, dtype=np.complex128)
        out[np.argmin(t)] = 1.0
        return out

    got = _integrate(g, 0.0, 1.0, 1e-6, 10_000, 4)
    assert len(calls) == 61
    assert not got.converged


def test_a_constant_map_converges_with_zero_error():
    # the error is taken of the samples minus the centre one, so a constant
    # interval passes any tolerance
    got = quad_ft(lambda t: 1.0, 0.0, QuadratureSpec(-0.5, 0.5, abs_tolerance=1e-300))
    assert got.converged
    assert got.error == 0.0
    assert got.value == pytest.approx(1.0, rel=1e-15)
