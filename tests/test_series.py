"""Series analysis: coefficient recovery, jump behavior, form conversions."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fourierkit import (
    NonPositiveInterval,
    QuadratureSpec,
    SeriesCoefficients,
    from_complex,
    half_series_coefficients,
    series_coefficients,
    series_synthesize,
    to_complex,
)


def square_wave(t):
    """Odd unit square wave of period 1, exactly zero at its jumps.

    Written with folded phase rather than sign(sin(2 pi t)) so the value at
    the jump instants is 0 in floating point too, not sign(sin(pi)) = +1.
    """
    u = np.asarray(t, dtype=float) % 1.0
    out = np.where(u < 0.5, 1.0, -1.0)
    out = np.where((u == 0.0) | (u == 0.5), 0.0, out)
    return float(out) if np.isscalar(t) else out


def test_square_wave_sine_coefficients():
    c = series_coefficients(square_wave, 1.0, 99)
    k = np.arange(1, 100)
    want = np.where(k % 2 == 1, 4.0 / (np.pi * k), 0.0)
    assert np.max(np.abs(c.sine - want)) <= 1e-9
    assert c.converged == ()


def test_square_wave_has_no_cosine_part():
    c = series_coefficients(square_wave, 1.0, 99)
    assert abs(c.a0) <= 1e-12
    assert np.max(np.abs(c.cosine)) <= 1e-9


def test_square_wave_partial_sum_vanishes_at_jump():
    c = series_coefficients(square_wave, 1.0, 99)
    assert abs(series_synthesize(c, 0.0)) <= 1e-9
    assert abs(series_synthesize(c, 0.5)) <= 1e-9


def test_square_wave_partial_sum_midband():
    c = series_coefficients(square_wave, 1.0, 199)
    assert abs(series_synthesize(c, 0.25) - 1.0) <= 1e-2


def test_square_wave_gibbs_overshoot():
    # near the jump the partial sum overshoots to about (2/pi) Si(pi) = 1.1790
    c = series_coefficients(square_wave, 1.0, 199)
    grid = np.linspace(0.0, 0.02, 2001)
    peak = float(np.max(series_synthesize(c, grid)))
    assert 1.17 <= peak <= 1.19


def test_synthesis_is_periodic():
    c = series_coefficients(square_wave, 1.0, 49)
    ts = np.linspace(0.05, 0.95, 19)
    assert np.max(np.abs(series_synthesize(c, ts)
                         - series_synthesize(c, ts + 3.0))) <= 1e-12


def test_trig_polynomial_coefficients_recovered_exactly():
    rng = np.random.default_rng(7)
    a = rng.uniform(-1.0, 1.0, 8)
    b = rng.uniform(-1.0, 1.0, 8)
    a0 = 0.37

    def poly(t):
        t = np.asarray(t, dtype=float)
        ang = np.multiply.outer(t, np.arange(1, 9)) * (2.0 * np.pi / 2.5)
        return a0 + np.cos(ang) @ a + np.sin(ang) @ b

    c = series_coefficients(poly, 2.5, 8)
    assert abs(c.a0 - a0) <= 1e-12
    assert np.max(np.abs(c.cosine - a)) <= 1e-12
    assert np.max(np.abs(c.sine - b)) <= 1e-12
    assert c.converged == ()

    grid = np.linspace(0.0, 2.5, 200, endpoint=False)
    assert np.max(np.abs(series_synthesize(c, grid) - poly(grid))) <= 1e-12


def test_scalar_map_without_vectorization():
    c = series_coefficients(lambda t: math.sin(2.0 * math.pi * t / 2.0), 2.0, 3)
    assert c.sine[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(c.sine[1]) <= 1e-12 and abs(c.sine[2]) <= 1e-12
    assert np.max(np.abs(c.cosine)) <= 1e-12


def test_unmet_tolerance_sets_flags_instead_of_raising():
    spec = QuadratureSpec(0.0, 1.0, max_subdivisions=80, abs_tolerance=1e-14)
    c = series_coefficients(lambda t: abs(math.sin(2.0 * math.pi * t)), 1.0, 3, spec)
    assert c.converged != ()
    assert len(c.converged) == 7  # a0, three cosines, three sines
    assert False in c.converged


def test_series_coefficients_validation():
    with pytest.raises(NonPositiveInterval):
        series_coefficients(square_wave, 0.0, 3)
    with pytest.raises(ValueError):
        series_coefficients(square_wave, 1.0, -1)


def test_half_range_sine_of_constant():
    # odd extension of 1 on [0, 1] is the square wave: b_k = 4/(pi k), odd k
    c = half_series_coefficients(lambda x: 1.0, 1.0, "sine", 9)
    assert c.period == 2.0
    assert np.max(np.abs(c.cosine)) == 0.0 and c.a0 == 0.0
    for k in range(1, 10):
        want = 4.0 / (math.pi * k) if k % 2 == 1 else 0.0
        assert c.sine[k - 1] == pytest.approx(want, abs=1e-9)


def test_half_range_cosine_of_constant():
    c = half_series_coefficients(lambda x: 1.0, 1.0, "cosine", 5)
    assert c.a0 == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(c.cosine)) <= 1e-12
    assert np.max(np.abs(c.sine)) == 0.0


def test_half_range_picks_out_matching_harmonic():
    c = half_series_coefficients(lambda x: np.sin(np.pi * np.asarray(x)), 1.0,
                                 "sine", 5)
    assert c.sine[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(c.sine[1:])) <= 1e-12
    c2 = half_series_coefficients(lambda x: np.cos(np.pi * np.asarray(x)), 1.0,
                                  "cosine", 5)
    assert c2.cosine[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(c2.a0) <= 1e-12


def test_half_range_validation():
    with pytest.raises(ValueError):
        half_series_coefficients(lambda x: 1.0, 1.0, "both", 3)
    with pytest.raises(NonPositiveInterval):
        half_series_coefficients(lambda x: 1.0, 0.0, "sine", 3)


def test_synthesize_scalar_and_array_agree():
    c = SeriesCoefficients(0.5, [1.0, 0.0], [0.25, -0.5], period=2.0)
    ts = np.array([0.0, 0.3, 1.7])
    vec = series_synthesize(c, ts)
    assert isinstance(series_synthesize(c, 0.3), float)
    assert vec[1] == series_synthesize(c, 0.3)


def test_synthesize_memory_stays_bounded():
    # the whole (points, K) angle matrix alone would take about 76 MiB here
    k, points = 100, 100_000
    c = SeriesCoefficients(0.1, np.full(k, 0.01), np.full(k, -0.02), period=1.0)
    ts = np.linspace(0.0, 2.0, points)
    tracemalloc.start()
    try:
        out = series_synthesize(c, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (points,)
    assert peak < 48 * 2 ** 20
    for i in (0, 12345, points // 2, points - 1):
        assert out[i] == pytest.approx(series_synthesize(c, ts[i]), abs=1e-12)


def test_synthesize_mean_only():
    c = SeriesCoefficients(0.75, [], [], period=1.0)
    assert series_synthesize(c, 123.4) == 0.75


def test_series_coefficients_validation_of_container():
    with pytest.raises(ValueError):
        SeriesCoefficients(0.0, [1.0, 2.0], [1.0], period=1.0)
    with pytest.raises(NonPositiveInterval):
        SeriesCoefficients(0.0, [1.0], [1.0], period=0.0)


def test_complex_form_round_trip_is_exact():
    rng = np.random.default_rng(23)
    c = SeriesCoefficients(float(rng.uniform(-1, 1)),
                           rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6),
                           period=2.0)
    z = to_complex(c)
    back = from_complex(z)
    assert back.a0 == c.a0
    assert np.array_equal(back.cosine, c.cosine)
    assert np.array_equal(back.sine, c.sine)


def test_complex_form_conjugate_pairing():
    c = SeriesCoefficients(0.1, [0.4, -0.2], [0.9, 0.3], period=1.0)
    z = to_complex(c)
    assert z.harmonics == 2
    for m in (1, 2):
        assert z.terms[-m] == np.conj(z.terms[m])
    assert z.terms[0] == 0.1


def test_complex_form_synthesis_agreement():
    rng = np.random.default_rng(24)
    c = SeriesCoefficients(0.2, rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4),
                           period=1.5)
    z = to_complex(c)
    ts = rng.uniform(0.0, 3.0, 25)
    direct = series_synthesize(c, ts)
    exponential = np.zeros(ts.size, dtype=complex)
    for m, cm in z.terms.items():
        exponential += cm * np.exp(2j * np.pi * m * ts / 1.5)
    assert np.max(np.abs(exponential.imag)) <= 1e-12
    assert np.max(np.abs(exponential.real - direct)) <= 1e-12


def test_from_complex_fills_missing_harmonics_with_zero():
    from fourierkit import ComplexSeriesCoefficients
    z = ComplexSeriesCoefficients({3: 0.5 + 0.0j, -3: 0.5 + 0.0j}, period=1.0)
    c = from_complex(z)
    assert c.harmonics == 3
    assert c.cosine[2] == pytest.approx(1.0)
    assert c.cosine[0] == 0.0 and c.cosine[1] == 0.0
    assert np.max(np.abs(c.sine)) == 0.0


def _to_complex_loop(c):
    """Bit oracle: the per-harmonic loop ``to_complex`` replaced, its terms in order."""
    terms = {0: complex(c.a0)}
    for m in range(1, c.harmonics + 1):
        a = c.cosine[m - 1]
        b = c.sine[m - 1]
        terms[m] = 0.5 * (a - 1j * b)
        terms[-m] = 0.5 * (a + 1j * b)
    return {m: complex(v) for m, v in terms.items()}


def _from_complex_loop(terms):
    """Bit oracle: the per-harmonic loop ``from_complex`` replaced, (a0, cosine, sine)."""
    k = max((abs(m) for m in terms), default=0)
    a0 = terms.get(0, 0.0 + 0.0j).real
    cos = np.zeros(k)
    sin = np.zeros(k)
    for m in range(1, k + 1):
        plus = complex(terms.get(m, 0.0))
        minus = complex(terms.get(-m, 0.0))
        cos[m - 1] = (plus + minus).real
        sin[m - 1] = ((minus - plus) * -1j).real
    return a0, cos, sin


@pytest.mark.parametrize("k", [0, 1, 7, 100, 1000])
def test_complex_form_conversions_give_the_bits_of_the_loops(k):
    from fourierkit import ComplexSeriesCoefficients
    rng = np.random.default_rng(k)
    a, b = rng.uniform(-1.0, 1.0, k), rng.uniform(-1.0, 1.0, k)
    # signed zeros and the smallest subnormals, whose halves round to signed zeros
    a[0::5], b[1::5], a[2::7], b[3::7] = 0.0, -0.0, -0.0, 0.0
    a[4::9], b[4::9], b[6::11] = -5e-324, 5e-324, -0.0
    for a0 in (0.25, -0.0):
        c = SeriesCoefficients(a0, a, b, 2.0)
        want = _to_complex_loop(c)
        # all terms in to_complex's order, then every third one in reverse, with gaps
        sparse = dict(reversed(list(want.items())[1::3]))
        for z, want_terms in ((to_complex(c), want),
                              (ComplexSeriesCoefficients(sparse, 2.0), sparse)):
            assert list(z.terms.items()) == list(want_terms.items())
            assert np.array(list(z.terms.values()), complex).tobytes() == \
                np.array(list(want_terms.values()), complex).tobytes()
            want_a0, want_cos, want_sin = _from_complex_loop(want_terms)
            got = from_complex(z)
            assert np.float64(got.a0).tobytes() == np.float64(want_a0).tobytes()
            assert got.cosine.tobytes() == want_cos.tobytes()
            assert got.sine.tobytes() == want_sin.tobytes()


def test_complex_coefficients_hold_two_read_only_arrays():
    from fourierkit import ComplexSeriesCoefficients
    c = ComplexSeriesCoefficients({0: 0.5, 1: 0.25 - 0.5j, -1: 0.25 + 0.5j, 3: 2}, 2.0)
    assert c.terms == {0: 0.5, 1: 0.25 - 0.5j, -1: 0.25 + 0.5j, 3: 2}
    assert list(c.terms) == [0, 1, -1, 3] and type(c.harmonics) is int and c.harmonics == 3
    assert all(type(m) is int and type(v) is complex for m, v in c.terms.items())
    assert [f.name for f in dataclasses.fields(c)] == ["period"]
    before = from_complex(c)
    t = c.terms
    t["a"] = 1.0
    t[10 ** 20] = 1.0
    after = from_complex(c)
    assert (after.a0, after.period) == (before.a0, before.period)
    assert after.cosine.tobytes() == before.cosine.tobytes()
    assert after.sine.tobytes() == before.sine.tobytes()
    held = [v for v in vars(c).values() if isinstance(v, np.ndarray)]
    assert sorted(v.dtype.name for v in held) == ["complex128", "int64"]
    for array in held:
        with pytest.raises(ValueError):
            array[0] = 7
    empty = from_complex(ComplexSeriesCoefficients({}, 1.0))
    assert empty.a0 == 0.0 and empty.harmonics == 0 and empty.sine.size == 0


# ---------------------------------------------------------------------------
# the DFT refinement against the composite Simpson matvec it replaces
# ---------------------------------------------------------------------------

def _simpson_matvec(map, span, k, panels, kind):
    """Reference coefficient integrals on one Simpson grid: cos/sin(angles) @ (f*w).

    kind "full" returns a0, a_1..a_k, b_1..b_k for period ``span``; "cosine"
    and "sine" return the k+1 half-range integrals over [0, span].
    """
    xs = np.linspace(0.0, span, 2 * panels + 1)
    h = span / panels
    w = np.full(xs.size, 2.0 * h / 6.0)
    w[1::2] = 4.0 * h / 6.0
    w[0] = w[-1] = h / 6.0
    try:
        f = np.asarray(map(xs), dtype=float)
        assert f.shape == xs.shape
    except (TypeError, ValueError):
        f = np.array([float(map(float(x))) for x in xs])
    fw = f * w
    scale = 2.0 * np.pi / span if kind == "full" else np.pi / span
    angles = np.multiply.outer(np.arange(1, k + 1), xs) * scale
    cos = (np.cos(angles) @ fw) * (2.0 / span)
    sin = (np.sin(angles) @ fw) * (2.0 / span)
    if kind == "full":
        return np.r_[fw.sum() / span, cos, sin]
    if kind == "cosine":
        return np.r_[fw.sum() / span, cos]
    return np.r_[0.0, sin]


def _rectifier(t):
    return np.abs(np.sin(np.pi * np.asarray(t, dtype=float)))


@pytest.mark.parametrize("kind, map, span, k, max_panels", [
    ("full", _rectifier, 1.0, 20, 4000),                                 # vectorized
    ("full", lambda t: math.exp(math.cos(2.0 * math.pi * t / 1.7)), 1.7, 9, 2047),
    ("full", square_wave, 1.0, 9, 300),                                  # Bluestein
    ("full", lambda t: abs(t - 0.4), 1.0, 9, 2),                         # k past the grid
    ("cosine", lambda x: math.exp(-x), 2.2, 12, 1000),                   # scalar
    ("cosine", lambda x: np.exp(-x), 1.3, 15, 300),                      # Bluestein
    ("sine", lambda x: np.exp(-x) * (1.0 + x), 1.3, 15, 1023),           # vectorized
    ("sine", lambda x: math.exp(-x), 2.2, 12, 300),                      # Bluestein
])
def test_dft_refinement_matches_simpson_matvec(kind, map, span, k, max_panels):
    # max_panels < 4 P stops the loop after one doubling, so the result is
    # the Richardson step between P and 2 P panels.
    per_harmonic = 64 if kind == "full" else 32
    first = 64
    while first < per_harmonic * k:
        first *= 2
    panels = min(first, max_panels)
    assert 4 * panels > max_panels
    coarse = _simpson_matvec(map, span, k, panels, kind)
    fine = _simpson_matvec(map, span, k, 2 * panels, kind)
    ref = fine + (fine - coarse) / 15.0

    spec = QuadratureSpec(0.0, 1.0, max_subdivisions=max_panels)
    if kind == "full":
        c = series_coefficients(map, span, k, spec)
        got = np.r_[c.a0, c.cosine, c.sine]
    else:
        c = half_series_coefficients(map, span, kind, k, spec)
        got = np.r_[c.a0, c.cosine if kind == "cosine" else c.sine]
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("kind", ["full", "cosine", "sine"])
def test_each_node_of_the_finest_grid_is_evaluated_once(kind):
    seen = []

    def wave(t):
        value = math.cos(2.0 * math.pi * t / 1.5)  # a TypeError for arrays
        seen.append(t)
        return value

    if kind == "full":
        c = series_coefficients(wave, 1.5, 3)
        panels = 256  # 64 per harmonic, rounded up to a power of two
    else:
        c = half_series_coefficients(wave, 1.5, kind, 3)
        panels = 128  # 32 per harmonic, rounded up to a power of two
    assert c.converged == ()
    # the first grid, then only the midpoints of one doubling: 4 P + 1 calls
    assert len(seen) == 4 * panels + 1
    assert seen[:2 * panels + 1] == np.linspace(0.0, 1.5, 2 * panels + 1).tolist()
    assert sorted(seen) == np.linspace(0.0, 1.5, 4 * panels + 1).tolist()


@pytest.mark.parametrize("kind", ["cosine", "sine"])
def test_half_range_unmet_tolerance_sets_flags(kind):
    spec = QuadratureSpec(0.0, 1.0, max_subdivisions=80, abs_tolerance=1e-14)
    c = half_series_coefficients(lambda x: abs(x - 0.3), 1.0, kind, 4, spec)
    assert len(c.converged) == 5  # a0 and four harmonics
    assert False in c.converged
    if kind == "sine":
        assert c.converged[0]  # the mean of an odd extension is exactly zero
