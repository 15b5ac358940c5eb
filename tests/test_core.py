"""Value types: construction, validation, jump conventions, config parsing."""

import ast
import copy
import dataclasses
import inspect
import json
import math
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fourierkit import (
    COMPLEX,
    EmptyBins,
    EmptySamples,
    FourierKitError,
    GaborAtom,
    ImpulseTrain,
    InvalidParameter,
    LengthMismatch,
    NonFiniteSample,
    NonPositiveInterval,
    ParseError,
    REAL,
    RealTagViolation,
    SegmentedFunction,
    Spectrum,
    TFDistribution,
    Waveform,
    sample,
    segmented_eval,
    validate_waveform,
)
import fourierkit as fk
from fourierkit import config


def test_waveform_infers_real_tag():
    w = Waveform([1.0, -2.0, 3.0], 0.5)
    assert w.tag == REAL
    assert w.samples.dtype == np.complex128


def test_waveform_infers_complex_tag():
    w = Waveform([1.0, 1.0 + 1e-300j], 0.5)
    assert w.tag == COMPLEX


def test_waveform_explicit_tag_is_kept():
    w = Waveform([1.0, 2.0], 0.5, tag=COMPLEX)
    assert w.tag == COMPLEX
    assert validate_waveform(w) is w


def test_waveform_times_and_duration():
    w = Waveform([0.0, 0.0, 0.0, 0.0], 0.25, start_time=-1.0)
    assert np.allclose(w.times, [-1.0, -0.75, -0.5, -0.25])
    assert w.duration == 1.0
    assert len(w) == 4


def test_waveform_samples_are_immutable():
    w = Waveform([1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        w.samples[0] = 9.0


def test_validate_waveform_rejects_bad_interval():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(NonPositiveInterval):
            validate_waveform(Waveform([1.0], bad))
        with pytest.raises(NonPositiveInterval):
            Waveform([1.0], bad)
    # an interval whose span over the samples overflows is refused, by its own name
    with pytest.raises(NonPositiveInterval, match="sample_interval"):
        Waveform([1.0, 2.0], 1e308)


def test_validate_waveform_rejects_empty():
    with pytest.raises(EmptySamples):
        validate_waveform(Waveform([], 1.0))
    with pytest.raises(EmptySamples):
        Waveform([], 1.0)


def test_spectrum_rejects_no_bins_and_bad_spacing():
    with pytest.raises(EmptyBins):
        Spectrum([], 1.0)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(NonPositiveInterval):
            Spectrum([1.0, 2.0], bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", [Waveform, Spectrum])
def test_samples_and_bins_must_be_finite(kind, bad):
    with pytest.raises(NonFiniteSample, match="at index 1"):
        kind([1.0, bad, 2.0], 1.0)
    with pytest.raises(NonFiniteSample, match="at index 0"):
        kind(np.array([complex(0.0, bad)]), 1.0)


@pytest.mark.parametrize("kind", [Waveform, Spectrum])
def test_samples_and_bins_must_be_numbers(kind):
    with pytest.raises(NonFiniteSample, match="must hold complex128 numbers"):
        kind(["a"], 1.0)


def test_validate_waveform_rejects_false_real_tag():
    with pytest.raises(RealTagViolation):
        validate_waveform(Waveform([1.0 + 2.0j], 1.0, tag=REAL))
    # the constructor raises, once, so validate_waveform need not scan
    for data in ([1.0 + 2.0j], np.array([0.0, 1e-300j])):
        with pytest.raises(RealTagViolation):
            Waveform(data, 1.0, tag="real")


@pytest.mark.parametrize("tag", [None, REAL])
def test_real_tagged_waveform_owns_its_samples(tag):
    # the caller's complex128 array, a strided view of it and a buffer over it
    x = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.complex128)
    waves = [Waveform(x, 1.0, tag=tag), Waveform(x[::2], 1.0, tag=tag),
             Waveform(memoryview(x), 1.0, tag=tag)]
    x[:] = [1j, 2j, 3j, 4j]
    for w, want in zip(waves, ([1.0, 2.0, 3.0, 4.0], [1.0, 3.0], [1.0, 2.0, 3.0, 4.0])):
        assert w.tag == REAL
        assert np.array_equal(w.samples, want)
        validate_waveform(w)


def test_complex_tagged_waveform_does_not_copy_its_samples():
    # only a real tag needs its own copy; a complex one holds any data
    x = np.array([1.0, 2.0j], dtype=np.complex128)
    assert np.shares_memory(Waveform(x, 1.0).samples, x)
    y = np.array([1.0, 2.0], dtype=np.complex128)
    assert np.shares_memory(Waveform(y, 1.0, tag=COMPLEX).samples, y)


def test_errors_subclass_builtin_families():
    # callers can catch either the package base or the builtin family
    assert issubclass(NonPositiveInterval, FourierKitError)
    assert issubclass(NonPositiveInterval, ValueError)
    assert issubclass(EmptySamples, ValueError)
    assert issubclass(LengthMismatch, ValueError)
    from fourierkit import (
        IndexOutOfRange,
        InvalidParameter,
        ParseError,
        ToleranceNotReached,
        ZeroEnergy,
    )
    assert issubclass(IndexOutOfRange, IndexError)
    assert issubclass(InvalidParameter, FourierKitError)
    assert issubclass(InvalidParameter, ValueError)
    assert issubclass(ToleranceNotReached, RuntimeError)
    assert issubclass(ParseError, ValueError)
    assert issubclass(ZeroEnergy, ValueError)


def test_bad_arguments_raise_invalid_parameter():
    from fourierkit import (ComplexSeriesCoefficients, InvalidParameter, QuadratureSpec,
                            SeriesCoefficients, alias_frequency, bin_frequencies,
                            bin_to_frequency, dirichlet_closed, dirichlet_sum, dtft_eval,
                            gabor_atom_eval, gabor_atom_spectrum,
                            half_series_coefficients, half_transform, make_comb, quad_ft, rect,
                            sample, sample_spectrum, series_coefficients, series_synthesize,
                            sinc, sinc_reconstruct, sinc_scaled, step, stft, window_rect)
    f = lambda x: 1.0  # noqa: E731
    window = QuadratureSpec(0.0, 1.0)
    atom = GaborAtom(0.0, 1.0, 1.0)
    coeffs = SeriesCoefficients(0.5, [1.0], [0.0], 1.0)
    pieces = SegmentedFunction(((0.0, 1.0, f),))
    calls = [
        lambda: series_coefficients(f, 1.0, -1),
        lambda: half_series_coefficients(f, 1.0, "both", 3),
        lambda: half_series_coefficients(f, 1.0, "sine", -1),
        lambda: SeriesCoefficients(0.0, [1.0, 2.0], [1.0], period=1.0),
        lambda: sample(f, 1.0, 0),
        lambda: sample_spectrum(f, 1.0, 0),
        lambda: sinc_reconstruct(Waveform(np.ones(4), 1.0), 0.5, 0),
        lambda: sinc_reconstruct(Waveform(np.ones(4), 1.0), math.nan, 2),
        lambda: sinc_reconstruct(Waveform(np.ones(4), 1.0), math.inf, 2),
        lambda: sinc_reconstruct(Waveform([1.0, 2.0], 1e-300), 1e10, 4),
        lambda: sinc_reconstruct(Waveform([1.0, 2.0], 1.0, -1e308), 1e308, 4),
        lambda: stft(Waveform(np.ones(8), 1.0), math.nan, 1, 4),
        lambda: stft(Waveform(np.ones(8), 1.0), math.inf, 1, 4),
        lambda: stft(Waveform(np.ones(8), 1.0), 1e200, 1, 4),
        lambda: stft(Waveform(np.ones(8), 1.0), 1e-200, 1, 4),
        lambda: dirichlet_sum(-1, 0.3),
        lambda: dirichlet_closed(-1, 0.3),
        lambda: make_comb(1.0, 0),
        lambda: ImpulseTrain(((1.0, 1.0), (1.0, 2.0))),
        lambda: ImpulseTrain(((0.0, 1.0),), domain="space"),
        lambda: SegmentedFunction(((0.0, 2.0, f), (1.0, 3.0, f))),
        lambda: GaborAtom(0.0, 1.0, 0.0),
        lambda: GaborAtom(0.0, 1.0, math.inf),
        lambda: GaborAtom(0.0, 1.0, 1e200),
        lambda: GaborAtom(0.0, 1.0, 1e-200),
        lambda: sample(f, 1.0, 4, start_time=math.nan),
        lambda: sample(f, 1.0, 4, start_time=-math.inf),
        lambda: dtft_eval(Waveform(np.ones(8), 1.0), math.nan),
        lambda: dtft_eval(Waveform(np.ones(8), 1.0), math.inf),
        lambda: dtft_eval(Waveform([1.0, 2.0], 1.0), 1e308),
        lambda: Waveform([1.0], 1.0, tag="foo"),
        lambda: Waveform([1.0, 2.0], 1.0, start_time=math.nan),
        lambda: Waveform([1.0, 2.0], 1.0, start_time=math.inf),
        lambda: Waveform([1.0, 2.0], 1.0, start_time=-math.inf),
        # integers too large for a float
        lambda: Waveform([1.0], 1.0, 10 ** 400),
        lambda: sample(f, 1.0, 4, start_time=10 ** 400),
        # counts that are not integers or that numpy cannot size an array by
        lambda: sample(f, 1.0, 2.5),
        lambda: sample(f, 1.0, 10 ** 20),
        lambda: sample(f, 1.0, 10 ** 400),
        lambda: sample_spectrum(f, 1.0, 2.5),
        lambda: sample_spectrum(f, 1.0, 10 ** 20),
        lambda: sample_spectrum(f, 1.0, 10 ** 400),
        lambda: sinc_reconstruct(Waveform([1.0], 1.0), 10 ** 400, 4),
        lambda: stft(Waveform(np.ones(8), 1.0), 0.0, 2.5, 4),
        lambda: stft(Waveform(np.ones(8), 1.0), 0.0, 1, 4.0),
        lambda: stft(Waveform(np.ones(8), 1.0), 0.0, math.nan, 4),
        lambda: sinc_reconstruct(Waveform(np.ones(4), 1.0), 0.5, 2.5),
        lambda: sinc_reconstruct(Waveform(np.ones(4), 1.0), 0.5, math.nan),
        lambda: series_coefficients(f, 1.0, 2.0),
        lambda: half_series_coefficients(f, 1.0, "cosine", 2.5),
        lambda: dirichlet_sum(2.5, 0.3),
        lambda: dirichlet_closed(2.5, 0.3),
        lambda: dirichlet_sum(3.0, 0.3),
        lambda: dirichlet_closed(3.0, 0.3),
        lambda: bin_frequencies(2.5, 1.0),
        lambda: bin_to_frequency(1.5, 4, 1.0),
        lambda: bin_to_frequency(1, 2.5, 1.0),
        lambda: QuadratureSpec(0.0, 1.0, max_subdivisions=10 ** 18),
        lambda: TFDistribution(np.zeros((1, 1)), [0.0], [0.0], kind="scalogram"),
        lambda: QuadratureSpec(0.0, 1.0, max_subdivisions=0),
        lambda: QuadratureSpec(0.0, 1.0, max_subdivisions=math.nan),
        lambda: QuadratureSpec(0.0, 1.0, max_subdivisions=math.inf),
        lambda: QuadratureSpec(0.0, 1.0, max_subdivisions=2.5),
        lambda: QuadratureSpec(0.0, 1.0, abs_tolerance=0.0),
        lambda: QuadratureSpec(0.0, 1.0, damping=-1.0),
        lambda: QuadratureSpec(0.0, 1.0, damping=math.nan),
        lambda: QuadratureSpec(0.0, 1.0, abs_tolerance=math.inf),
        lambda: quad_ft(f, 1.0, window, direction="sideways"),
        lambda: quad_ft(f, math.nan, window),
        lambda: quad_ft(f, math.inf, window),
        lambda: quad_ft(f, 1e300, QuadratureSpec(0.0, 1e10)),
        lambda: half_transform(f, 1.0, "both", window),
        lambda: half_transform(f, math.nan, "cosine", window),
        lambda: half_transform(f, -math.inf, "sine", window),
        lambda: half_transform(f, 1e308, "cosine", QuadratureSpec(0.0, 1e10)),
        # every scalar float argument is finite, and a huge integer is no bare OverflowError
        lambda: GaborAtom(0.0, 1.0, 10 ** 400),
        lambda: GaborAtom(10 ** 400, 1.0, 1.0),
        lambda: GaborAtom(math.inf, 1.0, 1.0),
        lambda: GaborAtom(math.nan, 1.0, 1.0),
        lambda: GaborAtom(0.0, 10 ** 400, 1.0),
        lambda: GaborAtom(0.0, -math.inf, 1.0),
        lambda: GaborAtom(0.0, math.nan, 1.0),
        lambda: GaborAtom(0.0, 1.0, 1.0, 10 ** 400),
        lambda: GaborAtom(0.0, 1.0, 1.0, math.inf),
        lambda: GaborAtom(0.0, 1.0, 1.0, math.nan),
        lambda: dtft_eval(Waveform(np.ones(8), 1.0), 10 ** 400),
        lambda: QuadratureSpec(0.0, 1.0, abs_tolerance=10 ** 400),
        lambda: QuadratureSpec(0.0, 1.0, damping=10 ** 400),
        lambda: quad_ft(f, 10 ** 400, window),
        lambda: half_transform(f, 10 ** 400, "cosine", window),
        lambda: alias_frequency(10 ** 400, 8.0),
        lambda: alias_frequency(math.inf, 8.0),
        lambda: alias_frequency(math.nan, 8.0),
        lambda: window_rect(Waveform(np.ones(4), 1.0), 2.0, 10 ** 400),
        lambda: window_rect(Waveform(np.ones(4), 1.0), 2.0, math.nan),
        lambda: window_rect(Waveform(np.ones(4), 1.0), 2.0, -math.inf),
        lambda: stft(Waveform(np.ones(8), 1.0), 10 ** 400, 1, 4),
        # every array argument and value-type array is finite, and a huge integer in one
        # is no bare OverflowError
        *(lambda bad=bad, call=call: call(bad)
          for bad in (10 ** 400, math.nan, [0.0, 10 ** 400], [0.0, math.nan], math.inf)
          for call in (lambda x: dirichlet_sum(2, x), lambda x: dirichlet_closed(2, x),
                       rect, sinc, lambda x: sinc_scaled(x, 2.0), step,
                       lambda x: gabor_atom_eval(atom, x), lambda x: gabor_atom_spectrum(atom, x),
                       lambda x: series_synthesize(coeffs, x))),
        lambda: segmented_eval(pieces, 10 ** 400),
        lambda: segmented_eval(pieces, math.nan),
        lambda: segmented_eval(pieces, math.inf),
        lambda: ImpulseTrain(((math.nan, 1.0),)),
        lambda: ImpulseTrain(((0.0, 1.0), (10 ** 400, 1.0))),
        lambda: ImpulseTrain(((0.0, math.nan),)),
        lambda: ImpulseTrain(((0.0, complex(1.0, math.inf)),)),
        lambda: ImpulseTrain(((0.0, 10 ** 400),)),
        lambda: make_comb(1.0, 3, weight=math.nan),
        lambda: make_comb(1.0, 3, weight=10 ** 400),
        lambda: SegmentedFunction(((0.0, 10 ** 400, f),)),
        lambda: SegmentedFunction(((math.nan, 1.0, f),)),
        lambda: SeriesCoefficients(math.nan, [], [], 1.0),
        lambda: SeriesCoefficients(10 ** 400, [], [], 1.0),
        lambda: SeriesCoefficients(0.0, [math.inf], [0.0], 1.0),
        lambda: SeriesCoefficients(0.0, [0.0], [10 ** 400], 1.0),
        # a value that is not a number, or an impulse that is not one location and one weight
        lambda: ImpulseTrain(((1j, 1.0),)),
        lambda: sinc("abc"),
        lambda: sinc(None),
        lambda: sinc([1.0, None]),
        lambda: make_comb(1.0, 3, weight="x"),
        lambda: ImpulseTrain(((1.0, [1.0, 2.0]),)),
        lambda: ImpulseTrain((([0.0, 1.0], 1.0),)),
        # an atom whose phase is not finite at the point asked for
        lambda: gabor_atom_eval(GaborAtom(0, 1e308, 1), 10.0),
        lambda: gabor_atom_spectrum(GaborAtom(1e308, 1, 1), 3.0),
        # a complex array where real numbers are asked for keeps its imaginary parts out
        lambda: step(np.array([-1 + 5j])),
        lambda: sinc(np.array([0.5 + 1j])),
        lambda: ImpulseTrain([(np.complex128(1 + 1j), 1.0)]),
        lambda: series_synthesize(coeffs, np.array([1j])),
        # exponential-form coefficients: integer harmonics numpy can size, finite values
        *(lambda terms=terms: ComplexSeriesCoefficients(terms, 1.0)
          for terms in ({1: math.nan}, {1: complex(0.0, math.inf)}, {1.5: 1.0}, {"a": 1.0},
                        {10 ** 20: 1.0}, {-10 ** 20: 1.0}, {1: "x"}, {1: 10 ** 400})),
    ]
    for call in calls:
        with pytest.raises(InvalidParameter) as info:
            call()
        assert isinstance(info.value, FourierKitError)
        assert isinstance(info.value, ValueError)


def test_numpy_integer_counts_give_the_bits_of_int_counts():
    from fourierkit import dirichlet_sum, series_coefficients, sinc_reconstruct, stft
    w = sample(lambda t: math.cos(0.7 * t) + 0.25 * math.sin(2.3 * t), 0.5, 40)
    thetas = np.linspace(-4.0, 4.0, 33)
    calls = [
        lambda c: stft(w, 1.5, c(3), c(8)).values,
        lambda c: series_coefficients(lambda t: t * t, 1.0, c(5)).cosine,
        lambda c: series_coefficients(lambda t: t * t, 1.0, c(5)).sine,
        lambda c: sinc_reconstruct(w, 7.3, c(6)),
        lambda c: dirichlet_sum(c(4), thetas),
        lambda c: sample(lambda t: math.exp(-t), 0.25, c(17)).samples,
    ]
    for call in calls:
        want = np.asarray(call(int))
        for kind in (np.int64, np.int32, np.uint16):
            assert np.asarray(call(kind)).tobytes() == want.tobytes()


@pytest.mark.parametrize("lower, upper", [(-math.inf, 1.0), (0.0, math.inf),
                                          (-math.inf, math.inf), (math.nan, 1.0),
                                          (-1e308, 1e308),
                                          pytest.param(0.0, 10 ** 400, id="0.0-huge_int"),
                                          pytest.param(-10 ** 400, 0.0, id="-huge_int-0.0")])
def test_quadrature_window_must_be_finite(lower, upper):
    from fourierkit import QuadratureSpec
    with pytest.raises(NonPositiveInterval):
        QuadratureSpec(lower, upper)


def _map_never_called(t):
    raise AssertionError("the map was called")


@pytest.mark.parametrize("name, args", [
    ("sample", (math.cos, math.inf, 4)),
    ("sample_spectrum", (math.cos, math.inf, 4)),
    ("series_coefficients", (math.cos, math.inf, 2)),
    ("half_series_coefficients", (math.cos, math.inf, "cosine", 2)),
    ("alias_frequency", (1.0, math.inf)),
    ("Spectrum", ([1.0, 2.0], 1e308)),
    ("Waveform", ([1.0, 2.0], 1e308)),
    ("sample", (_map_never_called, 1e308, 4)),  # finite interval, overflowing span
    # integers too large for a float
    ("Waveform", ([1.0], 10 ** 400)),
    ("sample", (_map_never_called, 10 ** 400, 4)),
    ("Spectrum", ([1.0], 10 ** 400)),
    # a finite rate whose largest bin frequency overflows
    ("bin_frequencies", (4, 1e308)),
    ("bin_to_frequency", (2, 4, 1e308)),
    ("sample", (_map_never_called, 1j, 4)),  # not a real number
])
def test_intervals_must_be_finite(name, args):
    import fourierkit
    with pytest.raises(NonPositiveInterval):
        getattr(fourierkit, name)(*args)


def test_source_never_delegates_the_transforms():
    # the transforms are implemented here: numpy.fft and scipy are test oracles only
    for path in sorted((Path(__file__).parents[1] / "src" / "fourierkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            for name in names:
                assert not re.match(r"(np|numpy)\.fft\b|scipy\b", name), \
                    f"{path.name}:{node.lineno} uses {name}"


def _object_setattr_scopes(node, scope=""):
    """The dotted class and function scope of each ``object.__setattr__`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _object_setattr_scopes(child, f"{scope}.{child.name}")
        elif isinstance(child, ast.Attribute) and ast.unparse(child) == "object.__setattr__":
            yield scope
        else:
            yield from _object_setattr_scopes(child, scope)


def test_one_rule_writes_the_fields_of_every_value():
    # _ReadOnlyState.__setstate__ is the only code that writes a value's fields, and
    # _ReadOnlyState._of the one private constructor: no type holds its fields its own way
    writers, builders = [], []
    for path in sorted((Path(__file__).parents[1] / "src" / "fourierkit").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        writers += [path.stem + scope for scope in _object_setattr_scopes(tree)]
        builders += [f"{path.stem}.{cls.name}" for cls in ast.walk(tree)
                     if isinstance(cls, ast.ClassDef) for func in cls.body
                     if isinstance(func, ast.FunctionDef) and func.name == "_of"]
    assert writers == ["core._ReadOnlyState.__setstate__"]
    assert builders == ["core._ReadOnlyState"]


def test_cli_writes_tables_from_main_only():
    # commands return their table; main is the one place that writes it
    path = Path(__file__).parents[1] / "src" / "fourierkit" / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    callers = [func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "_write_table"]
    assert callers == ["main"]


PUBLIC_NAMES = set("""
    COMPLEX ComplexSeriesCoefficients EmptyBins EmptySamples FourierKitError FrameTooLong
    GaborAtom ImpulseTrain IndexOutOfRange InvalidParameter LengthMismatch NonFiniteSample
    NonPositiveInterval OddLength ParseError QuadResult QuadratureSpec REAL RealTagViolation
    SegmentedFunction SeriesCoefficients Spectrum TFDistribution ToleranceNotReached
    UncertaintyProduct Waveform ZeroEnergy alias_frequency analytic_signal bin_frequencies
    bin_to_frequency centered config convolve_circular convolve_linear core dft
    dirichlet_closed dirichlet_sum dtft_eval fft from_complex gabor_atom_eval
    gabor_atom_spectrum half_series_coefficients half_transform idft ifft kernels make_comb
    quad_ft rect sample sample_spectrum sampling segmented_eval series series_coefficients
    series_synthesize sift sinc sinc_reconstruct sinc_scaled step stft timefreq to_complex
    transforms uncertainty_product validate_waveform window_rect wvd
""".split())


def test_public_names_resolve_on_first_use():
    # in a fresh interpreter: dir() before any use, then a star import
    code = ("import json, sys, fourierkit\n"
            "listed = [n for n in dir(fourierkit) if not n.startswith('_')]\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('fourierkit.'))\n"
            "names = {}\n"
            "exec('from fourierkit import *', names)\n"
            "print(json.dumps([listed, loaded, sorted(set(names) - {'__builtins__'})]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    listed, loaded, starred = json.loads(proc.stdout)
    assert set(listed) == set(starred) == PUBLIC_NAMES
    assert loaded == []
    import fourierkit
    from fourierkit import sampling, timefreq, transforms
    assert fourierkit.fft is transforms.fft and fourierkit.stft is timefreq.stft
    assert fourierkit.sampling is sampling and sampling.__name__ == "fourierkit.sampling"
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        fourierkit.nonesuch


def test_spectrum_basics():
    s = Spectrum([1.0, 2.0j, -1.0], 0.5)
    assert len(s) == 3
    assert s.bins.dtype == np.complex128
    with pytest.raises(ValueError):
        s.bins[0] = 0.0
    # a spacing whose span over the bins overflows is refused, by its own name
    with pytest.raises(NonPositiveInterval, match="bin_spacing"):
        Spectrum([1.0, 2.0], 1e308)
    # and so is one whose reciprocal, the length of its record, overflows
    with pytest.raises(NonPositiveInterval, match="bin_spacing"):
        Spectrum([1.0, 2.0], 3e-309)


def test_a_subnormal_bin_spacing_with_a_finite_record_is_kept():
    from fourierkit import fft, ifft
    s = fft(Waveform([1.0, 2.0], 8e307))
    assert isinstance(s, Spectrum)
    assert 0.0 < s.bin_spacing < 1e-308
    assert math.isfinite(ifft(s).duration)


@pytest.mark.parametrize("build", [
    lambda: Waveform([1.0, 2.0, 3.0], 1e307, 1.7e308),
    lambda: sample(_map_never_called, 1e307, 4, start_time=1.7e308),
], ids=["Waveform", "sample"])
def test_start_time_must_give_finite_sample_times(build):
    with pytest.raises(InvalidParameter, match="start_time"):
        build()


def test_start_time_near_the_float_limit_builds_when_the_times_stay_finite():
    for start in (-1e308, 1e308):
        w = Waveform([1.0, 2.0], 7e307, start)
        assert np.all(np.isfinite(w.times))
        assert w.times[0] == start


def test_impulse_train_sorts_and_checks_duplicates():
    train = ImpulseTrain(((2.0, 1.0), (-1.0, 3.0), (0.5, -2.0)))
    assert np.array_equal(train.locations(), [-1.0, 0.5, 2.0])
    assert np.array_equal(train.weights(), [3.0, -2.0, 1.0])
    with pytest.raises(ValueError):
        ImpulseTrain(((1.0, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError):
        ImpulseTrain(((0.0, 1.0),), domain="space")


def test_impulse_train_holds_two_read_only_arrays():
    from fourierkit import sift
    train = ImpulseTrain([(2.0, 1), (-1.0, 3j), (0.5, -2.0)], domain="frequency")
    assert train.locations().dtype == np.float64 and train.weights().dtype == np.complex128
    for held in (train.locations(), train.weights()):
        with pytest.raises(ValueError):
            held[0] = 9.0
    assert train.impulses == ((-1.0, 3j), (0.5, -2.0 + 0j), (2.0, 1.0 + 0j))
    assert all(type(loc) is float and type(wt) is complex for loc, wt in train.impulses)
    with pytest.raises(dataclasses.FrozenInstanceError):
        train.domain = "time"
    empty = ImpulseTrain(())
    assert len(empty) == 0 and empty.impulses == ()
    assert sift(empty, np.cos) == 0j and sift(empty, math.cos) == 0j


@pytest.mark.parametrize("count", [1, 2, 7, 100, 1024])
def test_built_trains_equal_the_trains_of_their_pairs(count):
    from fourierkit import make_comb, sample_spectrum, sift
    maps = [lambda x: np.exp(-x * x) * (1.0 + 0.5j * x), lambda x: complex(math.cos(x), x)]
    built = [make_comb(0.1, count, weight=2.0 - 1.0j), make_comb(3e-7, count),
             *(sample_spectrum(m, 0.013, count)[0] for m in maps)]
    for train in built:
        # the same pairs, in reverse order, through the public constructor
        twin = ImpulseTrain(reversed(train.impulses), domain=train.domain)
        assert twin.domain == train.domain
        assert twin.locations().tobytes() == train.locations().tobytes()
        assert twin.weights().tobytes() == train.weights().tobytes()
        for m in maps:
            assert np.array(sift(twin, m)).tobytes() == np.array(sift(train, m)).tobytes()


def test_segmented_function_rejects_bad_pieces():
    with pytest.raises(NonPositiveInterval):
        SegmentedFunction(((1.0, 1.0, lambda x: x),))
    with pytest.raises(ValueError):
        SegmentedFunction(((0.0, 2.0, lambda x: x), (1.0, 3.0, lambda x: x)))


def test_segmented_eval_jump_conventions():
    f = SegmentedFunction((
        (0.0, 1.0, lambda x: 1.0),
        (1.0, 2.0, lambda x: 3.0),
    ))
    # interior points take the covering piece
    assert segmented_eval(f, 0.5) == 1.0
    assert segmented_eval(f, 1.5) == 3.0
    # a junction shared by two pieces averages them
    assert segmented_eval(f, 1.0) == 2.0
    # a boundary against the implicit zero region takes half the inside value
    assert segmented_eval(f, 0.0) == 0.5
    assert segmented_eval(f, 2.0) == 1.5
    # outside every piece the map is zero
    assert segmented_eval(f, -0.1) == 0.0
    assert segmented_eval(f, 2.1) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10 ** 400, 1j, "a", None],
                         ids=["nan", "inf", "-inf", "huge-int", "complex", "str", "None"])
def test_segmented_eval_checks_its_piece_values(bad):
    f = SegmentedFunction(((0.0, 1.0, lambda x: 1.0), (1.0, 2.0, lambda x: bad)))
    for x in (1.5, 1.0, 2.0):  # inside the bad piece, at its junction, at its outer edge
        with pytest.raises(NonFiniteSample, match=rf"^segment map at x = {x!r} "):
            segmented_eval(f, x)
    assert segmented_eval(f, 0.5) == 1.0


# Every public function that takes a caller's map, with a call whose points all
# include 0.75 exactly, and the label its errors name those points by.
_MAP_CALLS = {
    "sample": ("t", lambda m: sample(m, 0.25, 8)),
    "sample_spectrum": ("f", lambda m: fk.sample_spectrum(m, 0.25, 8)),
    "sift": ("t", lambda m: fk.sift(fk.make_comb(0.25, 8), m)),
    "quad_ft": ("t", lambda m: fk.quad_ft(m, 1.0, fk.QuadratureSpec(0.0, 2.0))),
    "half_transform": ("x", lambda m: fk.half_transform(
        m, 1.0, "cosine", fk.QuadratureSpec(0.0, 2.0))),
    "series_coefficients": ("t", lambda m: fk.series_coefficients(m, 1.0, 3)),
    "half_series_coefficients": ("t", lambda m: fk.half_series_coefficients(
        m, 1.0, "sine", 3)),
}
_REAL_MAPS = {"half_transform", "series_coefficients", "half_series_coefficients"}


def test_the_map_sweep_covers_every_public_map_taking_function():
    found = {name for name in fk.__all__ if inspect.isfunction(getattr(fk, name))
             and {"map", "spectrum_map"} & set(inspect.signature(getattr(fk, name)).parameters)}
    assert found == set(_MAP_CALLS)


@pytest.mark.parametrize("array_map", [True, False], ids=["array-map", "scalar-map"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, None, "a", 10 ** 400, 1j],
                         ids=["nan", "inf", "None", "str", "huge-int", "complex"])
@pytest.mark.parametrize("function", sorted(_MAP_CALLS))
def test_every_map_taking_function_refuses_a_bad_map_value(function, bad, array_map):
    """One bad value, at the point 0.75 only, from a map that answers an array or
    from one that takes a Python float only: NonFiniteSample naming the map."""
    label, call = _MAP_CALLS[function]
    if bad == 1j and function not in _REAL_MAPS:
        bad = complex(1.0, math.nan)  # a complex value is no fault there; a NaN in one is

    def point(t):
        return bad if t == 0.75 else 1.0

    def per_array(t):
        return np.array([point(x) for x in t.tolist()])

    name = "spectrum_map" if function == "sample_spectrum" else "map"
    with pytest.raises(NonFiniteSample, match=rf"^{name} ") as info:
        call(per_array if array_map else lambda t: point(float(t)))
    if isinstance(bad, (float, complex)) and not np.isfinite(bad):
        assert str(info.value).endswith(f"non-finite value at {label} = 0.75")
    if bad is None:
        assert re.search(r"must hold \w+ numbers$", str(info.value))


def test_scalar_only_package_functions_serve_as_maps():
    """A package function that refuses an array with its own FourierKitError is
    still a map: the array call fails and each point is evaluated alone."""
    w = Waveform(np.cos(0.4 * np.arange(16.0)), 0.5)
    hat = SegmentedFunction(((0.0, 1.0, lambda x: x), (1.0, 2.0, lambda x: 2.0 - x)))
    for scalar_only in (lambda f: fk.dtft_eval(w, f), lambda t: fk.sinc_reconstruct(w, t, 8),
                        lambda t: segmented_eval(hat, t)):
        with pytest.raises(InvalidParameter):
            scalar_only(np.array([0.25, 0.5]))
    train, _ = fk.sample_spectrum(lambda f: fk.dtft_eval(w, f), 0.125, 8)
    want = [fk.dtft_eval(w, f) for f in train.locations().tolist()]
    assert train.weights().tolist() == want
    got = sample(lambda t: fk.sinc_reconstruct(w, t, 8), 0.25, 12, start_time=0.1)
    want = [fk.sinc_reconstruct(w, t, 8) for t in got.times.tolist()]
    assert got.samples.tolist() == want
    spec = fk.QuadratureSpec(0.0, 2.0)
    got = fk.quad_ft(lambda t: segmented_eval(hat, t), 0.3, spec)
    assert got.converged
    assert got.value == pytest.approx(fk.quad_ft(lambda t: 1.0 - np.abs(t - 1.0), 0.3, spec).value,
                                      abs=1e-12)


def test_a_package_error_from_the_array_call_is_raised_at_once():
    """An array map that refuses one of its points is not called again point by point."""
    atom, calls = GaborAtom(0.0, 1e306, 1.0), []

    def phase_overflows_from_t_28_612(t):
        calls.append(t)
        return fk.gabor_atom_eval(atom, t)

    with pytest.raises(InvalidParameter, match=r"^phase 2\*pi\*f0\*t \+ phase has a non-finite "
                                               r"value at t = 28\.612000000000002$"):
        sample(phase_overflows_from_t_28_612, 1e-3, 100000)
    assert len(calls) == 1


def test_gabor_atom_requires_positive_alpha():
    GaborAtom(0.0, 1.0, 2.0)
    atom = GaborAtom(0, 1, 2)
    assert all(type(getattr(atom, name)) is float for name in ("t0", "f0", "alpha", "phase"))
    with pytest.raises(ValueError):
        GaborAtom(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        GaborAtom(0.0, 1.0, -1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            GaborAtom(0.0, 1.0, bad)


def test_tfdistribution_checks_shape_and_kind():
    vals = np.zeros((2, 3))
    TFDistribution(vals, [0.0, 1.0], [0.0, 1.0, 2.0], kind="wvd-real")
    with pytest.raises(LengthMismatch):
        TFDistribution(vals, [0.0], [0.0, 1.0, 2.0], kind="wvd-real")
    with pytest.raises(ValueError):
        TFDistribution(vals, [0.0, 1.0], [0.0, 1.0, 2.0], kind="scalogram")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kind, dtype", [("wvd-real", np.float64), ("stft-complex", np.complex128)])
def test_tfdistribution_holds_finite_values_of_its_kind(kind, dtype, bad):
    axes = ([0.0, 1.0], [0.0, 1.0, 2.0])
    assert TFDistribution(np.ones((2, 3)), *axes, kind=kind).values.dtype == dtype
    vals = np.zeros((2, 3))
    vals[1, 2] = bad
    with pytest.raises(NonFiniteSample, match="^values has a non-finite value at index 5$"):
        TFDistribution(vals, *axes, kind=kind)
    with pytest.raises(InvalidParameter, match="^time_axis has a non-finite value at index 1$"):
        TFDistribution(np.zeros((2, 3)), [0.0, bad], axes[1], kind=kind)


def test_constructors_freeze_a_view_not_the_callers_array():
    from fourierkit import SeriesCoefficients
    v = np.zeros((2, 3))
    dist = TFDistribution(v, [0.0, 1.0], [0.0, 1.0, 2.0], kind="wvd-real")
    cos = np.zeros(2)
    coeffs = SeriesCoefficients(0.0, cos, np.zeros(2), period=1.0)
    v[0, 0] = 1.0
    cos[0] = 1.0
    for frozen in (dist.values, dist.time_axis, coeffs.cosine, coeffs.sine):
        with pytest.raises(ValueError):
            frozen[0] = 2.0


def _value_types():
    from fourierkit import ComplexSeriesCoefficients, SeriesCoefficients
    return [Waveform([1.0, 2.0], 0.5, 3.0), Waveform([1.0, 2j], 1.0),
            Spectrum([1.0, 2j], 0.25),
            ImpulseTrain(((1.0, 2.0), (0.0, 1j)), domain="frequency"),
            TFDistribution(np.arange(6.0).reshape(2, 3), [0.0, 1.0], [0.0, 1.0, 2.0],
                           kind="wvd-real"),
            SeriesCoefficients(0.5, [1.0, 3.0], [2.0, 4.0], 2.0, (True, False, True, True, True)),
            ComplexSeriesCoefficients({0: 0.5, 2: 1 - 1j, -2: 1 + 1j}, 2.0)]


# The public classes that hold no array.
_SCALAR_ONLY_TYPES = {"GaborAtom", "QuadratureSpec", "QuadResult", "SegmentedFunction",
                      "UncertaintyProduct"}


def test_every_public_value_type_holds_read_only_arrays_or_scalars_only():
    """Each public class is an error, a scalar-only type, or a core._ReadOnlyState
    that the copy test below covers: a new value type must join one of them."""
    classes = {name for name in fk.__all__ if inspect.isclass(getattr(fk, name))}
    errors = {name for name in classes if issubclass(getattr(fk, name), FourierKitError)}
    covered = {type(value).__name__ for value in _value_types()}
    assert _SCALAR_ONLY_TYPES <= classes
    assert classes - errors - _SCALAR_ONLY_TYPES == covered
    assert all(issubclass(getattr(fk, name), fk.core._ReadOnlyState) for name in covered)


@pytest.mark.parametrize("value", _value_types(),
                         ids=["waveform-real", "waveform-complex", "spectrum", "impulse-train",
                              "tf-distribution", "series-coefficients",
                              "complex-series-coefficients"])
@pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                     lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_unpickled_values_keep_read_only_arrays(value, copy_of):
    got = copy_of(value)
    assert type(got) is type(value)
    fields, want = vars(got), vars(value)
    assert fields.keys() == want.keys()
    arrays = [name for name, v in want.items() if isinstance(v, np.ndarray)]
    assert arrays
    for name in arrays:
        assert not fields[name].flags.writeable
        assert fields[name].dtype == want[name].dtype
        assert fields[name].tobytes() == want[name].tobytes()
        with pytest.raises(ValueError):
            fields[name][0] = 7.0
    assert {k: v for k, v in fields.items() if k not in arrays} == \
        {k: v for k, v in want.items() if k not in arrays}


def test_load_config_defaults_to_empty(monkeypatch):
    monkeypatch.delenv(config.CONFIG_ENV_VAR, raising=False)
    assert config.load_config() == {}


def test_load_config_parses_file(tmp_path, monkeypatch):
    cfg = tmp_path / "fourierkit.conf"
    cfg.write_text(
        "# comment line\n"
        "\n"
        "quad_tolerance = 1e-8   # trailing comment\n"
        "fft_strategy=dft\n",
        encoding="utf-8",
    )
    monkeypatch.setenv(config.CONFIG_ENV_VAR, str(cfg))
    assert config.load_config() == {"quad_tolerance": "1e-8", "fft_strategy": "dft"}
    # explicit path wins over the environment
    assert config.load_config(str(cfg))["fft_strategy"] == "dft"


def test_load_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("fft_stragety=dft\n", encoding="utf-8")
    with pytest.raises(ValueError):
        config.load_config(str(cfg))


def test_load_config_rejects_missing_equals(tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("quad_tolerance\n", encoding="utf-8")
    with pytest.raises(ValueError):
        config.load_config(str(cfg))


@pytest.mark.parametrize("line", ["quad_tolerance", "fft_stragety=dft"])
def test_load_config_errors_are_parse_errors(tmp_path, line):
    cfg = tmp_path / "bad.conf"
    cfg.write_text(f"# header\n{line}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{cfg}:2: ")):
        config.load_config(str(cfg))
