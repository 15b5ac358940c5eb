"""Fourier analysis toolkit.

Series coefficients and synthesis, discrete and numerically integrated
transforms, sampling and reconstruction, and a Gabor/Wigner-Ville
time-frequency layer, all on small immutable value types.

Public names are resolved on first use (PEP 562), so a process imports only
the submodules it touches: ``from fourierkit import fft`` loads
``fourierkit.transforms`` and what it needs, and no more.
"""

_NAMES = {
    "core": (
        "COMPLEX", "EmptyBins", "EmptySamples", "FourierKitError", "FrameTooLong", "GaborAtom",
        "ImpulseTrain", "IndexOutOfRange", "InvalidParameter", "LengthMismatch",
        "NonFiniteSample", "NonPositiveInterval", "OddLength", "ParseError", "REAL",
        "RealTagViolation", "SegmentedFunction", "Spectrum", "TFDistribution",
        "ToleranceNotReached", "Waveform", "ZeroEnergy", "segmented_eval", "validate_waveform",
    ),
    "kernels": (
        "dirichlet_closed", "dirichlet_sum", "make_comb", "rect", "sift", "sinc", "sinc_scaled",
        "step",
    ),
    "transforms": (
        "QuadResult", "QuadratureSpec", "bin_frequencies", "bin_to_frequency", "centered", "dft",
        "dtft_eval", "fft", "half_transform", "idft", "ifft", "quad_ft",
    ),
    "series": (
        "ComplexSeriesCoefficients", "SeriesCoefficients", "from_complex",
        "half_series_coefficients", "series_coefficients", "series_synthesize", "to_complex",
    ),
    "sampling": (
        "alias_frequency", "convolve_circular", "convolve_linear", "sample", "sample_spectrum",
        "sinc_reconstruct", "window_rect",
    ),
    "timefreq": (
        "UncertaintyProduct", "analytic_signal", "gabor_atom_eval", "gabor_atom_spectrum", "stft",
        "uncertainty_product", "wvd",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}
_SUBMODULES = ("config", *_NAMES)

__all__ = [*_SUBMODULES, *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
