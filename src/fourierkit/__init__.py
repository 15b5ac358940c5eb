"""Fourier analysis toolkit.

Series coefficients and synthesis, discrete and numerically integrated
transforms, sampling and reconstruction, and a Gabor/Wigner-Ville
time-frequency layer, all on small immutable value types.
"""

from .core import (
    COMPLEX,
    EmptyBins,
    EmptySamples,
    FourierKitError,
    FrameTooLong,
    GaborAtom,
    ImpulseTrain,
    IndexOutOfRange,
    InvalidParameter,
    LengthMismatch,
    NonFiniteSample,
    NonPositiveInterval,
    OddLength,
    ParseError,
    REAL,
    RealTagViolation,
    SegmentedFunction,
    Spectrum,
    TFDistribution,
    ToleranceNotReached,
    Waveform,
    ZeroEnergy,
    segmented_eval,
    validate_waveform,
)
from .kernels import (
    dirichlet_closed,
    dirichlet_sum,
    make_comb,
    rect,
    sift,
    sinc,
    sinc_scaled,
    step,
)
from .transforms import (
    QuadResult,
    QuadratureSpec,
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
)
from .series import (
    ComplexSeriesCoefficients,
    SeriesCoefficients,
    from_complex,
    half_series_coefficients,
    series_coefficients,
    series_synthesize,
    to_complex,
)
from .sampling import (
    alias_frequency,
    convolve_circular,
    convolve_linear,
    sample,
    sample_spectrum,
    sinc_reconstruct,
    window_rect,
)
from .timefreq import (
    UncertaintyProduct,
    analytic_signal,
    gabor_atom_eval,
    gabor_atom_spectrum,
    stft,
    uncertainty_product,
    wvd,
)

__version__ = "0.1.0"
