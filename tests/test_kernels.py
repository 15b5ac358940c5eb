"""Kernel identities: Dirichlet forms, rect/sinc/step conventions, combs."""

import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fourierkit import (
    ImpulseTrain,
    NonPositiveInterval,
    QuadratureSpec,
    dirichlet_closed,
    dirichlet_sum,
    make_comb,
    quad_ft,
    rect,
    sift,
    sinc,
    sinc_scaled,
    step,
)


@pytest.mark.parametrize("i", [0, 1, 2, 5, 20, 50])
def test_dirichlet_sum_matches_closed_form(i):
    rng = np.random.default_rng(100 + i)
    theta = rng.uniform(-3.0 * np.pi, 3.0 * np.pi, 1000)
    diff = np.abs(dirichlet_sum(i, theta) - dirichlet_closed(i, theta))
    assert np.max(diff) <= 1e-10


@pytest.mark.parametrize("i", [0, 3, 11])
@pytest.mark.parametrize("theta", [0.0, 2.0 * np.pi, -2.0 * np.pi, 4.0 * np.pi])
def test_dirichlet_closed_limit_at_full_turns(i, theta):
    # the quotient form is 0/0 there; both forms must give i + 1/2
    assert dirichlet_closed(i, theta) == pytest.approx(i + 0.5, abs=1e-9)
    assert dirichlet_sum(i, theta) == pytest.approx(i + 0.5, abs=1e-9)


@pytest.mark.parametrize("i", [5, 50])
def test_dirichlet_closed_stays_accurate_near_full_turns(i):
    # just off a turn the denominator is tiny; rounding in the numerator
    # must not come through divided by it
    off = np.array([1e-12, 1e-9, 1e-7, 1e-5, 1e-3])
    theta = np.concatenate([2.0 * np.pi + off, 2.0 * np.pi - off,
                            -2.0 * np.pi + off, -2.0 * np.pi - off])
    dev = np.abs(dirichlet_sum(i, theta) - dirichlet_closed(i, theta))
    assert np.max(dev) <= 1e-12


@pytest.mark.parametrize("i", [0, 1, 5, 20])
def test_dirichlet_integral_over_period_is_pi(i):
    spec = QuadratureSpec(-math.pi, math.pi, abs_tolerance=1e-8)
    result = quad_ft(lambda th: dirichlet_closed(i, th), 0.0, spec)
    assert result.converged
    assert abs(result.value - math.pi) <= 1e-6


def test_dirichlet_rejects_negative_order():
    with pytest.raises(ValueError):
        dirichlet_sum(-1, 0.3)
    with pytest.raises(ValueError):
        dirichlet_closed(-1, 0.3)


def test_rect_values_and_edges():
    assert rect(0.0) == 1.0
    assert rect(0.49) == 1.0
    assert rect(0.5) == 0.5
    assert rect(-0.5) == 0.5
    assert rect(0.51) == 0.0
    # width other than 1
    assert rect(1.4, width=3.0) == 1.0
    assert rect(1.5, width=3.0) == 0.5
    assert rect(-1.5, width=3.0) == 0.5
    assert rect(1.6, width=3.0) == 0.0


def test_rect_array_input():
    out = rect(np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
    assert np.array_equal(out, [0.0, 0.5, 1.0, 0.5, 0.0])


def test_rect_rejects_bad_width():
    with pytest.raises(NonPositiveInterval):
        rect(0.0, width=0.0)


def test_sinc_values():
    assert sinc(0.0) == 1.0
    for k in (1, 2, 3, -1, -5):
        assert abs(sinc(float(k))) <= 1e-15
    assert sinc(0.5) == pytest.approx(2.0 / math.pi, rel=1e-14)
    out = sinc(np.array([0.0, 1.0, 0.5]))
    assert out[0] == 1.0 and abs(out[1]) <= 1e-15


def test_sinc_scaled_is_rect_transform_shape():
    # width w rectangle transforms to w * sinc(w f): value w at f=0,
    # zeros at multiples of 1/w
    assert sinc_scaled(0.0, 2.5) == 2.5
    for k in (1, 2, 3):
        assert abs(sinc_scaled(k / 2.5, 2.5)) <= 1e-12
    with pytest.raises(NonPositiveInterval):
        sinc_scaled(0.0, -1.0)


def test_step_values():
    assert step(-3.0) == 0.0
    assert step(3.0) == 1.0
    assert step(0.0) == 0.5
    assert np.array_equal(step(np.array([-1.0, 0.0, 2.0])), [0.0, 0.5, 1.0])


def test_make_comb_layout():
    train = make_comb(0.25, 5)
    assert len(train) == 5
    assert np.allclose(train.locations(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.all(train.weights() == 1.0)
    assert train.domain == "time"

    weighted = make_comb(1.0, 3, weight=2.0 - 1.0j, domain="frequency")
    assert np.all(weighted.weights() == 2.0 - 1.0j)
    assert weighted.domain == "frequency"


def test_make_comb_validation():
    with pytest.raises(NonPositiveInterval):
        make_comb(0.0, 4)
    with pytest.raises(ValueError):
        make_comb(1.0, 0)


# Run in a child whose address space is capped, so that a comb built point by
# point in Python objects fails at the cap instead of growing without end.
_HUGE_COMB = """
import resource, sys
cap = 512 << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from fourierkit import make_comb
try:
    print(len(make_comb(1.0, int(sys.argv[1]))), end=" ")
except MemoryError:
    print("MemoryError", end=" ")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _capped_comb(count: int) -> tuple[str, int]:
    """make_comb(1.0, count) in a capped child: its length or "MemoryError", and its peak KiB."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _HUGE_COMB, str(count)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result, peak_kib = proc.stdout.split()
    return result, int(peak_kib)


_CAPPED = pytest.mark.skipif(not sys.platform.startswith("linux"),
                             reason="needs RLIMIT_AS, and ru_maxrss in KiB")


@_CAPPED
def test_make_comb_of_a_huge_count_fails_before_it_grows():
    result, peak_kib = _capped_comb(10 ** 17)
    assert result == "MemoryError"
    assert peak_kib < 200 << 10  # about 30 MiB after imports; the cap is 512


@_CAPPED
def test_make_comb_of_a_count_whose_arrays_fit_returns_under_the_cap():
    # two million impulses are 48 MB of arrays, but about 400 MB as a tuple of Python pairs
    result, peak_kib = _capped_comb(2 * 10 ** 6)
    assert result == str(2 * 10 ** 6)
    assert peak_kib < 300 << 10


def test_sift_is_weighted_sample_sum():
    train = make_comb(0.5, 4, weight=0.25)
    got = sift(train, lambda t: math.cos(2.0 * math.pi * t))
    want = 0.25 * sum(math.cos(2.0 * math.pi * 0.5 * k) for k in range(4))
    assert got == pytest.approx(want, abs=1e-15)


def test_sift_complex_map():
    train = make_comb(1.0, 3)
    got = sift(train, lambda t: complex(t, -t))
    assert got == pytest.approx(3.0 - 3.0j, abs=1e-15)


def test_sift_array_map_is_called_once():
    train = ImpulseTrain(((-1.0, 2.0), (0.5, 1j), (2.0, -0.5)))
    shapes = []

    def tone(t):
        shapes.append(np.shape(t))
        return np.exp(1j * np.asarray(t))

    got = sift(train, tone)
    want = sum(wt * cmath.exp(1j * loc) for loc, wt in train.impulses)
    assert shapes == [(3,)]
    assert got == pytest.approx(want, abs=1e-15)
