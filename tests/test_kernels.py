import dataclasses
import math
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoshoot import (
    ConfigurationError,
    DegenerateConfigurationError,
    KernelFamily,
    KernelSpec,
    gram_matrix,
    kernel_derivative,
    kernel_value,
    momenta_from_velocity,
    pairwise_distances,
    circle,
    heart4,
)
from geoshoot import kernels

# Frozen from 50-digit mpmath evaluations of
# C r^(nu-1) K_(nu-1)(r/alpha), C = 2^(1-nu) / (2 pi alpha^(1+nu) Gamma(nu)),
# normalized by the peak 1 / (4 pi alpha^2 (nu-1)).
BESSEL_ORACLE = [
    # (nu, alpha, r, normalized value, normalized derivative)
    (2.0, 1.0, 1.0, 0.60190723019723457474, -0.42102443824070833334),
    (2.5, 0.8, 0.7, 0.78161628689720329281, -0.45594283402336853324),
]
BESSEL_UNNORM_ORACLE = (2.0, 1.0, 1.0, 0.04789825548432060726)


def test_bessel_value_and_derivative_match_oracle():
    for nu, alpha, r, value, deriv in BESSEL_ORACLE:
        spec = KernelSpec(family="bessel", nu=nu, alpha=alpha)
        assert kernel_value(spec, r) == pytest.approx(value, rel=1e-13)
        assert kernel_derivative(spec, r) == pytest.approx(deriv, rel=1e-13)


def test_bessel_unnormalized_oracle():
    nu, alpha, r, value = BESSEL_UNNORM_ORACLE
    spec = KernelSpec(family="bessel", nu=nu, alpha=alpha, normalized=False)
    assert kernel_value(spec, r) == pytest.approx(value, rel=1e-13)


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("nu", [2.5, 5.0])
def test_bessel_kernel_vanishes_at_decayed_radii(nu, normalized):
    """Far out, K_mu underflows to 0 while r**mu overflows; the kernel and
    its slope are 0 there, not G(0) or NaN, and nothing warns."""
    spec = KernelSpec(family="bessel", nu=nu, normalized=normalized)
    radii = np.array([1e3, 1e150, 1e250, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in radii:
            assert kernel_value(spec, r) == 0.0
            assert kernel_derivative(spec, r) == 0.0
        assert np.array_equal(kernel_value(spec, radii), np.zeros(4))
        assert np.array_equal(kernel_derivative(spec, radii), np.zeros(4))


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("nu", [2.5, 5.0])
def test_bessel_kernel_peaks_with_zero_slope_at_tiny_radii(nu, normalized):
    """At tiny radii r**(nu-1) underflows to 0 while K_(nu-2) overflows;
    the slope is 0 there, its limit, not 0 * inf = NaN, and the value is
    G(0); nothing warns."""
    spec = KernelSpec(family="bessel", nu=nu, normalized=normalized)
    radii = np.array([1e-300, 1e-320])
    peak = kernel_value(spec, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in radii:
            assert kernel_value(spec, r) == peak
            assert kernel_derivative(spec, r) == 0.0
        assert np.array_equal(kernel_value(spec, radii), np.full(2, peak))
        assert np.array_equal(kernel_derivative(spec, radii), np.zeros(2))


def test_conical_equals_bessel_at_nu_three_halves():
    """The nu = 3/2 Bessel kernel collapses to the exponential closed form."""
    r = np.linspace(0.05, 12.0, 60)
    for normalized in (True, False):
        for alpha in (0.6, 1.0, 1.7):
            conical = KernelSpec(family="conical", alpha=alpha, normalized=normalized)
            bessel = KernelSpec(
                family="bessel", nu=1.5, alpha=alpha, normalized=normalized
            )
            np.testing.assert_allclose(
                kernel_value(conical, r), kernel_value(bessel, r), rtol=1e-12
            )
            np.testing.assert_allclose(
                kernel_derivative(conical, r),
                kernel_derivative(bessel, r),
                rtol=1e-11,
            )


def test_normalized_kernels_peak_at_one():
    for family, nu in (("conical", 1.5), ("gaussian", 1.5), ("bessel", 2.0)):
        spec = KernelSpec(family=family, nu=nu, alpha=0.9)
        assert kernel_value(spec, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_unnormalized_peaks():
    alpha = 1.3
    conical = KernelSpec(family="conical", alpha=alpha, normalized=False)
    assert kernel_value(conical, 0.0) == pytest.approx(
        1.0 / (2.0 * math.pi * alpha**2), rel=1e-14
    )
    bessel = KernelSpec(family="bessel", nu=2.5, alpha=alpha, normalized=False)
    assert kernel_value(bessel, 0.0) == pytest.approx(
        1.0 / (4.0 * math.pi * alpha**2 * 1.5), rel=1e-14
    )


def test_conical_half_value_point():
    spec = KernelSpec(family="conical", alpha=0.7)
    assert kernel_value(spec, 0.7 * math.log(2.0)) == pytest.approx(0.5, rel=1e-14)


def test_gaussian_value():
    spec = KernelSpec(family="gaussian", alpha=1.0)
    assert kernel_value(spec, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-14)


def test_gaussian_slope_is_zero_where_r_over_alpha2_overflows():
    """Past r = 1.8e308 alpha^2, r / alpha^2 overflows while the value has
    underflowed to 0; the slope is 0 there, not inf * 0 = NaN, and
    nothing warns."""
    radii = np.array([1e308, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for normalized in (True, False):
            spec = KernelSpec(family="gaussian", alpha=0.7, normalized=normalized)
            assert kernel_derivative(spec, 1e308) == 0.0
            assert np.array_equal(kernel_value(spec, radii), np.zeros(2))
            assert np.array_equal(kernel_derivative(spec, radii), np.zeros(2))


def test_spec_keeps_its_constants_outside_its_fields():
    """A spec computes its evaluation constants once, when it is built.
    A replaced or unpickled spec carries the constants of a fresh spec
    with the same fields, and the stored constants take no part in
    equality, hash, repr or asdict, so a spec still keys a cache."""
    for family, nu in (("conical", 1.5), ("gaussian", 1.5), ("bessel", 2.5)):
        fields = {"family": KernelFamily(family), "nu": nu, "alpha": 0.8, "normalized": False}
        spec = KernelSpec(**fields)
        assert spec._k[2] == kernel_value(spec, 0.0)  # G(0)
        wider = dataclasses.replace(spec, alpha=1.3)
        assert wider._k == KernelSpec(**{**fields, "alpha": 1.3})._k != spec._k
        again = pickle.loads(pickle.dumps(spec))
        assert again._k == spec._k
        assert again == spec and hash(again) == hash(spec)
        assert {spec: "gram"}[KernelSpec(**fields)] == "gram"
        assert dataclasses.asdict(spec) == fields
        assert repr(spec) == (
            f"KernelSpec(family={KernelFamily(family)!r}, nu={nu}, alpha=0.8, normalized=False)"
        )


def _fd_derivative(spec, r):
    # Richardson-extrapolated central difference, O(step^4).
    step = 1e-4 * max(1.0, r)

    def central(h):
        return (kernel_value(spec, r + h) - kernel_value(spec, r - h)) / (2.0 * h)

    return (4.0 * central(step / 2.0) - central(step)) / 3.0


@settings(max_examples=120, deadline=None)
@given(
    family=st.sampled_from(["conical", "gaussian", "bessel"]),
    alpha=st.floats(0.5, 2.0),
    r=st.floats(0.01, 20.0),
)
def test_derivative_matches_finite_differences(family, alpha, r):
    spec = KernelSpec(family=family, nu=2.2, alpha=alpha)
    exact = kernel_derivative(spec, r)
    fd = _fd_derivative(spec, r)
    scale = max(abs(exact), abs(fd))
    if scale < 1e-30:
        return  # both underflowed; relative error is meaningless
    assert abs(exact - fd) / scale <= 1e-8


def test_gram_matrices_are_spd():
    for template in (circle(2.0, n=32), heart4(32)):
        for family in ("conical", "gaussian", "bessel"):
            spec = KernelSpec(family=family, nu=2.0)
            k = gram_matrix(spec, template.points)
            np.testing.assert_allclose(k, k.T, atol=1e-15)
            assert np.linalg.eigvalsh(k).min() > 0


def test_momenta_round_trip():
    spec = KernelSpec()
    pts = circle(2.0, n=24).points
    rng = np.random.default_rng(7)
    u = rng.normal(size=pts.shape)
    p = momenta_from_velocity(spec, pts, u)
    k = gram_matrix(spec, pts)
    np.testing.assert_allclose(k @ p, u, atol=1e-10)


def test_pairwise_distances_basic():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    d = pairwise_distances(pts)
    assert d[0, 1] == pytest.approx(5.0)
    assert d[1, 0] == pytest.approx(5.0)
    assert d[0, 2] == pytest.approx(1.0)
    np.testing.assert_array_equal(np.diag(d), np.zeros(3))


def test_scalar_and_array_agree():
    spec = KernelSpec(family="bessel", nu=2.0)
    r = np.array([0.3, 1.1, 4.0])
    vals = kernel_value(spec, r)
    for i, ri in enumerate(r):
        scalar = kernel_value(spec, float(ri))
        assert isinstance(scalar, float)
        assert scalar == pytest.approx(vals[i], rel=1e-15)


def test_domain_validation():
    spec = KernelSpec()
    with pytest.raises(ValueError):
        kernel_value(spec, -0.1)
    with pytest.raises(ValueError):
        kernel_derivative(spec, 0.0)
    with pytest.raises(ValueError):
        kernel_derivative(spec, np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        kernel_value(spec, math.nan)
    with pytest.raises(ValueError):
        kernel_derivative(spec, np.array([1.0, np.nan]))


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        KernelSpec(alpha=0.0)
    with pytest.raises(ConfigurationError):
        KernelSpec(alpha=math.inf)
    with pytest.raises(ConfigurationError):
        KernelSpec(family="bessel", nu=1.0)
    # Widths and orders whose constants vanish or overflow.
    for kw in (
        {"alpha": 1e-300},
        {"alpha": 1e200},
        {"family": "gaussian", "alpha": 1e200},
        {"family": "bessel", "nu": 1e308},
    ):
        with pytest.raises(ConfigurationError, match="alpha=.*, nu="):
            KernelSpec(**kw)
    with pytest.raises(ValueError):
        KernelSpec(family="triangular")


def test_low_order_bessel_warns_but_evaluates():
    with pytest.warns(UserWarning, match="cusp") as caught:
        spec = KernelSpec(family="bessel", nu=1.2)
    # The warning names the line that built the spec, not the dataclass
    # __init__ that calls __post_init__.
    assert caught[0].filename == __file__
    assert 0.0 < kernel_value(spec, 0.5) < 1.0


def test_gram_rejects_coincident_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DegenerateConfigurationError, match="coincide"):
        gram_matrix(KernelSpec(), pts)
    with pytest.raises(ValueError):
        gram_matrix(KernelSpec(), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        gram_matrix(KernelSpec(), np.array([[0.0, 0.0], [1.0, np.nan]]))
    # Points 3 and 5 coincide; in blocks of two rows they sit in different
    # blocks, and the error still names their global indices.
    pts = circle(1.0, n=6).points.copy()
    pts[5] = pts[3]
    with mock.patch.object(kernels, "_BLOCK_ENTRIES", 2 * 6):
        with pytest.raises(DegenerateConfigurationError, match="points 3 and 5"):
            gram_matrix(KernelSpec(), pts)


def test_gram_matrix_of_points_near_the_float_limit():
    """Distances between coordinates near 1e308 overflow to inf, where
    every family's G is 0: the Gram matrix of a radius-1e308 circle is
    the identity, and nothing warns."""
    pts = circle(1e308, n=8).points
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for family in KernelFamily:
            kmat = gram_matrix(KernelSpec(family=family, nu=2.5, alpha=0.7), pts)
            np.testing.assert_array_equal(kmat, np.eye(8))


def test_gram_mirrors_upper_blocks_bit_for_bit():
    """At N = 300 the Gram build splits into upper row blocks and mirrors
    each block's strictly upper part; d_ij == d_ji exactly, so the matrix
    is exactly symmetric and equal to the one-block build."""
    n = 300
    assert len(kernels._plan(n, n)[0]) > 1
    pts = heart4(n).points
    for family in KernelFamily:
        spec = KernelSpec(family=family, nu=2.5)
        split = gram_matrix(spec, pts)
        with mock.patch.object(kernels, "_BLOCK_ENTRIES", n * n):
            whole = gram_matrix(spec, pts)
        np.testing.assert_array_equal(split, split.T)
        np.testing.assert_array_equal(split, whole)


def test_gram_is_identical_under_every_block_budget():
    """The Gram matrix is elementwise, so no row split may change a bit."""
    pts = heart4(12).points
    for family in KernelFamily:
        spec = KernelSpec(family=family, nu=2.5)
        whole = gram_matrix(spec, pts)
        for budget in range(1, 12 * 12 + 1):
            with mock.patch.object(kernels, "_BLOCK_ENTRIES", budget):
                np.testing.assert_array_equal(gram_matrix(spec, pts), whole)


def test_scipy_special_loads_only_for_bessel_kernels():
    """A conical match never imports scipy.special; a bessel kernel
    imports it on first use."""
    code = "\n".join([
        "import sys",
        "from geoshoot import KernelSpec, ShootingConfig, circle, kernel_value, match",
        "assert match(circle(1.0, n=6), circle(1.3, n=6), ShootingConfig(h=0.5)).converged",
        "assert 'scipy.special' not in sys.modules, 'loaded by a conical match'",
        "kernel_value(KernelSpec(family='bessel', nu=2.5), 1.0)",
        "assert 'scipy.special' in sys.modules, 'not loaded by a bessel kernel'",
    ])
    src = str(Path(kernels.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
