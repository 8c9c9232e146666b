import dataclasses
import math
import os
import pickle
import platform
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
    EvolveConfig,
    KernelFamily,
    KernelSpec,
    LandmarkTemplate,
    MatchResult,
    ParticleState,
    ShootingConfig,
    SystemSpec,
    gram_matrix,
    hamiltonian,
    kernel_derivative,
    kernel_value,
    match,
    momenta_from_velocity,
    pairwise_distances,
    circle,
    heart4,
    rhs,
    velocity_field,
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


RADII = np.concatenate(
    ([0.0, 5e-324, 1e-320], np.geomspace(1e-8, 30.0, 2000), [1e308, 1.7e308])
)


@pytest.mark.parametrize("alpha", [2.0**-4, 0.5, 1.0, 2.0, 16.0])
def test_exact_reciprocals_give_the_division_bits(alpha):
    """At a power-of-two width the spec records exact reciprocals, and
    every family's G and dG/dr, in both normalizations, from 0 and the
    subnormals to 1.7e308, are the bits of the division form (the same
    constants marked inexact); the value-only evaluation gives that G."""
    families = [("conical", 1.5), ("gaussian", 1.5), ("bessel", 2.0), ("bessel", 2.5)]
    with np.errstate(all="ignore"):  # radii / alpha overflow near 1.7e308
        for family, nu in families:
            for normalized in (True, False):
                spec = KernelSpec(family=family, nu=nu, alpha=alpha, normalized=normalized)
                assert spec._k[-1] is True
                divided = kernels._kernel_terms(spec, RADII, spec._k[:-1] + (False,))
                multiplied = kernels._kernel_terms(spec, RADII)
                for got, want in zip(multiplied, divided):
                    assert got.tobytes() == want.tobytes(), (family, normalized)
                value, slope = kernels._kernel_terms(spec, RADII, slope=False)
                assert slope is None and value.tobytes() == divided[0].tobytes()


def test_spec_records_whether_its_reciprocals_are_exact():
    """Only a power-of-two width whose reciprocals 1 / alpha and
    1 / alpha**2 are finite counts as exact: at 2**-512, alpha**2 is
    2**-1024 and its reciprocal overflows, so that spec divides (the
    bessel factor rules out such widths)."""
    for family in KernelFamily:
        for alpha, exact in [(1.0, True), (0.5, True), (0.7, False), (math.sqrt(0.4), False)]:
            assert KernelSpec(family=family, nu=2.5, alpha=alpha)._k[-1] is exact, (alpha, family)
    for family in ("conical", "gaussian"):
        for alpha, exact in [(2.0**-511, True), (2.0**500, True), (2.0**-512, False), (3.0, False)]:
            assert KernelSpec(family=family, alpha=alpha)._k[-1] is exact, (alpha, family)


def test_value_only_passes_evaluate_one_bessel_order():
    """gram_matrix and velocity_field keep only G, so a bessel kernel
    calls kv once per block, not twice, and G keeps the bits of the full
    evaluation."""
    import scipy.special

    n = 300
    pts = heart4(n).points
    spec = KernelSpec(family="bessel", nu=2.5)
    state = ParticleState(pts, np.random.default_rng(1).normal(size=(n, 2)))
    x = pts[::2] + 0.1
    with mock.patch.object(scipy.special, "kv", wraps=scipy.special.kv) as kv:
        kmat = gram_matrix(spec, pts)
        assert kv.call_count == len(kernels._plan(n, n)[0]) > 1
        kv.reset_mock()
        u = velocity_field(SystemSpec(spec), state, x)
        assert kv.call_count == len(kernels._plan(len(x), n)[0]) > 1
    assert kmat.tobytes() == kernels._kernel_terms(spec, pairwise_distances(pts))[0].tobytes()
    full = kernels._kernel_terms(spec, pairwise_distances(x, pts))[0]
    assert u.tobytes() == (full @ state.p).tobytes()


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


@pytest.mark.parametrize("shape", [(4, 3), (3,), (3, 1)], ids=["4x3", "3", "3x1"])
def test_pairwise_distances_accepts_only_planar_points(shape):
    """A third coordinate is not dropped ([[0, 0, 5], [3, 4, 0]] is not
    5 apart) and a 1-D input is no IndexError: as points or as others,
    anything but (..., M, 2) raises ValueError."""
    bad, good = np.zeros(shape), np.zeros((3, 2))
    for args in ((bad,), (bad, good), (good, bad)):
        with pytest.raises(ValueError, match=r"must have shape \(\.\.\., M, 2\)"):
            pairwise_distances(*args)


def _plain_distances(points, others):
    """The plain broadcast formula that pairwise_distances must equal."""
    dx = points[..., :, 0, None] - others[..., None, :, 0]
    dy = points[..., :, 1, None] - others[..., None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def _bits(d):
    """Shape and bytes of a distance array, every NaN made one quiet NaN:
    the sign bit of a NaN follows each dgemm kernel's operand order."""
    d = np.array(d)
    d[np.isnan(d)] = np.nan
    return d.shape, d.tobytes()


def _distance_battery() -> dict:
    """(points, others) pairs on both sides of kernels._PRODUCT_ENTRIES
    (2048 entries of the whole stack), with broadcasting batch axes,
    Fortran order, strides and float limits."""
    rng = np.random.default_rng(11)
    cases = {
        f"{m}x{n}": (10.0 * rng.normal(size=(m, 2)), rng.normal(size=(n, 2)))
        for m, n in [
            (3, 5), (31, 33), (32, 32), (45, 45), (32, 64), (1, 1024), (1024, 1), (64, 64), (37, 200)
        ]
    }
    cases["batch-4x6x7"] = (rng.normal(size=(4, 6, 2)), rng.normal(size=(7, 2)))
    cases["batch-3x40x50"] = (rng.normal(size=(3, 40, 2)), rng.normal(size=(50, 2)))
    cases["batch-others"] = (rng.normal(size=(40, 2)), rng.normal(size=(3, 50, 2)))
    cases["batch-both"] = (rng.normal(size=(2, 1, 40, 2)), rng.normal(size=(3, 50, 2)))
    wide = rng.normal(size=(130, 5))
    cases["fortran"] = tuple(np.asfortranarray(rng.normal(size=(k, 2))) for k in (64, 48))
    cases["strided"] = (wide[::2, 1:4:2], wide[::-3, [4, 0]][:, ::-1])
    signed_zeros = rng.choice([0.0, -0.0], size=(2, 40, 2))
    cases["signed-zeros"] = tuple(signed_zeros)
    same = rng.normal(size=(40, 2))
    same[::4] = same[1]
    cases["coincident"] = (same, same)
    limits = np.array(
        [0.0, -0.0, 1e-320, -1e-320, 1e308, -1e308, np.inf, -np.inf, np.nan, 1.0, -2.5]
    )
    for m, n in [(6, 5), (64, 48)]:
        cases[f"limits-{m}x{n}"] = (rng.choice(limits, size=(m, 2)), rng.choice(limits, size=(n, 2)))
    # Passes of several blocks (109 rows against themselves, 163 against
    # 200 others), and of none.
    for m, n in [(300, 200), (0, 5), (5, 0)]:
        cases[f"{m}x{n}"] = (10.0 * rng.normal(size=(m, 2)), rng.normal(size=(n, 2)))
    return cases


DISTANCE_BATTERY = _distance_battery()


@pytest.mark.parametrize("case", list(DISTANCE_BATTERY))
def test_pairwise_distances_equal_the_plain_formula(case):
    """Byte for byte, NaN for NaN, at the default size rule and with every
    block taking the BLAS product."""
    points, others = DISTANCE_BATTERY[case]
    with np.errstate(all="ignore"):
        want = _bits(_plain_distances(points, others))
        assert _bits(pairwise_distances(points, others)) == want
        assert _bits(pairwise_distances(points)) == _bits(_plain_distances(points, points))
        with mock.patch.object(kernels, "_PRODUCT_ENTRIES", 1):
            assert _bits(pairwise_distances(points, others)) == want


def _poisoned(pts, n):
    """Product operands full of NaN for a pass of ``pts`` against n others."""
    return np.full((2,) + pts.shape, np.nan), np.full((2,) + pts.shape[:-2] + (2, n), np.nan)


def test_product_threshold_counts_the_entries_of_the_whole_stack():
    """A pass takes the BLAS product from 2048 entries of the whole stack,
    B x M x N: one 32 x 32 block (1024) takes the broadcast, and stacks
    of two (2048, the threshold itself) and of four the product.
    Operands full of NaN show the path each pass took; the coincidence
    test follows the same rule."""
    rng = np.random.default_rng(3)
    for batch, product in (((), False), ((2,), True), ((4,), True)):
        pts = rng.normal(size=batch + (32, 2))
        with mock.patch.object(kernels, "_operands", return_value=_poisoned(pts, 32)) as ops:
            nan = np.isnan(pairwise_distances(pts))
            [(s, e, upper)] = kernels._blocks(pts)
        assert ops.call_count == 2 * product and (s, e) == (0, 32)
        if product:
            assert nan.all() and np.isnan(upper).all()
        else:
            assert not (nan.any() or np.isnan(upper).any())
        with mock.patch.object(np, "count_nonzero", wraps=np.count_nonzero) as count:
            assert kernels._coincident(pairwise_distances(pts)) is None
        assert count.called != product


def test_product_threshold_holds_per_block_of_a_pass():
    """A pass of 64 points (4096 entries) builds its operands, and each of
    its blocks follows the rule on its own entries: in blocks of 48 rows
    the first block (48 x 64) takes the product, and the last (16 x 16
    of the upper pass, 16 x 64 against others) the broadcast."""
    rng = np.random.default_rng(5)
    pts, oth = rng.normal(size=(64, 2)), rng.normal(size=(64, 2))
    with mock.patch.object(kernels, "_BLOCK_ENTRIES", 48 * 64):
        for others in (None, oth):
            with mock.patch.object(kernels, "_operands", return_value=_poisoned(pts, 64)):
                (s0, e0, first), (s1, e1, last) = kernels._blocks(pts, others)
            assert (s0, e0, s1, e1) == (0, 48, 48, 64)
            assert np.isnan(first).all() and not np.isnan(last).any()
            cols = pts[48:] if others is None else others
            assert _bits(last) == _bits(_plain_distances(pts[48:], cols))


@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "stack"])
def test_pass_blocks_from_shared_operands_equal_the_plain_formula(batch):
    """A pass builds its product operands once, and each block takes its
    differences from slices of them: rows s:e against columns s:N of a
    self pass, and against every column of a pass against other points,
    under given spans and under a patched block budget.  Every block is
    the plain formula's bits, signed zeros and float limits included."""
    rng = np.random.default_rng(17)
    limits = np.array([0.0, -0.0, 1e-320, 1e308, -1e308, 1.0, -2.5])
    pts = rng.normal(size=batch + (90, 2))
    pts[..., ::5, :] = rng.choice(limits, size=batch + (18, 2))
    oth = rng.normal(size=batch + (70, 2))
    spans = ((0, 1), (1, 8), (8, 41), (41, 90))
    with np.errstate(all="ignore"), mock.patch.object(kernels, "_PRODUCT_ENTRIES", 1):
        for others, n in ((None, 90), (oth, 70)):
            # Given spans, then 20 rows per block against others and 15
            # against the points themselves.
            for budget, given in ((kernels._BLOCK_ENTRIES, spans), (20 * 70, None)):
                with mock.patch.object(kernels, "_BLOCK_ENTRIES", budget), mock.patch.object(
                    kernels, "_operands", wraps=kernels._operands
                ) as ops:
                    blocks = list(kernels._blocks(pts, others, spans=given))
                    assert [b[:2] for b in blocks] == list(given or kernels._plan(90, n)[0])
                assert ops.call_count == 1 and len(blocks) > 3
                for s, e, got in blocks:
                    block = pts[..., s:e, :]
                    cols = pts[..., s:, :] if others is None else others
                    assert _bits(got) == _bits(_plain_distances(block, cols)), (s, e, n)


@pytest.mark.parametrize("n", [6, 16, 64, 200, 1024])
def test_rhs_and_gram_bits_do_not_depend_on_the_product_threshold(n):
    """With the threshold above every block, every difference is a
    broadcast subtraction; rhs, the Gram matrix, H, the velocity field at
    n // 2 sample points and the template check (which names the first
    coincident pair) keep their bytes."""
    q = heart4(n).points
    spec, state = SystemSpec(), ParticleState(q, np.random.default_rng(n).normal(size=(n, 2)))
    x = q[::2] + 0.1
    clash = q.copy()
    clash[-1] = clash[1]

    def run():
        assert LandmarkTemplate(q).n == n
        with pytest.raises(DegenerateConfigurationError) as err:
            LandmarkTemplate(clash)
        return (
            *rhs(spec, state), gram_matrix(spec.kernel, q), hamiltonian(spec, state),
            velocity_field(spec, state, x), str(err.value),
        )

    product = run()
    with mock.patch.object(kernels, "_PRODUCT_ENTRIES", n * n + 1):
        broadcast = run()
    for a, b in zip(product, broadcast):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_match_bits_do_not_depend_on_the_product_threshold():
    """Every MatchResult field of a match at N = 64 (one 64 x 64 block,
    above the threshold) is the same with broadcast differences."""
    cfg = ShootingConfig(h=0.4, evolve=EvolveConfig(steps=10))

    def run():
        return match(circle(2.0, n=64), heart4(64), cfg)

    product = run()
    with mock.patch.object(kernels, "_PRODUCT_ENTRIES", 64 * 64 + 1):
        broadcast = run()
    assert product.converged
    for field in dataclasses.fields(MatchResult):
        a, b = getattr(product, field.name), getattr(broadcast, field.name)
        if isinstance(a, LandmarkTemplate):
            a, b = a.points, b.points
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the OpenBLAS core types named are x86-64 ones",
)
@pytest.mark.parametrize("coretype", ["Nehalem", "Haswell"])
def test_distance_bits_hold_under_other_dgemm_kernels(coretype):
    """The product's exactness holds for any order or fusing of the two
    products, so the battery, the pass blocks taken from shared operands
    and the threshold pins pass again in a fresh interpreter whose
    OpenBLAS runs the dgemm kernel of another core."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "plain_formula or product_threshold"],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": coretype},
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr


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
    the identity, and nothing warns, whether the differences overflow
    in a broadcast subtraction (n = 8) or in the BLAS product (n = 64)."""
    for n in (8, 64):
        pts = circle(1e308, n=n).points
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for family in KernelFamily:
                kmat = gram_matrix(KernelSpec(family=family, nu=2.5, alpha=0.7), pts)
                np.testing.assert_array_equal(kmat, np.eye(n))


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
