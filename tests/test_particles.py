import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from geoshoot import (
    ConfigurationError,
    DegenerateConfigurationError,
    EvolveConfig,
    KernelFamily,
    KernelSpec,
    LandmarkTemplate,
    ParticleState,
    SystemSpec,
    circle,
    conserved_quantities,
    evolve,
    gram_matrix,
    hamiltonian,
    heart4,
    inexactness_energy,
    rhs,
    velocity_field,
)
from geoshoot import kernels, particles


def _symbolic_two_particle_rhs():
    """Independent oracle: lambdified canonical equations for N = 2.

    The Hamiltonian (1/2) sum_ab (p_a . p_b) G(|q_a - q_b|)
    + (sigma2/2) sum_a |p_a|^2 with the normalized exponential kernel is
    written in sympy and differentiated symbolically, so no line of the
    production rhs is shared with this derivation.
    """
    import sympy as sp

    qs = sp.symbols("q1x q1y q2x q2y", real=True)
    ps = sp.symbols("p1x p1y p2x p2y", real=True)
    s2, alpha = sp.symbols("s2 alpha", positive=True)
    q1x, q1y, q2x, q2y = qs
    p1x, p1y, p2x, p2y = ps

    d = sp.sqrt((q1x - q2x) ** 2 + (q1y - q2y) ** 2)
    kernel = sp.exp(-d / alpha)
    pp11 = p1x**2 + p1y**2
    pp22 = p2x**2 + p2y**2
    pp12 = p1x * p2x + p1y * p2y
    # G(0) = 1 for the normalized kernel.
    ham = sp.Rational(1, 2) * (pp11 + pp22 + 2 * pp12 * kernel) + s2 / 2 * (
        pp11 + pp22
    )
    dq = [sp.diff(ham, v) for v in ps]
    dp = [-sp.diff(ham, v) for v in qs]
    return sp.lambdify((qs, ps, s2, alpha), (dq, dp), "numpy")


def test_rhs_matches_symbolic_oracle_over_random_states():
    oracle = _symbolic_two_particle_rhs()
    rng = np.random.default_rng(2024)
    for k in range(100):
        q = rng.uniform(-3.0, 3.0, size=(2, 2))
        while np.linalg.norm(q[0] - q[1]) < 1e-3:
            q = rng.uniform(-3.0, 3.0, size=(2, 2))
        p = rng.uniform(-2.0, 2.0, size=(2, 2))
        sigma2 = 0.0 if k % 2 == 0 else 0.3
        alpha = 1.0 if k % 3 else 0.7
        spec = SystemSpec(kernel=KernelSpec(alpha=alpha), sigma2=sigma2)

        dq, dp = rhs(spec, ParticleState(q, p))
        want_dq, want_dp = oracle(tuple(q.ravel()), tuple(p.ravel()), sigma2, alpha)
        np.testing.assert_allclose(
            dq.ravel(), np.asarray(want_dq, dtype=float), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            dp.ravel(), np.asarray(want_dp, dtype=float), rtol=1e-12, atol=1e-12
        )


def test_hamiltonian_is_gram_quadratic_form():
    rng = np.random.default_rng(5)
    template = circle(2.0, n=12)
    p = rng.normal(size=(12, 2))
    spec = SystemSpec()
    state = ParticleState(template.points, p)
    k = gram_matrix(spec.kernel, template.points)
    assert hamiltonian(spec, state) == pytest.approx(
        float(np.sum(p * (k @ p))), rel=1e-14
    )


def test_hamiltonian_of_zero_momenta_is_zero():
    state = ParticleState(circle(1.0, n=8).points, np.zeros((8, 2)))
    assert hamiltonian(SystemSpec(), state) == 0.0


def test_inexactness_energy():
    p = np.array([[1.0, 2.0], [0.0, -1.0]])
    state = ParticleState(np.array([[0.0, 0.0], [1.0, 0.0]]), p)
    assert inexactness_energy(SystemSpec(sigma2=0.5), state) == pytest.approx(3.0)
    assert inexactness_energy(SystemSpec(), state) == 0.0


def test_momentum_sum_is_invariant_of_the_momentum_equation():
    # dp antisymmetry: the dp rows must sum to zero exactly, not to roundoff.
    rng = np.random.default_rng(11)
    q = rng.normal(size=(9, 2)) * 2.0
    p = rng.normal(size=(9, 2))
    _, dp = rhs(SystemSpec(), ParticleState(q, p))
    np.testing.assert_allclose(dp.sum(axis=0), np.zeros(2), atol=1e-13)


def test_angular_momentum_derivative_vanishes():
    rng = np.random.default_rng(12)
    q = rng.normal(size=(7, 2)) * 2.0
    p = rng.normal(size=(7, 2))
    for sigma2 in (0.0, 0.4):
        spec = SystemSpec(sigma2=sigma2)
        dq, dp = rhs(spec, ParticleState(q, p))
        dl = float(
            np.sum(dq[:, 0] * p[:, 1] - dq[:, 1] * p[:, 0])
            + np.sum(q[:, 0] * dp[:, 1] - q[:, 1] * dp[:, 0])
        )
        assert abs(dl) < 1e-12


def test_inexact_flow_conserves_shifted_hamiltonian():
    """sigma2 > 0 is still Hamiltonian: H + sigma2 sum|p|^2 is constant."""
    rng = np.random.default_rng(3)
    template = circle(2.0, n=10)
    p = 0.5 * rng.normal(size=(10, 2))
    spec = SystemSpec(sigma2=0.3)
    start = ParticleState(template.points, p)
    end = evolve(spec, start, EvolveConfig(steps=200)).final
    total0 = hamiltonian(spec, start) + inexactness_energy(spec, start)
    total1 = hamiltonian(spec, end) + inexactness_energy(spec, end)
    assert total1 == pytest.approx(total0, rel=1e-9)


def test_velocity_field_at_landmarks_is_gram_product():
    rng = np.random.default_rng(8)
    template = circle(1.5, n=10)
    p = rng.normal(size=(10, 2))
    spec = SystemSpec()
    state = ParticleState(template.points, p)
    u = velocity_field(spec, state, template.points)
    np.testing.assert_allclose(
        u, gram_matrix(spec.kernel, template.points) @ p, rtol=1e-12, atol=1e-14
    )


def test_velocity_field_single_point_matches_batch():
    state = ParticleState(
        np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    spec = SystemSpec()
    single = velocity_field(spec, state, np.array([0.25, -0.5]))
    batch = velocity_field(spec, state, np.array([[0.25, -0.5]]))
    assert single.shape == (2,)
    np.testing.assert_allclose(batch[0], single)
    for bad in ([0.25, -0.5, 1.0], [0.25], [np.nan, -0.5]):
        with pytest.raises(ValueError, match="^x "):
            velocity_field(spec, state, np.array(bad))


def test_conserved_quantities_keys():
    state = ParticleState(circle(1.0, n=6).points, np.ones((6, 2)))
    out = conserved_quantities(SystemSpec(), state)
    assert set(out) == {"H", "P", "L"}
    np.testing.assert_allclose(out["P"], np.array([6.0, 6.0]))


def _cross_block_pair(p3, p5):
    """Six particles of which 3 and 5 coincide, with momenta p3 and p5:
    in row blocks of two the pair is found in block 2:4, away from row 0."""
    q = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [0.0, 2.0]])
    p = np.full((6, 2), 0.5)
    p[3], p[5] = p3, p5
    return q, p


def test_coincident_interacting_particles_raise():
    q = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    p = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateConfigurationError, match="0 and 1"):
        rhs(SystemSpec(), ParticleState(q, p))
    q, p = _cross_block_pair([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(DegenerateConfigurationError, match="particles 3 and 5"):
        _rhs_in_blocks(SystemSpec(), q, p, rows=2)


def test_coincident_inert_particles_tolerated():
    # Zero momentum product kills the singular interaction term.
    q = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    p = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    dq, dp = rhs(SystemSpec(), ParticleState(q, p))
    assert np.all(np.isfinite(dq)) and np.all(np.isfinite(dp))
    q, p = _cross_block_pair([1.0, 0.0], [0.0, 1.0])
    whole = rhs(SystemSpec(), ParticleState(q, p))
    for rows in (1, 2, 4):
        split = _rhs_in_blocks(SystemSpec(), q, p, rows)
        for got, want in zip(split, whole):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_state_validation():
    good = np.zeros((3, 2))
    with pytest.raises(ValueError):
        ParticleState(np.zeros((3, 3)), good)
    with pytest.raises(ValueError):
        ParticleState(good, np.zeros((4, 2)))
    bad = good.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ParticleState(bad, good)
    for sigma2 in (-0.1, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            SystemSpec(sigma2=sigma2)


def _kernel_pair(kernel: KernelSpec, r: float) -> tuple[float, float]:
    """G(r) and G'(r), written out from the kernels module docstring."""
    a, nu = kernel.alpha, kernel.nu
    if kernel.family is KernelFamily.BESSEL:
        c = 2.0 ** (1.0 - nu) / (2.0 * math.pi * a ** (1.0 + nu) * gamma_fn(nu))
        peak = 1.0 / (4.0 * math.pi * a * a * (nu - 1.0))
        if r == 0.0:
            g, dg = peak, 0.0
        else:
            g = c * r ** (nu - 1.0) * kv(nu - 1.0, r / a)
            dg = -(c / a) * r ** (nu - 1.0) * kv(nu - 2.0, r / a)
        scale = 1.0 / peak if kernel.normalized else 1.0
    else:
        if kernel.family is KernelFamily.CONICAL:
            g = math.exp(-r / a)
            dg = -g / a
        else:
            g = math.exp(-r * r / (2.0 * a * a))
            dg = -r / (a * a) * g
        scale = 1.0 if kernel.normalized else 1.0 / (2.0 * math.pi * a * a)
    return g * scale, dg * scale


def _naive_rhs(spec: SystemSpec, q: np.ndarray, p: np.ndarray):
    """Per-pair double loop over the module-docstring equations.

    Also returns, per particle, the summed magnitude of the terms of each
    equation, the scale that rounding in a reordered sum is relative to.
    """
    n = len(q)
    dq, dp = np.zeros((n, 2)), np.zeros((n, 2))
    dq_scale, dp_scale = np.zeros(n), np.zeros(n)
    for i in range(n):
        for j in range(n):
            r = math.hypot(q[i, 0] - q[j, 0], q[i, 1] - q[j, 1])
            g, dg = _kernel_pair(spec.kernel, r)
            dq[i] += g * p[j]
            dq_scale[i] += abs(g) * np.abs(p[j]).sum()
            if j != i:
                dp[i] -= float(p[i] @ p[j]) * dg / r * (q[i] - q[j])
                dp_scale[i] += (
                    np.abs(p[i]).sum() * np.abs(p[j]).sum() * abs(dg) / r
                    * (np.abs(q[i]).sum() + np.abs(q[j]).sum())
                )
        dq[i] += spec.sigma2 * p[i]
        dq_scale[i] += spec.sigma2 * np.abs(p[i]).sum()
    return dq, dp, dq_scale, dp_scale


def _within_rounding(got, want, scale) -> bool:
    """|got - want| <= 1e-12 of the summed term magnitudes; the 1e-300
    floor absorbs products that underflow into subnormals."""
    return bool(np.all(np.abs(got - want) <= 1e-12 * scale + 1e-300))


def _rhs_in_blocks(spec, q, p, rows):
    """rhs in row blocks of ``rows`` rows; None keeps the default budget,
    which holds any system of up to 181 particles in one block."""
    budget = kernels._BLOCK_ENTRIES if rows is None else rows * len(q)
    with mock.patch.object(kernels, "_BLOCK_ENTRIES", budget):
        return rhs(spec, ParticleState(q, p))


# Rows per block: None is one block here; 1 to 3 rows split every drawn
# system of 4 or more particles, with a ragged last block for most sizes.
_rows_per_block = st.sampled_from([None, 1, 2, 3])


@st.composite
def _systems(draw):
    """A kernel of every family and normalization, with sigma2 in {0, 0.3}."""
    kernel = KernelSpec(
        family=draw(st.sampled_from(list(KernelFamily))),
        nu=draw(st.sampled_from([1.5, 2.5, 3.2])),
        alpha=draw(st.floats(0.5, 2.0)),
        normalized=draw(st.booleans()),
    )
    return SystemSpec(kernel=kernel, sigma2=draw(st.sampled_from([0.0, 0.3])))


@st.composite
def _distinct_states(draw):
    """2 to 8 particles, distinct by construction: unique cells of a
    0.5-spaced lattice, each jittered by less than 0.4, stay >= 0.1 apart."""
    cells = draw(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
            min_size=2, max_size=8, unique=True,
        )
    )
    n = len(cells)
    jitter = st.floats(0.0, 0.4)
    q = 0.5 * np.array(cells, dtype=float) + np.array(
        draw(st.lists(st.tuples(jitter, jitter), min_size=n, max_size=n))
    )
    momentum = st.floats(-2.0, 2.0)
    p = np.array(draw(st.lists(st.tuples(momentum, momentum), min_size=n, max_size=n)))
    return q, p


@settings(max_examples=150, deadline=None)
@given(spec=_systems(), state=_distinct_states(), rows=_rows_per_block)
def test_rhs_matches_naive_pair_loop(spec, state, rows):
    q, p = state
    dq, dp = _rhs_in_blocks(spec, q, p, rows)
    want_dq, want_dp, dq_scale, dp_scale = _naive_rhs(spec, q, p)
    assert _within_rounding(dq, want_dq, dq_scale[:, None])
    assert _within_rounding(dp, want_dp, dp_scale[:, None])


@settings(max_examples=100, deadline=None)
@given(
    spec=_systems(),
    state=_distinct_states(),
    angle=st.floats(0.0, 2.0 * math.pi),
    reflect=st.booleans(),
    shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    rows=_rows_per_block,
)
def test_rhs_is_isometry_equivariant(spec, state, angle, reflect, shift, rows):
    q, p = state
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    if reflect:
        rot = rot @ np.diag([1.0, -1.0])
    moved_q, moved_p = q @ rot.T + np.array(shift), p @ rot.T
    dq, dp = _rhs_in_blocks(spec, q, p, rows)
    moved_dq, moved_dp = _rhs_in_blocks(spec, moved_q, moved_p, rows)
    _, _, dq_scale, dp_scale = _naive_rhs(spec, moved_q, moved_p)
    assert _within_rounding(moved_dq, dq @ rot.T, dq_scale[:, None])
    assert _within_rounding(moved_dp, dp @ rot.T, dp_scale[:, None])


@settings(max_examples=100, deadline=None)
@given(spec=_systems(), state=_distinct_states(), rows=_rows_per_block)
def test_rhs_momentum_rows_sum_to_zero(spec, state, rows):
    q, p = state
    _, dp = _rhs_in_blocks(spec, q, p, rows)
    _, _, _, dp_scale = _naive_rhs(spec, q, p)
    assert _within_rounding(dp.sum(axis=0), 0.0, dp_scale.sum())


def _dp_term_scale(spec, q, p):
    """sum_ij |p_i| |p_j| |G'(d_ij)| / d_ij (|q_i| + |q_j|) over i != j, in
    1-norms: the summed magnitude of the terms of sum_i dp_i."""
    d = kernels.pairwise_distances(q)
    np.fill_diagonal(d, 1.0)
    weight = np.abs(kernels.kernel_derivative(spec.kernel, d)) / d
    np.fill_diagonal(weight, 0.0)
    pn, qn = np.abs(p).sum(axis=1), np.abs(q).sum(axis=1)
    return float(pn @ weight @ (pn * qn) + (pn * qn) @ weight @ pn)


def test_rhs_default_blocks_agree_with_one_block():
    """Where the default budget splits the rows (N >= 182), each upper
    block's strictly upper part reaches its mirrored rows as a transposed
    product, which may round differently, never by more than 1e-12; and
    the momentum rows still sum to zero within rounding."""
    for n in (182, 300, 1024):
        assert len(kernels._plan(n, n)[0]) > 1
        rng = np.random.default_rng(n)
        q = circle(2.0, n=n).points + 0.01 * rng.normal(size=(n, 2))
        p = rng.normal(size=(n, 2))
        for family in KernelFamily:
            for sigma2 in (0.0, 0.3):
                spec = SystemSpec(kernel=KernelSpec(family=family, nu=2.5), sigma2=sigma2)
                split = _rhs_in_blocks(spec, q, p, rows=None)
                whole = _rhs_in_blocks(spec, q, p, rows=n)
                for got, want in zip(split, whole):
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
                total = np.abs(split[1].sum(axis=0)).max()
                assert total <= 1e-12 * _dp_term_scale(spec, q, p)


@pytest.mark.parametrize("n", [16, 182, 300])
def test_rhs_does_not_depend_on_the_momentum_layout(n):
    """A Cholesky solve (momenta_from_velocity) returns Fortran-ordered
    momenta; rhs rounds them exactly as their C-ordered copy, which is
    what the RK4 loop holds."""
    rng = np.random.default_rng(n)
    q = circle(2.0, n=n).points + 0.01 * rng.normal(size=(n, 2))
    p_f = np.asfortranarray(rng.normal(size=(n, 2)))
    p_c = np.ascontiguousarray(p_f)
    assert not p_f.flags.c_contiguous
    for family in KernelFamily:
        for sigma2 in (0.0, 0.3):
            spec = SystemSpec(kernel=KernelSpec(family=family, nu=2.5), sigma2=sigma2)
            fortran = rhs(spec, ParticleState(q, p_f))
            c_order = rhs(spec, ParticleState(q, p_c))
            for got, want in zip(fortran, c_order):
                assert np.array_equal(got, want)


def test_stacked_rhs_equals_each_member_alone_across_upper_blocks():
    """At N = 200 the rows split into upper blocks of 163 and 37; a stack
    of three widths is still bit-equal to three lone calls."""
    n = 200
    assert kernels._plan(n, n)[0] == ((0, 163), (163, 200))
    rng = np.random.default_rng(200)
    q = circle(2.0, n=n).points + 0.01 * rng.normal(size=(3, n, 2))
    p = rng.normal(size=(3, n, 2))
    for family in KernelFamily:
        specs = [KernelSpec(family=family, nu=2.5, alpha=a) for a in (0.6, 1.0, 1.7)]
        for sigma2 in (0.0, 0.3):
            dq, dp, clashes = _stacked_rhs(specs, sigma2, q, p)
            assert clashes == {}
            for b, spec in enumerate(specs):
                alone = rhs(SystemSpec(kernel=spec, sigma2=sigma2), ParticleState(q[b], p[b]))
                assert np.array_equal(dq[b], alone[0]) and np.array_equal(dp[b], alone[1])


@pytest.mark.parametrize("n", [16, 200])
@pytest.mark.parametrize(
    "widths", [(0.5, 1.0), (1.0, math.sqrt(0.4))], ids=["exact-widths", "mixed-widths"]
)
def test_stacked_rhs_of_power_of_two_widths_equals_each_member_alone(widths, n):
    """A stack whose widths are all powers of two multiplies by their
    exact reciprocals; one that mixes in another width divides.  Either
    way every member is bit-equal to a lone call, which multiplies at
    alpha = 0.5 and 1 and divides at sqrt(0.4)."""
    rng = np.random.default_rng(n)
    q = circle(2.0, n=n).points + 0.01 * rng.normal(size=(2, n, 2))
    p = rng.normal(size=(2, n, 2))
    for family in KernelFamily:
        for normalized in (True, False):
            specs = [
                KernelSpec(family=family, nu=2.5, alpha=a, normalized=normalized) for a in widths
            ]
            exact = particles._constants([SystemSpec(kernel=s) for s in specs])[-2]
            assert (exact is True) == (widths == (0.5, 1.0))
            dq, dp, clashes = _stacked_rhs(specs, 0.0, q, p)
            assert clashes == {}
            for b, spec in enumerate(specs):
                alone = rhs(SystemSpec(kernel=spec), ParticleState(q[b], p[b]))
                assert dq[b].tobytes() == alone[0].tobytes()
                assert dp[b].tobytes() == alone[1].tobytes()


@pytest.mark.parametrize("n", [16, 200])
def test_stacked_rhs_with_mixed_sigma2_equals_each_member_alone(n):
    """Members differ in sigma2 as well as in alpha: those with sigma2 = 0
    get no sigma2 p term at all, and every member is bit-equal to a lone
    call (at N = 200 across two upper blocks)."""
    rng = np.random.default_rng(n)
    q = circle(2.0, n=n).points + 0.01 * rng.normal(size=(4, n, 2))
    p = rng.normal(size=(4, n, 2))
    sigma2s = [0.0, 0.3, 0.0, 1.0]
    for family in KernelFamily:
        specs = [KernelSpec(family=family, nu=2.5, alpha=a) for a in (0.6, 1.0, 1.3, 1.7)]
        dq, dp, clashes = _stacked_rhs(specs, sigma2s, q, p)
        assert clashes == {}
        for b, (spec, sigma2) in enumerate(zip(specs, sigma2s)):
            alone = rhs(SystemSpec(kernel=spec, sigma2=sigma2), ParticleState(q[b], p[b]))
            assert np.array_equal(dq[b], alone[0]) and np.array_equal(dp[b], alone[1])
    # A diverged member stays in its stack; with sigma2 = 0 its inf
    # momentum must not meet a 0 * inf = NaN sigma2 term.
    p[2, 0, 0] = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        dq, _, _ = _stacked_rhs(specs, sigma2s, q, p)
        alone, _, _ = _stacked_rhs(specs[2:3], 0.0, q[2:3], p[2:3])
    assert dq[2].tobytes() == alone[0].tobytes()


@pytest.mark.parametrize("rows", [1, 2])
def test_coincident_pair_across_upper_blocks_keeps_global_indices(rows):
    """Points 2 and 5 coincide, and so do 4 and 6; in blocks of one or two
    rows each pair spans two upper blocks.  Every scan names the first
    pair by its global indices, lower index first."""
    q = circle(1.0, n=7).points.copy()
    q[5], q[6] = q[2], q[4]
    p = np.ones((7, 2))
    with mock.patch.object(kernels, "_BLOCK_ENTRIES", rows * 7):
        assert kernels._plan(7, 7)[0][0] == (0, rows)
        with pytest.raises(DegenerateConfigurationError, match="particles 2 and 5 coincide"):
            rhs(SystemSpec(), ParticleState(q, p))
        with pytest.raises(DegenerateConfigurationError, match="points 2 and 5 coincide"):
            gram_matrix(KernelSpec(), q)
        with pytest.raises(DegenerateConfigurationError, match="landmarks 2 and 5 coincide"):
            LandmarkTemplate(q)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 40),
    budget=st.integers(1, 2 * 40 * 40),
    seed=st.integers(0, 2**32 - 1),
    planted=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), min_size=1, max_size=4),
)
def test_every_coincidence_error_names_the_first_pair(n, budget, seed, planted):
    """With one or more planted duplicates, under any block budget (from
    one row per block to one block), gram_matrix, LandmarkTemplate and
    rhs each name the lexicographically first coincident pair (i < j)
    by its global indices."""
    q = np.random.default_rng(seed).normal(size=(n, 2))
    for i, j in planted:
        if i % n != j % n:
            q[j % n] = q[i % n]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (q[i] == q[j]).all()]
    assume(pairs)
    i, j = pairs[0]
    with mock.patch.object(kernels, "_BLOCK_ENTRIES", budget):
        with pytest.raises(DegenerateConfigurationError) as gram:
            gram_matrix(KernelSpec(), q)
        with pytest.raises(DegenerateConfigurationError) as template:
            LandmarkTemplate(q, "t")
        with pytest.raises(DegenerateConfigurationError) as clash:
            rhs(SystemSpec(), ParticleState(q, np.ones((n, 2))))
    assert str(gram.value) == f"points {i} and {j} coincide; Gram matrix would be singular"
    assert str(template.value) == f"landmarks {i} and {j} coincide in template 't'"
    assert str(clash.value).startswith(f"particles {i} and {j} coincide with interacting momenta")


def test_kernel_sums_agree_under_every_block_budget():
    """hamiltonian and velocity_field add up the blocks of one pairwise
    pass; a row split may change only how BLAS rounds each block product."""
    rng = np.random.default_rng(12)
    q = heart4(12).points
    p = rng.normal(size=(12, 2))
    x = np.vstack([q, rng.normal(size=(5, 2))])
    for family in KernelFamily:
        spec = SystemSpec(kernel=KernelSpec(family=family, nu=2.5))
        state = ParticleState(q, p)
        # sum_j G(|x_i - q_j|) |p_j| bounds every term of u(x_i).
        u_scale = velocity_field(spec, ParticleState(q, np.abs(p)), x)
        h_scale = float(np.sum(np.abs(p) * u_scale[:12]))
        whole_u, whole_h = velocity_field(spec, state, x), hamiltonian(spec, state)
        for budget in range(1, 17 * 12 + 1):
            with mock.patch.object(kernels, "_BLOCK_ENTRIES", budget):
                assert _within_rounding(velocity_field(spec, state, x), whole_u, u_scale)
                assert _within_rounding(hamiltonian(spec, state), whole_h, h_scale)


@pytest.mark.parametrize("build", ["template", "hamiltonian", "velocity_field"])
def test_pairwise_sums_never_hold_a_full_matrix(build):
    """At N = 1024 one (N, N) float matrix is 8 MiB; the blocked pass
    holds a few 256 KiB blocks at a time."""
    n = 1024
    points = heart4(n).points
    state = ParticleState(points, np.ones((n, 2)))
    spec = SystemSpec()
    run = {
        "template": lambda: LandmarkTemplate(points),
        "hamiltonian": lambda: hamiltonian(spec, state),
        "velocity_field": lambda: velocity_field(spec, state, points),
    }[build]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# RK4 drifts H and L by O(dt^4); the test holds it to dt^4 itself, relative.
# Momenta are scaled to at most 0.5: over 2000 draws the worst relative H
# drift was then 5.5e-9 against dt^4 = 1.6e-7, while at full momenta (up
# to 2) close conical encounters drifted H by up to 2.8e-3.
_CONSERVATION_STEPS = 50


@settings(max_examples=60, deadline=None)
@given(spec=_systems(), state=_distinct_states())
def test_evolve_conserves_h_p_l(spec, state):
    q, p = state
    start = ParticleState(q, 0.25 * p)
    end = evolve(spec, start, EvolveConfig(steps=_CONSERVATION_STEPS)).final
    tol = (1.0 / _CONSERVATION_STEPS) ** 4
    before, after = conserved_quantities(spec, start), conserved_quantities(spec, end)
    # sigma2 > 0 conserves H plus the inexactness term, P and L unchanged.
    h0 = before["H"] + inexactness_energy(spec, start)
    h1 = after["H"] + inexactness_energy(spec, end)
    assert abs(h1 - h0) <= tol * h0 + 1e-300
    # P is linear, so RK4 keeps it up to rounding.
    p_scale = np.abs(start.p).sum()
    assert np.abs(after["P"] - before["P"]).max() <= 1e-12 * p_scale + 1e-300
    l_scale = sum(
        float(np.sum(np.abs(s.q).sum(axis=1) * np.abs(s.p).sum(axis=1)))
        for s in (start, end)
    )
    assert abs(after["L"] - before["L"]) <= tol * l_scale + 1e-300


@settings(max_examples=150, deadline=None)
@given(spec=_systems(), state=_distinct_states())
def test_gram_cholesky_succeeds_on_distinct_points(spec, state):
    np.linalg.cholesky(gram_matrix(spec.kernel, state[0]))


# The stacked core: _rhs advances a (B, N, 2) stack of systems that share
# a kernel family but not its width.  Each member must come out exactly
# as it does alone, under every block budget: the default one, one
# member per chunk, two members per chunk, and two rows per block.
_BUDGETS = (None, lambda n: n * n, lambda n: 2 * n * n, lambda n: 2 * n)


def _budget(budget, n):
    entries = kernels._BLOCK_ENTRIES if budget is None else budget(n)
    return mock.patch.object(kernels, "_BLOCK_ENTRIES", entries)


def _stacked_rhs(specs, sigma2, q, p):
    """One stacked _rhs call; ``sigma2`` is one value for every member or
    a list of one per member."""
    sigma2s = sigma2 if isinstance(sigma2, list) else [sigma2] * len(specs)
    systems = [SystemSpec(kernel=s, sigma2=g) for s, g in zip(specs, sigma2s)]
    d, clashes = particles._rhs(specs[0], particles._stack(q, p), particles._constants(systems))
    return d[0], d[1], clashes


@st.composite
def _stacks(draw):
    """1 to 5 systems of 3 to 8 particles, one family, an alpha per member;
    member 0 has a coincident pair whose momentum product is zero."""
    family = draw(st.sampled_from(list(KernelFamily)))
    nu = draw(st.sampled_from([1.5, 2.5, 3.2]))
    normalized = draw(st.booleans())
    b, n = draw(st.integers(1, 5)), draw(st.integers(3, 8))
    alphas = draw(st.lists(st.floats(0.5, 2.0), min_size=b, max_size=b))
    specs = [KernelSpec(family=family, nu=nu, alpha=a, normalized=normalized) for a in alphas]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = rng.uniform(-2.0, 2.0, size=(b, n, 2))
    p = rng.uniform(-2.0, 2.0, size=(b, n, 2))
    q[0, 1] = q[0, 0]
    p[0, 0, 1] = p[0, 1, 0] = 0.0  # (x, 0) . (0, y) is exactly 0
    return specs, draw(st.sampled_from([0.0, 0.3])), q, p


@settings(max_examples=150, deadline=None)
@given(stack=_stacks(), budget=st.sampled_from(_BUDGETS))
def test_stacked_rhs_equals_each_member_alone(stack, budget):
    specs, sigma2, q, p = stack
    with _budget(budget, q.shape[1]):
        dq, dp, clashes = _stacked_rhs(specs, sigma2, q, p)
        assert clashes == {}
        for b, spec in enumerate(specs):
            alone = rhs(SystemSpec(kernel=spec, sigma2=sigma2), ParticleState(q[b], p[b]))
            assert np.array_equal(dq[b], alone[0]) and np.array_equal(dp[b], alone[1])


@pytest.mark.parametrize(
    "budget", _BUDGETS, ids=["default", "member-chunks", "pair-chunks", "row-blocks"]
)
def test_stacked_rhs_reports_a_clashing_member_alone(budget):
    rng = np.random.default_rng(5)
    q = rng.uniform(-2.0, 2.0, size=(3, 5, 2))
    p = rng.uniform(-2.0, 2.0, size=(3, 5, 2))
    q[1, 3], p[1, 3] = q[1, 1], p[1, 1]
    specs = [KernelSpec(alpha=a) for a in (0.6, 1.0, 1.7)]
    with _budget(budget, 5):
        dq, dp, clashes = _stacked_rhs(specs, 0.0, q, p)
        assert list(clashes) == [1]
        assert isinstance(clashes[1], DegenerateConfigurationError)
        assert str(clashes[1]) == (
            "particles 1 and 3 coincide with interacting momenta; "
            "the momentum equation is singular there"
        )
        for b in (0, 2):
            alone = rhs(SystemSpec(kernel=specs[b]), ParticleState(q[b], p[b]))
            assert np.array_equal(dq[b], alone[0]) and np.array_equal(dp[b], alone[1])


def test_public_rhs_and_energy_print_no_warning_near_the_float_limit():
    """Distances between coordinates near the float limit overflow to
    inf, where the kernel is 0, so K is the identity: dq = p, dp = 0,
    u(q) = p and H = sum |p_i|^2, with no numpy warning, whether the
    differences overflow in a broadcast subtraction (n = 8) or in the
    BLAS product (n = 64)."""
    for n in (8, 64):
        q = circle(1e308, n=n).points
        state, spec = ParticleState(q, np.full_like(q, 0.1)), SystemSpec()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dq, dp = rhs(spec, state)
            energy = hamiltonian(spec, state)
            u = velocity_field(spec, state, q)
        assert np.array_equal(dq, state.p)
        assert np.array_equal(dp, np.zeros_like(q))
        assert energy == pytest.approx(0.02 * n)
        assert np.array_equal(u, state.p)
