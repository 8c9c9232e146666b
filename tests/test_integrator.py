import numpy as np
import pytest

from geoshoot import (
    ConfigurationError,
    DegenerateConfigurationError,
    DivergenceError,
    EvolveConfig,
    KernelFamily,
    KernelSpec,
    ParticleState,
    SystemSpec,
    circle,
    conserved_quantities,
    evolve,
    rhs,
)
from geoshoot import integrator, particles


def _swirl_state(n=8, radius=2.0):
    template = circle(radius, n=n)
    t = np.arctan2(template.points[:, 1], template.points[:, 0])
    p = 0.8 * np.column_stack([-np.sin(t), np.cos(t)]) + 0.3 * np.column_stack(
        [np.cos(2 * t), np.sin(2 * t)]
    )
    return ParticleState(template.points, p)


def test_rk4_richardson_ratio_is_fourth_order():
    """Halving dt divides the endpoint error by ~16."""
    state = _swirl_state()
    spec = SystemSpec(kernel=KernelSpec(family="gaussian"))
    ends = {
        steps: evolve(spec, state, EvolveConfig(steps=steps)).final.q
        for steps in (25, 50, 100)
    }
    ratio = np.linalg.norm(ends[25] - ends[50]) / np.linalg.norm(
        ends[50] - ends[100]
    )
    assert 12.0 <= ratio <= 20.0


def test_exact_flow_conserves_h_p_l():
    state = _swirl_state(n=16)
    spec = SystemSpec()
    before = conserved_quantities(spec, state)
    after = conserved_quantities(
        spec, evolve(spec, state, EvolveConfig(steps=200)).final
    )
    assert abs(after["H"] - before["H"]) <= 1e-7 * abs(before["H"])
    assert np.abs(after["P"] - before["P"]).max() <= 1e-10
    assert abs(after["L"] - before["L"]) <= 1e-8


def test_zero_momenta_is_a_fixed_point():
    template = circle(1.0, n=6)
    state = ParticleState(template.points, np.zeros((6, 2)))
    out = evolve(SystemSpec(), state, EvolveConfig(steps=10))
    np.testing.assert_array_equal(out.final.q, template.points)
    np.testing.assert_array_equal(out.final.p, np.zeros((6, 2)))


def test_frame_capture_counts_and_times():
    state = _swirl_state()
    out = evolve(SystemSpec(), state, EvolveConfig(steps=100, capture_every=7))
    # initial frame, every 7th step, and the forced final frame
    assert len(out.frames) == 2 + 100 // 7
    assert out.times[0] == 0.0
    assert out.times[-1] == 1.0
    assert np.all(np.diff(out.times) > 0)


def test_capture_every_step():
    state = _swirl_state()
    out = evolve(SystemSpec(), state, EvolveConfig(steps=10, capture_every=1))
    assert len(out.frames) == 11
    np.testing.assert_allclose(out.times, np.linspace(0.0, 1.0, 11), atol=1e-15)


def test_no_capture_by_default():
    out = evolve(SystemSpec(), _swirl_state(), EvolveConfig(steps=5))
    assert out.frames == ()


def test_default_config_used_when_none():
    out = evolve(SystemSpec(), _swirl_state())
    assert out.final.q.shape == (8, 2)


def test_divergence_reports_step_context():
    # Antiparallel momenta large enough that the p_i . p_j coupling
    # overflows while the pair is still within kernel range.
    q = np.array([[-0.5, 0.0], [0.5, 0.0]])
    p = np.array([[1e200, 0.0], [-1e200, 0.0]])
    with pytest.raises(DivergenceError, match=r"step \d+"):
        evolve(SystemSpec(), ParticleState(q, p), EvolveConfig(steps=4))


def test_degenerate_configuration_gets_time_window():
    q = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    p = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DegenerateConfigurationError, match="during step 1"):
        evolve(SystemSpec(), ParticleState(q, p), EvolveConfig(steps=10))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        EvolveConfig(t_final=0.0)
    with pytest.raises(ConfigurationError):
        EvolveConfig(steps=0)
    with pytest.raises(ConfigurationError):
        EvolveConfig(capture_every=-1)
    with pytest.raises(ConfigurationError):
        EvolveConfig(steps=2.5)
    with pytest.raises(ConfigurationError):
        EvolveConfig(capture_every=1.5)


def test_single_step_runs():
    out = evolve(SystemSpec(), _swirl_state(), EvolveConfig(steps=1))
    assert np.all(np.isfinite(out.final.q))


def test_single_system_errors_keep_their_step_and_time():
    # evolve runs a stack of one; its errors read as they always have.
    q = np.array([[-0.5, 0.0], [0.5, 0.0]])
    p = np.array([[1e200, 0.0], [-1e200, 0.0]])
    with pytest.raises(DivergenceError) as err:
        evolve(SystemSpec(), ParticleState(q, p), EvolveConfig(steps=4))
    assert str(err.value) == (
        "non-finite state at step 1 (t = 0.25); "
        "the step size is too large for this configuration"
    )
    q = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    p = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DegenerateConfigurationError) as err:
        evolve(SystemSpec(), ParticleState(q, p), EvolveConfig(steps=10))
    assert str(err.value) == (
        "particles 0 and 1 coincide with interacting momenta; the momentum "
        "equation is singular there (during step 1, t in [0, 0.1])"
    )


def test_stack_failures_leave_the_other_members_unchanged():
    """A degenerate and a diverging member fail with the errors they raise
    alone; the others end exactly where they end alone."""
    swirl = _swirl_state(n=3)
    q = np.stack([
        swirl.q,
        [[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]],
        [[-0.5, 0.0], [0.5, 0.0], [3.0, 0.0]],
        1.5 * swirl.q,
    ])
    p = np.stack([
        swirl.p,
        [[0.0, 1.0], [0.0, 1.0], [0.0, 0.0]],
        [[1e200, 0.0], [-1e200, 0.0], [0.0, 0.0]],
        -swirl.p,
    ])
    specs = [KernelSpec(alpha=a) for a in (0.7, 1.0, 1.2, 1.6)]
    config = EvolveConfig(steps=8)
    k = particles._constants([SystemSpec(kernel=s) for s in specs])
    end_q, end_p, failures, _ = integrator._evolve_stack(specs[0], k, q, p, config)
    assert sorted(failures) == [1, 2]
    for b, spec in enumerate(specs):
        run = lambda: evolve(SystemSpec(kernel=spec), ParticleState(q[b], p[b]), config)
        if b in failures:
            with pytest.raises(type(failures[b])) as err:
                run()
            assert str(err.value) == str(failures[b])
        else:
            alone = run().final
            assert np.array_equal(end_q[b], alone.q) and np.array_equal(end_p[b], alone.p)


def _two_array_rk4(spec, q, p, config):
    """Classical RK4 with q and p updated as separate arrays, every stage
    through the public rhs: the reference for the fused (2, B, N, 2)
    loop.  Returns the (t, q, p) frames the loop captures."""
    dt = config.t_final / config.steps
    frames = [(0.0, q, p)]
    for step in range(config.steps):
        k1q, k1p = rhs(spec, ParticleState(q, p))
        k2q, k2p = rhs(spec, ParticleState(q + 0.5 * dt * k1q, p + 0.5 * dt * k1p))
        k3q, k3p = rhs(spec, ParticleState(q + 0.5 * dt * k2q, p + 0.5 * dt * k2p))
        k4q, k4p = rhs(spec, ParticleState(q + dt * k3q, p + dt * k3p))
        q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        p = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        if (step + 1) % config.capture_every == 0 or step + 1 == config.steps:
            frames.append((config.t_final * ((step + 1) / config.steps), q, p))
    return frames


@pytest.mark.parametrize("n", [6, 182, 300])
def test_fused_loop_equals_a_two_array_rk4(n):
    """Every member of a stack of three widths, in every family, exact
    and inexact, ends and passes its captured frames bit for bit where
    the two-array RK4 puts it; N = 182 and 300 take two row blocks."""
    rng = np.random.default_rng(n)
    q = circle(2.0, n=n).points + 0.01 * rng.normal(size=(3, n, 2))
    p = 0.3 * rng.normal(size=(3, n, 2))
    config = EvolveConfig(steps=4, capture_every=3)
    for family in KernelFamily:
        specs = [KernelSpec(family=family, nu=2.5, alpha=a) for a in (0.6, 1.0, 1.7)]
        for sigma2 in (0.0, 0.3):
            k = particles._constants([SystemSpec(kernel=s, sigma2=sigma2) for s in specs])
            end_q, end_p, failures, frames = integrator._evolve_stack(specs[0], k, q, p, config)
            assert failures == {}
            for b, spec in enumerate(specs):
                want = _two_array_rk4(SystemSpec(kernel=spec, sigma2=sigma2), q[b], p[b], config)
                assert [t for t, _, _ in frames] == [t for t, _, _ in want]
                for (_, fq, fp), (_, wq, wp) in zip(frames, want, strict=True):
                    assert np.array_equal(fq[b], wq) and np.array_equal(fp[b], wp)
                assert np.array_equal(end_q[b], want[-1][1])
                assert np.array_equal(end_p[b], want[-1][2])


def test_a_non_finite_member_does_not_hide_a_clash():
    """Member 0 is NaN from the start and member 1 has an interacting
    coincident pair.  Member 1 still fails with the clash it raises alone,
    at the same step: a NaN distance in one member must not mask a zero
    distance in another."""
    rng = np.random.default_rng(5)
    q = rng.uniform(-2.0, 2.0, size=(3, 5, 2))
    p = rng.uniform(-2.0, 2.0, size=(3, 5, 2))
    q[0, 2] = np.nan
    q[1, 3], p[1, 3] = q[1, 1], p[1, 1]
    specs = [KernelSpec(alpha=a) for a in (0.6, 1.0, 1.7)]
    config = EvolveConfig(steps=8)
    k = particles._constants([SystemSpec(kernel=s) for s in specs])
    _, _, failures, _ = integrator._evolve_stack(specs[0], k, q, p, config)
    assert sorted(failures) == [0, 1]
    assert isinstance(failures[0], DivergenceError)
    with pytest.raises(DegenerateConfigurationError) as err:
        evolve(SystemSpec(kernel=specs[1]), ParticleState(q[1], p[1]), config)
    assert str(failures[1]) == str(err.value)


def test_gaussian_system_stays_finite_where_distances_overflow():
    """On a radius-1e308 circle every pair is too far apart to interact:
    under the gaussian kernel, as under the conical one, dq = p and
    dp = 0, and a 5-step evolve only drifts each particle along its
    momentum, with no DivergenceError."""
    state = ParticleState(circle(1e308, n=8).points, np.full((8, 2), 0.1))
    for family in ("conical", "gaussian"):
        spec = SystemSpec(kernel=KernelSpec(family=family, alpha=0.7))
        # Outside the RK4 loop, rhs's pairwise distances overflow openly.
        with np.errstate(over="ignore"):
            dq, dp = rhs(spec, state)
        assert np.array_equal(dq, state.p) and np.array_equal(dp, np.zeros((8, 2)))
        end = evolve(spec, state, EvolveConfig(steps=5)).final
        assert np.isfinite(end.q).all() and np.array_equal(end.p, state.p)
