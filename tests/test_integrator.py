import numpy as np
import pytest

from geoshoot import (
    ConfigurationError,
    DegenerateConfigurationError,
    DivergenceError,
    EvolveConfig,
    KernelSpec,
    ParticleState,
    SystemSpec,
    circle,
    conserved_quantities,
    evolve,
)


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
