"""Feedback matching loop, Newton baseline, and their diagnostics."""

import contextlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpocon

from geoshoot import (
    ConfigurationError,
    DegenerateConfigurationError,
    DivergenceError,
    EvolveConfig,
    KernelFamily,
    KernelSpec,
    ParticleState,
    PlanarIsometry,
    ResidualNorm,
    ShootingConfig,
    SystemSpec,
    UpdateSpace,
    circle,
    contraction_diagnostics,
    ellipse_rot_shift,
    evolve,
    gram_matrix,
    heart4,
    match,
    momenta_from_velocity,
    newton_match,
)
from geoshoot import _lapack, shooting
from geoshoot.shooting import _GramSolver

# Small pair used throughout: a circle pulled onto a slightly shifted,
# slightly eccentric ellipse.  Converges in a few dozen iterations.
REF = circle(1.0, n=8)
TGT = ellipse_rot_shift(1.3, 0.9, 0.0, (0.1, 0.0), n=8)


def quick_cfg(**kw):
    kw.setdefault("h", 0.5)
    kw.setdefault("epsilon", 1e-6)
    kw.setdefault("evolve", EvolveConfig(steps=60))
    return ShootingConfig(**kw)


@pytest.mark.parametrize("solve", [match, newton_match])
def test_self_match_is_a_fixed_point(solve):
    result = solve(REF, REF, quick_cfg())
    assert result.converged
    assert result.iterations == 0
    assert result.residual_history == ()
    assert result.hamiltonian == 0.0
    np.testing.assert_array_equal(result.p0, np.zeros((8, 2)))


@pytest.fixture()
def shoots(monkeypatch):
    """A one-item list counting the shoots of the driver, one per member
    of each stack it evolves."""
    count = [0]
    evolve_stack = shooting._evolve_stack

    def counted_evolve(spec, k, q, *args):
        count[0] += len(q)
        return evolve_stack(spec, k, q, *args)

    monkeypatch.setattr(shooting, "_evolve_stack", counted_evolve)
    return count


@pytest.mark.parametrize("sigma2", [0.0, 0.3])
def test_self_match_takes_no_shoot(sigma2, shoots):
    # The run starts from p = 0, whose geodesic ends at the reference
    # itself, and both stopping norms, |r0| and the first move h * |r0|,
    # are tested there, so a self-match shoots nothing.
    result = match(REF, REF, quick_cfg(system=SystemSpec(sigma2=sigma2)))
    assert result.converged
    assert result.iterations == 0
    assert result.residual_history == ()
    assert shoots[0] == 0
    np.testing.assert_array_equal(result.p0, np.zeros((8, 2)))


@pytest.mark.parametrize("solve, per_iteration", [(match, 1), (newton_match, 2 * 8 + 1)])
def test_each_iteration_shoots_once_plus_its_jacobian(solve, per_iteration, shoots):
    result = solve(REF, TGT, quick_cfg(h=1.0))
    assert result.converged and result.iterations > 0
    assert shoots[0] == result.iterations * per_iteration


@pytest.mark.parametrize("solve", [match, newton_match])
def test_driver_shoots_build_no_frames(solve, monkeypatch):
    """A config that captures every step still shoots on the bare time
    grid: no shoot returns a frame, and the result is the one without
    capture, bit for bit."""
    plain = solve(REF, TGT, quick_cfg(h=1.0))
    frames = []
    evolve_stack = shooting._evolve_stack

    def spied_evolve(*args):
        out = evolve_stack(*args)
        frames.append(out[3])
        return out

    monkeypatch.setattr(shooting, "_evolve_stack", spied_evolve)
    captured = solve(REF, TGT, quick_cfg(h=1.0, evolve=EvolveConfig(steps=60, capture_every=1)))
    assert len(frames) >= plain.iterations > 0 and not any(frames)
    assert captured.p0.tobytes() == plain.p0.tobytes()
    assert captured.final_template.points.tobytes() == plain.final_template.points.tobytes()
    for name in ("iterations", "converged", "residual_history", "hamiltonian",
                 "final_residual", "diagnosis", "warnings"):
        assert getattr(captured, name) == getattr(plain, name)


def _momenta_toward(reference, target, cfg):
    return momenta_from_velocity(cfg.system.kernel, reference.points, target.points)


@pytest.mark.parametrize("solve", [match, newton_match, _momenta_toward])
def test_gram_that_is_not_positive_definite_raises(solve):
    # A wide gaussian kernel over 32 landmarks has a numerically singular
    # Gram matrix: no cell can start, and the run ends in its error; a
    # bare momenta recovery raises the same error.
    cfg = ShootingConfig(
        h=0.4, system=SystemSpec(kernel=KernelSpec(family="gaussian", alpha=5.0))
    )
    with pytest.raises(
        DegenerateConfigurationError, match="kernel Gram matrix is not positive definite: "
    ):
        solve(circle(2.0, n=32), heart4(32), cfg)


def _newton_cell(n: int, steps: int = 3):
    """A velocity-space cell of circle(2) -> heart4 at N = ``n``, moved to
    the iterate x = 0.3 (target - reference), with that iterate's endpoint
    and residual, on a short time grid."""
    ref, tgt = circle(2.0, n=n), heart4(n)
    cfg = ShootingConfig(h=1.0, evolve=EvolveConfig(steps=steps))
    cell = shooting._Cell(0, ref, tgt, cfg, _GramSolver(cfg.system.kernel, ref.points))
    cell.x = 0.3 * (tgt.points - ref.points)
    cell.p = cell.momenta(cell.x)
    cell.endpoint = evolve(cfg.system, ParticleState(ref.points, cell.p), cfg.evolve).final.q
    cell.residual = cell.goal - cell.endpoint
    return cell


@pytest.mark.parametrize("n", [6, 30, 200])
def test_newton_direction_is_the_step_of_lone_probe_shoots(n, shoots):
    """The 2N probes, shot as one stack, give the bits of J^-1 r with J
    built column by column from lone shoots: at N = 6 (one member chunk),
    N = 30 (two chunks) and N = 200 (two row blocks, one member a chunk)."""
    cell = _newton_cell(n)
    x = cell.x
    step = 1e-5 * max(1.0, float(np.max(np.abs(x))))
    jac = np.empty((x.size, x.size))
    for j in range(x.size):
        probe = np.zeros(x.shape)
        probe.flat[j] = step
        state = ParticleState(cell.q0, cell.momenta(x + probe))
        end = evolve(cell.cfg.system, state, cell.cfg.evolve).final.q
        jac[:, j] = ((end - cell.endpoint) / step).ravel()
    lone = np.linalg.solve(jac, cell.residual.ravel()).reshape(x.shape)
    stacked = shooting._newton_direction(cell)
    assert shoots[0] == 2 * n
    assert stacked.tobytes() == lone.tobytes()


def _failing(members):
    """A stand-in for shooting._shoot whose members ``members(B)`` fail."""
    shoot = shooting._shoot

    def failing_shoot(cells, ps):
        ends, failures = shoot(cells, ps)
        return ends, {b: DivergenceError("non-finite state at step 1") for b in members(len(ps))}

    return failing_shoot


def _unmoved(cells, ps):
    """A stand-in for shooting._shoot whose endpoints do not move: J = 0."""
    return np.stack([cells[0].endpoint] * len(ps)), {}


@pytest.mark.parametrize(
    "shoot",
    [_failing(range), _failing(lambda size: [size - 1]), _unmoved],
    ids=["diverging", "one-member-fails", "singular"],
)
def test_newton_direction_falls_back_to_the_residual(shoot, monkeypatch):
    # Probes that cannot be shot, a single probe of the stack that cannot,
    # or an endpoint that does not move (J = 0) turn the Newton step into
    # one feedback update.
    calls = []

    def spied_shoot(cells, ps):
        calls.append(len(ps))
        return shoot(cells, ps)

    monkeypatch.setattr(shooting, "_shoot", spied_shoot)
    cell = _newton_cell(8)
    assert shooting._newton_direction(cell) is cell.residual
    assert calls == [2 * 8]


def test_momenta_velocity_round_trip():
    rng = np.random.default_rng(7)
    q0 = heart4(n=16).points
    u0 = rng.normal(size=(16, 2))
    kernel = KernelSpec()
    p = momenta_from_velocity(kernel, q0, u0)
    back = gram_matrix(kernel, q0) @ p
    assert np.max(np.abs(back - u0)) < 1e-10


def test_converged_run_bookkeeping():
    result = match(REF, TGT, quick_cfg(epsilon=1e-8))
    assert result.converged
    assert result.diagnosis is None
    assert len(result.residual_history) == result.iterations
    assert result.residual_history[-1] < 1e-8
    assert result.final_residual < 1e-8
    assert result.final_template.label == f"{REF.label}>{TGT.label}"
    assert np.max(np.abs(result.final_template.points - TGT.points)) < 1e-7
    assert result.hamiltonian > 0


def test_update_spaces_find_the_same_root():
    vel = match(REF, TGT, quick_cfg(epsilon=1e-8))
    mom = match(REF, TGT, quick_cfg(epsilon=1e-8, update_space=UpdateSpace.MOMENTUM))
    assert vel.converged and mom.converged
    # Momentum-space updates contract more slowly but land on the same
    # momenta.
    assert mom.iterations > vel.iterations
    scale = np.max(np.abs(vel.p0))
    assert np.max(np.abs(vel.p0 - mom.p0)) / scale < 1e-6
    assert mom.hamiltonian == pytest.approx(vel.hamiltonian, rel=1e-6)


def test_newton_agrees_with_feedback_and_needs_fewer_iterations():
    fb = match(REF, TGT, quick_cfg(epsilon=1e-8))
    nw = newton_match(REF, TGT, quick_cfg(h=1.0, epsilon=1e-8))
    assert nw.converged
    assert nw.iterations < fb.iterations
    assert np.max(np.abs(nw.p0 - fb.p0)) < 1e-6
    assert nw.hamiltonian == pytest.approx(fb.hamiltonian, rel=1e-8)


def test_match_is_equivariant_under_isometry():
    iso = PlanarIsometry(angle=0.7, translation=(0.4, -0.2))
    cfg = quick_cfg(evolve=EvolveConfig(steps=40))
    plain = match(REF, TGT, cfg)
    moved = match(iso.apply(REF), iso.apply(TGT), cfg)
    assert moved.iterations == plain.iterations
    assert moved.hamiltonian == pytest.approx(plain.hamiltonian, abs=1e-12)
    np.testing.assert_allclose(moved.p0, plain.p0 @ iso.matrix().T, atol=1e-12)


@settings(max_examples=6, deadline=None)
@given(angle=st.floats(0.0, 2.0 * math.pi))
def test_iteration_count_is_rotation_invariant(angle):
    iso = PlanarIsometry.rotation(angle)
    cfg = quick_cfg(epsilon=1e-4, evolve=EvolveConfig(steps=30))
    plain = match(REF, TGT, cfg)
    moved = match(iso.apply(REF), iso.apply(TGT), cfg)
    assert moved.iterations == plain.iterations
    assert moved.hamiltonian == pytest.approx(plain.hamiltonian, abs=1e-10)


def test_contraction_tail_is_below_one():
    result = match(REF, TGT, quick_cfg(epsilon=1e-8))
    ratios = contraction_diagnostics(result)
    assert len(ratios) == result.iterations - 1
    tail = ratios[len(ratios) // 2 :]
    assert tail and max(tail) < 1.0


def test_contraction_diagnostics_short_history():
    result = match(REF, REF, quick_cfg())
    assert contraction_diagnostics(result) == []


def test_larger_h_contracts_faster():
    # Empirical contraction factor (mean tail ratio) drops as the
    # feedback gain grows, within the stable range.
    ref, tgt = circle(2.0, n=16), heart4(16)
    factors = []
    for h in (0.2, 0.4, 0.8):
        res = match(ref, tgt, ShootingConfig(h=h, max_iter=2000))
        assert res.converged
        ratios = contraction_diagnostics(res)
        factors.append(np.mean(ratios[len(ratios) // 2 :]))
    assert factors[0] > factors[1] > factors[2]


@pytest.mark.parametrize("solve", [match, newton_match])
def test_oversized_gain_reports_step_too_large(solve):
    cfg = quick_cfg(h=2.0, epsilon=1e-3, evolve=EvolveConfig(steps=60))
    result = solve(circle(2.0, n=16), heart4(n=16), cfg)
    assert not result.converged
    assert "step too large" in result.diagnosis
    assert np.all(np.isfinite(result.p0))


@pytest.mark.parametrize(
    "solve, space",
    [(match, "velocity"), (match, "momentum"), (newton_match, "velocity")],
)
def test_overflowing_update_ends_the_match_before_its_shoot(solve, space, shoots):
    """A gain so large that the update overflows ends the match as
    diverged, silently and without shooting the update (Newton still
    shoots its Jacobian probes); the result keeps the last finite
    iterate, here the start p = 0."""
    ref, tgt = circle(2.0, n=8), circle(10.0, n=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve(ref, tgt, quick_cfg(h=1e308, update_space=space))
    assert not result.converged
    assert result.diagnosis == "step too large (non-finite update)"
    assert result.iterations == 0 and result.residual_history == ()
    np.testing.assert_array_equal(result.p0, np.zeros((8, 2)))
    np.testing.assert_array_equal(result.final_template.points, ref.points)
    assert result.final_residual == 8.0
    assert result.hamiltonian == 0.0
    assert shoots[0] == (2 * 8 if solve is newton_match else 0)


@pytest.mark.parametrize("solve", [match, newton_match])
def test_failed_shoot_keeps_the_last_iterate_that_shot_cleanly(solve):
    """A gain so large that the first shoot goes non-finite ends the match
    as diverged with the start p = 0 and its endpoint, the reference: p0,
    H and the final template all belong to the one iterate."""
    ref = circle(2.0, n=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve(ref, heart4(16), ShootingConfig(h=1e100))
    assert not result.converged
    assert result.diagnosis.startswith("step too large (non-finite state at step 1 ")
    assert result.iterations == 0 and result.residual_history == ()
    np.testing.assert_array_equal(result.p0, np.zeros((16, 2)))
    np.testing.assert_array_equal(result.final_template.points, ref.points)
    assert result.hamiltonian == 0.0


@pytest.mark.parametrize("solve", [match, newton_match])
def test_iteration_cap_reported(solve):
    result = solve(REF, TGT, quick_cfg(max_iter=2))
    assert not result.converged
    assert result.iterations == 2
    assert "cap" in result.diagnosis


def test_match_across_two_row_blocks_converges_in_70_iterations():
    """At N = 200 every shoot's rhs runs its pairwise pass in two row
    blocks; the iteration count pins the blocked pass end to end."""
    cfg = ShootingConfig(h=0.3, evolve=EvolveConfig(steps=10))
    result = match(circle(2.0, n=200), heart4(200), cfg)
    assert result.converged
    assert result.iterations == 70


def test_inexact_matching_lowers_the_hamiltonian():
    inexact = match(REF, TGT, quick_cfg(h=0.4, system=SystemSpec(sigma2=0.3)))
    exact = match(REF, TGT, quick_cfg(h=0.4))
    assert inexact.converged and exact.converged
    assert inexact.hamiltonian < exact.hamiltonian


@pytest.mark.parametrize(
    "h, sigma2, iterations, H",
    [(0.4, 0.3, 21, 0.21668513616610366), (0.5, 0.1, 18, 0.2774373313496723)],
)
def test_inexact_match_stops_on_the_iterate_move(h, sigma2, iterations, H):
    # sigma2 > 0 stops once h * |r|, measured before each update, drops
    # below epsilon; the pinned values are those of the former explicit
    # iterate-delta rule on the same configuration.
    cfg = quick_cfg(h=h, system=SystemSpec(sigma2=sigma2))
    result = match(REF, TGT, cfg)
    assert result.converged
    assert result.iterations == iterations
    assert result.hamiltonian == H
    first_miss = np.max(np.hypot(*(TGT.points - REF.points).T))
    assert result.residual_history[0] == pytest.approx(h * first_miss)
    assert result.residual_history[-1] < cfg.epsilon <= result.residual_history[-2]
    assert result.final_residual < cfg.epsilon / h


def test_newton_rejects_inexact_system(shoots):
    cfg = quick_cfg(system=SystemSpec(sigma2=0.3))
    with pytest.raises(ConfigurationError, match="sigma2"):
        newton_match(REF, TGT, cfg)
    assert shoots[0] == 0


@pytest.mark.parametrize("bad", [dict(h=0.0), dict(h=-1.0), dict(h=math.inf)])
def test_config_rejects_bad_gain(bad):
    with pytest.raises(ConfigurationError):
        ShootingConfig(**bad)


def test_config_rejects_bad_tolerance_and_cap():
    with pytest.raises(ConfigurationError):
        ShootingConfig(h=0.5, epsilon=0.0)
    with pytest.raises(ConfigurationError):
        ShootingConfig(h=0.5, max_iter=0)
    with pytest.raises(ConfigurationError):
        ShootingConfig(h=0.5, max_iter=2.5)


def test_config_coerces_enum_strings():
    cfg = ShootingConfig(h=0.5, update_space="momentum", norm="l2")
    assert cfg.update_space is UpdateSpace.MOMENTUM
    assert cfg.norm is ResidualNorm.L2


def test_l2_norm_variant_converges():
    result = match(REF, TGT, quick_cfg(norm=ResidualNorm.L2))
    assert result.converged
    assert result.final_residual < 1e-6


def test_mismatched_landmark_counts_rejected():
    with pytest.raises(ConfigurationError, match="equal landmark counts"):
        match(circle(1.0, n=8), circle(2.0, n=16), quick_cfg())


_BESSEL = SystemSpec(KernelSpec(family="bessel", nu=2.5))


@pytest.mark.parametrize(
    "first, other",
    [
        (quick_cfg(), quick_cfg(evolve=EvolveConfig(steps=30))),
        (quick_cfg(), quick_cfg(evolve=EvolveConfig(t_final=0.5, steps=60))),
        (quick_cfg(), quick_cfg(system=SystemSpec(KernelSpec(family="gaussian")))),
        (quick_cfg(system=_BESSEL), quick_cfg(system=SystemSpec(KernelSpec(family="bessel", nu=3.5)))),
        (quick_cfg(), quick_cfg(system=SystemSpec(KernelSpec(normalized=False)))),
        (quick_cfg(), None),
    ],
    ids=["steps", "t-final", "family", "nu", "normalization", "landmark-count"],
)
def test_drive_rejects_problems_that_cannot_share_a_stack(first, other, shoots):
    """`_drive` shoots every problem on the first one's grid and
    kernel family, so problems that differ in N, the evolution config or
    the kernel's family, nu or normalization raise before any shoot;
    width, h and sigma2 may differ."""
    second = (REF, TGT, other) if other else (circle(1.0, n=16), circle(1.2, n=16), first)
    with pytest.raises(ConfigurationError, match="lockstep"):
        shooting._drive([(REF, TGT, first), second])
    assert shoots[0] == 0
    mixed = quick_cfg(h=0.3, system=SystemSpec(KernelSpec(alpha=0.7), sigma2=0.2))
    assert all(r.converged for r in shooting._drive([(REF, TGT, quick_cfg()), (REF, TGT, mixed)]))


def test_near_singular_gram_matrix_warns():
    # A very flat Gaussian makes the Gram matrix numerically rank one.
    kernel = KernelSpec(family=KernelFamily.GAUSSIAN, alpha=20.0)
    cfg = quick_cfg(
        epsilon=1e-2,
        max_iter=5,
        system=SystemSpec(kernel=kernel),
        evolve=EvolveConfig(steps=20),
    )
    result = match(circle(1.0, n=8), circle(1.1, n=8), cfg)
    assert result.warnings
    assert "condition number" in result.warnings[0]


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("shape", [lambda n: circle(2.0, n=n), heart4])
def test_gram_condition_estimate_is_within_10x_of_exact(shape, n):
    points = shape(n).points
    estimate = _GramSolver(KernelSpec(), points).condition
    exact = np.linalg.cond(gram_matrix(KernelSpec(), points))
    assert exact / 10.0 <= estimate <= 10.0 * exact


def test_momenta_from_velocity_validates_shapes():
    with pytest.raises(ValueError, match=r"\(N, 2\)"):
        momenta_from_velocity(KernelSpec(), np.zeros((4, 2)), np.zeros((3, 2)))
    q0 = circle(1.0, n=4).points.copy()
    q0[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        momenta_from_velocity(KernelSpec(), q0, np.zeros((4, 2)))


def _jittered_grid(n: int) -> np.ndarray:
    """n points of a unit grid, each moved by a little noise: a set whose
    Gram matrix is positive definite for every family at alpha = 1."""
    side = math.ceil(math.sqrt(n))
    grid = np.array([(i, j) for i in range(side) for j in range(side)], float)[:n]
    return grid + 0.05 * np.random.default_rng(n).normal(size=grid.shape)


def _one_blas_thread():
    """Runs scipy's own LAPACK calls on the one OpenBLAS thread that
    geoshoot's factor uses (nothing to pin without the bundled library)."""
    return _lapack._one_thread() if _lapack._LIB is not None else contextlib.nullcontext()


@pytest.mark.parametrize("n", [6, 64, 300, 1024])
@pytest.mark.parametrize("family", list(KernelFamily))
def test_gram_solver_equals_the_copied_factor_and_solve(family, n):
    """The in-place factor of K.T, solved without a finiteness scan,
    gives the bits of a plain one-thread factor of a copy of K; the lazy
    condition estimate is the eager one from K's 1-norm."""
    spec = KernelSpec(family=family, nu=2.5)
    q = _jittered_grid(n)
    u = np.random.default_rng(n + 1).normal(size=(n, 2))
    k = gram_matrix(spec, q)
    with _one_blas_thread():
        factor = cho_factor(k, lower=True)
    solver = _GramSolver(spec, q)
    assert np.array_equal(solver.solve(u), cho_solve(factor, u))
    norm1 = np.linalg.norm(k, 1)
    assert solver._norm1 == norm1
    # dpocon's last bit depends on the alignment of the workspace it
    # allocates, so two calls on one factor may differ by an ulp.
    rcond, info = dpocon(factor[0], norm1, uplo="L")
    assert info == 0
    assert solver.condition == pytest.approx(1.0 / rcond, rel=1e-13)


NEEDS_BUNDLED_LAPACK = pytest.mark.skipif(
    _lapack._LIB is None, reason="scipy bundles no OpenBLAS here: the unpinned fallback runs"
)


@NEEDS_BUNDLED_LAPACK
@pytest.mark.parametrize("n", [6, 200, 1024])
@pytest.mark.parametrize("family", list(KernelFamily))
def test_bundled_lapack_equals_the_scipy_fallback(family, n):
    """The ctypes binding and scipy.linalg.lapack's routines, the binding's
    fallback, give the same factor and solve bits, and the condition
    estimate up to dpocon's workspace ulp."""
    spec = KernelSpec(family=family, nu=2.5)
    q = _jittered_grid(n)
    u = np.random.default_rng(n + 1).normal(size=(n, 2))
    potrf, potrs, pocon = _lapack._scipy_routines()
    bundled, fallback = gram_matrix(spec, q).T, gram_matrix(spec, q).T
    norm1 = np.linalg.norm(bundled, 1)
    assert _lapack.dpotrf(bundled) == 0
    with _one_blas_thread():
        assert potrf(fallback) == 0
    assert np.array_equal(np.tril(bundled), np.tril(fallback))
    assert np.array_equal(_lapack.dpotrs(bundled, u), potrs(fallback, u))
    assert _lapack.dpocon(bundled, norm1) == pytest.approx(pocon(fallback, norm1), rel=1e-13)


@NEEDS_BUNDLED_LAPACK
def test_bundled_lapack_and_the_fallback_name_the_same_leading_minor(monkeypatch):
    spec = KernelSpec(family="gaussian", alpha=5.0)
    q = circle(2.0, n=32).points
    text = "kernel Gram matrix is not positive definite: 15-th leading minor of the array is not positive definite"
    with pytest.raises(DegenerateConfigurationError) as bundled:
        _GramSolver(spec, q)
    for name, routine in zip(("dpotrf", "dpotrs", "dpocon"), _lapack._scipy_routines()):
        monkeypatch.setattr(_lapack, name, routine)
    with _one_blas_thread(), pytest.raises(DegenerateConfigurationError) as fallback:
        _GramSolver(spec, q)
    assert str(bundled.value) == str(fallback.value) == text


def _run_python(code: str, **env) -> str:
    """stdout of ``code`` run by a fresh interpreter that finds geoshoot."""
    src = str(Path(shooting.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@NEEDS_BUNDLED_LAPACK
def test_matching_imports_neither_scipy_linalg_nor_scipy_special(tmp_path):
    """import geoshoot, a conical match and a CLI match load no
    scipy.linalg (the factor binds LAPACK directly) and no scipy.special
    (only bessel kernels need it)."""
    _run_python("\n".join([
        "import sys",
        "from geoshoot import ShootingConfig, circle, cli, match",
        "from geoshoot.io import save_template",
        "assert match(circle(1.0, n=6), circle(1.3, n=6), ShootingConfig(h=0.5)).converged",
        f"ref, tgt = {str(tmp_path / 'ref.json')!r}, {str(tmp_path / 'tgt.json')!r}",
        "save_template(circle(1.0, n=8), ref)",
        "save_template(circle(1.3, n=8), tgt)",
        f"assert cli.main(['match', ref, tgt, '--out', {str(tmp_path / 'out')!r}]) == 0",
        "loaded = sorted({'scipy.linalg', 'scipy.special'} & set(sys.modules))",
        "assert not loaded, loaded",
    ]))


@NEEDS_BUNDLED_LAPACK
def test_no_run_loads_openssl(tmp_path):
    """Neither library runs nor a CLI match load hashlib (OpenSSL): the
    manifest's input digests come from CPython's built-in SHA-256 and equal
    hashlib's.  The fallback LAPACK path imports scipy.linalg, which loads
    hashlib itself."""
    ref, tgt, out = (str(tmp_path / name) for name in ("ref.json", "tgt.json", "out"))
    _run_python("\n".join([
        "import json, sys",
        "from geoshoot import (EvolveConfig, KernelSpec, ParticleState, ShootingConfig,",
        "    SweepGrid, SystemSpec, circle, cli, convergence_sweep, evolve, heart4,",
        "    match, momenta_from_velocity, newton_match)",
        "from geoshoot.io import save_template",
        "a, b = circle(1.0, n=6), circle(1.3, n=6)",
        "assert match(a, b, ShootingConfig(h=0.5)).converged",
        "assert newton_match(a, b, ShootingConfig(h=1.0)).converged",
        "grid = SweepGrid((0.5, 1.0), (0.4, 0.8), n_landmarks=6, tolerance=1e-3)",
        "assert convergence_sweep(a, b, grid).shape == (2, 2)",
        "q = circle(1.0, n=16).points",
        "p = momenta_from_velocity(KernelSpec(), q, 0.5 * (heart4(n=16).points - q))",
        "evolve(SystemSpec(), ParticleState(q, p), EvolveConfig(steps=10))",
        "loaded = sorted({'hashlib', '_hashlib'} & set(sys.modules))",
        "assert not loaded, loaded",
        f"save_template(a, {ref!r})",
        f"save_template(b, {tgt!r})",
        f"assert cli.main(['match', {ref!r}, {tgt!r}, '--out', {out!r}]) == 0",
        "loaded = sorted({'hashlib', '_hashlib'} & set(sys.modules))",
        "assert not loaded, loaded",
        "import hashlib",
        f"with open({out!r} + '/manifest.json') as fh:",
        "    inputs = json.load(fh)['inputs']",
        "for path, digest in inputs.items():",
        "    with open(path, 'rb') as fh:",
        "        assert digest == hashlib.sha256(fh.read()).hexdigest(), path",
        f"assert sorted(inputs) == sorted([{ref!r}, {tgt!r}]), inputs",
    ]))


@NEEDS_BUNDLED_LAPACK
def test_momenta_recovery_bits_do_not_depend_on_the_blas_thread_count():
    """The threaded factor rounds differently from one thread at these N;
    the factor's one-thread pin makes two threads give one thread's bits.
    At N = 1024 the coordinate differences of the Gram build and of
    every rhs come from dgemm products, which keep their bits under two
    threads too: the Gram matrix and a 5-step evolve (the shape of the
    transport-n1024 benchmark) print the same digests."""
    code = "\n".join([
        "import hashlib",
        "from geoshoot import (EvolveConfig, KernelSpec, ParticleState, SystemSpec,",
        "                      circle, evolve, gram_matrix, heart4, momenta_from_velocity)",
        "def digest(*arrays):",
        "    return hashlib.sha256(b''.join(a.tobytes() for a in arrays)).hexdigest()",
        "for n in (200, 1024):",
        "    q, t = circle(1.0, n=n).points, heart4(n=n).points",
        "    p = momenta_from_velocity(KernelSpec(), q, 0.5 * (t - q))",
        "    print(n, digest(p))",
        "print('gram', digest(gram_matrix(KernelSpec(), q)))",
        "end = evolve(SystemSpec(), ParticleState(q, p), EvolveConfig(t_final=0.2, steps=5)).final",
        "print('evolve', digest(end.q, end.p))",
    ])
    one, two = (_run_python(code, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert one == two


@pytest.fixture()
def condition_estimates(monkeypatch):
    """A one-item list counting the condition estimates (dpocon calls)."""
    count = [0]
    estimate = _lapack.dpocon

    def counted_dpocon(*args, **kwargs):
        count[0] += 1
        return estimate(*args, **kwargs)

    monkeypatch.setattr(_lapack, "dpocon", counted_dpocon)
    return count


@pytest.mark.parametrize("order", ["C", "F"])
def test_momenta_recovery_estimates_no_condition_and_keeps_its_inputs(
    order, condition_estimates
):
    q0 = heart4(n=16).points
    u0 = np.asarray(np.random.default_rng(3).normal(size=(16, 2)), order=order)
    q_before, u_before = q0.copy(), u0.copy()
    momenta_from_velocity(KernelSpec(), q0, u0)
    assert condition_estimates[0] == 0
    assert np.array_equal(q0, q_before) and np.array_equal(u0, u_before)


def test_converged_match_estimates_the_condition_once_per_solver(condition_estimates):
    assert match(REF, TGT, quick_cfg()).converged
    assert condition_estimates[0] == 1
    # Two widths over one reference make two solvers, each shared by the
    # cells of its width and read once.
    condition_estimates[0] = 0
    wide = quick_cfg(system=SystemSpec(kernel=KernelSpec(alpha=1.5)))
    problems = [(REF, TGT, quick_cfg(h=h)) for h in (0.5, 1.0)] + [(REF, TGT, wide)] * 2
    assert all(res.converged for res in shooting._solve(problems))
    assert condition_estimates[0] == 2
