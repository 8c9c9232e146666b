"""Distance records, clustering, sweeps, prediction, exactness rows."""

import math

import numpy as np
import pytest

from geoshoot import (
    DIVERGED,
    ConfigurationError,
    DegenerateConfigurationError,
    DistanceRecord,
    DivergenceError,
    EvolveConfig,
    KernelSpec,
    LandmarkTemplate,
    ParticleState,
    PlanarIsometry,
    ShootingConfig,
    SweepGrid,
    SystemSpec,
    circle,
    cluster_test,
    convergence_sweep,
    ellipse_rot_shift,
    evolve,
    exact_vs_inexact,
    heart4,
    iso_invariance_check,
    match,
    predict,
    shape_distance,
    triangle_inequality_audit,
)
from geoshoot import kernels, shooting

REF = circle(1.0, n=8)
TGT = ellipse_rot_shift(1.3, 0.9, 0.0, (0.1, 0.0), n=8)
CFG = ShootingConfig(h=0.5, epsilon=1e-6, evolve=EvolveConfig(steps=60))


def test_self_distance_is_zero():
    rec = shape_distance(REF, REF, CFG)
    assert rec.converged
    assert rec.H == 0.0
    assert rec.iterations == 0
    assert rec.reference_label == REF.label
    assert rec.target_label == REF.label


def test_distance_is_positive_and_nearly_symmetric():
    fwd = shape_distance(REF, TGT, CFG)
    rev = shape_distance(TGT, REF, CFG)
    assert fwd.converged and rev.converged
    assert fwd.H > 0
    # Swapping arguments solves a different boundary problem, so only
    # near-symmetry is expected.
    assert rev.H == pytest.approx(fwd.H, rel=1e-3)


def test_iso_invariance_is_machine_zero():
    g = PlanarIsometry(angle=np.pi / 3, translation=(0.5, 0.5), reflect_x=True)
    assert abs(iso_invariance_check(REF, TGT, g, CFG)) <= 1e-12


def test_iso_check_raises_on_nonconvergence():
    starved = ShootingConfig(h=0.5, epsilon=1e-6, max_iter=1, evolve=EvolveConfig(steps=60))
    with pytest.raises(DivergenceError, match="original"):
        iso_invariance_check(REF, TGT, PlanarIsometry.rotation(0.3), starved)


def test_cluster_identical_shapes_same_cluster():
    refs = [circle(3.0, n=8, label="big"), heart4(n=8, label="h")]
    verdict = cluster_test(
        REF, circle(1.0, n=8, label="copy"), refs,
        {"pair": 0.05, "ref_diff": 1.5}, CFG,
    )
    assert verdict.same_cluster is True
    assert len(verdict.evidence) == 1 + 2 * len(refs)
    assert verdict.evidence[0].H == pytest.approx(0.0, abs=1e-12)
    # Reference rows come in (ref, a), (ref, b) pairs.
    assert verdict.evidence[1].reference_label == "big"
    assert verdict.evidence[2].reference_label == "big"


def test_cluster_inconclusive_when_a_match_fails():
    starved = ShootingConfig(h=0.5, epsilon=1e-12, max_iter=1, evolve=EvolveConfig(steps=30))
    verdict = cluster_test(
        REF, TGT, [circle(3.0, n=8), heart4(n=8)],
        {"pair": 10.0, "ref_diff": 10.0}, starved,
    )
    assert verdict.same_cluster is None


def test_cluster_preprocess_removes_pose_and_scale():
    a = circle(1.0, n=8, label="a")
    b = circle(2.0, center=(3.0, 1.0), n=8, label="b")
    refs = [heart4(n=8), ellipse_rot_shift(2.0, 1.0, 0.0, n=8)]
    verdict = cluster_test(
        a, b, refs, {"pair": 1e-6, "ref_diff": 1.0}, CFG, preprocess=True
    )
    assert verdict.same_cluster is True
    assert verdict.evidence[0].H == pytest.approx(0.0, abs=1e-12)


def test_cluster_validates_inputs():
    refs = [circle(3.0, n=8), heart4(n=8)]
    with pytest.raises(ConfigurationError, match="at least 2"):
        cluster_test(REF, TGT, refs[:1], {"pair": 1, "ref_diff": 1}, CFG)
    with pytest.raises(ConfigurationError, match="ref_diff"):
        cluster_test(REF, TGT, refs, {"pair": 1}, CFG)
    with pytest.raises(ConfigurationError, match="positive"):
        cluster_test(REF, TGT, refs, {"pair": 0, "ref_diff": 1}, CFG)


def _rec(x, y, H, converged=True):
    return DistanceRecord(x, y, H, 10, converged)


def test_triangle_audit_reports_without_asserting():
    records = [
        _rec("a", "b", 1.0),
        _rec("b", "c", 1.0),
        _rec("a", "c", 3.0),
    ]
    report = triangle_inequality_audit(records)
    by_route = {(e["from"], e["to"], e["via"]): e for e in report}
    broken = by_route[("a", "c", "b")]
    assert broken["direct"] == 3.0
    assert broken["detour"] == 2.0
    assert broken["holds"] is False
    # Reverse-direction fallback: (c, a) resolves through (a, c).
    assert ("c", "a", "b") in by_route


def test_triangle_audit_skips_unconverged_records():
    records = [
        _rec("a", "b", 1.0),
        _rec("b", "c", 1.0),
        _rec("a", "c", 3.0, converged=False),
    ]
    assert triangle_inequality_audit(records) == []


def test_triangle_audit_pins_the_full_report():
    # (a, c) resolves through (c, a), (b, a) is used as given next to
    # (a, b), and the unconverged (c, d) leaves every route over c-d out.
    records = [
        _rec("a", "b", 1.0),
        _rec("b", "a", 1.5),
        _rec("b", "c", 2.0),
        _rec("c", "a", 2.5),
        _rec("a", "d", 4.0),
        _rec("d", "b", 0.5),
        _rec("c", "d", 9.0, converged=False),
    ]
    routes = [
        ("a", "b", "c", 1.0, 4.5, True),
        ("a", "b", "d", 1.0, 4.5, True),
        ("a", "c", "b", 2.5, 3.0, True),
        ("a", "d", "b", 4.0, 1.5, False),
        ("b", "a", "c", 1.5, 4.5, True),
        ("b", "a", "d", 1.5, 4.5, True),
        ("b", "c", "a", 2.0, 4.0, True),
        ("b", "d", "a", 0.5, 5.5, True),
        ("c", "a", "b", 2.5, 3.5, True),
        ("c", "b", "a", 2.0, 3.5, True),
        ("d", "a", "b", 4.0, 2.0, False),
        ("d", "b", "a", 0.5, 5.0, True),
    ]
    keys = ("from", "to", "via", "direct", "detour", "holds")
    assert triangle_inequality_audit(records) == [dict(zip(keys, r)) for r in routes]


def test_sweep_counts_and_divergence_cells():
    grid = SweepGrid(
        alpha2_values=(0.5, 1.0),
        h_values=(0.4, 0.8, 2.5),
        n_landmarks=8,
        tolerance=1e-3,
        max_iter=200,
    )
    mat = convergence_sweep(REF, TGT, grid)
    assert mat.shape == (2, 3)
    assert mat.dtype.kind == "i"
    # Larger feedback gain converges in fewer iterations until it tips over.
    assert np.all(mat[:, 0] > mat[:, 1])
    assert np.all(mat[:, :2] > 0)
    assert np.all(mat[:, 2] == DIVERGED)


def test_sweep_cells_without_a_gram_factor_diverge():
    # Wide gaussian kernels over 32 landmarks have numerically singular
    # Gram matrices; their cells are data, not an error.
    grid = SweepGrid((400.0,), (0.4, 0.8), n_landmarks=32, kernel_family="gaussian")
    mat = convergence_sweep(circle(2.0, n=32), heart4(32), grid)
    assert mat.tolist() == [[DIVERGED, DIVERGED]]


def test_sweep_cell_whose_update_overflows_diverges():
    grid = SweepGrid((1.0,), (0.5, 1e308), n_landmarks=8, tolerance=1e-3)
    mat = convergence_sweep(circle(2.0, n=8), circle(10.0, n=8), grid)
    assert mat[0, 0] > 0
    assert mat[0, 1] == DIVERGED


def test_sweep_factors_each_gram_matrix_once(monkeypatch):
    """The alpha^2 = 400 Gram matrix has no Cholesky factor; its five
    cells share one failed attempt, as the other row shares one factor."""
    made = []

    class CountedGramSolver(shooting._GramSolver):
        def __init__(self, kernel, q0):
            made.append(kernel)
            super().__init__(kernel, q0)

    monkeypatch.setattr(shooting, "_GramSolver", CountedGramSolver)
    grid = SweepGrid(
        (0.2, 400.0), (0.2, 0.4, 0.6, 0.8, 1.0), n_landmarks=32, kernel_family="gaussian"
    )
    mat = convergence_sweep(circle(2.0, n=32), heart4(32), grid)
    assert len(made) == 2
    assert np.all(mat == DIVERGED)


def test_sweep_rejects_unequal_landmark_counts():
    # A bad pair is a configuration error, not a grid of diverged cells.
    grid = SweepGrid(alpha2_values=(1.0,), h_values=(0.5,), n_landmarks=16)
    with pytest.raises(ConfigurationError, match="equal landmark counts"):
        convergence_sweep(circle(2.0, n=16), circle(2.0, n=12), grid)
    with pytest.raises(ConfigurationError, match="n_landmarks = 16"):
        convergence_sweep(circle(2.0, n=12), circle(2.0, n=12), grid)


def test_sweep_grid_validation():
    with pytest.raises(ConfigurationError):
        SweepGrid(alpha2_values=(), h_values=(0.1,))
    with pytest.raises(ConfigurationError):
        SweepGrid(alpha2_values=(0.5, -1.0), h_values=(0.1,))
    with pytest.raises(ConfigurationError):
        SweepGrid(alpha2_values=(0.5,), h_values=(0.1,), tolerance=0.0)
    with pytest.raises(ConfigurationError):
        SweepGrid(alpha2_values=(0.5,), h_values=(0.1,), n_landmarks=2)
    with pytest.raises(ConfigurationError):
        SweepGrid(alpha2_values=(0.5,), h_values=(0.1,), n_landmarks=math.nan)
    with pytest.raises(ConfigurationError):
        SweepGrid(alpha2_values=(0.5,), h_values=(0.1,), max_iter=2.5)


def _half_observed():
    full = match(REF, TGT, CFG)
    half = evolve(
        CFG.system, ParticleState(REF.points, full.p0), EvolveConfig(t_final=0.5, steps=50)
    )
    return LandmarkTemplate(half.final.q, "partial")


def test_predict_recovers_the_unseen_segment():
    partial = _half_observed()
    cfg = ShootingConfig(h=0.5, epsilon=1e-6, evolve=EvolveConfig(steps=50))
    pred = predict(REF, partial, 0.5, 1.0, cfg)
    err = np.max(np.linalg.norm(pred.points - TGT.points, axis=1))
    assert err < 1e-4
    assert pred.label == "circle(r=1)>partial@t=1"


def test_predict_at_match_time_reproduces_the_observation():
    partial = _half_observed()
    cfg = ShootingConfig(h=0.5, epsilon=1e-6, evolve=EvolveConfig(steps=50))
    pred = predict(REF, partial, 0.5, 0.5, cfg)
    assert np.max(np.linalg.norm(pred.points - partial.points, axis=1)) < 1e-5


def test_predict_validates_times():
    partial = _half_observed()
    with pytest.raises(ConfigurationError, match="t_match"):
        predict(REF, partial, 0.0, 0.5, CFG)
    with pytest.raises(ConfigurationError, match="t_match"):
        predict(REF, partial, 1.0, 1.0, CFG)
    with pytest.raises(ConfigurationError, match="t_predict"):
        predict(REF, partial, 0.5, 0.4, CFG)
    # The onward run's step count would overflow.
    with pytest.raises(ConfigurationError, match="finite step count"):
        predict(REF, partial, 0.5, 1e308, CFG)


def test_predict_surfaces_match_failure():
    partial = _half_observed()
    starved = ShootingConfig(h=0.5, epsilon=1e-12, max_iter=1, evolve=EvolveConfig(steps=50))
    with pytest.raises(DivergenceError, match="prediction match failed"):
        predict(REF, partial, 0.5, 1.0, starved)


def test_exactness_table_layout_and_trend():
    rows = exact_vs_inexact(REF, TGT, [0.0, 0.3], CFG, h_by_sigma2={0.3: 0.4})
    assert len(rows) == 3
    exact, zero, inexact = rows
    assert exact.sigma2 == 0.0 and exact.converged
    # A requested sigma2 = 0 row is the exact run itself.
    assert zero == exact
    assert inexact.sigma2 == 0.3
    assert inexact.h == 0.4
    assert inexact.converged
    # The relaxation spends less deformation energy.
    assert inexact.H < exact.H


def test_exactness_rejects_negative_sigma2():
    with pytest.raises(ConfigurationError, match="sigma2"):
        exact_vs_inexact(REF, TGT, [-0.1], CFG)


def _grid_cfgs(alpha2_values, h_values, **kw):
    return [
        ShootingConfig(h=h, system=SystemSpec(kernel=KernelSpec(alpha=math.sqrt(a2))), **kw)
        for a2 in alpha2_values
        for h in h_values
    ]


def _mixed_problems(pairs, h_values, **kw):
    """Every pair x sigma2 in {0, 0.3} x h x update space, all with one
    kernel (so each pair's Gram factor is its reference's own), then one
    cell whose Gram matrix is singular: at alpha = 1e17 every conical
    kernel entry rounds to 1."""
    problems = [
        (ref, tgt, ShootingConfig(
            h=h, update_space=space, system=SystemSpec(sigma2=sigma2), **kw
        ))
        for ref, tgt in pairs
        for sigma2 in (0.0, 0.3)
        for h in h_values
        for space in ("velocity", "momentum")
    ]
    ref, tgt = pairs[0]
    return problems + [(ref, tgt, ShootingConfig(
        h=0.5, system=SystemSpec(kernel=KernelSpec(alpha=1e17)), **kw
    ))]


def _outcome(res):
    if isinstance(res, Exception):
        return type(res), str(res)
    return (
        res.p0.tobytes(), res.iterations, res.converged, res.residual_history,
        res.hamiltonian, res.final_template.points.tobytes(),
        res.final_template.label, res.final_residual, res.diagnosis, res.warnings,
    )


@pytest.mark.parametrize(
    "problems",
    [
        # Converging, capped (h = 0.4 needs 12), blown-up and non-finite cells.
        [(REF, TGT, cfg) for cfg in _grid_cfgs(
            (0.5, 1.0), (0.4, 0.8, 6.0, 1e100), epsilon=1e-3, max_iter=10
        )],
        # Nine cells at N = 64 run as two member chunks of the stacked rhs.
        [(circle(2.0, n=64), heart4(64), cfg) for cfg in _grid_cfgs(
            (0.3, 0.6, 1.0), (0.3, 0.6, 0.9),
            epsilon=1e-2, max_iter=6, evolve=EvolveConfig(steps=10),
        )],
        # Two template pairs, exact and inexact, both update spaces.
        _mixed_problems(
            [(REF, TGT), (heart4(8, label="h"), circle(1.5, n=8, label="c"))],
            (0.4, 0.8, 6.0, 1e100), epsilon=1e-3, max_iter=10,
        ),
        _mixed_problems(
            [(circle(2.0, n=64), heart4(64)), (heart4(64), circle(2.5, n=64))],
            (0.3, 0.9), epsilon=1e-2, max_iter=6, evolve=EvolveConfig(steps=10),
        ),
    ],
    ids=["mixed", "n64", "problems-n8", "problems-n64"],
)
def test_lockstep_cells_equal_lone_matches(problems):
    results = shooting._drive(problems)
    assert len(results) == len(problems)
    outcomes = set()
    for (ref, tgt, cfg), res in zip(problems, results):
        try:
            alone = match(ref, tgt, cfg)
        except DegenerateConfigurationError as exc:
            alone = exc
        assert _outcome(res) == _outcome(alone)
        if isinstance(res, Exception):
            outcomes.add(type(res).__name__)
        else:
            outcomes.add((res.diagnosis or "converged").split(" (")[0])
    singular = any(cfg.system.kernel.alpha == 1e17 for _, _, cfg in problems)
    assert ("DegenerateConfigurationError" in outcomes) == singular
    if problems[0][0].n == 64:
        assert kernels._plan(64, 64)[1] < len(problems)
    else:
        assert outcomes - {"DegenerateConfigurationError"} == {
            "converged",
            "iteration cap reached before the stopping rule",
            "step too large",
        }
        assert any("non-finite" in (res.diagnosis or "") for res in results
                   if not isinstance(res, Exception))


def test_requested_exact_row_reuses_the_exact_run(monkeypatch):
    """Rows with equal configs share one match: the problems that reach
    the driver are the distinct (sigma2, h) rows."""
    drives = []

    def counted(problems, direction=None):
        drives.append(len(problems))
        return drive(problems, direction)

    drive = shooting._drive
    monkeypatch.setattr(shooting, "_drive", counted)
    exact, zero, _ = exact_vs_inexact(REF, TGT, [0.0, 0.3], CFG, h_by_sigma2={0.3: 0.4})
    assert drives == [2]
    assert zero == exact
    rows = exact_vs_inexact(REF, TGT, [0.3, 0.3], CFG, h_by_sigma2={0.3: 0.4})
    assert drives == [2, 2]
    assert rows[1] == rows[2] and rows[1].sigma2 == 0.3


def test_cluster_errors_name_the_first_bad_match():
    refs = [circle(3.0, n=9, label="nine"), heart4(n=8)]
    with pytest.raises(ConfigurationError, match=r"9 \(reference\) vs 8 \(target\)"):
        cluster_test(REF, TGT, refs, {"pair": 1, "ref_diff": 1}, CFG)
    # A wide gaussian kernel over 32 landmarks has no Cholesky factor.
    wide = ShootingConfig(h=0.4, system=SystemSpec(kernel=KernelSpec(family="gaussian", alpha=5.0)))
    with pytest.raises(DegenerateConfigurationError, match="not positive definite"):
        cluster_test(
            circle(2.0, n=32), heart4(32), [circle(3.0, n=32), heart4(32, label="h")],
            {"pair": 1, "ref_diff": 1}, wide,
        )
