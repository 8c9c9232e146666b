"""Acceptance gate: seventeen numbered criteria, one test and one
printed pass/fail line each.

The quantitative criteria pin Hamiltonian values, iteration counts,
residual brackets, and invariance bounds on the study fixtures used
throughout the documentation (circle onto heart curve, rotated ellipse,
the five-target shape panel, the two-ellipse clustering set).  The
property criteria check conservation laws, oracle equivalence, and
integrator order independently of any pinned constant.  Expensive
matches are cached and shared across criteria; every converged run is
also registered for the final contraction audit.
"""

import json
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from geoshoot import (
    DIVERGED,
    EvolveConfig,
    KernelSpec,
    LandmarkTemplate,
    ParticleState,
    PlanarIsometry,
    ResidualNorm,
    ShootingConfig,
    SweepGrid,
    SystemSpec,
    circle,
    circle_ellipse_hybrid,
    cluster_test,
    conserved_quantities,
    contraction_diagnostics,
    convergence_sweep,
    ellipse_rot_shift,
    evolve,
    exact_vs_inexact,
    gram_matrix,
    heart4,
    kernel_derivative,
    kernel_value,
    load_template,
    match,
    momenta_from_velocity,
    newton_match,
    predict,
    rhs,
    square,
    standard_rotated_ellipse,
)
from geoshoot import shooting
from geoshoot.cli import main as cli_main

KERNEL = KernelSpec()  # conical, alpha = 1, normalized
SYS = SystemSpec(kernel=KERNEL)

CIRCLE2 = circle(2.0, n=64, label="circle2")
HEART = heart4(64, label="heart")
ELLIPSE = standard_rotated_ellipse(4.0, 1.0, -math.pi / 4, (1.0, 0.0), 64, label="ell")

# Five-target panel matched from the r=2 circle, with the pinned
# Hamiltonians each match must reproduce to within 10%.
PANEL = {
    "b": circle(1.0, n=64, label="b"),
    "c": circle(3.0, n=64, label="c"),
    "d": ellipse_rot_shift(1.0, 4.0, 0.0, (0.0, 0.0), 64, label="d"),
    "e": circle_ellipse_hybrid(3.0, 3.0, 1.0, 64, label="e"),
    "f": square(4.0, 64, label="f"),
}
PANEL_PINS = {"b": 7.2456, "c": 9.1209, "d": 19.2438, "e": 8.2542, "f": 2.9958}

# Clustering set: two near-identical ellipses judged against two circle
# references of different radius.
CLUSTER_A = ellipse_rot_shift(4.0, 1.0, 0.0, (0.0, 0.0), 64, label="A")
CLUSTER_B = ellipse_rot_shift(4.0, 1.05, 0.0, (0.0, 0.0), 64, label="B")
CLUSTER_C = circle(2.0, n=64, label="C")
CLUSTER_D = circle(3.0, n=64, label="D")

SWEEP_AXES = (0.2, 0.4, 0.6, 0.8, 1.0)

# (tag, MatchResult) for every converged matching run; criterion 16
# audits the whole list, so it must run after the others (file order).
RUNS = []


def _cfg(h, eps=1e-3, **kw):
    kw.setdefault("max_iter", 2000)
    kw.setdefault("system", SYS)
    return ShootingConfig(h=h, epsilon=eps, **kw)


def _match(tag, reference, target, cfg):
    res = match(reference, target, cfg)
    if res.converged:
        RUNS.append((tag, res))
    return res


@lru_cache(maxsize=None)
def _heart_run(h):
    return _match(f"heart h={h:g}", CIRCLE2, HEART, _cfg(h))


@lru_cache(maxsize=None)
def _panel_run(key):
    return _match(f"panel {key}", CIRCLE2, PANEL[key], _cfg(0.3))


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def _swirl_state(n):
    template = circle(2.0, n=n)
    t = np.arctan2(template.points[:, 1], template.points[:, 0])
    p = 0.8 * np.column_stack([-np.sin(t), np.cos(t)]) + 0.3 * np.column_stack(
        [np.cos(2 * t), np.sin(2 * t)]
    )
    return ParticleState(template.points, p)


def test_criterion_01_heart_hamiltonian():
    res = _heart_run(0.4)
    pin = 18.5728
    ok = res.converged and abs(res.hamiltonian - pin) <= 0.05 * pin
    _report(1, ok, f"H = {res.hamiltonian:.4f}, pin {pin} +-5%")


@pytest.fixture(scope="module")
def ellipse_via_cli(tmp_path_factory):
    """Generate the study ellipse through the CLI so the manifest records
    which generator variant produced it."""
    out = tmp_path_factory.mktemp("fixtures")
    ref_path = out / "circle.json"
    tgt_path = out / "ellipse.json"
    assert cli_main(
        ["shapes", "circle", "--radius", "2", "--n", "64", "--out", str(ref_path)]
    ) == 0
    assert cli_main(
        [
            "shapes", "rotated-ellipse", "--a", "4", "--b", "1",
            "--angle", str(-math.pi / 4), "--shift-x", "1", "--n", "64",
            "--out", str(tgt_path),
        ]
    ) == 0
    manifest = json.loads(tgt_path.with_suffix(".manifest.json").read_text())
    return load_template(ref_path), load_template(tgt_path), manifest


def test_criterion_02_ellipse_example(ellipse_via_cli):
    ref_cli, tgt_cli, manifest = ellipse_via_cli
    assert np.array_equal(ref_cli.points, CIRCLE2.points)
    assert np.array_equal(tgt_cli.points, ELLIPSE.points)

    res = _match("ellipse h=0.3", CIRCLE2, ELLIPSE, _cfg(0.3))
    pin = 46.5022
    h_ok = res.converged and abs(res.hamiltonian - pin) <= 0.05 * pin
    it_ok = 150 <= res.iterations <= 260
    extras = manifest["extras"]
    variant_ok = (
        extras["generator"] == "rotated-ellipse"
        and extras["params"]["a"] == 4.0
        and extras["params"]["b"] == 1.0
        and extras["params"]["angle"] == -math.pi / 4
    )
    _report(
        2,
        h_ok and it_ok and variant_ok,
        f"H = {res.hamiltonian:.4f} (pin {pin} +-5%), "
        f"iterations = {res.iterations} in [150, 260], "
        f"manifest variant = {extras['generator']}",
    )


def test_criterion_03_step_size_trend():
    hs = (0.2, 0.4, 0.6, 0.8)
    runs = [_heart_run(h) for h in hs]
    its = [r.iterations for r in runs]
    decreasing = all(r.converged for r in runs) and all(
        a > b for a, b in zip(its, its[1:])
    )
    diverged = not _heart_run(1.5).converged
    band = 12 <= its[-1] <= 30
    _report(
        3,
        decreasing and diverged and band,
        f"iterations {its} strictly decreasing, h=1.5 diverges, "
        f"h=0.8 count in [12, 30]",
    )


def test_criterion_04_conical_n16_grid():
    ref, tgt = circle(2.0, n=16), heart4(16)
    # Convergence-within-500 and the fast corner hold at the tight
    # tolerance; the per-column spread is a property of the counts at
    # 1e-3, where the pinned grid lives (the tight tolerance roughly
    # doubles every count and stretches the slowest column's spread).
    tight = convergence_sweep(
        ref, tgt, SweepGrid(SWEEP_AXES, SWEEP_AXES, n_landmarks=16, tolerance=1e-6)
    )
    loose = convergence_sweep(
        ref, tgt, SweepGrid(SWEEP_AXES, SWEEP_AXES, n_landmarks=16, tolerance=1e-3)
    )
    conv_ok = bool(np.all(tight[:, :4] != DIVERGED))
    corner = int(tight[0, 4])
    corner_ok = corner != DIVERGED and corner <= 20
    spreads = loose.max(axis=0) - loose.min(axis=0)
    spread_ok = bool(np.all(loose != DIVERGED)) and bool(np.all(spreads <= 5))
    _report(
        4,
        conv_ok and corner_ok and spread_ok,
        f"h<=0.8 all converge at 1e-6, corner cell = {corner} <= 20, "
        f"column spreads {spreads.tolist()} <= 5 at 1e-3",
    )


def test_criterion_05_gaussian_vs_conical_divergence():
    ref, tgt = circle(2.0, n=32), heart4(32)
    counts = {}
    for family in ("conical", "gaussian"):
        grid = SweepGrid(
            SWEEP_AXES, SWEEP_AXES, n_landmarks=32, kernel_family=family
        )
        matrix = convergence_sweep(ref, tgt, grid)
        counts[family] = int((matrix == DIVERGED).sum())
    _report(
        5,
        counts["gaussian"] > counts["conical"],
        f"diverged cells: gaussian {counts['gaussian']} > "
        f"conical {counts['conical']} (of 25)",
    )


def test_criterion_06_isometry_invariance():
    base = _panel_run("e")
    assert base.converged
    worst = 0.0
    for name, iso in (
        ("rotation", PlanarIsometry.rotation(math.pi / 3)),
        ("shift", PlanarIsometry.shift((0.5, 0.5))),
        ("reflection", PlanarIsometry.reflection_x()),
    ):
        moved = _match(
            f"hybrid {name}", iso.apply(CIRCLE2), iso.apply(PANEL["e"]), _cfg(0.3)
        )
        assert moved.converged
        worst = max(worst, abs(moved.hamiltonian - base.hamiltonian))
    _report(6, worst <= 1e-10, f"max |dH| over 3 isometries = {worst:.2e} <= 1e-10")


def test_criterion_07_shape_panel_ordering():
    H = {k: _panel_run(k).hamiltonian for k in PANEL}
    conv_ok = all(_panel_run(k).converged for k in PANEL)
    order_ok = H["f"] < H["b"] < H["e"] < H["c"] < H["d"]
    pins_ok = all(abs(H[k] - pin) <= 0.10 * pin for k, pin in PANEL_PINS.items())
    values = ", ".join(f"{k}={H[k]:.4f}" for k in "fbecd")
    _report(7, conv_ok and order_ok and pins_ok, f"f<b<e<c<d with {values}, all +-10%")


def test_criterion_08_clustering_verdicts():
    refs = [CLUSTER_C, CLUSTER_D]
    coarse = cluster_test(
        CLUSTER_A, CLUSTER_B, refs, {"pair": 0.05, "ref_diff": 1.5}, _cfg(0.3)
    )
    fine = cluster_test(
        CLUSTER_A, CLUSTER_B, refs, {"pair": 0.05, "ref_diff": 1.0}, _cfg(0.3)
    )
    ab, ca, cb, da, db = (rec.H for rec in coarse.evidence)
    gap_c = abs(ca - cb)
    gap_d = abs(da - db)
    ok = (
        ab <= 0.05
        and gap_c <= 1.5
        and gap_d >= 1.0
        and coarse.same_cluster is True
        and fine.same_cluster is False
    )
    _report(
        8,
        ok,
        f"H(AB) = {ab:.4f} <= 0.05, C gap = {gap_c:.4f} <= 1.5, "
        f"D gap = {gap_d:.4f} >= 1.0, verdicts {coarse.same_cluster}/{fine.same_cluster}",
    )


def test_criterion_09_inexact_relaxation_table():
    rows = exact_vs_inexact(
        CIRCLE2, ELLIPSE, [0.1, 0.5], _cfg(0.3), h_by_sigma2={0.1: 0.4, 0.5: 0.1}
    )
    exact, s01, s05 = rows
    exact_ok = exact.converged and exact.final_residual < 1e-3
    s01_ok = (
        s01.converged
        and abs(s01.H - 45.3927) <= 0.05 * 45.3927
        and 0.002 <= s01.final_residual <= 0.01
    )
    s05_ok = (
        s05.converged
        and abs(s05.H - 41.3482) <= 0.05 * 41.3482
        and 0.008 <= s05.final_residual <= 0.03
    )
    _report(
        9,
        exact_ok and s01_ok and s05_ok,
        f"exact resid {exact.final_residual:.1e} < 1e-3; "
        f"s2=0.1: H = {s01.H:.4f}, resid {s01.final_residual:.4f}; "
        f"s2=0.5: H = {s05.H:.4f}, resid {s05.final_residual:.4f}",
    )


def test_criterion_10_prediction_from_partial_observation():
    full = _heart_run(0.4)
    assert full.converged
    observed = evolve(
        SYS, ParticleState(CIRCLE2.points, full.p0), EvolveConfig(t_final=0.6, steps=100)
    ).final.q
    partial = LandmarkTemplate(observed, "heart@0.6")
    predicted = predict(CIRCLE2, partial, 0.6, 1.0, _cfg(0.3))
    dist = float(np.max(np.linalg.norm(predicted.points - HEART.points, axis=1)))
    _report(10, dist <= 0.05, f"max landmark distance = {dist:.4f} <= 0.05")


def test_criterion_11_feedback_beats_newton_walltime(monkeypatch):
    # Shoots are counted next to the wall times: the counts are the same
    # on every run, so they show whether a wall ratio moved with the work.
    shoots = [0]
    evolve_stack = shooting._evolve_stack

    def counted_evolve(spec, k, q, *args):
        shoots[0] += len(q)  # one shoot per member of the stack
        return evolve_stack(spec, k, q, *args)

    monkeypatch.setattr(shooting, "_evolve_stack", counted_evolve)

    def timed(solve, *args):
        shoots[0] = 0
        t0 = time.perf_counter()
        res = solve(*args)
        return res, time.perf_counter() - t0, shoots[0]

    walls, counts = {}, {}
    for n in (60, 30):
        ref = circle(2.0, n=n)
        tgt = standard_rotated_ellipse(4.0, 1.0, -math.pi / 4, (1.0, 0.0), n)
        fb, t_fb, s_fb = timed(match, ref, tgt, _cfg(0.3, norm=ResidualNorm.L2))
        nw, t_nw, s_nw = timed(newton_match, ref, tgt, _cfg(1.0, norm=ResidualNorm.L2))
        assert fb.converged and nw.converged  # equal l2 residual target
        if fb.converged:
            RUNS.append((f"timing n={n}", fb))
        walls[n] = (t_fb, t_nw)
        counts[n] = (s_fb, s_nw)
    faster = walls[60][0] < walls[60][1]
    ratio = max(walls[30]) / min(walls[30])
    _report(
        11,
        faster and ratio <= 2.0,
        f"N=60 feedback {walls[60][0]:.2f}s ({counts[60][0]} shoots) < newton "
        f"{walls[60][1]:.2f}s ({counts[60][1]} shoots); N=30 ratio {ratio:.2f} <= 2 "
        f"(feedback {counts[30][0]} / newton {counts[30][1]} shoots)",
    )


def test_criterion_12_conserved_quantities():
    state = _swirl_state(64)
    before = conserved_quantities(SYS, state)
    after = conserved_quantities(
        SYS, evolve(SYS, state, EvolveConfig(t_final=1.0, steps=200)).final
    )
    rel_h = abs(after["H"] - before["H"]) / abs(before["H"])
    dp = float(np.abs(after["P"] - before["P"]).max())
    dl = abs(after["L"] - before["L"])
    ok = rel_h <= 1e-7 and dp <= 1e-10 and dl <= 1e-8
    _report(12, ok, f"rel dH = {rel_h:.1e}, |dP| = {dp:.1e}, |dL| = {dl:.1e}")


def test_criterion_13_symbolic_oracle_equivalence():
    import sympy as sp

    qs = sp.symbols("q1x q1y q2x q2y", real=True)
    ps = sp.symbols("p1x p1y p2x p2y", real=True)
    s2, alpha = sp.symbols("s2 alpha", positive=True)
    q1x, q1y, q2x, q2y = qs
    p1x, p1y, p2x, p2y = ps
    d = sp.sqrt((q1x - q2x) ** 2 + (q1y - q2y) ** 2)
    pp11 = p1x**2 + p1y**2
    pp22 = p2x**2 + p2y**2
    pp12 = p1x * p2x + p1y * p2y
    ham = sp.Rational(1, 2) * (
        pp11 + pp22 + 2 * pp12 * sp.exp(-d / alpha)
    ) + s2 / 2 * (pp11 + pp22)
    oracle = sp.lambdify(
        (qs, ps, s2, alpha),
        ([sp.diff(ham, v) for v in ps], [-sp.diff(ham, v) for v in qs]),
        "numpy",
    )

    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(100):
        q = rng.uniform(-3.0, 3.0, size=(2, 2))
        while np.linalg.norm(q[0] - q[1]) < 1e-3:
            q = rng.uniform(-3.0, 3.0, size=(2, 2))
        p = rng.uniform(-2.0, 2.0, size=(2, 2))
        sigma2 = 0.0 if k % 2 == 0 else 0.3
        a = 1.0 if k % 3 else 0.7
        spec = SystemSpec(kernel=KernelSpec(alpha=a), sigma2=sigma2)
        dq, dp = rhs(spec, ParticleState(q, p))
        want_dq, want_dp = oracle(tuple(q.ravel()), tuple(p.ravel()), sigma2, a)
        for got, want in ((dq, want_dq), (dp, want_dp)):
            want = np.asarray(want, dtype=float).ravel()
            err = np.abs(got.ravel() - want) / (1.0 + np.abs(want))
            worst = max(worst, float(err.max()))
    _report(13, worst <= 1e-12, f"max |rhs - symbolic| = {worst:.2e} over 100 states")


def test_criterion_14_kernel_derivative_vs_finite_differences():
    def fd(spec, r):
        step = 1e-5 * max(1.0, r)

        def central(h):
            return (kernel_value(spec, r + h) - kernel_value(spec, r - h)) / (2 * h)

        return (4.0 * central(step / 2.0) - central(step)) / 3.0

    specs = (
        KernelSpec(),
        KernelSpec(normalized=False),
        KernelSpec(family="gaussian", alpha=0.8),
        KernelSpec(family="bessel", nu=2.0),
        KernelSpec(family="bessel", nu=2.5, alpha=1.3, normalized=False),
    )
    worst = 0.0
    for spec in specs:
        for r in np.geomspace(0.01, 20.0, 40):
            exact = float(kernel_derivative(spec, r))
            approx = fd(spec, float(r))
            scale = max(abs(exact), abs(approx))
            if scale < 1e-30:
                continue
            worst = max(worst, abs(exact - approx) / scale)
    _report(14, worst <= 1e-8, f"max relative error = {worst:.2e} <= 1e-8")


def test_criterion_15_gram_systems_well_posed():
    shapes = [
        CIRCLE2, HEART, ELLIPSE,
        *PANEL.values(),
        CLUSTER_A, CLUSTER_B, CLUSTER_C, CLUSTER_D,
        circle(2.0, n=16), heart4(16), circle(2.0, n=32), heart4(32),
    ]
    rng = np.random.default_rng(11)
    min_eig = math.inf
    worst_trip = 0.0
    for template in shapes:
        k = gram_matrix(KERNEL, template.points)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(k).min()))
        u = rng.normal(size=template.points.shape)
        p = momenta_from_velocity(KERNEL, template.points, u)
        worst_trip = max(worst_trip, float(np.max(np.abs(k @ p - u))))
    ok = min_eig > 0 and worst_trip <= 1e-10
    _report(
        15,
        ok,
        f"min Gram eigenvalue = {min_eig:.2e} > 0, "
        f"worst round trip = {worst_trip:.2e} <= 1e-10 over {len(shapes)} shapes",
    )


def test_criterion_16_contraction_audit():
    if not RUNS:
        pytest.skip("no converged runs registered; run the full acceptance module")
    # The contraction factor of a run is the average tail ratio, not the
    # worst single step: the max-norm residual of the long rotational
    # match decays under a period-10 ripple whose crests reach 1.09
    # while the tail still contracts at 0.97 per iteration.
    worst = 0.0
    audited = 0
    for _, res in RUNS:
        ratios = contraction_diagnostics(res)
        if not ratios:
            continue
        audited += 1
        worst = max(worst, float(np.mean(ratios[len(ratios) // 2 :])))
    ok = audited >= 8 and worst < 1.0
    _report(
        16,
        ok,
        f"worst tail contraction factor = {worst:.4f} < 1 "
        f"across {audited} converged runs",
    )


def test_criterion_17_integrator_order():
    state = _swirl_state(8)
    ends = {
        steps: evolve(SYS, state, EvolveConfig(steps=steps)).final.q
        for steps in (25, 50, 100)
    }
    ratio = float(
        np.linalg.norm(ends[25] - ends[50]) / np.linalg.norm(ends[50] - ends[100])
    )
    _report(17, 12.0 <= ratio <= 20.0, f"Richardson ratio = {ratio:.2f} in [12, 20]")
