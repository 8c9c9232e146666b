"""The four benchmark workloads: inputs, one timed round, and the checks.

Each round takes about 2 to 3 s on the reference host, so that a run
times many rounds (see run.py for why).

Each workload is four functions:

* ``setup(workdir, seed)`` generates the inputs with the package's own
  shape generators, moves every template by the seed's planar rigid
  motion and writes them as template JSON.  Its cost is part of
  ``setup_s``.
* ``body(inp)`` is one timed round.  It returns ``(ops, raw)``: one
  ``(name, ok, detail)`` triple per operation attempted, and whatever
  ``collect`` needs to read the outputs back.
* ``collect(inp, raw)`` (untimed) turns a round's raw outputs into plain
  arrays and numbers; rounds, traced or not, must collect equal values.
* ``check(inp, out)`` (untimed) returns a list of problems, judged
  against the independent reference in ``reference.py`` and the
  method's invariants.

Every geoshoot name used here is a module-level binding of this file,
so the tracer wraps the benchmark's calls into each layer exactly as it
wraps the package's own cross-module calls.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import math
import random
from pathlib import Path

import numpy as np

from geoshoot.analysis import DIVERGED, SweepGrid, convergence_sweep
from geoshoot.cli import main as cli_main
from geoshoot.integrator import EvolveConfig, evolve
from geoshoot.io import MANIFEST_SCHEMA, RESULT_SCHEMA, save_template
from geoshoot.kernels import KernelSpec
from geoshoot.particles import ParticleState, SystemSpec
from geoshoot.shapes import (
    LandmarkTemplate,
    PlanarIsometry,
    circle,
    circle_ellipse_hybrid,
    ellipse_rot_shift,
    heart4,
    square,
    standard_rotated_ellipse,
)
from geoshoot.shooting import (
    ResidualNorm,
    ShootingConfig,
    match,
    momenta_from_velocity,
    newton_match,
)

import reference as ref

EPS = 1e-3
STEPS = 100  # RK4 steps on [0, 1], the package default


def motion(seed: int) -> PlanarIsometry:
    """The seed's rigid motion: a rotation in [0, 2 pi) and a shift in [-2, 2]^2.

    Matching is isometry-equivariant, so every seed does the same work on
    different floating-point inputs.
    """
    rng = random.Random(seed)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return PlanarIsometry(angle, (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))


def _moved(iso: PlanarIsometry, template) -> LandmarkTemplate:
    return LandmarkTemplate(iso.apply_points(template.points), template.label)


def _pair(workdir: Path, seed: int, target) -> tuple:
    """circle(r=2) and ``target``, moved by the seed's motion and written out."""
    iso = motion(seed)
    pair = (_moved(iso, circle(2.0, n=target.n)), _moved(iso, target))
    for name, template in zip(("reference", "target"), pair):
        save_template(template, workdir / f"{name}.json")
    return pair


def _endpoint(q0, p0, alpha=1.0, steps=STEPS):
    return ref.rk4(q0, p0, steps, alpha=alpha)[0]


def calibration(n: int, steps: int):
    """A fixed reference-model integration, timed between rounds.

    It shares nothing with geoshoot, so no change to the package moves
    its time; it moves only with the host's speed.  ``n`` and ``steps``
    are picked per workload for a similar mix of interpreter and array
    work, taking about 0.25 s on the reference host.
    """
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    q = 2.0 * np.column_stack((np.cos(theta), np.sin(theta)))
    p = 0.3 * np.column_stack((np.cos(2.0 * theta), np.sin(3.0 * theta)))
    return lambda: ref.rk4(q, p, steps)


def _max_error(a, b) -> float:
    return float(np.max(np.hypot(*(a - b).T)))


# ---------------------------------------------------------------- panel-n64
# circle(r=2) onto each target of the paper's shape panel, through the CLI.
# (name, target, h, extra flags); the last five appear in the paper's
# Hamiltonian ordering, smallest first.  Ten RK4 steps instead of 100:
# iteration counts and the ordering are the same, and a round is short.
PANEL_ORDER = ("square", "circle1", "hybrid", "circle3", "ellipse")
PANEL_STEPS = 10


def _panel_targets(n):
    return (
        ("heart", heart4(n), 0.4, ["--capture-every", "2"]),
        ("circle1", circle(1.0, n=n), 0.3, []),
        ("circle3", circle(3.0, n=n), 0.3, []),
        ("ellipse", ellipse_rot_shift(1.0, 4.0, 0.0, (0.0, 0.0), n), 0.3, []),
        ("hybrid", circle_ellipse_hybrid(3.0, 3.0, 1.0, n), 0.3, []),
        ("square", square(4.0, n), 0.3, []),
    )


def setup_panel(workdir: Path, seed: int) -> dict:
    n = 64
    iso = motion(seed)
    reference = _moved(iso, circle(2.0, n=n))
    save_template(reference, workdir / "reference.json")
    cases = []
    for name, target, h, extra in _panel_targets(n):
        target = _moved(iso, target)
        path = save_template(target, workdir / f"{name}.json")
        cases.append((name, path, h, extra, target.points))
    # Two bad inputs the CLI contract maps to exit 2.  They do not depend
    # on the seed: each fails the same way in every round.
    bad_points = heart4(n).points.tolist()
    bad_points[5][0] = float("nan")
    (workdir / "bad-nan.json").write_text(json.dumps({"points": bad_points}))
    bad_points = heart4(n).points.tolist()
    bad_points[7] = bad_points[6]
    (workdir / "bad-coincident.json").write_text(json.dumps({"points": bad_points}))
    return {
        "dir": workdir,
        "reference": workdir / "reference.json",
        "q0": reference.points,
        "cases": cases,
        "bad": ("bad-nan", "bad-coincident"),
    }


def _cli(argv):
    """Run the CLI in-process with its console output captured."""
    with contextlib.redirect_stdout(_stdio.StringIO()), contextlib.redirect_stderr(
        _stdio.StringIO()
    ):
        return cli_main([str(a) for a in argv])


def body_panel(inp: dict):
    ops = []
    for name, path, h, extra, _ in inp["cases"]:
        code = _cli(
            ["match", inp["reference"], path, "--h", h, "--eps", EPS,
             "--steps", PANEL_STEPS, "--out", inp["dir"] / f"match-{name}", *extra]
        )
        ops.append((name, code == 0, f"exit {code}"))
    for name in inp["bad"]:
        try:
            code = _cli(
                ["match", inp["reference"], inp["dir"] / f"{name}.json",
                 "--out", inp["dir"] / f"match-{name}"]
            )
            detail = f"exit {code}"
        except Exception as exc:  # an escape from cli.main is the failure counted
            code = None
            detail = f"{type(exc).__name__} escaped cli.main"
        ops.append((name, code == 2, detail))
    return ops, None


def _rows(path: Path) -> int:
    """Data rows of a CSV file with one header row."""
    return len(path.read_text().splitlines()) - 1


def collect_panel(inp: dict, raw) -> dict:
    out = {}
    for name, *_ in inp["cases"]:
        run = inp["dir"] / f"match-{name}"
        doc = json.loads((run / "result.json").read_text())
        out[name] = {
            "schema": doc["schema"],
            "converged": doc["converged"],
            "iterations": doc["iterations"],
            "H": doc["H"],
            "p0": np.array(doc["p0"]),
            "csv_rows": _rows(run / "residuals.csv"),
            "manifest": json.loads((run / "manifest.json").read_text())["schema"],
        }
        if (run / "trajectory.csv").exists():
            out[name]["frames_rows"] = _rows(run / "trajectory.csv")
            out[name]["svg"] = (run / "frames.svg").read_text().lstrip().startswith("<svg")
    return out


def check_panel(inp: dict, out: dict) -> list:
    problems = []
    q0 = inp["q0"]
    for name, _, _, extra, target in inp["cases"]:
        r = out[name]
        if r["schema"] != RESULT_SCHEMA or r["manifest"] != MANIFEST_SCHEMA:
            problems.append(f"{name}: result or manifest schema tag is wrong")
        if not r["converged"] or r["csv_rows"] != r["iterations"]:
            problems.append(f"{name}: not converged or residual CSV incomplete")
        miss = _max_error(_endpoint(q0, r["p0"], steps=PANEL_STEPS), target)
        if not miss < EPS:
            problems.append(f"{name}: reference endpoint misses target by {miss:.3g}")
        h_ref = ref.hamiltonian(q0, r["p0"])
        if not (r["H"] > 0 and abs(r["H"] - h_ref) <= 1e-9 * h_ref):
            problems.append(f"{name}: H = {r['H']!r}, reference p'Kp = {h_ref!r}")
        if extra:
            frames = PANEL_STEPS // int(extra[1]) + 1
            if r.get("frames_rows") != frames * len(q0) or not r.get("svg"):
                problems.append(f"{name}: trajectory CSV or SVG incomplete")
    hs = [out[name]["H"] for name in PANEL_ORDER]
    if not all(a < b for a, b in zip(hs, hs[1:])):
        problems.append(f"Hamiltonian ordering {PANEL_ORDER} broken: {hs}")
    return problems


# ---------------------------------------------------------------- sweep-n16
# Two kernel widths by two step sizes: four short independent matches.
SWEEP_ALPHA2 = (0.4, 1.0)
SWEEP_H = (0.6, 0.8)


def setup_sweep(workdir: Path, seed: int) -> dict:
    reference, target = _pair(workdir, seed, heart4(16))
    grid = SweepGrid(SWEEP_ALPHA2, SWEEP_H, n_landmarks=16, tolerance=EPS, max_iter=500)
    # One cell, chosen by the seed, is re-run alone for the checks.
    cell = divmod(seed % (len(SWEEP_ALPHA2) * len(SWEEP_H)), len(SWEEP_H))
    return {"reference": reference, "target": target, "grid": grid, "cell": cell}


def body_sweep(inp: dict):
    matrix = convergence_sweep(inp["reference"], inp["target"], inp["grid"])
    ops = [(f"cell{i}{j}", bool(matrix[i, j] != DIVERGED), f"{matrix[i, j]} iterations")
           for i, j in np.ndindex(matrix.shape)]
    return ops, matrix


def collect_sweep(inp: dict, raw) -> dict:
    return {"matrix": raw}


def check_sweep(inp: dict, out: dict) -> list:
    problems = []
    matrix = out["matrix"]
    if np.any(matrix == DIVERGED):
        problems.append(f"diverged cells in {matrix.tolist()}")
    trend = [j for j, h in enumerate(SWEEP_H) if h <= 0.8]  # the paper's step-size trend
    for row in matrix[:, trend]:
        if not all(a > b for a, b in zip(row, row[1:])):
            problems.append(f"iteration counts not strictly decreasing in h: {row}")
    i, j = inp["cell"]
    grid = inp["grid"]
    alpha = math.sqrt(grid.alpha2_values[i])
    cfg = ShootingConfig(
        h=grid.h_values[j], epsilon=grid.tolerance, max_iter=grid.max_iter,
        system=SystemSpec(kernel=KernelSpec(alpha=alpha)),
    )
    alone = match(inp["reference"], inp["target"], cfg)
    if alone.iterations != matrix[i, j]:
        problems.append(f"cell {i},{j}: {alone.iterations} alone vs {matrix[i, j]} in sweep")
    q0 = inp["reference"].points
    miss = _max_error(_endpoint(q0, alone.p0, alpha), inp["target"].points)
    if not miss < grid.tolerance:
        problems.append(f"cell {i},{j}: reference endpoint misses target by {miss:.3g}")
    return problems


# ---------------------------------------------------------------- newton-n6
def setup_newton(workdir: Path, seed: int) -> dict:
    ellipse = standard_rotated_ellipse(4.0, 1.0, -math.pi / 4, (1.0, 0.0), 6)
    reference, target = _pair(workdir, seed, ellipse)
    cfg = ShootingConfig(h=1.0, epsilon=EPS, norm=ResidualNorm.L2)
    return {"reference": reference, "target": target, "cfg": cfg}


def body_newton(inp: dict):
    res = newton_match(inp["reference"], inp["target"], inp["cfg"])
    return [("newton", res.converged, f"{res.iterations} iterations")], res


def collect_newton(inp: dict, raw) -> dict:
    return {"p0": raw.p0, "iterations": raw.iterations, "H": raw.hamiltonian,
            "converged": raw.converged}


def check_newton(inp: dict, out: dict) -> list:
    problems = []
    q0 = inp["reference"].points
    miss = float(np.linalg.norm(_endpoint(q0, out["p0"]) - inp["target"].points))
    if not (out["converged"] and miss < EPS):
        problems.append(f"reference endpoint misses target by {miss:.3g} (l2)")
    h_ref = ref.hamiltonian(q0, out["p0"])
    if not abs(out["H"] - h_ref) <= 1e-9 * h_ref:
        problems.append(f"H = {out['H']!r}, reference p'Kp = {h_ref!r}")
    return problems


# ---------------------------------------------------------- transport-n1024
# The first fifth of the geodesic, at the step length of 25 steps on [0, 1].
TRANSPORT = EvolveConfig(t_final=0.2, steps=5, capture_every=1)


def setup_transport(workdir: Path, seed: int) -> dict:
    reference, target = _pair(workdir, seed, heart4(1024))
    u0 = 0.5 * (target.points - reference.points)
    return {"q0": reference.points, "u0": u0}


def body_transport(inp: dict):
    p0 = momenta_from_velocity(KernelSpec(), inp["q0"], inp["u0"])
    run = evolve(SystemSpec(), ParticleState(inp["q0"], p0), TRANSPORT)
    finite = bool(np.all(np.isfinite(p0)))
    return [("momenta", finite, ""), ("replay", True, f"{len(run.frames)} frames")], (p0, run)


def collect_transport(inp: dict, raw) -> dict:
    p0, run = raw
    return {
        "p0": p0,
        "times": run.times,
        "frames": np.array([(s.q, s.p) for _, s in run.frames]),
        "final": np.array((run.final.q, run.final.p)),
    }


def _invariants(q, p):
    return (
        ref.hamiltonian(q, p),
        p.sum(axis=0),
        float(np.sum(q[:, 0] * p[:, 1] - q[:, 1] * p[:, 0])),
    )


def check_transport(inp: dict, out: dict) -> list:
    problems = []
    q0, u0, p0 = inp["q0"], inp["u0"], out["p0"]
    k = ref.gram(q0)[0]
    residual = float(np.max(np.abs(k @ p0 - u0)))
    scale = float(np.max(np.abs(k) @ np.abs(p0)))
    if not residual <= 1e-12 * scale:
        problems.append(f"|K p - u| = {residual:.3g} against |K||p| = {scale:.3g}")
    h0, pp0, l0 = _invariants(q0, p0)
    momentum_scale = float(np.sum(np.abs(p0)) * (1.0 + np.max(np.abs(q0))))
    for q, p in out["frames"]:
        h, pp, l = _invariants(q, p)
        drift = (abs(h - h0) / h0, float(np.max(np.abs(pp - pp0))), abs(l - l0))
        if not (drift[0] <= 1e-8 and max(drift[1:]) <= 1e-12 * momentum_scale):
            problems.append(f"conservation drift (relH, |dP|, |dL|) = {drift}")
            break
    expected_times = TRANSPORT.t_final * (
        np.arange(0, TRANSPORT.steps + 1, TRANSPORT.capture_every) / TRANSPORT.steps)
    if not (np.array_equal(out["times"], expected_times)
            and np.array_equal(out["frames"][-1], out["final"])):
        problems.append(f"frame times {out['times']} or final frame wrong")
    dt = TRANSPORT.t_final / TRANSPORT.steps
    one = evolve(SystemSpec(), ParticleState(q0, p0), EvolveConfig(t_final=dt, steps=1)).final
    q1, p1 = ref.rk4(q0, p0, 1, t_final=dt)
    step_error = max(float(np.max(np.abs(one.q - q1))), float(np.max(np.abs(one.p - p1))))
    if not step_error <= 1e-12 * (1.0 + float(np.max(np.abs(p0)))):
        problems.append(f"one RK4 step differs from the reference by {step_error:.3g}")
    return problems


# name -> (setup, body, collect, check, calibration).  The calibration is
# (n, steps, reference seconds): its size, and its median time over 30
# samples on the reference host (perfbench/README.md).
WORKLOADS = {
    "panel-n64": (setup_panel, body_panel, collect_panel, check_panel, (64, 290, 0.248)),
    "sweep-n16": (setup_sweep, body_sweep, collect_sweep, check_sweep, (16, 1400, 0.250)),
    "newton-n6": (setup_newton, body_newton, collect_newton, check_newton, (6, 2400, 0.247)),
    "transport-n1024": (setup_transport, body_transport, collect_transport, check_transport,
                        (1024, 1, 0.289)),
}
