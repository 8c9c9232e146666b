"""Shape analysis on top of the matching loop.

The Hamiltonian of a converged match is a squared deformation distance
between the two landmark sets, and everything here exploits that: direct
distance records, isometry-invariance checks, a two-shapes-one-cluster
test against reference shapes, convergence sweeps over the kernel-width
by step-size plane, forward prediction from partial observations, and a
comparison of exact versus inexact matching.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    DivergenceError,
    require_count,
    require_positive,
)
from .integrator import EvolveConfig, evolve
from .kernels import KernelFamily, KernelSpec
from .particles import ParticleState, SystemSpec
from .shapes import LandmarkTemplate, PlanarIsometry
from .shooting import MatchResult, ShootingConfig, _drive, _solve, match

__all__ = [
    "DIVERGED",
    "SweepGrid",
    "DistanceRecord",
    "ClusterVerdict",
    "ExactnessRow",
    "shape_distance",
    "iso_invariance_check",
    "cluster_test",
    "triangle_inequality_audit",
    "convergence_sweep",
    "predict",
    "exact_vs_inexact",
]

# Sentinel for sweep cells that hit the iteration cap or blew up.
DIVERGED = -1


@dataclass(frozen=True)
class SweepGrid:
    """The kernel-width (alpha^2) by step-size (h) plane of a sweep."""

    alpha2_values: tuple
    h_values: tuple
    n_landmarks: int = 16
    kernel_family: KernelFamily = KernelFamily.CONICAL
    tolerance: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        object.__setattr__(
            self, "alpha2_values", tuple(float(a) for a in self.alpha2_values)
        )
        object.__setattr__(self, "h_values", tuple(float(h) for h in self.h_values))
        object.__setattr__(self, "kernel_family", KernelFamily(self.kernel_family))
        if not self.alpha2_values or not self.h_values:
            raise ConfigurationError("sweep axes must be non-empty")
        for name, vals in (("alpha2", self.alpha2_values), ("h", self.h_values)):
            for v in vals:
                require_positive(f"each {name} value", v)
        require_count("n_landmarks", self.n_landmarks, 3)
        require_positive("tolerance", self.tolerance)
        require_count("max_iter", self.max_iter, 1)


@dataclass(frozen=True)
class DistanceRecord:
    """One matched pair: H is >= 0 whenever the exact match converged
    (the kernel Gram matrix is positive definite)."""

    reference_label: str
    target_label: str
    H: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class ClusterVerdict:
    """``same_cluster`` is None when any underlying match failed to
    converge, making the test inconclusive rather than negative."""

    same_cluster: bool | None
    evidence: tuple


@dataclass(frozen=True)
class ExactnessRow:
    sigma2: float
    h: float
    H: float
    final_residual: float
    iterations: int
    converged: bool


def shape_distance(
    reference: LandmarkTemplate, target: LandmarkTemplate, cfg: ShootingConfig
) -> DistanceRecord:
    """Squared deformation distance from ``reference`` to ``target``.

    Runs the matching loop and reports the Hamiltonian of the converged
    initial momenta.  The value is only approximately symmetric in its
    arguments (swapping them solves a different boundary problem); a
    non-converged run still reports H but flags it via ``converged``.
    """
    return _record(reference, target, match(reference, target, cfg))


def _record(reference, target, res: MatchResult) -> DistanceRecord:
    return DistanceRecord(
        reference.label, target.label, res.hamiltonian, res.iterations, res.converged
    )


def iso_invariance_check(
    a: LandmarkTemplate,
    b: LandmarkTemplate,
    g: PlanarIsometry,
    cfg: ShootingConfig,
) -> float:
    """H(g(a), g(b)) - H(a, b) for a planar isometry g.

    Exact equivariance of every pipeline stage makes this zero to
    machine precision; a nonzero value of any size indicates a stage
    that is not isometry invariant.  Raises on non-convergence of
    either match since the difference would compare unlike things.  Both
    matches run as one lockstep batch of the shooting driver.
    """
    plain, moved = _solve([(a, b, cfg), (g.apply(a), g.apply(b), cfg)])
    for name, res in (("original", plain), ("transformed", moved)):
        if not res.converged:
            raise DivergenceError(
                f"isometry check: the {name} pair did not converge "
                f"({res.diagnosis or 'iteration cap reached'})"
            )
    return moved.hamiltonian - plain.hamiltonian


def _normalized(t: LandmarkTemplate) -> LandmarkTemplate:
    """Centroid at the origin, unit RMS radius."""
    pts = t.points - t.points.mean(axis=0)
    scale = float(np.sqrt(np.mean(np.sum(pts * pts, axis=1))))
    if scale == 0.0:
        raise ConfigurationError(f"template {t.label!r} has zero extent")
    return LandmarkTemplate(pts / scale, t.label)


def cluster_test(
    a: LandmarkTemplate,
    b: LandmarkTemplate,
    refs: list,
    thresholds: dict,
    cfg: ShootingConfig,
    preprocess: bool = False,
) -> ClusterVerdict:
    """Do ``a`` and ``b`` belong to the same cluster of shapes?

    The verdict is positive when the pair distance H(a, b) stays within
    ``thresholds["pair"]`` and, for every reference shape r, the gap
    |H(r, a) - H(r, b)| stays within ``thresholds["ref_diff"]``.  Both
    thresholds are caller-supplied on purpose: the verdict genuinely
    flips with them, so a default would bake in a judgment this library
    has no business making.  References should be mutually well
    separated; with ``preprocess`` the inputs are centroid-aligned and
    RMS-scaled first (off by default).  The 1 + 2 len(refs) matches run
    as one lockstep batch of the shooting driver, and the first one that
    fails with an error, in evidence order, raises it.
    """
    if len(refs) < 2:
        raise ConfigurationError(f"need at least 2 reference shapes, got {len(refs)}")
    missing = {"pair", "ref_diff"} - set(thresholds)
    if missing:
        raise ConfigurationError(f"thresholds missing {sorted(missing)}")
    pair_thr = float(thresholds["pair"])
    ref_thr = float(thresholds["ref_diff"])
    require_positive("the pair threshold", pair_thr)
    require_positive("the ref_diff threshold", ref_thr)

    if preprocess:
        a, b = _normalized(a), _normalized(b)
        refs = [_normalized(r) for r in refs]

    pairs = [(a, b)] + [(ref, x) for ref in refs for x in (a, b)]
    results = _solve([(ref, tgt, cfg) for ref, tgt in pairs])
    evidence = tuple(_record(*pair, res) for pair, res in zip(pairs, results))

    if not all(rec.converged for rec in evidence):
        return ClusterVerdict(same_cluster=None, evidence=evidence)

    verdict = evidence[0].H <= pair_thr and all(
        abs(evidence[i].H - evidence[i + 1].H) <= ref_thr
        for i in range(1, len(evidence), 2)
    )
    return ClusterVerdict(same_cluster=verdict, evidence=evidence)


def triangle_inequality_audit(records) -> list:
    """Report H(x, z) <= H(x, y) + H(y, z) over all available triples.

    The distance is only conjectured to behave like a metric, so this
    audits and reports; it never asserts.  Directed entries are used
    when present, with the reverse direction as fallback (H is nearly
    but not exactly symmetric).
    """
    table = {}
    for rec in records:
        if rec.converged:
            table[(rec.reference_label, rec.target_label)] = rec.H

    def lookup(x, y):
        if (x, y) in table:
            return table[(x, y)]
        return table.get((y, x))

    labels = sorted({lab for key in table for lab in key})
    report = []
    for x, z, y in itertools.permutations(labels, 3):
        direct, via_left, via_right = lookup(x, z), lookup(x, y), lookup(y, z)
        if direct is None or via_left is None or via_right is None:
            continue
        report.append(
            {
                "from": x,
                "to": z,
                "via": y,
                "direct": direct,
                "detour": via_left + via_right,
                "holds": direct <= via_left + via_right + 1e-12,
            }
        )
    return report


def convergence_sweep(
    reference: LandmarkTemplate, target: LandmarkTemplate, grid: SweepGrid
) -> np.ndarray:
    """Iteration counts over the alpha^2 x h plane; DIVERGED where not.

    Cell (i, j) matches with kernel width alpha = sqrt(alpha2_values[i])
    and step h_values[j].  A cell is DIVERGED when the run blows up,
    degenerates, or exhausts ``grid.max_iter``: divergence here is data,
    not an error.  A bad pair of templates (e.g. unequal landmark
    counts), or a ``grid.n_landmarks`` other than the templates' N,
    still raises ConfigurationError.  The whole grid runs as one
    lockstep batch of the shooting driver: every round shoots all live
    cells together, and a cell leaves the batch once it converges,
    diverges or hits the cap.  Each cell's count is the one a lone
    :func:`~geoshoot.shooting.match` of it gives.
    """
    if reference.n == target.n != grid.n_landmarks:
        raise ConfigurationError(
            f"grid.n_landmarks = {grid.n_landmarks} but the templates have "
            f"{reference.n} landmarks"
        )
    kernels = [
        KernelSpec(family=grid.kernel_family, alpha=math.sqrt(a2), normalized=True)
        for a2 in grid.alpha2_values
    ]
    cfgs = [
        ShootingConfig(
            h=h,
            epsilon=grid.tolerance,
            max_iter=grid.max_iter,
            system=SystemSpec(kernel=kernel),
        )
        for kernel in kernels
        for h in grid.h_values
    ]
    counts = [
        res.iterations if isinstance(res, MatchResult) and res.converged else DIVERGED
        for res in _drive([(reference, target, cfg) for cfg in cfgs])
    ]
    return np.array(counts, dtype=int).reshape(len(grid.alpha2_values), -1)


def predict(
    reference: LandmarkTemplate,
    target_partial: LandmarkTemplate,
    t_match: float,
    t_predict: float,
    cfg: ShootingConfig,
) -> LandmarkTemplate:
    """Extrapolate a partially observed deformation.

    Matches ``reference`` onto ``target_partial`` over [0, t_match],
    then lets the converged momenta run on to ``t_predict``.  Because a
    geodesic is determined by its initial conditions, the early segment
    pins down the whole path.  The prediction integrator keeps the
    matching run's step density (same dt, more steps).
    """
    if not (0.0 < t_match < 1.0):
        raise ConfigurationError(f"t_match must lie in (0, 1), got {t_match}")
    onward_steps = cfg.evolve.steps * t_predict / t_match
    if not (t_predict >= t_match and math.isfinite(onward_steps)):
        raise ConfigurationError(
            f"t_predict must be >= t_match ({t_match}) and give a finite "
            f"step count, got {t_predict}"
        )

    match_cfg = replace(cfg, evolve=replace(cfg.evolve, t_final=t_match))
    res = match(reference, target_partial, match_cfg)
    if not res.converged:
        raise DivergenceError(
            f"prediction match failed after {res.iterations} iterations "
            f"({res.diagnosis or 'iteration cap reached'})"
        )

    onward = evolve(
        cfg.system,
        ParticleState(reference.points, res.p0),
        EvolveConfig(t_final=t_predict, steps=max(1, math.ceil(onward_steps))),
    )
    label = f"{reference.label}>{target_partial.label}@t={t_predict:g}"
    return LandmarkTemplate(onward.final.q, label)


def exact_vs_inexact(
    reference: LandmarkTemplate,
    target: LandmarkTemplate,
    sigma2_values,
    cfg: ShootingConfig,
    h_by_sigma2: dict | None = None,
) -> tuple:
    """Exact matching against inexact relaxations of growing sigma^2.

    The first row is the exact run (sigma2 = 0, at ``cfg.h``), stopping
    once the endpoint residual |r| < epsilon; one more row follows per
    requested sigma2.  An inexact row (sigma2 > 0) stops once the
    iterate's move h * |r| < epsilon, so its endpoint lies within about
    epsilon / h of the target.  Requested rows may need their own step
    size (large sigma2 destabilizes the feedback loop), supplied via
    ``h_by_sigma2``; the final residual column makes the growing
    deviation from the exact endpoint visible.  The rows run as one
    lockstep batch of the shooting driver, with one match per distinct
    (sigma2, h): a requested sigma2 = 0 at ``cfg.h`` is the exact run.
    """
    rows = []
    for k, sigma2 in enumerate((0.0, *sigma2_values)):
        s2 = float(sigma2)
        h = cfg.h
        if k > 0 and h_by_sigma2 is not None:
            h = float(h_by_sigma2.get(s2, cfg.h))
        rows.append(replace(cfg, h=h, system=replace(cfg.system, sigma2=s2)))
    distinct = list(dict.fromkeys(rows))
    solved = dict(zip(distinct, _solve([(reference, target, c) for c in distinct])))
    return tuple(
        ExactnessRow(
            c.system.sigma2, c.h, r.hamiltonian, r.final_residual, r.iterations, r.converged
        )
        for c, r in zip(rows, map(solved.get, rows))
    )
