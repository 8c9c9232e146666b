"""Feedback-control geodesic shooting for landmark template matching.

The boundary-value problem (carry reference landmarks onto target
landmarks at t = 1) is solved as an initial-value problem: shoot with a
guessed initial momentum, measure the endpoint mismatch, and feed it
back additively,

    u(k+1) = u(k) + h * (target - endpoint(k)),   u(0) = 0,

where u is the initial velocity at the landmarks and h is a constant
scalar search length.  The velocity update is converted to momenta
through the kernel Gram system; a direct momentum-space update is
available as a cheaper variant.  A finite-difference Newton iteration
(newton_match) serves as the classical baseline: far fewer iterations,
but each one costs 2N extra shoots for the Jacobian, shot together as
one lockstep stack.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _lapack
from .errors import (
    ConfigurationError,
    DegenerateConfigurationError,
    require_count,
    require_positive,
)
from .integrator import EvolveConfig, _evolve_stack
from .kernels import KernelSpec, as_points, gram_matrix
from .particles import ParticleState, SystemSpec, _constants, hamiltonian
from .shapes import LandmarkTemplate

__all__ = [
    "UpdateSpace",
    "ResidualNorm",
    "ShootingConfig",
    "MatchResult",
    "match",
    "newton_match",
    "momenta_from_velocity",
    "contraction_diagnostics",
]

# A run is declared divergent once the stopping norm exceeds this multiple
# of its initial value (on top of the non-finite check).
_BLOWUP_FACTOR = 1e6
_ILL_CONDITIONED = 1e12


class UpdateSpace(str, enum.Enum):
    VELOCITY = "velocity"
    MOMENTUM = "momentum"


class ResidualNorm(str, enum.Enum):
    MAX = "max"
    L2 = "l2"


@dataclass(frozen=True)
class ShootingConfig:
    """Knobs of the matching iteration.

    ``h`` is the feedback gain (update matrix M = h * I).  Values above 1
    are allowed but tend to diverge.  ``system.sigma2`` sets the stopping
    rule: an exact system (sigma2 = 0) stops once the endpoint residual
    |r| < epsilon; an inexact one (sigma2 > 0) stops once the iterate's
    move h * |r| < epsilon, which leaves the endpoint within about
    epsilon / h of the target.
    """

    h: float
    epsilon: float = 1e-3
    max_iter: int = 500
    update_space: UpdateSpace = UpdateSpace.VELOCITY
    norm: ResidualNorm = ResidualNorm.MAX
    evolve: EvolveConfig = field(default_factory=EvolveConfig)
    system: SystemSpec = field(default_factory=SystemSpec)

    def __post_init__(self):
        object.__setattr__(self, "update_space", UpdateSpace(self.update_space))
        object.__setattr__(self, "norm", ResidualNorm(self.norm))
        require_positive("h", self.h)
        require_positive("epsilon", self.epsilon)
        require_count("max_iter", self.max_iter, 1)


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one matching run.

    ``residual_history`` holds one stopping-norm value per applied
    update, so its length equals ``iterations``: for an exact system the
    endpoint residual |r| after the update, for an inexact one
    (sigma2 > 0) the move h * |r| measured before it.  The run starts
    at p = 0, whose geodesic ends at the reference itself, so a run
    whose stopping norm there, |r0| or h * |r0|, is already below
    tolerance reports zero iterations and an empty history without a
    shoot.
    ``diagnosis`` is set only on failed runs.
    """

    p0: np.ndarray
    iterations: int
    converged: bool
    residual_history: tuple
    hamiltonian: float
    final_template: LandmarkTemplate
    final_residual: float
    diagnosis: str | None = None
    warnings: tuple = ()


def _norm(kind: ResidualNorm, vec: np.ndarray) -> float:
    """Stopping norm of an (N, 2) mismatch field.

    MAX is the largest per-landmark Euclidean error, L2 the flat vector
    norm.  Both are invariant under a rigid motion of the whole problem,
    which keeps the iteration count (and hence H) exactly isometry
    invariant; a coordinate-wise max would not be.
    """
    if kind is ResidualNorm.MAX:
        return float(np.max(np.hypot(vec[:, 0], vec[:, 1])))
    return float(np.linalg.norm(vec.ravel()))


class _GramSolver:
    """Cholesky factorization of the kernel Gram matrix over fixed points,
    reused across all iterations of a match (the initial landmarks never
    move, so the factorization is constant).

    K is factored once, in place.  :func:`~geoshoot.kernels.gram_matrix`
    mirrors each entry's bits across the diagonal, so K is exactly
    symmetric and ``k.T``, a Fortran-ordered view of the fresh C-ordered
    matrix, is K itself: LAPACK factors it where it lies, with no copy.
    K is finite by construction (finite points, kernel constants
    validated by :class:`~geoshoot.kernels.KernelSpec`), so neither the
    factor nor the solve rescans it for NaN or inf.  The factor runs on
    one OpenBLAS thread (see :mod:`geoshoot._lapack`), so its bits do
    not depend on the BLAS thread count.

    ``condition`` is LAPACK's estimate of the 1-norm condition number
    (``dpocon`` on the Cholesky factor), not an exact value: it costs
    O(N^2) next to the O(N^3) factorization, where an SVD would cost
    several factorizations, and it only decides whether to warn.  It is
    computed on first read, from K's 1-norm taken before the factor
    overwrites K, so a solver that is never asked (as in
    :func:`momenta_from_velocity`) never pays for it.
    """

    def __init__(self, kernel: KernelSpec, q0: np.ndarray):
        k = gram_matrix(kernel, q0)
        # The largest column sum: every kernel value is >= 0, so this is
        # np.linalg.norm(k, 1) bit for bit, without its abs temporary.
        self._norm1 = np.add.reduce(k, axis=0).max()
        self._factor = k.T
        info = _lapack.dpotrf(self._factor)
        if info > 0:
            raise DegenerateConfigurationError(
                f"kernel Gram matrix is not positive definite: {info}-th leading "
                "minor of the array is not positive definite"
            )

    @functools.cached_property
    def condition(self) -> float:
        rcond = _lapack.dpocon(self._factor, self._norm1)
        return 1.0 / rcond if rcond > 0 else math.inf

    def warnings(self) -> tuple:
        if self.condition < _ILL_CONDITIONED:
            return ()
        return (
            f"Gram matrix condition number {self.condition:.3e} (LAPACK 1-norm "
            f"estimate) exceeds {_ILL_CONDITIONED:.0e}; momenta recovery may "
            "lose accuracy",
        )

    def solve(self, u: np.ndarray) -> np.ndarray:
        # (K (x) I2) p = u decouples into one solve per coordinate.
        return _lapack.dpotrs(self._factor, u)


def momenta_from_velocity(kernel: KernelSpec, q0, u0) -> np.ndarray:
    """Invert the kernel reconstruction u_i = sum_j G(|q_i - q_j|) p_j.

    Solves (K (x) I2) p = u via a Cholesky factorization of the Gram
    matrix K over q0, factored in place and solved without a finiteness
    scan (see :class:`_GramSolver`); the caller's q0 and u0 are left
    unchanged, and no condition estimate is computed.  The round-trip
    residual is at the level of the factorization error (<= 1e-10 for
    the shapes used here).  A Gram matrix that is not positive definite
    raises DegenerateConfigurationError.
    """
    q0 = as_points(q0, "q0")
    u0 = as_points(u0, "u0", n=len(q0))
    return _GramSolver(kernel, q0).solve(u0)


def _shoot(cells: list, ps: list):
    """Endpoints at t_final of the geodesics of ``cells``, cell b from its
    q0 with initial momenta ``ps[b]`` under its own kernel width and
    sigma2, shot in lockstep.

    Returns the (B, N, 2) endpoints and the failures of
    :func:`~geoshoot.integrator._evolve_stack`, by member; a failed
    member's endpoint is meaningless.
    """
    systems = [cell.cfg.system for cell in cells]
    k = _constants(systems)
    q = np.stack([cell.q0 for cell in cells])
    # The time grid alone: a shoot keeps no frames.
    grid = replace(cells[0].cfg.evolve, capture_every=0)
    end, _, failures, _ = _evolve_stack(systems[0].kernel, k, q, np.stack(ps), grid)
    return end, failures


def _newton_direction(cell: _Cell) -> np.ndarray:
    """Full Newton step J^-1 r of ``cell``'s endpoint map at its iterate.

    J is built by forward differences off the current endpoint: the 2N
    probes, one per column, are shot as one stack, each member rounding
    as it would alone.  Where a probe cannot be shot, J is singular or
    the step is not finite, the residual itself is returned: one
    feedback update.
    """
    x = cell.x
    step = 1e-5 * max(1.0, float(np.max(np.abs(x))))
    # x plus a scaled identity, not bumped copies of x: the sum turns x's
    # -0.0 entries into +0.0, and J's bits depend on that.
    probes = x + step * np.eye(x.size).reshape(x.size, *x.shape)
    ends, failures = _shoot([cell] * x.size, [cell.momenta(probe) for probe in probes])
    if failures:
        return cell.residual
    jac = ((ends - cell.endpoint) / step).reshape(x.size, x.size).T
    try:
        newton_step = np.linalg.solve(jac, cell.residual.ravel())
    except np.linalg.LinAlgError:
        return cell.residual
    return newton_step.reshape(x.shape) if np.isfinite(newton_step).all() else cell.residual


class _Cell:
    """One match of the lockstep driver: its templates, config, Gram factor
    (None in momentum space), iterate and stopping state.

    It starts at x = p = 0, whose geodesic does not move (dq = K 0 = 0),
    so its endpoint is q0 without a shoot.  It stops on |r| when its
    system is exact (sigma2 = 0) and on h * |r| otherwise.
    """

    def __init__(self, index: int, reference, target, cfg: ShootingConfig, solver):
        self.index = index
        self.cfg = cfg
        self.solver = solver
        self.q0 = reference.points
        self.goal = target.points
        self.label = f"{reference.label}>{target.label}"
        self.exact = cfg.system.sigma2 == 0
        self.x = self.p = np.zeros(self.q0.shape)
        self.endpoint = self.q0
        self.residual = self.goal - self.q0
        self.initial = self.stopping_norm(self.residual)
        self.history = []

    def momenta(self, x: np.ndarray) -> np.ndarray:
        return x if self.solver is None else self.solver.solve(x)

    def stopping_norm(self, residual: np.ndarray) -> float:
        """|r| for an exact system, h * |r| for an inexact one."""
        norm = _norm(self.cfg.norm, residual)
        return norm if self.exact else self.cfg.h * norm


def _drive(problems: list, direction=None) -> list:
    """The shooting iteration behind every match, the Newton baseline
    and every multi-match analysis: one match per (reference, target,
    config) problem in ``problems``, in lockstep.

    Every cell's iterate x is the initial velocity u (velocity update
    space: its Gram solve maps it to momenta) or the momenta p
    themselves.  It starts at 0, whose endpoint is q0 without a shoot,
    and moves by the cell's h times a direction: the endpoint residual
    r, or ``direction(cell)`` when the caller gives one (the Newton
    baseline gives :func:`_newton_direction`, whose shoots are its
    own).  The stopping norm is |r| for an exact system and
    h * |r| for an inexact one (sigma2 > 0); the latter is the
    iterate's move only under the feedback update.  Unequal landmark
    counts raise ConfigurationError for the first such problem before
    anything runs, and so do problems that differ in N, the evolution
    config, or the kernel's family, nu or normalization.

    Each round updates every live cell and shoots them all at once
    through one :func:`~geoshoot.integrator._evolve_stack` call, so the
    problems must share N, the evolution grid and the kernel's family,
    nu and normalization; each cell has its own templates, h, kernel
    width, sigma2, Gram factor (one per kernel and reference) and
    stopping state, and a cell's arithmetic is the same as alone.  A
    cell leaves the stack once it converges, hits its ``max_iter``,
    blows up, goes non-finite or degenerates; the others are not
    affected.  An update that overflows, or a shoot that goes
    non-finite or degenerates, leaves the cell at its last iterate that
    shot cleanly.  Returns, per problem, its MatchResult, or the
    DegenerateConfigurationError that ended it outside its shoots (e.g.
    a Gram matrix that is not positive definite).
    """
    for reference, target, cfg in problems:
        if reference.n != target.n:
            raise ConfigurationError(
                f"templates must have equal landmark counts: "
                f"{reference.n} (reference) vs {target.n} (target)"
            )
    # _shoot takes the grid and the kernel family of its first cell.
    shared = {
        (ref.n, cfg.evolve, cfg.system.kernel.family, cfg.system.kernel.nu,
         cfg.system.kernel.normalized)
        for ref, _, cfg in problems
    }
    if len(shared) > 1:
        raise ConfigurationError(
            "problems shot in lockstep must share N, the evolution config "
            "and the kernel's family, nu and normalization"
        )
    results = [None] * len(problems)

    def finish(cell: _Cell, converged: bool, diagnosis: str | None = None) -> None:
        cfg = cell.cfg
        # The momenta of a diverged cell may overflow H, as expected.
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                h = hamiltonian(cfg.system, ParticleState(cell.q0, cell.p))
            results[cell.index] = MatchResult(
                p0=cell.p,
                iterations=len(cell.history),
                converged=converged,
                residual_history=tuple(cell.history),
                hamiltonian=h,
                final_template=LandmarkTemplate(cell.endpoint, cell.label),
                final_residual=_norm(cfg.norm, cell.residual),
                diagnosis=diagnosis,
                warnings=() if cell.solver is None else cell.solver.warnings(),
            )
        except DegenerateConfigurationError as exc:
            results[cell.index] = exc

    # One Gram factor per kernel and reference, or the error its
    # factorization raised: a matrix with no Cholesky factor is tried once.
    solvers = {}
    live = []
    for i, (reference, target, cfg) in enumerate(problems):
        solver = None
        if cfg.update_space is UpdateSpace.VELOCITY:
            key = (cfg.system.kernel, reference.points.tobytes())
            if key not in solvers:
                try:
                    solvers[key] = _GramSolver(cfg.system.kernel, reference.points)
                except DegenerateConfigurationError as exc:
                    solvers[key] = exc
            solver = solvers[key]
            if isinstance(solver, DegenerateConfigurationError):
                results[i] = solver
                continue
        cell = _Cell(i, reference, target, cfg, solver)
        if cell.initial < cfg.epsilon:
            finish(cell, True)
        else:
            live.append(cell)

    while live:
        moves = []
        for cell in live:
            cfg = cell.cfg
            step = cell.residual if direction is None else direction(cell)
            with np.errstate(over="ignore", invalid="ignore"):
                x = cell.x + cfg.h * step
                p = cell.momenta(x)
            # An update that overflows ends the cell before its shoot; it
            # keeps its last finite iterate, momenta and endpoint.
            if not np.isfinite(p).all():
                finish(cell, False, "step too large (non-finite update)")
                continue
            moves.append((cell, x, p))
        if not moves:
            break
        ends, failures = _shoot([cell for cell, _, _ in moves], [p for _, _, p in moves])
        live = []
        for b, (cell, x, p) in enumerate(moves):
            cfg = cell.cfg
            if b in failures:
                # The cell keeps its last iterate that shot cleanly.
                finish(cell, False, f"step too large ({failures[b]})")
                continue
            # An inexact cell's move h * |r| is that of the residual it moved by.
            residual = cell.goal - ends[b]
            value = cell.stopping_norm(residual if cell.exact else cell.residual)
            cell.x, cell.p, cell.endpoint, cell.residual = x, p, ends[b], residual
            cell.history.append(value)

            if not math.isfinite(value) or value > _BLOWUP_FACTOR * cell.initial:
                finish(cell, False, "step too large")
            elif value < cfg.epsilon:
                finish(cell, True)
            elif len(cell.history) == cfg.max_iter:
                finish(cell, False, "iteration cap reached before the stopping rule")
            else:
                live.append(cell)
    return results


def _solve(problems: list, direction=None) -> list:
    """The MatchResults of one :func:`_drive` over ``problems``, in
    order; raises the error that ended the first failed problem."""
    results = _drive(problems, direction)
    for res in results:
        if isinstance(res, Exception):
            raise res
    return results


def match(
    reference: LandmarkTemplate, target: LandmarkTemplate, cfg: ShootingConfig
) -> MatchResult:
    """Find initial momenta carrying ``reference`` onto ``target``.

    Exact matching (sigma2 = 0) measures the endpoint mismatch in the
    configured norm after every update and stops below epsilon.
    Inexact matching (sigma2 > 0) measures how far the shooting iterate
    moves instead, which is h times the driving residual in either
    update space, and stops once that move is below epsilon: the
    endpoint then lies within about epsilon / h of the target.
    Divergence (non-finite state, or stopping norm exceeding 1e6 times
    its first value) ends the run with converged = False and diagnosis
    "step too large" rather than an exception; hitting max_iter just
    reports converged = False.
    """
    return _solve([(reference, target, cfg)])[0]


def contraction_diagnostics(result: MatchResult) -> list:
    """Consecutive stopping-norm ratios |r(k+1)| / |r(k)|.

    An empirical proxy for the contraction factor of the feedback
    update; for a converged run the tail (last half) averages below 1.
    Individual tail ratios can tick above 1 even while converging: the
    max norm hops between landmarks, and long rotational matches decay
    with a slow ripple on top of the contraction. Too-short histories
    give an empty list.
    """
    hist = result.residual_history
    if len(hist) < 2:
        return []
    return [
        hist[i + 1] / hist[i] if hist[i] > 0 else math.inf
        for i in range(len(hist) - 1)
    ]


def newton_match(
    reference: LandmarkTemplate, target: LandmarkTemplate, cfg: ShootingConfig
) -> MatchResult:
    """Finite-difference Newton baseline for the same root problem.

    Builds the 2N x 2N Jacobian of the endpoint map with forward
    differences off the current endpoint (one shoot per column, the 2N
    probes shot as one lockstep stack), solves for the full Newton step,
    and damps it by h.  Each iteration therefore costs 2N + 1
    evolutions; the point of the comparison is that the feedback loop
    avoids all of them.  The probe stack holds the RK4 state of 2N
    members at once: a Newton iteration at N = 200 peaks at about 24 MB
    of traced memory.  Only exact systems (sigma2 = 0) are supported,
    since the inexact stopping norm h * |r| is the iterate's move only
    under the feedback update; an inexact one raises ConfigurationError
    before any shoot.  The iterate is the initial velocity, whatever
    ``cfg.update_space``.
    """
    if cfg.system.sigma2 > 0:
        raise ConfigurationError("newton_match supports only exact systems (sigma2 = 0)")
    velocity = replace(cfg, update_space=UpdateSpace.VELOCITY)
    return _solve([(reference, target, velocity)], _newton_direction)[0]
