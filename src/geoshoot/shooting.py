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
but each one costs 2N extra shoots for the Jacobian.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpocon

from .errors import (
    ConfigurationError,
    DegenerateConfigurationError,
    DivergenceError,
    require_count,
    require_positive,
)
from .integrator import EvolveConfig, evolve
from .kernels import KernelSpec, as_points, gram_matrix
from .particles import ParticleState, SystemSpec, hamiltonian
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
    (sigma2 > 0) the move h * |r| measured before it.  An exact run whose
    initial residual is already below tolerance reports zero iterations
    and an empty history.  ``diagnosis`` is set only on failed runs.
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
    arr = np.asarray(vec, dtype=float).reshape(-1, 2)
    if kind is ResidualNorm.MAX:
        return float(np.max(np.hypot(arr[:, 0], arr[:, 1])))
    return float(np.linalg.norm(arr.ravel()))


class _GramSolver:
    """Cholesky factorization of the kernel Gram matrix over fixed points,
    reused across all iterations of a match (the initial landmarks never
    move, so the factorization is constant).

    ``condition`` is LAPACK's estimate of the 1-norm condition number
    (``dpocon`` on the Cholesky factor), not an exact value: it costs
    O(N^2) next to the O(N^3) factorization, where an SVD would cost
    several factorizations, and it only decides whether to warn.
    """

    def __init__(self, kernel: KernelSpec, q0: np.ndarray):
        k = gram_matrix(kernel, q0)
        norm1 = np.linalg.norm(k, 1)
        try:
            self._factor = cho_factor(k, lower=True)
        except np.linalg.LinAlgError as exc:
            raise DegenerateConfigurationError(
                f"kernel Gram matrix is not positive definite: {exc}"
            ) from exc
        rcond, _ = dpocon(self._factor[0], norm1, uplo="L")
        self.condition = 1.0 / rcond if rcond > 0 else math.inf

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
        return cho_solve(self._factor, u)


def momenta_from_velocity(kernel: KernelSpec, q0, u0) -> np.ndarray:
    """Invert the kernel reconstruction u_i = sum_j G(|q_i - q_j|) p_j.

    Solves (K (x) I2) p = u via a Cholesky factorization of the Gram
    matrix K over q0; the round-trip residual is at the level of the
    factorization error (<= 1e-10 for the shapes used here).
    """
    q0 = as_points(q0, "q0")
    u0 = as_points(u0, "u0", n=len(q0))
    return _GramSolver(kernel, q0).solve(u0)


def _shoot(cfg: ShootingConfig, q0: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Endpoint at t_final of the geodesic with initial momenta ``p``."""
    return evolve(cfg.system, ParticleState(q0, p), cfg.evolve).final.q


def _newton_direction(
    shoot, x: np.ndarray, endpoint: np.ndarray, residual: np.ndarray
) -> np.ndarray:
    """Full Newton step J^-1 r of the endpoint map ``shoot`` at ``x``.

    J is built by forward differences off the current endpoint, one
    shoot per column.  Where J is singular or a probe cannot be
    evaluated, the residual itself is returned: one feedback update.
    """
    step = 1e-5 * max(1.0, float(np.max(np.abs(x))))
    jac = np.empty((x.size, x.size))
    try:
        for j in range(x.size):
            probe = np.zeros(x.shape)
            probe.flat[j] = step
            jac[:, j] = ((shoot(x + probe) - endpoint) / step).ravel()
        newton_step = np.linalg.solve(jac, residual.ravel())
        if not np.all(np.isfinite(newton_step)):
            raise np.linalg.LinAlgError("non-finite Newton step")
    except (np.linalg.LinAlgError, DivergenceError, DegenerateConfigurationError):
        return residual
    return newton_step.reshape(x.shape)


def _drive(
    reference: LandmarkTemplate,
    target: LandmarkTemplate,
    cfg: ShootingConfig,
    velocity: bool,
    newton: bool,
) -> MatchResult:
    """The shooting iteration behind :func:`match` and :func:`newton_match`.

    The iterate x is the initial velocity u (``velocity``: the Gram
    solve maps it to momenta) or the momenta p themselves.  It starts
    at 0 and moves by h times a direction: the endpoint residual r, or
    the Newton step J^-1 r (``newton``).  The stopping norm is |r| for
    an exact system and h * |r| for an inexact one (sigma2 > 0); the
    latter is the iterate's move only under the feedback update, so
    Newton takes only exact systems.
    """
    if reference.n != target.n:
        raise ConfigurationError(
            f"templates must have equal landmark counts: "
            f"{reference.n} (reference) vs {target.n} (target)"
        )
    if newton and cfg.system.sigma2 > 0:
        raise ConfigurationError("newton_match supports only exact systems (sigma2 = 0)")
    q0 = reference.points
    solver = _GramSolver(cfg.system.kernel, q0) if velocity else None
    to_momenta = solver.solve if velocity else (lambda x: x)
    shoot = lambda x: _shoot(cfg, q0, to_momenta(x))
    residual_rule = cfg.system.sigma2 == 0

    x = np.zeros(q0.shape)
    p = np.zeros(q0.shape)
    endpoint = _shoot(cfg, q0, p)
    residual = target.points - endpoint
    history: list = []

    def finish(converged: bool, diagnosis: str | None = None) -> MatchResult:
        return MatchResult(
            p0=p,
            iterations=len(history),
            converged=converged,
            residual_history=tuple(history),
            hamiltonian=hamiltonian(cfg.system, ParticleState(q0, p)),
            final_template=LandmarkTemplate(
                endpoint, f"{reference.label}>{target.label}"
            ),
            final_residual=_norm(cfg.norm, target.points - endpoint),
            diagnosis=diagnosis,
            warnings=solver.warnings() if velocity else (),
        )

    initial = _norm(cfg.norm, residual) if residual_rule else None
    if residual_rule and initial < cfg.epsilon:
        return finish(True)

    for _ in range(cfg.max_iter):
        if not residual_rule:
            value = cfg.h * _norm(cfg.norm, residual)
        if newton:
            x = x + cfg.h * _newton_direction(shoot, x, endpoint, residual)
        else:
            x = x + cfg.h * residual
        p = to_momenta(x)
        try:
            endpoint = _shoot(cfg, q0, p)
        except (DivergenceError, DegenerateConfigurationError) as exc:
            # endpoint still holds the last finite shoot.
            return finish(False, f"step too large ({exc})")
        residual = target.points - endpoint
        if residual_rule:
            value = _norm(cfg.norm, residual)
        elif initial is None:
            initial = value
        history.append(value)

        blown_up = initial > 0 and value > _BLOWUP_FACTOR * initial
        if not math.isfinite(value) or blown_up:
            return finish(False, "step too large")
        if value < cfg.epsilon:
            return finish(True)

    return finish(False, "iteration cap reached before the stopping rule")


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
    velocity = cfg.update_space is UpdateSpace.VELOCITY
    return _drive(reference, target, cfg, velocity, newton=False)


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
    differences off the current endpoint (one shoot per column), solves
    for the full Newton step, and damps it by h.  Each iteration
    therefore costs 2N + 1 evolutions; the point of the comparison is
    that the feedback loop avoids all of them.  Only exact systems
    (sigma2 = 0) are supported: Newton stops on the endpoint residual.
    """
    return _drive(reference, target, cfg, velocity=True, newton=True)
