"""Fixed-step RK4 integration of the particle system.

A classical fourth-order Runge-Kutta scheme with a constant step is
enough here: the flows of interest are smooth away from particle
collisions, trajectories are short (t in [0, 1] by default), and a
fixed grid keeps runs bit-for-bit reproducible, which the matching
loop and the regression tests both rely on.

:func:`evolve` validates its input once, through the
:class:`~geoshoot.particles.ParticleState` it is given, and then runs
the RK4 loop :func:`_evolve_stack` on plain arrays: every stage calls
the particle module's unvalidated ``_rhs``, and a ``ParticleState`` is
built only for the frames and the final state it returns.  The loop
advances a (B, N, 2) stack of systems in lockstep, which is how the
shooting driver runs many matches at once; ``evolve`` is the stack of
one.  It holds the stack's state y = (q, p) as one C-ordered
(2, B, N, 2) array, and ``_rhs`` returns (dq, dp) in that layout, so a
stage is one ``y + (dt/2) k``, the step one weighted sum, and the
finite check one test of y: elementwise arithmetic rounds the same on
the joint array as on q and p apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfigurationError,
    DivergenceError,
    require_count,
    require_positive,
)
from .kernels import KernelSpec, _constants
from .particles import ParticleState, SystemSpec, _rhs, _stack

__all__ = ["EvolveConfig", "EvolveResult", "evolve"]


@dataclass(frozen=True)
class EvolveConfig:
    """Time horizon and grid for one evolution.

    ``capture_every = 0`` stores no intermediate frames; a positive value
    stores every k-th step.  The initial and final states are always
    included in ``frames`` when capturing is on.
    """

    t_final: float = 1.0
    steps: int = 100
    capture_every: int = 0

    def __post_init__(self):
        require_positive("t_final", self.t_final)
        require_count("steps", self.steps, 1)
        require_count("capture_every", self.capture_every, 0)


@dataclass(frozen=True)
class EvolveResult:
    """Final state plus optionally captured (time, state) frames."""

    final: ParticleState
    frames: tuple

    @property
    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.frames])


def _evolve_stack(
    kernel: KernelSpec, k: tuple, q: np.ndarray, p: np.ndarray, config: EvolveConfig
):
    """RK4 over [0, t_final] for a (B, N, 2) stack of systems, in lockstep.

    Member b starts from (q[b], p[b]) and runs with ``kernel``'s family,
    nu and normalization and member b of the constants ``k``, its alpha
    and sigma2 (see :func:`~geoshoot.particles._rhs`).  Returns
    (q, p, failures, frames).  ``failures`` maps each member that
    degenerated (coincident interacting particles) or stopped being
    finite to the DegenerateConfigurationError or DivergenceError that
    ends it, with the step and time of its first failure appended; a
    failed member runs on in the stack to the end, its rows of the
    returned q and p are meaningless, and no other member is affected.
    ``frames`` holds (t, q, p) of the stack every ``capture_every``
    steps and at the end, with the initial state first, when capturing
    is on.
    """
    dt = config.t_final / config.steps
    half, sixth = 0.5 * dt, dt / 6.0
    # Frame times come from the fraction (step / steps) * t_final so the
    # last one lands on t_final exactly instead of accumulating dt error.
    t_at = lambda i: config.t_final * (i / config.steps)
    y = _stack(q, p)
    failures = {}

    frames = []
    if config.capture_every > 0:
        frames.append((0.0, *y.copy()))

    # Oversized steps overflow to inf inside the stage evaluations before
    # the finite-state check catches them; that path is expected, so the
    # would-be RuntimeWarnings are suppressed here and nowhere else.  A
    # non-finite stage needs no check of its own: it makes some k
    # non-finite, and every k enters the step update with a nonzero
    # weight, so the check after the update fails at the same step.  A
    # failed member runs on, meaninglessly, to the end of the shoot, and
    # its first failure is the one reported: a clash before a non-finite
    # state in the same step.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.steps):
            k1, c1 = _rhs(kernel, y, k)
            k2, c2 = _rhs(kernel, y + half * k1, k)
            k3, c3 = _rhs(kernel, y + half * k2, k)
            k4, c4 = _rhs(kernel, y + dt * k3, k)
            y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if c1 or c2 or c3 or c4:
                t = t_at(step)
                for b, exc in {**c4, **c3, **c2, **c1}.items():
                    failures.setdefault(b, DegenerateConfigurationError(
                        f"{exc} (during step {step + 1}, t in [{t:.6g}, {t + dt:.6g}])"
                    ))
            if not np.isfinite(y).all():
                for b in np.flatnonzero(~np.isfinite(y).all(axis=(0, 2, 3))):
                    failures.setdefault(int(b), DivergenceError(
                        f"non-finite state at step {step + 1} "
                        f"(t = {t_at(step + 1):.6g}); "
                        "the step size is too large for this configuration"
                    ))
            if config.capture_every > 0 and (
                (step + 1) % config.capture_every == 0 or step + 1 == config.steps
            ):
                frames.append((t_at(step + 1), *y.copy()))

    return y[0], y[1], failures, frames


def evolve(
    spec: SystemSpec, state: ParticleState, config: EvolveConfig | None = None
) -> EvolveResult:
    """Integrate the system from ``state`` over [0, t_final].

    Runs the RK4 loop on a stack of one.  Raises DivergenceError when
    the state stops being finite and re-raises particle coincidence
    errors with the step and time at which they occurred appended.
    """
    if config is None:
        config = EvolveConfig()
    k = _constants([spec.kernel], [spec.sigma2])
    q, p, failures, frames = _evolve_stack(
        spec.kernel, k, state.q[None], state.p[None], config
    )
    if failures:
        raise failures[0]
    return EvolveResult(
        final=ParticleState(q[0], p[0]),
        frames=tuple((t, ParticleState(fq[0], fp[0])) for t, fq, fp in frames),
    )
