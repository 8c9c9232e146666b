"""Fixed-step RK4 integration of the particle system.

A classical fourth-order Runge-Kutta scheme with a constant step is
enough here: the flows of interest are smooth away from particle
collisions, trajectories are short (t in [0, 1] by default), and a
fixed grid keeps runs bit-for-bit reproducible, which the matching
loop and the regression tests both rely on.

:func:`evolve` validates its input once, through the
:class:`~geoshoot.particles.ParticleState` it is given, and then runs
on plain arrays: every stage calls the particle module's unvalidated
``_rhs``, and a ``ParticleState`` is built only for the frames and the
final state it returns.
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
from .particles import ParticleState, SystemSpec, _rhs

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


def _check_finite(q: np.ndarray, p: np.ndarray, step: int, t: float) -> None:
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
        raise DivergenceError(
            f"non-finite state at step {step} (t = {t:.6g}); "
            "the step size is too large for this configuration"
        )


def evolve(
    spec: SystemSpec, state: ParticleState, config: EvolveConfig | None = None
) -> EvolveResult:
    """Integrate the system from ``state`` over [0, t_final].

    Raises DivergenceError when the state stops being finite and
    re-raises particle coincidence errors with the step and time at
    which they occurred appended.
    """
    if config is None:
        config = EvolveConfig()
    dt = config.t_final / config.steps
    # Frame times come from the fraction (step / steps) * t_final so the
    # last one lands on t_final exactly instead of accumulating dt error.
    t_at = lambda k: config.t_final * (k / config.steps)
    q = state.q.copy()
    p = state.p.copy()

    frames = []
    if config.capture_every > 0:
        frames.append((0.0, ParticleState(q.copy(), p.copy())))

    # Oversized steps overflow to inf inside the stage evaluations before
    # the finite-state check catches them; that path is expected, so the
    # would-be RuntimeWarnings are suppressed here and nowhere else.  A
    # non-finite stage needs no check of its own: it makes some k
    # non-finite, and every k enters the step update with a nonzero
    # weight, so the check after the update raises at the same step.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.steps):
            t = t_at(step)
            try:
                k1q, k1p = _rhs(spec, q, p)
                k2q, k2p = _rhs(spec, q + 0.5 * dt * k1q, p + 0.5 * dt * k1p)
                k3q, k3p = _rhs(spec, q + 0.5 * dt * k2q, p + 0.5 * dt * k2p)
                k4q, k4p = _rhs(spec, q + dt * k3q, p + dt * k3p)
            except DegenerateConfigurationError as exc:
                raise DegenerateConfigurationError(
                    f"{exc} (during step {step + 1}, t in [{t:.6g}, {t + dt:.6g}])"
                ) from exc
            q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            p = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            _check_finite(q, p, step + 1, t_at(step + 1))
            if config.capture_every > 0 and (
                (step + 1) % config.capture_every == 0 or step + 1 == config.steps
            ):
                frames.append((t_at(step + 1), ParticleState(q.copy(), p.copy())))

    return EvolveResult(final=ParticleState(q, p), frames=tuple(frames))
