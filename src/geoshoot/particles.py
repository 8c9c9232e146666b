"""The planar N-particle system driving landmark transport.

Positions q and momenta p evolve under

    dq_i/dt = sum_j G(|q_i - q_j|) p_j + sigma2 * p_i
    dp_i/dt = -sum_{j != i} (p_i . p_j) G'(|q_i - q_j|) (q_i - q_j) / |q_i - q_j|

where G is a kernel from :mod:`geoshoot.kernels`.  sigma2 = 0 is the
exact geodesic system; sigma2 > 0 adds a slight advection slack that
lets the deformation deviate from a pure geodesic (inexact matching).

The momentum equation is antisymmetric under i <-> j, so total linear
momentum is conserved exactly; H, linear and angular momentum are all
conserved by the exact flow and exposed via :func:`conserved_quantities`
as integration diagnostics.

Input is validated at the public boundary: :class:`ParticleState`
checks shapes and finiteness once, and :func:`rhs` hands its arrays to
the unvalidated ``_rhs``, which :func:`geoshoot.integrator.evolve` calls
directly on every RK4 stage.  Every kernel sum here is a loop over the
row blocks of :func:`geoshoot.kernels.pairwise_blocks`, so no full
(N, N) matrix is held: each block's distances are computed once and its
rows of the sum added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateConfigurationError
from .kernels import KernelSpec, _kernel_terms, as_points, kernel_value, pairwise_blocks

__all__ = [
    "ParticleState",
    "SystemSpec",
    "rhs",
    "hamiltonian",
    "velocity_field",
    "conserved_quantities",
    "inexactness_energy",
]


@dataclass(frozen=True)
class ParticleState:
    """Positions and momenta of N planar particles at one instant."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = as_points(self.q, "q")
        p = as_points(self.p, "p", n=len(q))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class SystemSpec:
    """Kernel plus the inexactness weight sigma2 (0 selects the exact system)."""

    kernel: KernelSpec = field(default_factory=KernelSpec)
    sigma2: float = 0.0

    def __post_init__(self):
        if not (self.sigma2 >= 0 and math.isfinite(self.sigma2)):
            raise ConfigurationError(
                f"sigma2 must be nonnegative and finite, got {self.sigma2}"
            )


def _rhs(spec: SystemSpec, q: np.ndarray, p: np.ndarray):
    """(dq, dp) on raw (N, 2) arrays, with no input validation.

    With K[i,j] = G(d_ij) and A[i,j] = (p_i.p_j) G'(d_ij) / d_ij off the
    diagonal (zero on it), dq = K p and dp_i = -sum_j A[i,j] (q_i - q_j).
    Coincident pairs are tolerated only when their momentum product
    vanishes, in which case their A entry is zero.  Rows s:e of K and A
    are built one block of :func:`pairwise_blocks` at a time, so their
    diagonal is the flat strided slice [s::N+1] of the block.
    """
    n = len(q)
    dq = np.empty_like(p)
    dp = np.empty_like(q)
    for s, dist in pairwise_blocks(q, q):
        e = s + len(dist)
        qb = q[s:e]
        kmat, a = _kernel_terms(spec.kernel, dist)
        pdot = p[s:e] @ p.T
        # dist is exactly 0 on the diagonal; any other 0 is a coincident pair.
        dist.reshape(-1)[s :: n + 1] = 1.0
        coincident = None
        if np.count_nonzero(dist) < dist.size:
            coincident = dist == 0.0
            clash = np.argwhere(coincident & (pdot != 0.0))
            if len(clash):
                i, j = clash[0]
                raise DegenerateConfigurationError(
                    f"particles {s + i} and {j} coincide with interacting momenta; "
                    "the momentum equation is singular there"
                )
            dist[coincident] = 1.0
        a *= pdot
        a /= dist
        a.reshape(-1)[s :: n + 1] = 0.0
        if coincident is not None:
            a[coincident] = 0.0
        # Written into dq and dp in place: at small N each temporary and
        # copy is a measurable share of the call.
        np.matmul(kmat, p, out=dq[s:e])
        dpb = a.sum(axis=1)[:, None] * qb
        dpb -= a @ q
        np.negative(dpb, out=dp[s:e])
    if spec.sigma2 != 0.0:
        dq += spec.sigma2 * p
    return dq, dp


def rhs(spec: SystemSpec, state: ParticleState) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative (dq, dp) of the particle system at ``state``."""
    return _rhs(spec, state.q, state.p)


def hamiltonian(spec: SystemSpec, state: ParticleState) -> float:
    """H = sum_ij (p_i . p_j) G(|q_i - q_j|), i.e. the full double sum p'Kp.

    This equals the squared kernel semi-metric between the templates the
    flow connects, which is the scale all shape-distance values here are
    quoted in; it is twice the canonical 1/2 p'Kp Hamiltonian, and either
    multiple is conserved by the exact flow.  sigma2 plays no role; the
    extra kinetic term of the inexact system is reported separately by
    :func:`inexactness_energy` and never folded in silently.
    """
    return float(np.sum(state.p * velocity_field(spec, state, state.q)))


def inexactness_energy(spec: SystemSpec, state: ParticleState) -> float:
    """Diagnostic sigma2 sum_i |p_i|^2 term of the inexact system, on the
    same doubled scale as :func:`hamiltonian`."""
    return spec.sigma2 * float(np.sum(state.p * state.p))


def velocity_field(spec: SystemSpec, state: ParticleState, x) -> np.ndarray:
    """Kernel-reconstructed velocity u(x) = sum_j G(|x - q_j|) p_j.

    ``x`` may be a single 2-vector or an (M, 2) batch of finite sample
    points; anything else raises ValueError.
    """
    x_arr = np.asarray(x, dtype=float)
    single = x_arr.ndim == 1
    pts = as_points(np.atleast_2d(x_arr), "x")
    u = np.empty_like(pts)
    for s, dist in pairwise_blocks(pts, state.q):
        u[s : s + len(dist)] = kernel_value(spec.kernel, dist) @ state.p
    return u[0] if single else u


def conserved_quantities(spec: SystemSpec, state: ParticleState) -> dict:
    """Hamiltonian, total linear momentum, and total angular momentum.

    All three are constants of the exact flow: H by symplecticity, P by
    the i <-> j antisymmetry of the momentum equation, L by rotational
    invariance of the kernel.
    """
    q, p = state.q, state.p
    return {
        "H": hamiltonian(spec, state),
        "P": p.sum(axis=0),
        "L": float(np.sum(q[:, 0] * p[:, 1] - q[:, 1] * p[:, 0])),
    }
