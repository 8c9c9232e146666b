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
the unvalidated ``_rhs``, which the RK4 loop of
:mod:`geoshoot.integrator` calls directly on every stage.  ``_rhs``
works on the state y = (q, p) of a (B, N, 2) stack of systems, held as
one C-ordered (2, B, N, 2) array (:func:`_stack`), whose members may
differ in kernel width and sigma2, so that many independent shoots
advance in lockstep; each member's arithmetic is the same as alone.
Each kernel computes its constants once, when its ``KernelSpec`` is
built, and :func:`_constants`, beside ``_rhs``, its one reader, stacks
them with each system's sigma2 once per shoot.  Every kernel sum here
runs in the row spans of the block plan :func:`geoshoot.kernels._plan`,
computed once per shape and block budget rather than on every stage,
so no full (N, N) matrix is held.  ``_rhs`` takes the particles
against themselves in upper blocks, rows s:e against columns s:N: K
and A are symmetric, so each block's strictly upper part, transposed,
also gives rows e:N their terms from rows s:e, and every pair's
distance and kernel terms are computed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateConfigurationError
from .kernels import (
    KernelSpec,
    _coincident,
    _kernel_terms,
    _plan,
    as_points,
    pairwise_distances,
)

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


def _stack(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The state y = (q, p) of a (B, N, 2) stack of systems as one
    C-ordered (2, B, N, 2) array, whatever the layout of q and p.

    The BLAS products of :func:`_rhs` round differently per layout, and
    a Cholesky solve returns Fortran order; in C order q = y[0] and
    p = y[1] are C-contiguous whatever the caller passed.
    """
    y = np.empty((2,) + q.shape)
    y[0], y[1] = q, p
    return y


def _constants(systems) -> tuple:
    """The constants of a stack of ``systems`` that share kernel family,
    nu and normalization (only alpha and sigma2 may differ): each
    kernel's own constants (``KernelSpec._k``), then sigma2.

    Each constant is one float where every member shares it, and else a
    (B, 1, 1) array of the members' values, which broadcasts over
    (B, rows, N) radii.  Each member's terms then round exactly as a
    lone system's do.
    """
    return tuple(
        col[0] if all(v == col[0] for v in col) else np.array(col)[:, None, None]
        for col in zip(*((*s.kernel._k, s.sigma2) for s in systems))
    )


def _rhs(kernel: KernelSpec, y: np.ndarray, k: tuple):
    """(d, clashes) on a raw (2, B, N, 2) state, with no input validation.

    y = (q, p) holds a (B, N, 2) stack of systems in the C order of
    :func:`_stack`, and d = (dq, dp) comes back in the same layout.
    Member b runs with the family, nu and normalization of ``kernel``
    and with member b of the constants ``k``: a :func:`_constants` stack
    of its kernel's constants, computed when its ``KernelSpec`` was
    built, and its sigma2.  So the members of one stack may differ in
    alpha and in sigma2.  With K[i,j] = G(d_ij) and A[i,j] =
    (p_i.p_j) G'(d_ij) / d_ij off the diagonal (zero on it), dq = K p
    and dp_i = -sum_j A[i,j] (q_i - q_j).  Coincident pairs are
    tolerated only when their momentum product vanishes, in which case
    their A entry is zero; ``clashes`` maps each member that has an
    interacting coincident pair to the error that pair raises, and that
    member's (dq, dp) is then meaningless.

    The work follows the block plan :func:`~geoshoot.kernels._plan` (N, N):
    members in chunks, and each chunk's K and A built one upper block at
    a time, rows s:e against columns s:N, whose diagonal and coincident
    pairs :func:`~geoshoot.kernels._coincident` sets apart.  The block
    gives rows s:e their terms from columns s:N, and its columns e:N,
    transposed, give rows e:N their terms from columns s:e.  The first
    block writes its rows in place and later ones add to them, so a
    one-block system (N <= 181) rounds exactly as a plain N x N build.  A
    member with sigma2 = 0 gets no sigma2 p term at all, so it rounds as
    alone.
    """
    q, p = y
    k, sigma2 = k[:-1], k[-1]
    n = q.shape[1]
    d = np.empty_like(y)
    dq, dp = d
    clashes = {}
    spans, chunk = _plan(n, n)
    for c in range(0, len(q), chunk):
        if chunk >= len(q):
            qc, pc, dqc, dpc, kc = q, p, dq, dp, k
        else:
            members = slice(c, c + chunk)
            qc, pc, dqc, dpc = q[members], p[members], dq[members], dp[members]
            kc = tuple(v if np.ndim(v) == 0 else v[members] for v in k)
        for s, e in spans:
            # Columns s:N; the first block spans them all.
            qs, ps = (qc[:, s:], pc[:, s:]) if s else (qc, pc)
            qe = qc[:, s:e]
            dist = pairwise_distances(qe, qs)
            kmat, a = _kernel_terms(kernel, dist, kc)
            pdot = pc[:, s:e] @ ps.transpose(0, 2, 1)
            # Each row's own pair and any coincident pair get A = 0 and
            # distance 1.0 before the division, which keeps them +0.
            a *= pdot
            coincident = _coincident(dist, a)
            if coincident is not None:
                for b, i, j in np.argwhere(coincident & (pdot != 0.0)):
                    clashes.setdefault(int(c + b), DegenerateConfigurationError(
                        f"particles {s + i} and {s + j} coincide with interacting "
                        "momenta; the momentum equation is singular there"
                    ))
                dist[coincident] = 1.0
                a[coincident] = 0.0
            a /= dist
            # Rows s:e.  The first block writes in place rather than adding
            # onto zeros, which would round -0 to +0, and at small N each
            # temporary and copy is a measurable share of the call.
            # A @ q - (A 1) q_i is the negated (A 1) q_i - A @ q, bit for bit.
            row_sums = np.add.reduce(a, axis=2, keepdims=True)
            if s == 0:
                np.matmul(kmat, ps, out=dqc[:, s:e])
                np.subtract(a @ qs, row_sums * qe, out=dpc[:, s:e])
            else:
                dqc[:, s:e] += kmat @ ps
                dpc[:, s:e] += a @ qs - row_sums * qe
            if e == n:
                continue
            # Rows e:N, from the block's strictly upper part transposed.
            kt = kmat[:, :, e - s :].transpose(0, 2, 1)
            at = a[:, :, e - s :].transpose(0, 2, 1)
            col_sums = np.add.reduce(at, axis=2, keepdims=True)
            if s == 0:
                np.matmul(kt, pc[:, s:e], out=dqc[:, e:])
                np.subtract(at @ qe, col_sums * qc[:, e:], out=dpc[:, e:])
            else:
                dqc[:, e:] += kt @ pc[:, s:e]
                dpc[:, e:] += at @ qe - col_sums * qc[:, e:]
    # A shared sigma2 is a float, tested without a numpy call.
    if isinstance(sigma2, np.ndarray):
        np.add(dq, sigma2 * p, out=dq, where=sigma2 != 0.0)
    elif sigma2 != 0.0:
        dq += sigma2 * p
    return d, clashes


def rhs(spec: SystemSpec, state: ParticleState) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative (dq, dp) of the particle system at ``state``.

    The result does not depend on the memory layout of ``state.q`` and
    ``state.p``: they are copied into one C-ordered state first.
    """
    d, clashes = _rhs(
        spec.kernel, _stack(state.q[None], state.p[None]), _constants([spec])
    )
    if clashes:
        raise clashes[0]
    return d[0, 0], d[1, 0]


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
    for s, e in _plan(len(pts), state.n)[0]:
        dist = pairwise_distances(pts[s:e], state.q)
        u[s:e] = _kernel_terms(spec.kernel, dist)[0] @ state.p
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
