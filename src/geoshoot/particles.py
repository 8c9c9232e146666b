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
is one block pass, :func:`geoshoot.kernels._blocks`, which yields the
distances of each row span of the block plan in turn, so no full
(N, N) matrix is held.  ``_rhs`` takes the particles
against themselves in upper blocks, rows s:e against columns s:N: K
and A are symmetric, so each block's strictly upper part, transposed,
also gives rows e:N their terms from rows s:e, and every pair's
distance and kernel terms are computed once.  The block step
:func:`_block_terms` only writes a block's rows, and the loops that
call it add every block after the first in block order.  A large pass,
always of one member, is split between the caller and one forked
worker process, each computing its own blocks, so the result is the
serial loop's, bit for bit.
"""

from __future__ import annotations

import atexit
import functools
import math
import os
import pickle
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateConfigurationError
from .kernels import KernelSpec, _blocks, _coincident, _kernel_terms, _plan, as_points

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


def _block_terms(kernel, qc, pc, kc, s, e, dist, dq, dp):
    """The terms of the upper block (s, e) of a chunk's self pass, written
    into ``dq`` and ``dp``, N - s rows each: rows s:e their terms from
    columns s:N, and rows e:N, from the block's strictly upper part
    transposed, their terms from columns s:e.  ``dist`` is the block from
    :func:`~geoshoot.kernels._blocks`; it is worked on in place.  Returns
    the interacting coincident pairs as (member, i, j) with global
    particle indices, in the order of ``np.argwhere``.  The one block
    step of :func:`_rhs`, run by the caller and by the split worker
    alike, so that a block's numbers are the same in either process.
    """
    n = qc.shape[1]
    # Columns s:N; the first block spans them all, and a system of one
    # block takes no slices.
    qs, ps = (qc[:, s:], pc[:, s:]) if s else (qc, pc)
    qe, pe = (qc[:, s:e], pc[:, s:e]) if e - s < n else (qc, pc)
    kmat, a = _kernel_terms(kernel, dist, kc)
    pdot = pe @ ps.transpose(0, 2, 1)
    # Each row's own pair and any coincident pair get A = 0 and
    # distance 1.0 before the division, which keeps them +0.
    a *= pdot
    found = ()
    coincident = _coincident(dist, a)
    if coincident is not None:
        found = [
            (int(b), s + int(i), s + int(j))
            for b, i, j in np.argwhere(coincident & (pdot != 0.0))
        ]
        dist[coincident] = 1.0
        a[coincident] = 0.0
    a /= dist
    # Rows s:e.  Writing rather than adding onto zeros keeps a -0, and at
    # small N each temporary and copy is a measurable share of the call.
    # A @ q - (A 1) q_i is the negated (A 1) q_i - A @ q, bit for bit.
    row_sums = np.add.reduce(a, axis=2, keepdims=True)
    rq, rp = (dq, dp) if e == n else (dq[:, : e - s], dp[:, : e - s])
    np.matmul(kmat, ps, out=rq)
    np.subtract(a @ qs, row_sums * qe, out=rp)
    if e == n:
        return found
    # Rows e:N, from the block's strictly upper part transposed.
    kt = kmat[:, :, e - s :].transpose(0, 2, 1)
    at = a[:, :, e - s :].transpose(0, 2, 1)
    col_sums = np.add.reduce(at, axis=2, keepdims=True)
    np.matmul(kt, pe, out=dq[:, e - s :])
    np.subtract(at @ qe, col_sums * qc[:, e:], out=dp[:, e - s :])
    return found


def _serial_pass(kernel, qc, pc, kc, spans, dqc, dpc) -> list:
    """The coincident pairs of the blocks ``spans`` of a chunk's pass, from
    its first block on, run in turn into the chunk's (dq, dp).  The first
    block writes its rows there, which keeps a -0 and takes no copy;
    each later one writes its rows s:N into one buffer, made once per
    pass, and they are added to the chunk's in block order."""
    b, n = qc.shape[:2]
    # The first later block has the most rows s:N.
    rows = np.empty(4 * b * (n - spans[1][0])) if len(spans) > 1 else None
    found = []
    for s, e, dist in _blocks(qc, spans=spans):
        if not s:
            found += _block_terms(kernel, qc, pc, kc, s, e, dist, dqc, dpc)
            continue
        tq, tp = rows[: 4 * b * (n - s)].reshape(2, b, n - s, 2)
        found += _block_terms(kernel, qc, pc, kc, s, e, dist, tq, tp)
        dqc[:, s:] += tq
        dpc[:, s:] += tp
    return found


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

    The work follows the block plan :func:`~geoshoot.kernels._plan` (N, N),
    looked up once per call: members in chunks, and each chunk's K and A
    built one upper block at a time from the chunk's self pass
    :func:`~geoshoot.kernels._blocks`, rows s:e against columns s:N.
    Each block's kernel terms are taken from its raw distances, zero on
    the diagonal, before :func:`~geoshoot.kernels._coincident` sets the
    diagonal and any coincident pair apart.  The block
    gives rows s:e their terms from columns s:N, and its columns e:N,
    transposed, give rows e:N their terms from columns s:e.  The first
    block writes its rows in place and later ones add to them, so a
    one-block system (N <= 181) rounds exactly as a plain N x N build.  A
    member with sigma2 = 0 gets no sigma2 p term at all, so it rounds as
    alone.

    A pass whose blocks split into two halves of similar size
    (:func:`_split_at`) is shared with a worker process, where the host
    gives this one more than one CPU: the worker computes the last
    blocks while the caller computes the first, and the caller adds
    every block in block order (:class:`_Worker`), so the bits and the
    clashes are those of the serial loop.
    """
    q, p = y
    k, sigma2 = k[:-1], k[-1]
    n = q.shape[1]
    d = np.empty_like(y)
    dq, dp = d
    clashes = {}
    spans, chunk = _plan(n, n)
    worker, cut = _worker_for(spans, n) if len(spans) > 1 else (None, 0)
    for c in range(0, len(q), chunk):
        if chunk >= len(q):
            qc, pc, dqc, dpc, kc = q, p, dq, dp, k
        else:
            members = slice(c, c + chunk)
            qc, pc, dqc, dpc = q[members], p[members], dq[members], dp[members]
            kc = tuple(v if np.ndim(v) == 0 else v[members] for v in k)
        found = None if worker is None else worker.split(kernel, qc, pc, kc, spans, cut, dqc, dpc)
        if found is None:
            found = _serial_pass(kernel, qc, pc, kc, spans, dqc, dpc)
        for b, i, j in found:
            clashes.setdefault(c + b, DegenerateConfigurationError(
                f"particles {i} and {j} coincide with interacting "
                "momenta; the momentum equation is singular there"
            ))
    # A shared sigma2 is a float, tested without a numpy call.
    if isinstance(sigma2, np.ndarray):
        np.add(dq, sigma2 * p, out=dq, where=sigma2 != 0.0)
    elif sigma2 != 0.0:
        dq += sigma2 * p
    return d, clashes


# A pass splits where the smaller of its two halves, the caller's first
# blocks and the worker's last ones, holds at least this share of the
# larger one's entries.  Time of a one-member _rhs call, split over
# serial (median of 40 alternated pairs on a 2-core x86-64 host, one
# OpenBLAS thread), by N and share: 0.57-0.63 at 1024 (0.92), 0.64 at
# 512 (0.71), 0.80-0.82 at 400 (0.65), 0.81-0.85 at 300 (0.84),
# 0.82-0.88 at 256 (0.50), 0.92 at 250 (0.43), 0.96 at 240 (0.33) and
# 1.03 at 200 (0.04).
_SPLIT_SHARE = 0.5


@functools.lru_cache(maxsize=64)
def _split_at(spans: tuple, n: int, share: float) -> tuple:
    """(cut, floats) for a pass of ``spans`` over n columns: the caller
    keeps blocks :cut and the worker takes blocks cut:, with cut where
    the larger half holds the fewest entries, and the worker writes
    ``floats`` per pass, rows s:N of dq and dp for each of its blocks.
    (0, 0) where the pass stays serial: one block, or a smaller half
    with less than ``share`` of the larger one's entries."""
    entries = [(e - s) * (n - s) for s, e in spans]
    total, head, halves = sum(entries), 0, []
    for cut in range(1, len(spans)):
        head += entries[cut - 1]
        halves.append((max(head, total - head), cut, min(head, total - head)))
    larger, cut, smaller = min(halves, default=(0, 0, 0))
    if not cut or smaller < share * larger:
        return 0, 0
    return cut, sum(4 * (n - s) for s, _ in spans[cut:])


class _Worker:
    """A forked process that computes the last upper blocks of a pass
    while its caller computes the first ones.

    The mapping is anonymous and shared, made before the fork, so no
    named segment outlives a run.  The caller copies a chunk's state
    (q, p) to its start; after it the worker writes, block by block, the
    rows s:N of (dq, dp) that :func:`_block_terms` gives, and answers
    each block on a pipe with its coincident pairs, or with None where
    the block failed, which ends its answers to that pass.  The caller
    adds each block's rows in block order, as the serial loop does, so
    every number is formed by the same operations on the same inputs.
    """

    FLOATS = 1 << 23  # 64 MiB, pages touched only as passes need them

    def __init__(self):
        import mmap

        self.floats = np.frombuffer(mmap.mmap(-1, 8 * self.FLOATS))
        requests, replies = os.pipe(), os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns that BLAS's threads make fork unsafe;
                # the child runs only numpy and exits with os._exit.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            for fd in requests + replies:
                os.close(fd)
            raise
        if pid == 0:
            try:
                _serve(requests[0], replies[1], self.floats)
            finally:
                os._exit(0)
        os.close(requests[0])
        os.close(replies[1])
        self.pid, self.lock = pid, threading.Lock()
        self.requests, self.replies = os.fdopen(requests[1], "wb"), os.fdopen(replies[0], "rb")

    def split(self, kernel, qc, pc, kc, spans, cut, dqc, dpc):
        """The coincident pairs of one chunk's pass over ``spans``, written
        into (dqc, dpc) as the serial loop writes them, the worker
        computing blocks cut: while this process computes blocks :cut.
        None where this call cannot use the worker: another thread holds
        it, it died, or a block failed in either process.  Then the
        caller recomputes the chunk serially, which raises whatever it
        must; an error on this side, or the worker's loss, also stops the
        worker.
        """
        if not self.lock.acquire(blocking=False):
            return None
        try:
            b, n = qc.shape[:2]
            y = self.floats[: 4 * b * n].reshape(2, b, n, 2)
            y[0], y[1] = qc, pc
            err = {kind: "raise" if act != "ignore" else act for kind, act in np.geterr().items()}
            self.requests.write(pickle.dumps((kernel, kc, err, (b, n), spans[cut:])))
            self.requests.flush()
            found, at = _serial_pass(kernel, qc, pc, kc, spans[:cut], dqc, dpc), y.size
            for s, _ in spans[cut:]:
                pairs = pickle.load(self.replies)
                if pairs is None:
                    return None
                tq, tp = self.floats[at : at + 4 * b * (n - s)].reshape(2, b, n - s, 2)
                at += tq.size + tp.size
                dqc[:, s:] += tq
                dpc[:, s:] += tp
                found += pairs
            return found
        except BaseException as exc:
            self.close()
            if isinstance(exc, Exception):
                return None
            raise
        finally:
            self.lock.release()

    def close(self) -> None:
        """Stop the worker and reap it; later passes run serially."""
        import signal

        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        for pipe in (self.requests, self.replies):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            # Killed only while unreaped, so that its pid is not reused.
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def _serve(requests: int, replies: int, floats: np.ndarray) -> None:
    """The worker's loop, in the forked child: it computes the blocks of
    each request until its request pipe ends, which it also does when
    the caller dies.  It holds no descriptor of the caller's but its two
    pipes (stdin, stdout and stderr become os.devnull), ignores SIGINT,
    which the terminal sends to the caller's whole group, and turns
    each floating-point error the caller would see into a failed block.
    """
    import gc
    import signal

    null = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(null, fd)
    low, high = sorted((requests, replies))
    os.closerange(3, low)
    os.closerange(low + 1, high)
    os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The caller's objects are never collected here; a collection would
    # copy every page that holds one.
    gc.freeze()
    with os.fdopen(requests, "rb") as inbox, os.fdopen(replies, "wb") as outbox:
        while True:
            try:
                kernel, kc, err, (b, n), spans = pickle.load(inbox)
            except EOFError:
                return
            qc, pc = floats[: 4 * b * n].reshape(2, b, n, 2)
            at = 4 * b * n
            try:
                with np.errstate(**err):
                    for s, e, dist in _blocks(qc, spans=spans):
                        dq, dp = floats[at : at + 4 * b * (n - s)].reshape(2, b, n - s, 2)
                        at += dq.size + dp.size
                        pickle.dump(_block_terms(kernel, qc, pc, kc, s, e, dist, dq, dp), outbox)
                        outbox.flush()
            except Exception:
                pickle.dump(None, outbox)
                outbox.flush()


# The split worker: None until a pass first splits, False where none can
# run (one usable CPU, no fork, or a failed start) and in forked children.
_worker = None


def _worker_for(spans: tuple, n: int) -> tuple:
    """(worker, cut) for a one-member pass of ``spans`` over n columns:
    the worker, started on the first pass that splits, takes blocks
    cut:.  (None, 0) where the pass stays serial.

    A pass of several blocks holds one member: with budget E, rows =
    max(1, E // n) < n blocks means E < (rows + 1) n <= 2 rows n, so the
    plan's chunk, max(1, E // (rows n)), is 1."""
    global _worker
    cut, floats = _split_at(spans, n, _SPLIT_SHARE)
    if not cut or 4 * n + floats > _Worker.FLOATS:
        return None, 0
    if _worker is None:
        _worker = False
        try:
            if len(os.sched_getaffinity(0)) > 1:
                _worker = _Worker()
        except (AttributeError, OSError):  # no sched_getaffinity or fork
            pass
    return (_worker, cut) if _worker and _worker.pid is not None else (None, 0)


def _stop_worker() -> None:
    """Stop the split worker, if one runs; the next pass that splits
    starts another."""
    global _worker
    if _worker:
        _worker.close()
    _worker = None


def _forget_worker() -> None:
    """In a forked child: drop the caller's pipes, and never split."""
    global _worker
    if _worker:
        for pipe in (_worker.requests, _worker.replies):
            pipe.close()
    _worker = False


atexit.register(_stop_worker)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def rhs(spec: SystemSpec, state: ParticleState) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative (dq, dp) of the particle system at ``state``.

    The result does not depend on the memory layout of ``state.q`` and
    ``state.p``: they are copied into one C-ordered state first.
    Coordinates near the float limit print no numpy warning: their
    distances overflow to inf, where every kernel is 0.
    """
    with np.errstate(over="ignore"):
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
    points; anything else raises ValueError.  Distances that overflow
    to inf print no numpy warning: every kernel is 0 there.
    """
    x_arr = np.asarray(x, dtype=float)
    single = x_arr.ndim == 1
    pts = as_points(np.atleast_2d(x_arr), "x")
    u = np.empty_like(pts)
    with np.errstate(over="ignore"):
        for s, e, dist in _blocks(pts, state.q):
            u[s:e] = _kernel_terms(spec.kernel, dist, slope=False)[0] @ state.p
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
