"""Green's-function kernels of the planar operator (I - alpha^2 Lap)^nu.

The scalar kernel G(r) couples particle momenta to velocities. Three
families are supported:

* ``conical``: the nu = 3/2 case, G(r) = exp(-r/alpha) / (2 pi alpha^2).
  Nonsmooth at the origin (finite jump in dG/dr), which keeps particle
  interactions short-ranged.
* ``gaussian``: the smooth nu -> infinity limit, taken here as
  G(r) = exp(-r^2 / (2 alpha^2)) / (2 pi alpha^2).
* ``bessel``: general order nu > 1,
  G(r) = C r^(nu-1) K_(nu-1)(r/alpha) with
  C = 2^(1-nu) / (2 pi alpha^(1+nu) Gamma(nu)), where K is the modified
  Bessel function of the second kind.  At the origin the continuous
  extension is G(0) = 1 / (4 pi alpha^2 (nu - 1)).

With ``normalized=True`` every kernel is rescaled so G(0) = 1, the
convention used throughout the matching experiments (the conical kernel
then reads exp(-r/alpha)).
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateConfigurationError, require_positive

__all__ = [
    "KernelFamily",
    "KernelSpec",
    "kernel_value",
    "kernel_derivative",
    "gram_matrix",
]


class KernelFamily(str, enum.Enum):
    CONICAL = "conical"
    GAUSSIAN = "gaussian"
    BESSEL = "bessel"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family selector with length scale and normalization.

    ``nu`` is only consulted for the ``bessel`` family (conical is pinned
    at nu = 3/2 and gaussian is the smooth limit).  Orders in (1, 3/2)
    are evaluated but emit a warning: the kernel is bounded there yet has
    a cusp at the origin, so particle dynamics through close encounters
    are unreliable without mollification, which this package does not do.
    """

    family: KernelFamily = KernelFamily.CONICAL
    nu: float = 1.5
    alpha: float = 1.0
    normalized: bool = True

    def __post_init__(self):
        object.__setattr__(self, "family", KernelFamily(self.family))
        require_positive("alpha", self.alpha)
        require_positive("nu", self.nu)
        if self.family is KernelFamily.BESSEL:
            if self.nu <= 1:
                raise ConfigurationError(
                    f"bessel kernels require nu > 1 (kernel unbounded otherwise), got nu={self.nu}"
                )
            if self.nu < 1.5:
                warnings.warn(
                    f"nu={self.nu} in (1, 1.5): kernel has a cusp at r=0 and is used unmollified",
                    stacklevel=3,
                )
        # Extreme widths and orders overflow or vanish in the constants
        # every evaluation divides by or scales with.
        try:
            with np.errstate(all="ignore"):
                _, _, peak, c, *_ = _member_constants(self)
        except (ZeroDivisionError, OverflowError):
            peak = c = math.nan
        if not (0 < peak < math.inf) or (
            self.family is KernelFamily.BESSEL and not 0 < c < math.inf
        ):
            raise ConfigurationError(
                f"kernel constants G(0) = {peak} and c = {c} are not finite and "
                f"nonzero at alpha={self.alpha}, nu={self.nu}"
            )

    def peak(self) -> float:
        """Unnormalized kernel value at r = 0."""
        a2 = self.alpha * self.alpha
        if self.family is KernelFamily.BESSEL:
            return 1.0 / (4.0 * math.pi * a2 * (self.nu - 1.0))
        return 1.0 / (2.0 * math.pi * a2)


def _member_constants(spec: KernelSpec) -> tuple:
    """alpha, alpha**2, G(0), the Bessel factors c and c / alpha, and
    -alpha of one kernel, as scalars (c is 0 outside the bessel family).

    A batch of kernels stacks these per member (:func:`_constants`), so
    every member's terms round exactly as a lone kernel's do.
    """
    alpha = spec.alpha
    c = 0.0
    if spec.family is KernelFamily.BESSEL:
        # scipy.special is imported in the bessel branches only: no other
        # family uses it, and importing it adds about 3.5 MB to a run's
        # peak memory and tens of milliseconds to its start.
        from scipy.special import gamma

        c = 2.0 ** (1.0 - spec.nu) / (
            2.0 * math.pi * alpha ** (1.0 + spec.nu) * gamma(spec.nu)
        )
    return alpha, alpha**2, spec.peak(), c, c / alpha, -alpha


def _constants(specs, sigma2s) -> tuple:
    """The :func:`_member_constants` of a stack of kernels that share
    family, nu and normalization (only alpha may differ), followed by
    the members' ``sigma2s``, the particle system's one other constant.

    Each constant is one float where every member shares it, and else a
    (B, 1, 1) array of the members' values, which broadcasts over
    (B, rows, N) radii.
    """
    return tuple(
        col[0] if all(v == col[0] for v in col) else np.array(col)[:, None, None]
        for col in (*zip(*(_member_constants(s) for s in specs)), sigma2s)
    )


def _members(k: tuple, index) -> tuple:
    """The constants of the members ``index`` (a slice) of a
    :func:`_constants` stack."""
    return tuple(v if np.ndim(v) == 0 else v[index] for v in k)


def _kernel_terms(
    spec: KernelSpec, r: np.ndarray, k: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """G(r) and dG/dr over an array of radii r >= 0, from one evaluation of
    the family's exp (or of each Bessel order).

    ``k`` holds the kernel constants: ``spec``'s own by default, or the
    kernel part of a :func:`_constants` stack for a (B, rows, N) batch
    of radii, whose members then differ in alpha only.  G is exact at
    r = 0.  dG/dr there is finite but meaningless (the conical kernel's
    derivative jumps at the origin), so callers mask it.  The slope is returned as
    dG/dr, not dG/dr / r: the particle system weights it by the momentum
    product before dividing by r, and dividing first would round every
    conical rhs, and so every match, differently.
    """
    alpha, alpha2, peak, c, c_alpha, neg_alpha = _member_constants(spec) if k is None else k
    if spec.family is KernelFamily.BESSEL:
        from scipy.special import kv

        # d/dz [z^mu K_mu(z)] = -z^mu K_(mu-1)(z), with z = r / alpha.
        mu = spec.nu - 1.0
        value = np.full_like(r, peak)
        slope = np.zeros_like(r)
        pos = r > 0
        rp = r[pos]
        at = lambda v: np.broadcast_to(v, r.shape)[pos]  # noqa: E731
        z = rp / at(alpha)
        r_mu = rp**mu
        with np.errstate(over="ignore", invalid="ignore"):
            vals = at(c) * r_mu * kv(mu, z)
        # kv overflows for extremely small arguments at large order; the
        # product is finite there and indistinguishable from the peak
        value[pos] = np.where(np.isfinite(vals), vals, at(peak))
        slope[pos] = -at(c_alpha) * r_mu * kv(mu - 1.0, z)
        if spec.normalized:
            value /= peak
            slope /= peak
        return value, slope

    if spec.family is KernelFamily.CONICAL:
        # In place: at N = 1024 every (N, N) temporary is 8 MB of peak memory.
        # x / -alpha is -(x / alpha) bit for bit, one pass fewer.
        value = np.divide(r, neg_alpha)
        np.exp(value, out=value)
        slope = np.divide(value, neg_alpha)
    else:
        value = np.exp(-0.5 * (r / alpha) ** 2)
        slope = -(r / alpha2) * value
    if not spec.normalized:
        value *= peak
        slope *= peak
    return value, slope


def kernel_value(spec: KernelSpec, r):
    """Evaluate G(r) for r >= 0.  Accepts a scalar or an array."""
    r_arr = np.asarray(r, dtype=float)
    if not np.all(r_arr >= 0):  # NaN fails the comparison too
        raise ValueError("kernel_value requires r >= 0")
    out = _kernel_terms(spec, np.atleast_1d(r_arr))[0]
    return float(out[0]) if r_arr.ndim == 0 else out


def kernel_derivative(spec: KernelSpec, r):
    """Evaluate dG/dr for r > 0.  Accepts a scalar or an array.

    The conical kernel's radial derivative jumps at r = 0, so the value
    there is deliberately undefined; callers must exclude coincident
    pairs (the momentum equation's sum already skips j = i).
    """
    r_arr = np.asarray(r, dtype=float)
    if not np.all(r_arr > 0):
        raise ValueError("kernel_derivative requires r > 0; r = 0 is a caller bug")
    out = _kernel_terms(spec, np.atleast_1d(r_arr))[1]
    return float(out[0]) if r_arr.ndim == 0 else out


# Every pairwise build runs in row blocks of this many entries, 256 KB
# per float64 block matrix, so that a block's temporaries stay in a
# core's L2 cache instead of streaming whole matrices through L3.
_BLOCK_ENTRIES = 1 << 15


def _block_rows(n: int) -> int:
    """Rows per block of a pairwise matrix with n columns: at most
    ``_BLOCK_ENTRIES`` entries, and one row at the least."""
    return max(1, _BLOCK_ENTRIES // n)


def _block_members(n: int) -> int:
    """Members of a batch of n-point sets per block: a block of
    ``members x rows x n`` entries stays within ``_BLOCK_ENTRIES``, with
    rows per block still a function of n alone, so that each member's
    arithmetic is the same as alone."""
    return max(1, _BLOCK_ENTRIES // (min(_block_rows(n), n) * n))


def _block_spans(m: int, n: int) -> tuple:
    """Row spans (s, e) of a pairwise pass over m rows against n columns,
    :func:`_block_rows` (n) rows each: the one definition of the block
    boundaries."""
    rows = _block_rows(n)
    return tuple((s, min(s + rows, m)) for s in range(0, m, rows))


def _upper_plan(n: int) -> tuple:
    """The block plan of an n-point set against itself: its upper spans
    (:func:`_block_spans` (n, n)) and the members per chunk
    (:func:`_block_members`), under the current ``_BLOCK_ENTRIES``."""
    return _cached_plan(n, _BLOCK_ENTRIES)


@functools.lru_cache(maxsize=64)
def _cached_plan(n: int, entries: int) -> tuple:
    # ``entries`` keys the cache only: the helpers read _BLOCK_ENTRIES,
    # which equals it while the plan is built.
    return _block_spans(n, n), _block_members(n)


def as_points(points, name: str = "points", n: int | None = None) -> np.ndarray:
    """``points`` as a float (N, 2) array with finite entries and N >= 1,
    or N = ``n`` when given.

    The one check every planar point set passes at the package boundary;
    a bad array raises ValueError.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 1 or n not in (None, len(pts)):
        want = "(N, 2)" if n is None else f"(N, 2) with N = {n}"
        raise ValueError(f"{name} must have shape {want}, got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} has non-finite entries")
    return pts


def pairwise_distances(points, others=None) -> np.ndarray:
    """Matrix of Euclidean distances from planar ``points`` to ``others``
    (to ``points`` themselves by default, giving a symmetric matrix).

    Both may carry leading batch axes, (..., M, 2) and (..., N, 2), for
    a (..., M, N) stack.  Works on the two coordinate differences in
    place, never on an (N, M, 2) difference tensor.
    """
    pts = np.asarray(points, dtype=float)
    oth = pts if others is None else np.asarray(others, dtype=float)
    dx = pts[..., :, 0, None] - oth[..., None, :, 0]
    dy = pts[..., :, 1, None] - oth[..., None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def pairwise_blocks(x: np.ndarray, q: np.ndarray | None = None):
    """The package's one pairwise pass, in row blocks of :func:`_block_rows`.

    Against other points ``q`` it yields (s, dist) with
    dist[i, j] = |x[s + i] - q[j]|: rows s:e against every column.  A
    point set against itself (``q`` omitted) is symmetric, so it yields
    only upper row blocks, rows s:e against columns s:N, with
    dist[i, j] = |x[s + i] - x[s + j]|; row i's own point sits at local
    column i, and the block's columns e - s and up are the strictly
    upper part that the caller mirrors into rows e:N.

    A (B, M, 2) and (B, N, 2) batch gives (B, rows, ...) blocks, with the
    same rows per block as one member alone.
    """
    upper = q is None
    m = x.shape[-2]
    for s, e in _block_spans(m, m if upper else q.shape[-2]):
        yield s, pairwise_distances(x[..., s:e, :], x[..., s:, :] if upper else q)


def coincident_pair(dist: np.ndarray, start: int = 0):
    """First coincident pair (i, j), i < j, in an upper row block of
    distances.

    ``dist`` is a block of :func:`pairwise_blocks` over a finite point
    set against itself: the distances from points start, start + 1, ...
    to points start, ..., N - 1.  Each row's own point is its one
    expected zero, at local column i; any other zero is a coincident
    pair, returned in global indices.  None when there is none.
    """
    if np.count_nonzero(dist) >= dist.size - len(dist):
        return None
    zero = dist == 0.0
    zero.reshape(-1)[:: dist.shape[1] + 1] = False
    i, j = np.argwhere(zero)[0]
    return start + i, start + j


def gram_matrix(spec: KernelSpec, points) -> np.ndarray:
    """Kernel matrix K[i, j] = G(|x_i - x_j|) over a planar point set.

    Points must be pairwise distinct; coincident points would make the
    matrix singular and are rejected.
    """
    pts = as_points(points)
    kmat = np.empty((len(pts), len(pts)))
    for s, dist in pairwise_blocks(pts):
        pair = coincident_pair(dist, s)
        if pair is not None:
            raise DegenerateConfigurationError(
                f"points {pair[0]} and {pair[1]} coincide; "
                "Gram matrix would be singular"
            )
        # d_ij == d_ji exactly, so the mirrored entries are the same bits.
        e = s + len(dist)
        values = _kernel_terms(spec, dist)[0]
        kmat[s:e, s:] = values
        kmat[e:, s:e] = values[:, e - s :].T
    return kmat
