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
    r = 0; dG/dr there is finite but meaningless (the conical kernel's
    slope jumps at the origin), so callers mask it.  Bessel terms take
    their edge cases from IEEE special values: G(0) where the product
    overflows (kv(mu, 0) is inf), 0 where K underflows, and slope 0
    where r**mu underflows against an infinite K (a NaN product).  The
    slope is dG/dr, not dG/dr / r: the particle system weights it by
    the momentum product before dividing by r, and dividing first would
    round every conical rhs, and so every match, differently.
    """
    alpha, alpha2, peak, c, c_alpha, neg_alpha = _member_constants(spec) if k is None else k
    if spec.family is KernelFamily.BESSEL:
        from scipy.special import kv

        # d/dz [z^mu K_mu(z)] = -z^mu K_(mu-1)(z), with z = r / alpha.
        mu = spec.nu - 1.0
        z = r / alpha
        with np.errstate(over="ignore", invalid="ignore"):
            k0, k1 = kv(mu, z), kv(mu - 1.0, z)
            r_mu = r**mu
            value = c * r_mu * k0
            slope = -c_alpha * r_mu * k1
        value = np.where(k0 == 0.0, 0.0, np.where(np.isfinite(value), value, peak))
        slope = np.where((k1 == 0.0) | np.isnan(slope), 0.0, slope)
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


def _plan(m: int, n: int) -> tuple:
    """The block plan of a pass over m rows against n columns, computed
    once per (m, n) and ``_BLOCK_ENTRIES``: its row spans (s, e), of
    ``_BLOCK_ENTRIES // n`` rows (one at the least), and the members per
    chunk of a batch of such passes.  A chunk's blocks stay within the
    budget while rows per block depend on n alone, so that each member's
    arithmetic is the same as alone."""
    return _cached_plan(m, n, _BLOCK_ENTRIES)


@functools.lru_cache(maxsize=64)
def _cached_plan(m: int, n: int, entries: int) -> tuple:
    rows = max(1, entries // n)
    spans = tuple((s, min(s + rows, m)) for s in range(0, m, rows))
    return spans, max(1, entries // (min(rows, m) * n))


def _coincident(dist: np.ndarray, weights: np.ndarray | None = None):
    """The mask of the coincident pairs in an upper block of distances of
    a finite point set against itself (rows s:e against columns s:N), or
    a stack of them, or None.

    Each row's own point, local column i of row i, is its one expected
    zero: it is set to 1.0 in place, and to 0.0 in ``weights``, a block
    of pair weights that must skip it.  Any zero left is a coincident
    pair.  The test counts nonzeros rather than taking a minimum, which a
    NaN in another member would poison.
    """
    size, step = dist.shape[-2] * dist.shape[-1], dist.shape[-1] + 1
    dist.reshape(-1, size)[:, ::step] = 1.0
    if weights is not None:
        weights.reshape(-1, size)[:, ::step] = 0.0
    return None if np.count_nonzero(dist) == dist.size else dist == 0.0


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


def gram_matrix(spec: KernelSpec, points) -> np.ndarray:
    """Kernel matrix K[i, j] = G(|x_i - x_j|) over a planar point set.

    Points must be pairwise distinct; coincident points would make the
    matrix singular and are rejected.
    """
    pts = as_points(points)
    n = len(pts)
    kmat = np.empty((n, n))
    for s, e in _plan(n, n)[0]:
        dist = pairwise_distances(pts[s:e], pts[s:])
        # d_ij == d_ji exactly, so the mirrored entries are the same bits.
        values = _kernel_terms(spec, dist)[0]
        zero = _coincident(dist)
        if zero is not None:
            i, j = np.argwhere(zero)[0]
            raise DegenerateConfigurationError(
                f"points {s + i} and {s + j} coincide; Gram matrix would be singular"
            )
        kmat[s:e, s:] = values
        kmat[e:, s:e] = values[:, e - s :].T
    return kmat
