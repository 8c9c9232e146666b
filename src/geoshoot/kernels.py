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
        # Every evaluation's constants, computed once and kept outside the
        # fields as ``_k``: alpha, alpha**2, G(0), the Bessel factors c and
        # c / alpha (c is 0 outside the bessel family), -alpha, the
        # reciprocals 1 / alpha, 1 / alpha**2 and -1 / alpha, and whether
        # those reciprocals are exact.  They are exact where alpha is a
        # power of two (the default 1 among them) and no reciprocal
        # overflows; then x * (1 / alpha) rounds the same real number as
        # x / alpha, so every evaluation multiplies where it would divide,
        # bit for bit, and a multiplication costs less.  Extreme widths
        # and orders overflow or vanish in them.
        alpha, a2 = self.alpha, self.alpha * self.alpha
        c = 0.0
        try:
            with np.errstate(all="ignore"):
                if self.family is KernelFamily.BESSEL:
                    # scipy.special is imported in the bessel branches only:
                    # no other family uses it, and importing it adds about
                    # 3.5 MB to a run's peak memory and tens of milliseconds
                    # to its start.
                    from scipy.special import gamma

                    c = 2.0 ** (1.0 - self.nu) / (
                        2.0 * math.pi * alpha ** (1.0 + self.nu) * gamma(self.nu)
                    )
                    peak = 1.0 / (4.0 * math.pi * a2 * (self.nu - 1.0))
                else:
                    peak = 1.0 / (2.0 * math.pi * a2)
                k = (alpha, alpha**2, peak, c, c / alpha, -alpha)
                recip = (1.0 / alpha, 1.0 / k[1], -1.0 / alpha)
        except (ZeroDivisionError, OverflowError):
            peak = c = math.nan
        if not (0 < peak < math.inf) or (
            self.family is KernelFamily.BESSEL and not 0 < c < math.inf
        ):
            raise ConfigurationError(
                f"kernel constants G(0) = {peak} and c = {c} are not finite and "
                f"nonzero at alpha={self.alpha}, nu={self.nu}"
            )
        exact = all(math.frexp(d)[0] == 0.5 for d in k[:2]) and all(
            map(math.isfinite, recip)
        )
        k += recip + (exact,)
        object.__setattr__(self, "_k", k)


def _kernel_terms(
    spec: KernelSpec, r: np.ndarray, k: tuple | None = None, slope: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """G(r) and dG/dr over an array of radii r >= 0, from one evaluation of
    the family's exp (or of each Bessel order); with ``slope=False``, G(r)
    and None, for callers that use only G: then no slope is built, and a
    Bessel kernel evaluates one order.

    ``k`` holds the kernel constants: by default ``spec._k``, which the
    spec computed and validated once when it was built, or the kernel
    part of a :func:`geoshoot.particles._constants` stack for a
    (B, rows, N) batch of radii, whose members then differ in alpha
    only.  Where every member's reciprocals of alpha are exact (alpha a
    power of two), each r / alpha, r / alpha**2 and x / -alpha is a
    multiplication by the reciprocal, the same bits at less cost; any
    other stack divides.  G is exact at r = 0; dG/dr there is finite
    but meaningless (the conical kernel's slope jumps at the origin), so
    callers mask it.  Bessel terms take their edge cases from IEEE
    special values: G(0) where the product overflows (kv(mu, 0) is
    inf), 0 where K underflows, and slope 0 where r**mu underflows
    against an infinite K (a NaN product).  Gaussian slopes are 0 where
    r / alpha**2 overflows.  The slope is dG/dr, not dG/dr / r: the
    particle system weights it by the momentum product before dividing
    by r, and dividing first would round every conical rhs, and so every
    match, differently.
    """
    alpha, alpha2, peak, c, c_alpha, neg_alpha, inv, inv2, neg_inv, exact = (
        spec._k if k is None else k
    )
    # scale(x, a) is x / alpha either way, and scale(x, a2) x / alpha**2.
    # A stack whose members disagree on exactness holds an array here.
    if exact is True:
        scale, a, a2, neg_a = np.multiply, inv, inv2, neg_inv
    else:
        scale, a, a2, neg_a = np.divide, alpha, alpha2, neg_alpha
    der = None
    if spec.family is KernelFamily.BESSEL:
        from scipy.special import kv

        # d/dz [z^mu K_mu(z)] = -z^mu K_(mu-1)(z), with z = r / alpha.
        mu = spec.nu - 1.0
        z = scale(r, a)
        with np.errstate(over="ignore", invalid="ignore"):
            k0 = kv(mu, z)
            r_mu = r**mu
            value = c * r_mu * k0
        value = np.where(k0 == 0.0, 0.0, np.where(np.isfinite(value), value, peak))
        if slope:
            with np.errstate(over="ignore", invalid="ignore"):
                k1 = kv(mu - 1.0, z)
                der = -c_alpha * r_mu * k1
            der = np.where((k1 == 0.0) | np.isnan(der), 0.0, der)
        if spec.normalized:
            value /= peak
            if slope:
                der /= peak
        return value, der

    if spec.family is KernelFamily.CONICAL:
        # In place: at N = 1024 every (N, N) temporary is 8 MB of peak memory.
        # x / -alpha is -(x / alpha) bit for bit, one pass fewer.
        value = scale(r, neg_a)
        np.exp(value, out=value)
        if slope:
            der = scale(value, neg_a)
    else:
        # Where r / alpha2 overflows, the value has underflowed to 0 and
        # the slope is inf * 0 = NaN; it is 0 there.
        with np.errstate(over="ignore", invalid="ignore"):
            value = np.exp(-0.5 * scale(r, a) ** 2)
            if slope:
                der = -scale(r, a2) * value
                der[np.isnan(der)] = 0.0
    if not spec.normalized:
        value *= peak
        if slope:
            der *= peak
    return value, der


def kernel_value(spec: KernelSpec, r):
    """Evaluate G(r) for r >= 0.  Accepts a scalar or an array."""
    r_arr = np.asarray(r, dtype=float)
    if not np.all(r_arr >= 0):  # NaN fails the comparison too
        raise ValueError("kernel_value requires r >= 0")
    out = _kernel_terms(spec, np.atleast_1d(r_arr), slope=False)[0]
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
# A pairwise block of at least this many entries, counted over the whole
# stack (B x M x N), takes its coordinate differences from one BLAS
# product, below it from two broadcast subtractions.  The product costs
# a few microseconds more per call and less per entry.  Time with the
# product over time with the broadcast, for the whole distance build on
# one OpenBLAS thread of a 2-core x86-64 host: 1.18 at 32 x 32, 1.07 at
# 40 x 40, 1.00 at 44 x 44, 0.97 at 48 x 48 and 0.83 at 64 x 64 for one
# member; 1.08 for two members and 0.98 for one at 2048 entries;
# 1.19 at 20 x 20, 1.04 at 24 x 24 and 0.86 at 32 x 32 for four members.
_PRODUCT_ENTRIES = 1 << 11


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
    pair.  The test for one follows the size rule of
    :func:`_blocks`: below ``_PRODUCT_ENTRIES`` entries of
    the whole stack it counts the nonzeros, which costs less per call; at
    or above it ``dist.all()`` costs less per entry (9 against 23 us on a
    32 x 1024 block).  Both read NaN as nonzero, so unlike a minimum, a
    NaN in another member cannot hide a pair.
    """
    size, step = dist.shape[-2] * dist.shape[-1], dist.shape[-1] + 1
    dist.reshape(-1, size)[:, ::step] = 1.0
    if weights is not None:
        weights.reshape(-1, size)[:, ::step] = 0.0
    if dist.size < _PRODUCT_ENTRIES:
        distinct = np.count_nonzero(dist) == dist.size
    else:
        distinct = dist.all()
    return None if distinct else dist == 0.0


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

    Both may carry leading batch axes that broadcast, (..., M, 2) and
    (..., N, 2), for a (..., M, N) stack; any other shape raises
    ValueError.  The distances are those of the plain formula
    sqrt((x_i - x_j)^2 + (y_i - y_j)^2), bit for bit, whichever way
    :func:`_blocks` forms the differences.
    """
    pts = np.asarray(points, dtype=float)
    oth = pts if others is None else np.asarray(others, dtype=float)
    for name, arr in (("points", pts), ("others", oth)):
        if arr.ndim < 2 or arr.shape[-1] != 2:
            raise ValueError(f"{name} must have shape (..., M, 2), got {arr.shape}")
    # The points carry the whole batch, so that they count its entries.
    batch = np.broadcast_shapes(pts.shape[:-2], oth.shape[:-2])
    pts = np.broadcast_to(pts, batch + pts.shape[-2:])
    dist = np.empty(batch + (pts.shape[-2], oth.shape[-2]))
    # An empty pass has no blocks, and no plan: its rows divide by N.
    if dist.size:
        for s, e, block in _blocks(pts, oth):
            dist[..., s:e, :] = block
    return dist


def _operands(pts: np.ndarray, oth: np.ndarray):
    """The BLAS product operands of a pass of float points (..., M, 2)
    against others (..., N, 2): for plane c, (2, ..., M, 2) rows (c_i, 1)
    and (2, ..., 2, N) columns (1, -c_j).  The plane axis leads, so each
    plane of a stack is C-contiguous, and batch axes of unequal rank
    broadcast after it.  Kept apart from :func:`_blocks`, its one caller,
    so that tests can substitute operands that show which blocks take
    the product.
    """
    rows = np.empty((2,) + pts.shape)
    rows[0, ..., 0] = pts[..., 0]
    rows[1, ..., 0] = pts[..., 1]
    rows[..., 1] = 1.0
    cols = np.empty((2,) + (1,) * (pts.ndim - oth.ndim) + oth.shape[:-2] + (2, oth.shape[-2]))
    cols[..., 0, :] = 1.0
    np.negative(oth[..., 0], out=cols[0, ..., 1, :])
    np.negative(oth[..., 1], out=cols[1, ..., 1, :])
    return rows, cols


def _blocks(pts: np.ndarray, others: np.ndarray | None = None, spans: tuple | None = None):
    """The one pairwise pass, unchecked: (s, e, dist) for each row span
    (s, e) of :func:`_plan`, or of ``spans`` when the caller has the plan
    already.  With ``others``, dist is rows s:e of the float points
    ``pts`` (..., M, 2) against all of ``others`` (..., N, 2); without,
    the upper block of the points against themselves, rows s:e against
    columns s:N, its diagonal zeros left for :func:`_coincident`.
    ``pts`` carries the batch of the pass, so that it counts the entries.
    Each block is a fresh array.

    The two coordinate differences are worked on in place, never as an
    (N, M, 2) tensor: below ``_PRODUCT_ENTRIES`` entries of the whole
    block (B x rows x columns) from two broadcast subtractions, at or
    above it from one BLAS product of slices of the pass's
    :func:`_operands`.  Each product entry c_i * 1 + 1 * (-c_j) sums two
    exact products with one rounding, so it is c_i - c_j up to the sign
    of a zero (or of a NaN), whatever the slice and the dgemm kernel's
    order or fusing; the distances are the same bits.

    No ``np.errstate`` is entered here: one entered in a generator stays
    active in its caller across every ``yield``, so callers keep theirs.
    """
    oth = pts if others is None else others
    m, n = pts.shape[-2], oth.shape[-2]
    ops = _operands(pts, oth) if pts.size // 2 * n >= _PRODUCT_ENTRIES else None
    for s, e in _plan(m, n)[0] if spans is None else spans:
        lo = 0 if others is not None else s
        # A pass of one block takes no slices.
        whole = e - s == m
        rows, cols = (pts, oth) if whole else (pts[..., s:e, :], oth[..., lo:, :])
        if ops is None or rows.size // 2 * cols.shape[-2] < _PRODUCT_ENTRIES:
            dx = rows[..., :, 0, None] - cols[..., None, :, 0]
            dy = rows[..., :, 1, None] - cols[..., None, :, 1]
        else:
            dx, dy = ops[0] @ ops[1] if whole else ops[0][..., s:e, :] @ ops[1][..., lo:]
        dx *= dx
        dy *= dy
        dx += dy
        yield s, e, np.sqrt(dx, out=dx)


def _require_distinct(dist: np.ndarray, s: int, noun: str, suffix: str) -> None:
    """Raise DegenerateConfigurationError "<noun> i and j coincide<suffix>"
    for the first coincident pair, by global indices and lower first, of
    the upper block ``dist`` that :func:`_blocks` yields for rows s:e of
    a self pass; the one coincidence error of every point set that must
    be distinct."""
    zero = _coincident(dist)
    if zero is not None:
        i, j = np.argwhere(zero)[0]
        raise DegenerateConfigurationError(f"{noun} {s + i} and {s + j} coincide{suffix}")


def gram_matrix(spec: KernelSpec, points) -> np.ndarray:
    """Kernel matrix K[i, j] = G(|x_i - x_j|) over a planar point set.

    Points must be pairwise distinct; coincident points would make the
    matrix singular and are rejected.
    """
    pts = as_points(points)
    n = len(pts)
    kmat = np.empty((n, n))
    # Distances between coordinates near the float limit overflow to inf,
    # where every family's G is 0.
    with np.errstate(over="ignore"):
        for s, e, dist in _blocks(pts):
            # d_ij == d_ji exactly, so the mirrored entries are the same bits.
            values = _kernel_terms(spec, dist, slope=False)[0]
            _require_distinct(dist, s, "points", "; Gram matrix would be singular")
            kmat[s:e, s:] = values
            kmat[e:, s:e] = values[:, e - s :].T
    return kmat
