"""Parametric landmark templates and planar isometries.

Each generator returns a labeled, ordered point set; the order defines
the landmark correspondence used by the matching loop, so generators
are deterministic and their sampling conventions are frozen (tests pin
serialized fixtures against accidental drift).

Sampling is uniform in the curve parameter, not arc length (the square,
whose parameter is the perimeter coordinate, is the one shape where the
two coincide).  Closed curves start on the positive x-axis and run
counterclockwise so that landmark k of any two shapes generated at the
same n sits at a comparable angular station; the matcher's index-wise
correspondence relies on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateConfigurationError,
    require_count,
    require_positive,
)
from .kernels import _coincident, _plan, as_points, pairwise_distances

__all__ = [
    "LandmarkTemplate",
    "PlanarIsometry",
    "circle",
    "ellipse_rot_shift",
    "standard_rotated_ellipse",
    "heart4",
    "square",
    "circle_ellipse_hybrid",
]


@dataclass(frozen=True)
class LandmarkTemplate:
    """Ordered planar landmarks; index i of one template corresponds to
    index i of another."""

    points: np.ndarray
    label: str = ""

    def __post_init__(self):
        pts = as_points(self.points)
        # Distances between coordinates near the float limit overflow to
        # inf, which is not a coincidence.
        with np.errstate(over="ignore"):
            for s, e in _plan(len(pts), len(pts))[0]:
                zero = _coincident(pairwise_distances(pts[s:e], pts[s:]))
                if zero is not None:
                    i, j = np.argwhere(zero)[0]
                    raise DegenerateConfigurationError(
                        f"landmarks {s + i} and {s + j} coincide in template {self.label!r}"
                    )
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def stacked(self) -> np.ndarray:
        """Points flattened to (2N,) in (x1, y1, x2, y2, ...) order."""
        return self.points.ravel()


def _template(points, label: str, source: str) -> LandmarkTemplate:
    """The template of ``points`` read or generated from ``source`` (a
    file, or a generator and its parameters).  Points that are not a
    finite (N, 2) array of distinct landmarks are bad input there:
    ConfigurationError naming ``source``."""
    try:
        return LandmarkTemplate(np.asarray(points, dtype=float), label)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{source}: invalid template points ({exc})") from exc


def _check_finite(**coords) -> None:
    """Reject non-finite centres, shifts and angles."""
    for name, value in coords.items():
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ConfigurationError(f"{name} must be finite, got {value}")


# Parameters near the float limit overflow in a generator's arithmetic;
# the landmarks that come out are then not finite, which _template
# reports as bad input instead of a numpy warning.
_overflowing = np.errstate(over="ignore", invalid="ignore")


def _angles(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


@_overflowing
def circle(radius: float, center=(0.0, 0.0), n: int = 64, label: str | None = None) -> LandmarkTemplate:
    """n points on a circle at uniform angles, counterclockwise from angle 0."""
    require_positive("radius", radius)
    _check_finite(center=center)
    require_count("n", n, 3)
    theta = _angles(n)
    cx, cy = float(center[0]), float(center[1])
    pts = np.column_stack([cx + radius * np.cos(theta), cy + radius * np.sin(theta)])
    return _template(
        pts,
        label if label is not None else f"circle(r={radius:g})",
        f"circle(radius={radius}, center={center}, n={n})",
    )


@_overflowing
def ellipse_rot_shift(
    a: float,
    b: float,
    angle: float,
    shift=(0.0, 0.0),
    n: int = 64,
    label: str | None = None,
) -> LandmarkTemplate:
    """Sheared-ellipse template

        x = a cos(angle) cos(theta) + b sin(angle) sin(theta) + shift_x
        y = b cos(angle) sin(theta) - a sin(angle)             + shift_y

    Note the y-equation's rotation term is a pure offset (no cos(theta)
    factor), so for angle != 0 this is a linear shear of the circle, not
    a rigid rotation; see standard_rotated_ellipse for the rigid version.
    At angle = 0 both coincide with the axis-aligned ellipse.
    """
    require_positive("a", a)
    require_positive("b", b)
    _check_finite(angle=angle, shift=shift)
    require_count("n", n, 3)
    theta = _angles(n)
    sx, sy = float(shift[0]), float(shift[1])
    x = a * math.cos(angle) * np.cos(theta) + b * math.sin(angle) * np.sin(theta) + sx
    y = b * math.cos(angle) * np.sin(theta) - a * math.sin(angle) + sy
    return _template(
        np.column_stack([x, y]),
        label if label is not None else f"ellipse(a={a:g},b={b:g})",
        f"ellipse_rot_shift(a={a}, b={b}, angle={angle}, shift={shift}, n={n})",
    )


@_overflowing
def standard_rotated_ellipse(
    a: float,
    b: float,
    angle: float,
    shift=(0.0, 0.0),
    n: int = 64,
    label: str | None = None,
) -> LandmarkTemplate:
    """Rigidly rotated ellipse: R(angle) @ (a cos(theta), b sin(theta)) + shift."""
    require_positive("a", a)
    require_positive("b", b)
    _check_finite(angle=angle, shift=shift)
    require_count("n", n, 3)
    theta = _angles(n)
    ex, ey = a * np.cos(theta), b * np.sin(theta)
    c, s = math.cos(angle), math.sin(angle)
    pts = np.column_stack([c * ex - s * ey + shift[0], s * ex + c * ey + shift[1]])
    return _template(
        pts,
        label if label is not None else f"ellipse_rot(a={a:g},b={b:g})",
        f"standard_rotated_ellipse(a={a}, b={b}, angle={angle}, shift={shift}, n={n})",
    )


def heart4(n: int = 64, label: str | None = None) -> LandmarkTemplate:
    """Fourth-order heart curve

        x = (13 cos(t) - 5 cos(2t) - 2 cos(3t) - cos(4t)) / 5
        y = 16 sin(t)^3 / 5

    sampled at uniform parameter values.
    """
    require_count("n", n, 3)
    t = _angles(n)
    x = (13.0 * np.cos(t) - 5.0 * np.cos(2 * t) - 2.0 * np.cos(3 * t) - np.cos(4 * t)) / 5.0
    y = 16.0 * np.sin(t) ** 3 / 5.0
    return _template(
        np.column_stack([x, y]), label if label is not None else "heart4", f"heart4(n={n})"
    )


@_overflowing
def square(side: float, n: int = 64, label: str | None = None) -> LandmarkTemplate:
    """Axis-aligned square traversed counterclockwise, n/4 equally spaced
    points per edge, starting at the mid-right-edge point (side/2, 0).

    Starting mid-edge keeps landmark k of the square angularly aligned
    with landmark k of a circle generated at the same n, which is what the
    index-wise correspondence of the matcher assumes; corner-started
    sampling would twist every pairing by an eighth turn and inflate the
    deformation cost several-fold.  Corners fall on landmarks exactly when
    n is a multiple of 8 (at n = 4 the landmarks are the edge midpoints).
    """
    require_positive("side", side)
    require_count("n", n, 4)
    if n % 4 != 0:
        raise ConfigurationError(f"square needs n divisible by 4, got {n}")
    h = side / 2.0
    # Arc position along the perimeter, offset by the half edge between
    # the corner (h, -h) and the starting point (h, 0).
    s = (4.0 * side) * np.arange(n) / n + side / 2.0
    edge = np.floor_divide(s, side).astype(int) % 4
    f = s - np.floor_divide(s, side) * side
    x = np.select(
        [edge == 0, edge == 1, edge == 2, edge == 3],
        [np.full(n, h), h - f, np.full(n, -h), -h + f],
    )
    y = np.select(
        [edge == 0, edge == 1, edge == 2, edge == 3],
        [-h + f, np.full(n, h), h - f, np.full(n, -h)],
    )
    return _template(
        np.column_stack([x, y]),
        label if label is not None else f"square(l={side:g})",
        f"square(side={side}, n={n})",
    )


def circle_ellipse_hybrid(
    r: float, a: float, b: float, n: int = 64, label: str | None = None
) -> LandmarkTemplate:
    """Closed curve with upper half a circle of radius r and lower half an
    ellipse with semi-axes (a, b), n/2 parameter-uniform points per half.

    Starts at (r, 0), counterclockwise; the lower half starts at (-a, 0).
    Sampling is uniform in the curve parameter on each half (for the
    circular half that is also arc-length uniform), so landmark k stays
    angularly aligned with landmark k of a circle at the same n.  The
    curve is closed only when a = r.
    """
    require_positive("r", r)
    require_positive("a", a)
    require_positive("b", b)
    require_count("n", n, 4)
    if n % 2 != 0:
        raise ConfigurationError(f"hybrid needs even n, got {n}")
    half = n // 2
    t_up = np.pi * np.arange(half) / half
    upper = np.column_stack([r * np.cos(t_up), r * np.sin(t_up)])
    t_lo = np.pi + np.pi * np.arange(half) / half
    lower = np.column_stack([a * np.cos(t_lo), b * np.sin(t_lo)])
    return _template(
        np.vstack([upper, lower]),
        label if label is not None else f"hybrid(r={r:g},a={a:g},b={b:g})",
        f"circle_ellipse_hybrid(r={r}, a={a}, b={b}, n={n})",
    )


@dataclass(frozen=True)
class PlanarIsometry:
    """Composition reflect-about-x (optional), then rotate by ``angle``
    about the origin, then translate."""

    angle: float = 0.0
    translation: tuple = (0.0, 0.0)
    reflect_x: bool = False

    @classmethod
    def rotation(cls, angle: float) -> "PlanarIsometry":
        return cls(angle=angle)

    @classmethod
    def shift(cls, translation) -> "PlanarIsometry":
        return cls(translation=(float(translation[0]), float(translation[1])))

    @classmethod
    def reflection_x(cls) -> "PlanarIsometry":
        return cls(reflect_x=True)

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.angle), math.sin(self.angle)
        rot = np.array([[c, -s], [s, c]])
        if self.reflect_x:
            rot = rot @ np.array([[1.0, 0.0], [0.0, -1.0]])
        return rot

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self.matrix().T + np.asarray(self.translation, dtype=float)

    def apply(self, template: LandmarkTemplate) -> LandmarkTemplate:
        return LandmarkTemplate(self.apply_points(template.points), template.label)
