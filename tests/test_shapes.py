"""Template generators and isometries.

The frozen point arrays below pin the sampling conventions (start point,
orientation, parameterization); any intentional change to a generator
must update them deliberately.
"""

import math
from unittest import mock

import numpy as np
import pytest

from geoshoot import (
    ConfigurationError,
    DegenerateConfigurationError,
    LandmarkTemplate,
    PlanarIsometry,
    circle,
    circle_ellipse_hybrid,
    ellipse_rot_shift,
    heart4,
    square,
    standard_rotated_ellipse,
)
from geoshoot import kernels

SQRT3 = math.sqrt(3.0)

FROZEN_CIRCLE = np.array(
    [
        [2.5, -1.0],
        [1.5, -1.0 + SQRT3],
        [-0.5, -1.0 + SQRT3],
        [-1.5, -1.0],
        [-0.5, -1.0 - SQRT3],
        [1.5, -1.0 - SQRT3],
    ]
)

FROZEN_HEART8 = np.array(
    [
        [1.0, 0.0],
        [2.3213203435596426, 1.1313708498984758],
        [0.8, 3.2],
        [-1.9213203435596422, 1.1313708498984762],
        [-3.4, 0.0],
        [-1.9213203435596427, -1.1313708498984758],
        [0.8, -3.2],
        [2.3213203435596421, -1.1313708498984769],
    ]
)

FROZEN_ELLIPSE_ROT = np.array(
    [
        [3.8284271247461903, -2.82842712474619],
        [1.7071067811865477, 0.7071067811865474],
        [-1.8284271247461903, 2.82842712474619],
        [0.292893218813452, -0.707106781186547],
    ]
)

FROZEN_HYBRID = np.array(
    [
        [2.0, 0.0],
        [1.0, SQRT3],
        [-1.0, SQRT3],
        [-3.0, 0.0],
        [-1.5, -SQRT3 / 2.0],
        [1.5, -SQRT3 / 2.0],
    ]
)


def test_circle_fixture_frozen():
    t = circle(2.0, center=(0.5, -1.0), n=6)
    np.testing.assert_allclose(t.points, FROZEN_CIRCLE, atol=1e-14)
    assert t.label == "circle(r=2)"


def test_circle_cardinal_points():
    t = circle(3.0, n=4)
    np.testing.assert_allclose(
        t.points, [[3, 0], [0, 3], [-3, 0], [0, -3]], atol=1e-14
    )


def test_heart4_fixture_frozen():
    np.testing.assert_allclose(heart4(n=8).points, FROZEN_HEART8, atol=1e-14)


def test_heart4_marker_points():
    # t = 0 gives (13 - 5 - 2 - 1)/5 = 1 on the x-axis; t = pi/2 gives
    # (0 + 5 - 0 - 1)/5 = 4/5 and 16/5.
    pts = heart4(n=64).points
    np.testing.assert_allclose(pts[0], [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(pts[16], [0.8, 3.2], atol=1e-14)


def test_square_n4_is_edge_midpoints():
    t = square(2.0, n=4)
    np.testing.assert_allclose(
        t.points, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-14
    )


def test_square_n8_hits_corners():
    t = square(2.0, n=8)
    expected = [[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1]]
    np.testing.assert_allclose(t.points, expected, atol=1e-14)


def test_square_perimeter_spacing_uniform():
    pts = square(3.0, n=24).points
    gaps = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
    np.testing.assert_allclose(gaps, gaps[0])


def test_rotated_ellipse_fixture_frozen():
    t = standard_rotated_ellipse(4.0, 1.0, -np.pi / 4, (1.0, 0.0), n=4)
    np.testing.assert_allclose(t.points, FROZEN_ELLIPSE_ROT, atol=1e-14)


def test_rotated_ellipse_is_rigid():
    base = standard_rotated_ellipse(4.0, 1.0, 0.0, n=32)
    rot = standard_rotated_ellipse(4.0, 1.0, 0.7, n=32)
    np.testing.assert_allclose(
        rot.points, PlanarIsometry.rotation(0.7).apply_points(base.points), atol=1e-13
    )


def test_shear_ellipse_marker_points():
    a, b, ang, sy = 3.0, 1.0, 0.5, 2.0
    pts = ellipse_rot_shift(a, b, ang, (0.0, sy), n=4).points
    np.testing.assert_allclose(
        pts[0], [a * math.cos(ang), -a * math.sin(ang) + sy], atol=1e-14
    )
    np.testing.assert_allclose(
        pts[1],
        [b * math.sin(ang), b * math.cos(ang) - a * math.sin(ang) + sy],
        atol=1e-14,
    )


def test_shear_ellipse_differs_from_rigid_for_nonzero_angle():
    shear = ellipse_rot_shift(4.0, 1.0, -np.pi / 4, n=16).points
    rigid = standard_rotated_ellipse(4.0, 1.0, -np.pi / 4, n=16).points
    assert np.max(np.abs(shear - rigid)) > 0.5


def test_ellipse_variants_agree_at_zero_angle():
    shear = ellipse_rot_shift(4.0, 1.0, 0.0, (1.0, -2.0), n=16).points
    rigid = standard_rotated_ellipse(4.0, 1.0, 0.0, (1.0, -2.0), n=16).points
    np.testing.assert_allclose(shear, rigid, atol=1e-14)


def test_hybrid_fixture_frozen():
    t = circle_ellipse_hybrid(2.0, 3.0, 1.0, n=6)
    np.testing.assert_allclose(t.points, FROZEN_HYBRID, atol=1e-14)


def test_hybrid_with_equal_radii_is_a_circle():
    hybrid = circle_ellipse_hybrid(2.0, 2.0, 2.0, n=16)
    np.testing.assert_allclose(hybrid.points, circle(2.0, n=16).points, atol=1e-14)


@pytest.mark.parametrize(
    "build",
    [
        lambda: circle(0.0),
        lambda: circle(1.0, n=2),
        lambda: ellipse_rot_shift(0.0, 1.0, 0.0),
        lambda: standard_rotated_ellipse(1.0, -1.0, 0.0),
        lambda: square(-1.0),
        lambda: square(1.0, n=10),
        lambda: circle_ellipse_hybrid(1.0, 1.0, 0.0),
        lambda: circle_ellipse_hybrid(1.0, 1.0, 1.0, n=7),
        lambda: circle(math.nan),
        lambda: circle(1.0, center=(0.0, math.inf)),
        lambda: ellipse_rot_shift(1.0, 1.0, math.nan),
        lambda: standard_rotated_ellipse(1.0, 1.0, 0.0, shift=(math.nan, 0.0)),
        lambda: square(math.inf),
        lambda: circle_ellipse_hybrid(1.0, math.nan, 1.0),
        # Landmark counts must be integers.
        lambda: heart4(3.5),
        lambda: circle(1.0, n=6.5),
        lambda: circle(1.0, n=math.nan),
        lambda: square(4.0, 8.0),
    ],
)
def test_generator_rejects_bad_parameters(build):
    with pytest.raises(ConfigurationError):
        build()


def test_template_rejects_bad_shapes():
    with pytest.raises(ValueError):
        LandmarkTemplate(np.zeros((3,)))
    with pytest.raises(ValueError):
        LandmarkTemplate(np.array([[1.0, np.nan]]))


def test_template_rejects_coincident_landmarks():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DegenerateConfigurationError, match="0 and 2"):
        LandmarkTemplate(pts, label="dup")
    # Landmarks 3 and 5 coincide; every row split names them by their
    # global indices, also when they fall in different blocks.
    pts = circle(1.0, n=6).points.copy()
    pts[5] = pts[3]
    for budget in range(1, 6 * 6 + 1):
        with mock.patch.object(kernels, "_BLOCK_ENTRIES", budget):
            with pytest.raises(DegenerateConfigurationError, match="landmarks 3 and 5"):
                LandmarkTemplate(pts)


@pytest.mark.parametrize(
    "make, names",
    [
        (lambda: square(1e-320, n=8), "square(side=1e-320, n=8)"),
        (lambda: circle(1e-320, n=8), "circle(radius=1e-320"),
        (lambda: circle(1e308, (1e308, 0.0), n=8), "circle(radius=1e+308, center=(1e+308"),
        (lambda: ellipse_rot_shift(1e308, 1.0, 0.0, (1e308, 0.0), n=8), "ellipse_rot_shift("),
        (lambda: standard_rotated_ellipse(1e-320, 1e-320, 0.0, n=8),
         "standard_rotated_ellipse("),
        (lambda: circle_ellipse_hybrid(1e-320, 1e-320, 1e-320, n=8),
         "circle_ellipse_hybrid("),
    ],
)
def test_generator_parameters_giving_bad_landmarks_are_configuration_errors(make, names):
    """Parameters in range whose landmarks coincide or overflow are bad
    input: ConfigurationError naming the generator and its parameters."""
    with np.errstate(all="ignore"), pytest.raises(ConfigurationError) as exc:
        make()
    assert str(exc.value).startswith(names)
    assert "invalid template points" in str(exc.value)


def test_template_accessors():
    t = circle(1.0, n=5, label="c5")
    assert t.n == 5
    assert t.label == "c5"
    np.testing.assert_array_equal(t.stacked(), t.points.ravel())
    assert t.stacked().shape == (10,)


def test_isometry_rotation_and_shift():
    iso = PlanarIsometry(angle=np.pi / 2, translation=(1.0, 2.0))
    np.testing.assert_allclose(
        iso.apply_points(np.array([[1.0, 0.0]])), [[1.0, 3.0]], atol=1e-15
    )


def test_isometry_reflection_applies_before_rotation():
    iso = PlanarIsometry(angle=np.pi / 2, reflect_x=True)
    # (0, 1) reflects to (0, -1), then rotates to (1, 0).
    np.testing.assert_allclose(
        iso.apply_points(np.array([[0.0, 1.0]])), [[1.0, 0.0]], atol=1e-15
    )
    assert np.linalg.det(iso.matrix()) == pytest.approx(-1.0)


def test_isometry_preserves_label_and_distances():
    t = heart4(n=16, label="h")
    moved = PlanarIsometry(angle=0.3, translation=(5.0, -2.0), reflect_x=True).apply(t)
    assert moved.label == "h"
    d0 = np.linalg.norm(t.points[2] - t.points[9])
    d1 = np.linalg.norm(moved.points[2] - moved.points[9])
    assert d1 == pytest.approx(d0, rel=1e-13)
