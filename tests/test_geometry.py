import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilock import autodiff as ad
from bilock import geometry as geo
from bilock.errors import NumericalFailure
from bilock.geometry import Pose, so3_exp

from conftest import raises_exactly


def test_rotation_orthonormality_and_det():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = geo.random_rotation(rng)
        assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-12


def test_exp_log_round_trip_across_angle_range():
    rng = np.random.default_rng(1)
    angles = list(rng.uniform(1e-9, math.pi - 1e-6, size=200))
    angles += [1e-12, 1e-8, 1e-4, 0.0139, 0.015, 2.99, 3.01, 3.14,
               math.pi - 1e-5, math.pi - 1.01e-6]
    for th in angles:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = so3_exp(th * axis)
        r2 = so3_exp(geo.so3_log(r))
        assert np.linalg.norm(r2 - r) <= 1e-10, th


def test_log_raises_near_pi():
    r = so3_exp([math.pi - 1e-8, 0.0, 0.0])
    with raises_exactly(NumericalFailure, "within 1e-6 of pi"):
        geo.so3_log(r)


def _stack(rotations):
    """3x3 nested list of (N,) columns, one rotation per column; an entry
    equal in every column is a plain float, as the joint chain leaves it."""
    rs = np.array(rotations)
    return [[float(rs[0, i, k]) if np.all(rs[:, i, k] == rs[0, i, k])
             else rs[:, i, k].copy() for k in range(3)] for i in range(3)]


def _column(r, j):
    return [[e if isinstance(e, float) else e[j] for e in row] for row in r]


def test_log_on_columns_matches_scalar_log_bitwise():
    """Each column takes its own branch, and gives the scalar log's bits."""
    eps = 1e-6
    angles = [0.0, 1e-9, 1e-4, geo._SMALL_ANGLE * (1.0 - eps),
              geo._SMALL_ANGLE * (1.0 + eps), 0.5, 2.0,
              geo._NEAR_PI * (1.0 - eps), geo._NEAR_PI * (1.0 + eps), 3.1,
              math.pi - 2e-6]
    rng = np.random.default_rng(12)
    angles += list(rng.uniform(0.0, math.pi - 2e-6, size=40))
    axes = [np.eye(3)[i] for i in range(3)] + list(rng.normal(size=(3, 3)))
    stacks = [[so3_exp(th * np.array([0.0, 0.0, 1.0])) for th in angles]]
    stacks.append([so3_exp(th * ax / np.linalg.norm(ax))
                   for ax in axes for th in angles])
    floats = 0
    for rotations in stacks:
        th = np.array([geo.rotation_angle(r) for r in rotations])
        cuts = [0.0, geo._SMALL_ANGLE, geo._NEAR_PI, math.pi]
        for lo, hi in zip(cuts, cuts[1:]):  # every branch has columns
            assert np.any((th >= lo) & (th < hi))
        r = _stack(rotations)
        floats += sum(isinstance(e, float) for row in r for e in row)
        out = geo.so3_log(r)
        assert out.shape == (3, len(rotations))
        for j in range(len(rotations)):
            scalar = geo.so3_log(_column(r, j))
            assert out[:, j].tobytes() == scalar.tobytes(), j
    assert floats == 5  # the z-axis stack's constant row and column


def test_log_on_columns_raises_for_any_column_near_pi():
    rotations = [so3_exp([0.3, 0.0, 0.0]), so3_exp([0.0, math.pi - 1e-7, 0.0]),
                 so3_exp([0.0, 0.0, 3.05])]
    with raises_exactly(NumericalFailure, "within 1e-6 of pi"):
        geo.so3_log(_stack(rotations))


def _zyz(x):
    """Rz(x0) Ry(x1) Rz(x2) as a nested list, generic in the scalars of x."""
    return geo.gmat_mul(geo.gmat_mul(geo.grot_z(x[0]), geo.grot_y(x[1])),
                        geo.grot_z(x[2]))


def _zyz_turning_by(theta, b, s):
    """ZYZ angles of a rotation through theta.  The trace of Rz Ry(beta) Rz
    is (1 + cos beta) cos(alpha + gamma) + cos beta; beta = b * theta with
    b < 1 leaves alpha + gamma = phi in [0, theta], split by s."""
    beta = b * theta
    cos_phi = ((1.0 + 2.0 * math.cos(theta) - math.cos(beta))
               / (1.0 + math.cos(beta)))
    phi = math.acos(min(1.0, max(-1.0, cos_phi)))
    return np.array([s * phi, beta, (1.0 - s) * phi])


def _log_of_zyz(x):
    return geo.so3_log(_zyz(x))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(cut=st.sampled_from([geo._SMALL_ANGLE, geo._NEAR_PI]),
       side=st.sampled_from([-1.0, 1.0]), rel=st.floats(1e-6, 1e-2),
       b=st.floats(0.0, 0.9), s=st.floats(0.0, 1.0))
def test_log_dual_matches_float_at_branch_switches(cut, side, rel, b, s):
    """On both sides of the series cutoff and of the symmetric-part switch,
    a jet pass gives the float value, and its Jacobian matches central
    differences of the float map."""
    x = _zyz_turning_by(cut * (1.0 + side * rel), b, s)
    angle = geo.rotation_angle(np.array(_zyz(x)))
    assert (angle > cut) == (side > 0.0)
    val, jac, _ = ad.value_jacobian_hessian(_log_of_zyz, x)
    val_fd, jac_fd, _ = ad.value_jacobian_hessian(_log_of_zyz, x, 1e-5)
    assert np.abs(val - val_fd).max() <= 1e-15
    assert np.abs(jac - jac_fd).max() <= 1e-6


@settings(derandomize=True, max_examples=30, deadline=None)
@given(eps=st.floats(2e-8, 0.98e-6), b=st.floats(0.0, 0.9),
       s=st.floats(0.0, 1.0))
def test_log_raises_within_margin_of_pi_for_both_scalar_kinds(eps, b, s):
    x = _zyz_turning_by(math.pi - eps, b, s)
    assert math.pi - geo.rotation_angle(np.array(_zyz(x))) < 1e-6
    with raises_exactly(NumericalFailure, "within 1e-6 of pi"):
        geo.so3_log(_zyz(x))
    with raises_exactly(NumericalFailure, "within 1e-6 of pi"):
        ad.value_jacobian_hessian(_log_of_zyz, x)


unit_axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda v: np.linalg.norm(v) >= 0.1).map(lambda v: v / np.linalg.norm(v))
near_zero = st.floats(1e-12, 1e-3)
near_cutoff = st.builds(lambda side, rel: geo._SMALL_ANGLE * (1.0 + side * rel),
                        st.sampled_from([-1.0, 1.0]), st.floats(1e-6, 1e-2))


def _exp_from_coefficients(w, a, b):
    k = geo.hat(w)
    return np.eye(3) + a * k + b * (k @ k)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(axis=unit_axes, angle=st.one_of(near_zero, near_cutoff))
def test_exp_near_zero_and_series_cutoff(axis, angle):
    """exp is orthonormal with det 1 and inverted by log to machine
    precision for tiny angles and on both sides of the series cutoff."""
    w = angle * axis
    r = geo.so3_exp(w)
    assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-15
    assert abs(np.linalg.det(r) - 1.0) <= 1e-15
    assert np.linalg.norm(geo.so3_log(r) - w) <= 1e-14 * np.linalg.norm(w)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(axis=unit_axes, angle=near_cutoff)
def test_exp_series_matches_closed_form_at_cutoff(axis, angle):
    w = angle * axis
    th2 = float(w @ w)
    th = math.sqrt(th2)
    series = _exp_from_coefficients(w, 1.0 - th2 / 6.0 * (1.0 - th2 / 20.0),
                                    0.5 * (1.0 - th2 / 12.0 * (1.0 - th2 / 30.0)))
    closed = _exp_from_coefficients(w, math.sin(th) / th,
                                    (1.0 - math.cos(th)) / th2)
    assert np.abs(series - closed).max() <= 1e-15
    assert np.abs(geo.so3_exp(w) - closed).max() <= 1e-15


def test_exp_rejects_non_finite_rotation_vectors():
    """A rotation vector whose squared norm is not a finite float is an
    error, not a math domain error or a NaN rotation."""
    for w in ([math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], [1e300, 0.0, 0.0]):
        with raises_exactly(NumericalFailure, "rotation vector is not finite"):
            geo.so3_exp(w)


def test_geodesic_identity_cases():
    eye = np.eye(3)
    assert geo.geodesic_distance(eye, eye) == 0.0
    quarter = so3_exp([0.0, 0.0, math.pi / 2])
    assert abs(geo.geodesic_distance(eye, quarter) - math.pi / 2) <= 1e-12


def test_geodesic_left_invariance():
    rng = np.random.default_rng(2)
    rx = so3_exp([0.3, 0.0, 0.0])
    for _ in range(30):
        r = geo.random_rotation(rng)
        assert abs(geo.geodesic_distance(r, r @ rx) - 0.3) <= 1e-12


def test_geodesic_symmetry_and_bi_invariance():
    rng = np.random.default_rng(3)
    for _ in range(30):
        r1, r2, q = (geo.random_rotation(rng) for _ in range(3))
        d = geo.geodesic_distance(r1, r2)
        assert abs(geo.geodesic_distance(r2, r1) - d) <= 1e-12
        assert abs(geo.geodesic_distance(q @ r1, q @ r2) - d) <= 1e-10


def test_geodesic_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(100):
        r1, r2, r3 = (geo.random_rotation(rng) for _ in range(3))
        d13 = geo.geodesic_distance(r1, r3)
        d12 = geo.geodesic_distance(r1, r2)
        d23 = geo.geodesic_distance(r2, r3)
        assert d13 <= d12 + d23 + 1e-12


def test_pose_compose_inverse_identity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = Pose(geo.random_rotation(rng), rng.normal(size=3))
        ident = p @ p.inverse()
        assert np.linalg.norm(ident.translation) <= 1e-12
        assert np.linalg.norm(ident.rotation - np.eye(3)) <= 1e-12


def test_pose_error_is_translation_distance_and_geodesic_angle():
    a = Pose(so3_exp([0.0, 0.0, 0.2]), [1.0, 2.0, 3.0])
    b = Pose(so3_exp([0.0, 0.0, -0.1]), [1.0, 2.0, 3.5])
    pos, rot = geo.pose_error(a, b)
    assert pos == 0.5
    assert abs(rot - 0.3) <= 1e-15
    pos, rot = geo.pose_error(a, a)
    assert pos == 0.0 and rot <= 1e-15


def test_pose_parts_are_read_only():
    """Poses are shared (a lock's locked_rel, a world's grasp_rel), so a
    built, composed or inverted pose rejects writes into its arrays."""
    rng = np.random.default_rng(7)
    p = Pose(geo.random_rotation(rng), rng.normal(size=3))
    for pose in (p, p @ p, p.inverse(), Pose(np.eye(3), np.zeros(3))):
        for part in (pose.rotation, pose.translation):
            with pytest.raises(ValueError):
                part[0] = 0.0
            with pytest.raises(ValueError):
                part += 1.0
