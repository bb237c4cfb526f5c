import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilock import autodiff as ad
from bilock import geometry as geo
from bilock.errors import BilockError, RotationNearPi
from bilock.geometry import Pose, Rotation


def test_rotation_orthonormality_and_det():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = geo.random_rotation(rng)
        assert np.linalg.norm(r.mat.T @ r.mat - np.eye(3)) <= 1e-12
        assert abs(np.linalg.det(r.mat) - 1.0) <= 1e-12


def test_rotation_from_matrix_rejects_garbage():
    with pytest.raises(ValueError):
        Rotation(np.eye(3) * 1.5)
    with pytest.raises(ValueError):
        Rotation(-np.eye(3))  # det -1


def test_quaternion_constructor_normalizes():
    r = Rotation.from_quaternion([2.0, 0.0, 0.0, 0.0])
    assert r.allclose(Rotation.identity())
    with pytest.raises(ValueError):
        Rotation.from_quaternion([1e-12, 0.0, 0.0, 0.0])


def test_exp_log_round_trip_across_angle_range():
    rng = np.random.default_rng(1)
    angles = list(rng.uniform(1e-9, math.pi - 1e-6, size=200))
    angles += [1e-12, 1e-8, 1e-4, 0.0139, 0.015, 2.99, 3.01, 3.14,
               math.pi - 1e-5, math.pi - 1.01e-6]
    for th in angles:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = Rotation.from_axis_angle(th * axis)
        r2 = Rotation.from_axis_angle(r.log())
        assert np.linalg.norm(r2.mat - r.mat) <= 1e-10, th


def test_log_raises_near_pi():
    r = Rotation.from_axis_angle([math.pi - 1e-8, 0.0, 0.0])
    with pytest.raises(RotationNearPi):
        r.log()


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
    a Dual2 pass gives the float value, and its Jacobian matches central
    differences of the float map."""
    x = _zyz_turning_by(cut * (1.0 + side * rel), b, s)
    angle = geo.rotation_angle(np.array(_zyz(x)))
    assert (angle > cut) == (side > 0.0)
    val, jac, _ = ad.value_jacobian_hessian(_log_of_zyz, x, ad.DiffConfig("dual"))
    val_fd, jac_fd, _ = ad.value_jacobian_hessian(_log_of_zyz, x,
                                                  ad.DiffConfig("fd"))
    assert np.abs(val - val_fd).max() <= 1e-15
    assert np.abs(jac - jac_fd).max() <= 1e-6


@settings(derandomize=True, max_examples=30, deadline=None)
@given(eps=st.floats(2e-8, 0.98e-6), b=st.floats(0.0, 0.9),
       s=st.floats(0.0, 1.0))
def test_log_raises_within_margin_of_pi_for_both_scalar_kinds(eps, b, s):
    x = _zyz_turning_by(math.pi - eps, b, s)
    assert math.pi - geo.rotation_angle(np.array(_zyz(x))) < 1e-6
    for q in (x, ad.seed_duals2(x)):
        with pytest.raises(RotationNearPi):
            geo.so3_log(_zyz(q))


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
        with pytest.raises(BilockError):
            geo.so3_exp(w)


def test_geodesic_identity_cases():
    eye = Rotation.identity()
    assert geo.geodesic_distance(eye, eye) == 0.0
    quarter = Rotation.from_axis_angle([0.0, 0.0, math.pi / 2])
    assert abs(geo.geodesic_distance(eye, quarter) - math.pi / 2) <= 1e-12


def test_geodesic_left_invariance():
    rng = np.random.default_rng(2)
    rx = Rotation.from_axis_angle([0.3, 0.0, 0.0])
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
        assert np.linalg.norm(ident.rotation.mat - np.eye(3)) <= 1e-12


def test_pose_log_basic_cases():
    assert np.allclose(geo.pose_log(Pose.identity()), np.zeros(6), atol=0)
    p = Pose(Rotation.identity(), [0.1, 0.0, 0.0])
    assert np.allclose(geo.pose_log(p), [0.1, 0, 0, 0, 0, 0], atol=0)
    p = Pose(Rotation.from_axis_angle([0.5, 0.0, 0.0]), np.zeros(3))
    assert np.allclose(geo.pose_log(p), [0, 0, 0, 0.5, 0, 0], atol=1e-15)


def test_pose_log_raises_near_pi():
    p = Pose(Rotation.from_axis_angle([0.0, math.pi - 1e-8, 0.0]), np.zeros(3))
    with pytest.raises(RotationNearPi):
        geo.pose_log(p)


def test_pose_log_exp_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(200):
        w = rng.normal(size=3)
        w *= rng.uniform(0.0, math.pi - 1e-3) / np.linalg.norm(w)
        xi = np.concatenate([rng.normal(size=3), w])
        back = geo.pose_log(geo.pose_exp(xi))
        assert np.linalg.norm(back - xi) <= 1e-9
