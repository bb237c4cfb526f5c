import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bilock import geometry as geo
from bilock import kinematics as kin
from bilock.errors import IkFailure
from bilock.geometry import Pose, geodesic_distance, so3_exp

from conftest import fk_oracle, random_joint_config


IDENTITY = Pose(np.eye(3), np.zeros(3))


def zero_offset_arm(base=IDENTITY):
    return kin.ArmModel(
        name="degenerate", base_pose=base,
        joint_offsets=[IDENTITY] * 8,
        joint_axes=np.tile([0.0, 0.0, 1.0], (7, 1)),
        joint_limits=np.tile([-math.pi, math.pi], (7, 1)))


def test_fk_zero_offsets_is_base_pose():
    base = Pose(so3_exp([0.1, 0.2, 0.3]), [1.0, -2.0, 0.5])
    arm = zero_offset_arm(base)
    pose = kin.forward_kinematics(arm, np.zeros(7))
    assert np.allclose(pose.translation, base.translation, atol=1e-15)
    assert geodesic_distance(pose.rotation, base.rotation) <= 1e-15


def test_fk_single_joint_rotation():
    arm = zero_offset_arm()
    theta = 0.7
    q = np.zeros(7)
    q[0] = theta
    pose = kin.forward_kinematics(arm, q)
    want = so3_exp([0.0, 0.0, theta])
    assert geodesic_distance(pose.rotation, want) <= 1e-14


def test_fk_matches_independent_oracle(model):
    """The chain agrees with the oracle on float q (as a Pose) and on
    object-dtype q (the scalar-generic nested lists the dual pass uses)."""
    rng = np.random.default_rng(20)
    for arm in (model.left, model.right):
        for _ in range(100):
            q = random_joint_config(arm, rng)
            t = fk_oracle(arm, q)
            pose = kin.forward_kinematics(arm, q)
            r, p = kin.forward_kinematics_generic(arm, q.astype(object))
            for rot, trans in ((pose.rotation, pose.translation),
                               (np.array(r, dtype=float), np.array(p, dtype=float))):
                assert np.linalg.norm(trans - t[:3, 3]) <= 1e-12
                assert geodesic_distance(rot, t[:3, :3]) <= 1e-12


def test_generic_fk_matches_float_path(model):
    rng = np.random.default_rng(21)
    arm = model.left
    for _ in range(20):
        q = random_joint_config(arm, rng)
        r, t = kin.forward_kinematics_generic(arm, q.astype(object))
        pose = kin.forward_kinematics(arm, q)
        assert np.allclose(np.array(t, dtype=float), pose.translation, atol=1e-14)
        assert np.allclose(np.array(r, dtype=float), pose.rotation, atol=1e-14)


def test_jacobian_single_joint_lever_arm():
    offsets = [IDENTITY] * 8
    offsets[7] = Pose(np.eye(3), [1.0, 0.0, 0.0])
    arm = kin.ArmModel(
        name="lever", base_pose=IDENTITY, joint_offsets=offsets,
        joint_axes=np.tile([0.0, 0.0, 1.0], (7, 1)),
        joint_limits=np.tile([-math.pi, math.pi], (7, 1)))
    jac = kin.geometric_jacobian(arm, np.zeros(7))
    assert np.allclose(jac[:3, 0], [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(jac[3:, 0], [0.0, 0.0, 1.0], atol=1e-15)


def test_jacobian_angular_columns_unit(model):
    rng = np.random.default_rng(22)
    q = random_joint_config(model.left, rng)
    jac = kin.geometric_jacobian(model.left, q)
    norms = np.linalg.norm(jac[3:], axis=0)
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_jacobian_matches_finite_differences(model):
    rng = np.random.default_rng(23)
    arm = model.right
    h = 1e-6
    for _ in range(10):
        q = random_joint_config(arm, rng, scale=0.9)
        jac = kin.geometric_jacobian(arm, q)
        for i in range(7):
            dq = np.zeros(7)
            dq[i] = h
            p_plus = kin.forward_kinematics(arm, q + dq)
            p_minus = kin.forward_kinematics(arm, q - dq)
            lin = (p_plus.translation - p_minus.translation) / (2 * h)
            dr = p_plus.rotation @ p_minus.rotation.T
            ang = geo.so3_log(dr) / (2 * h)
            assert np.abs(jac[:3, i] - lin).max() <= 1e-6
            assert np.abs(jac[3:, i] - ang).max() <= 1e-6


# --- SEW angle ---

def test_sew_zero_convention_is_configurable(model):
    """With the zero direction pointing down, an elbow-down sagittal
    configuration measures psi = 0."""
    arm = model.left
    down = kin.ArmModel(
        name="down", base_pose=arm.base_pose,
        joint_offsets=arm.joint_offsets, joint_axes=arm.joint_axes,
        joint_limits=arm.joint_limits, sew_pole=arm.sew_pole,
        sew_zero_dir=np.array([0.0, 0.0, -1.0]))
    q = np.array([0.0, 1.2, 0.0, -1.0, 0.0, 0.5, 0.0])  # elbow below the SW line
    psi = kin.sew_angle(down, q)
    assert abs(psi) <= 1e-12
    # the default (zero direction up) puts the same configuration at the cut
    assert abs(abs(kin.sew_angle(arm, q)) - math.pi) <= 1e-12


def test_sew_self_motion_equivariance(model):
    arm = model.left
    rng = np.random.default_rng(24)
    q = random_joint_config(arm, rng, scale=0.6)
    pose = kin.forward_kinematics(arm, q)
    psi = kin.sew_angle(arm, q)
    branch = kin.branch_of(q)
    for delta in np.linspace(-2.5, 2.5, 11):
        target = kin.wrap_angle(psi + delta)
        q2 = kin.inverse_kinematics(arm, pose, target, branch,
                                    enforce_limits=False)
        assert abs(kin.wrap_angle(kin.sew_angle(arm, q2) - target)) <= 1e-9


def test_sew_joint7_invariance(model):
    rng = np.random.default_rng(25)
    q = random_joint_config(model.left, rng, scale=0.8)
    psi = kin.sew_angle(model.left, q)
    q7 = q.copy()
    q7[6] += 0.8
    assert abs(kin.sew_angle(model.left, q7) - psi) <= 1e-12


def test_sew_degenerate_raises():
    offsets = [IDENTITY] * 8
    offsets[0] = Pose(np.eye(3), [0.0, 0.0, 0.36])
    offsets[3] = Pose(np.eye(3), [0.0, 0.0, 0.40])
    offsets[4] = Pose(np.eye(3), [0.0, 0.0, 0.40])
    offsets[7] = Pose(np.eye(3), [0.0, 0.0, 0.126])
    arm = kin.ArmModel(
        name="folding", base_pose=IDENTITY, joint_offsets=offsets,
        joint_axes=np.array([[0, 0, 1], [0, 1, 0], [0, 0, 1], [0, 1, 0],
                             [0, 0, 1], [0, 1, 0], [0, 0, 1]], dtype=float),
        joint_limits=np.tile([-math.pi, math.pi], (7, 1)))
    q = np.zeros(7)
    q[3] = math.pi  # equal links folded: wrist lands on the shoulder
    with pytest.raises(IkFailure) as exc:
        kin.sew_angle(arm, q)
    assert exc.value.reason == "degenerate_sew"


# --- inverse kinematics ---

def test_ik_round_trip(model):
    rng = np.random.default_rng(26)
    for arm in (model.left, model.right):
        for _ in range(500):
            q = random_joint_config(arm, rng)
            if abs(q[3]) < 1e-4:
                continue
            pose = kin.forward_kinematics(arm, q)
            psi = kin.sew_angle(arm, q)
            q2 = kin.inverse_kinematics(arm, pose, psi, kin.branch_of(q),
                                        enforce_limits=False)
            assert np.abs(q2 - q).max() <= 1e-9


# 0 or +-10^u, u in [-13, -3]: a middle ZYZ angle near its singularity
near_zero = st.one_of(st.just(0.0), st.builds(
    lambda sign, u: sign * 10.0 ** u, st.sampled_from([-1.0, 1.0]),
    st.floats(-13.0, -3.0)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(side=st.sampled_from(["left", "right"]),
       u=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
       q2=st.none() | near_zero, q6=st.none() | near_zero)
def test_ik_round_trip_near_shoulder_and_wrist_singularities(model, side, u,
                                                             q2, q6):
    """Criterion 6's FK -> IK -> FK round trip, at its bounds, with the
    shoulder (q2) and/or wrist (q6) angle at or near zero."""
    arm = model.arm(side)
    lo, hi = arm.joint_limits[:, 0], arm.joint_limits[:, 1]
    q = lo + np.array(u) * (hi - lo)
    for i, v in ((1, q2), (5, q6)):
        if v is not None:
            q[i] = v
    assume(abs(q[3]) >= 1e-4)
    pose = kin.forward_kinematics(arm, q)
    psi = kin.sew_angle(arm, q)
    q_ik = kin.inverse_kinematics(arm, pose, psi, kin.branch_of(q),
                                  enforce_limits=False)
    achieved = kin.forward_kinematics(arm, q_ik)
    assert np.linalg.norm(achieved.translation - pose.translation) <= 1e-10
    assert geodesic_distance(achieved.rotation, pose.rotation) <= 1e-10
    assert abs(kin.wrap_angle(kin.sew_angle(arm, q_ik) - psi)) <= 1e-9


def test_ik_unreachable(model):
    pose = kin.forward_kinematics(model.left, np.zeros(7))
    far = Pose(pose.rotation, pose.translation + [0.0, 10.0, 0.0])
    with pytest.raises(IkFailure) as exc:
        kin.inverse_kinematics(model.left, far, 0.0)
    assert exc.value.reason == "unreachable"


def test_ik_joint_limit_violation_lists_joints(model):
    arm = model.left
    rng = np.random.default_rng(27)
    q = random_joint_config(arm, rng, scale=0.7)
    pose = kin.forward_kinematics(arm, q)
    psi = kin.sew_angle(arm, q)
    branch = kin.branch_of(q)
    shrunk = kin.ArmModel(
        name="tight", base_pose=arm.base_pose,
        joint_offsets=arm.joint_offsets, joint_axes=arm.joint_axes,
        joint_limits=np.column_stack([np.minimum(q - 0.1, -0.2),
                                      np.maximum(q - 0.05, -0.1)]),
        sew_pole=arm.sew_pole, sew_zero_dir=arm.sew_zero_dir)
    with pytest.raises(IkFailure) as exc:
        kin.inverse_kinematics(shrunk, pose, psi, branch)
    assert exc.value.reason == "joint_limits"
    assert len(exc.value.indices) >= 1
    q2 = kin.inverse_kinematics(shrunk, pose, psi, branch, enforce_limits=False)
    assert np.abs(q2 - q).max() <= 1e-9


def test_ik_eight_branches_distinct(model):
    rng = np.random.default_rng(28)
    arm = model.right
    q = random_joint_config(arm, rng, scale=0.6)
    pose = kin.forward_kinematics(arm, q)
    psi = kin.sew_angle(arm, q)
    sols = []
    for sf in (False, True):
        for ef in (False, True):
            for wf in (False, True):
                qs = kin.inverse_kinematics(arm, pose, psi,
                                            kin.IkBranch(sf, ef, wf),
                                            enforce_limits=False)
                achieved = kin.forward_kinematics(arm, qs)
                assert np.linalg.norm(achieved.translation
                                      - pose.translation) <= 1e-10
                assert geodesic_distance(achieved.rotation, pose.rotation) <= 1e-10
                assert abs(kin.wrap_angle(kin.sew_angle(arm, qs) - psi)) <= 1e-9
                sols.append(qs)
    for i in range(8):
        for j in range(i + 1, 8):
            assert np.abs(sols[i] - sols[j]).max() > 1e-6


def test_arm_model_validation(model):
    arm = model.left
    bad_axes = arm.joint_axes.copy()
    bad_axes[0] = [0.0, 0.0, 1.0 + 1e-6]
    with pytest.raises(ValueError):
        kin.ArmModel(name="bad", base_pose=arm.base_pose,
                     joint_offsets=arm.joint_offsets, joint_axes=bad_axes,
                     joint_limits=arm.joint_limits)
    bad_limits = arm.joint_limits.copy()
    bad_limits[2] = [1.0, -1.0]
    with pytest.raises(ValueError):
        kin.ArmModel(name="bad", base_pose=arm.base_pose,
                     joint_offsets=arm.joint_offsets,
                     joint_axes=arm.joint_axes, joint_limits=bad_limits)


def test_arm_config_schema_rejected(tmp_path):
    path = tmp_path / "arm.json"
    path.write_text('{"schema_version": "arm_model_v99"}')
    with pytest.raises(ValueError):
        kin.load_arm_model(path)


def test_srs_concurrency_validated(model):
    # spherical groups of the default arms meet exactly
    for arm in (model.left, model.right):
        s, a, b, d7 = arm.srs
        assert a == 0.42 and b == 0.40 and d7 == 0.126
