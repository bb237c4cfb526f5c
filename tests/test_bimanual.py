import numpy as np
import pytest

from bilock import bimanual as bm
from bilock import kinematics as kin
from bilock.geometry import Pose, Rotation, geodesic_distance

from conftest import random_q14


def state_of(model, q14, grips=(1.0, 1.0)):
    return bm.BimanualState(q14[:7], q14[7:14], *grips)


def test_state_validation():
    with pytest.raises(ValueError):
        bm.BimanualState(np.zeros(7), np.zeros(7), grip_left=1.5)
    v = np.arange(16.0) / 16.0
    s = bm.BimanualState.from_vector(v)
    assert np.array_equal(s.to_vector(), v)


def test_relative_transform_identity_for_coincident_flanges(model):
    """Both grippers solved to the same world pose: relative = identity."""
    pose = Pose(Rotation.from_axis_angle([0.0, 0.0, 0.3]), [0.0, 0.62, 0.35])
    q_l = kin.inverse_kinematics(model.left, pose, -0.3, enforce_limits=False)
    q_r = kin.inverse_kinematics(model.right, pose, 0.3, enforce_limits=False)
    x = bm.relative_of_q14(model, np.concatenate([q_l, q_r]))
    assert np.linalg.norm(x.translation) <= 1e-10
    assert geodesic_distance(x.rotation, Rotation.identity()) <= 1e-10


def test_relative_transform_invariant_to_common_base_shift(model, world_cfg):
    rng = np.random.default_rng(30)
    q = random_q14(model, rng, scale=0.7)
    x = bm.relative_of_q14(model, q)
    shift = np.array([0.4, -1.0, 0.25])
    moved = bm.BimanualModel(
        kin.ArmModel(name="l2",
                     base_pose=Pose(model.left.base_pose.rotation,
                                    model.left.base_pose.translation + shift),
                     joint_offsets=model.left.joint_offsets,
                     joint_axes=model.left.joint_axes,
                     joint_limits=model.left.joint_limits),
        kin.ArmModel(name="r2",
                     base_pose=Pose(model.right.base_pose.rotation,
                                    model.right.base_pose.translation + shift),
                     joint_offsets=model.right.joint_offsets,
                     joint_axes=model.right.joint_axes,
                     joint_limits=model.right.joint_limits))
    x2 = bm.relative_of_q14(moved, q)
    assert np.linalg.norm(x.translation - x2.translation) <= 1e-12
    assert geodesic_distance(x.rotation, x2.rotation) <= 1e-12


def test_relative_transform_definitional_identity(model):
    rng = np.random.default_rng(31)
    for _ in range(10):
        q = random_q14(model, rng, scale=0.8)
        x = bm.relative_of_q14(model, q)
        left = kin.forward_kinematics(model.left, q[:7])
        right = kin.forward_kinematics(model.right, q[7:14])
        recomposed = right @ x
        assert np.linalg.norm(recomposed.translation - left.translation) <= 1e-12
        assert geodesic_distance(recomposed.rotation, left.rotation) <= 1e-12


def test_engage_then_check_is_zero(model):
    rng = np.random.default_rng(32)
    q = random_q14(model, rng, scale=0.7)
    state = state_of(model, q)
    lock = bm.engage_lock(model, state)
    pos, rot, ok = bm.check_preservation(model, state, lock)
    assert pos == 0.0 and rot == 0.0 and ok


def test_engage_left_right_are_inverses(model):
    rng = np.random.default_rng(33)
    q = random_q14(model, rng, scale=0.7)
    state = state_of(model, q)
    lock_r = bm.engage_lock(model, state, "right")
    lock_l = bm.engage_lock(model, state, "left")
    prod = lock_r.locked_rel @ lock_l.locked_rel
    assert np.linalg.norm(prod.translation) <= 1e-12
    assert geodesic_distance(prod.rotation, Rotation.identity()) <= 1e-12


def test_check_preservation_constructed_errors(model):
    rng = np.random.default_rng(34)
    q = random_q14(model, rng, scale=0.7)
    state = state_of(model, q)
    lock = bm.engage_lock(model, state, "right", pos_tol=0.001, rot_tol=0.001)

    # displace the subordinate (left) flange by a pure 2 mm translation
    left_pose = kin.forward_kinematics(model.left, state.q_left)
    psi = kin.sew_angle(model.left, state.q_left)
    shifted = Pose(left_pose.rotation, left_pose.translation + [0.0, 0.0, 0.002])
    q_l = kin.inverse_kinematics(model.left, shifted, psi,
                                 kin.branch_of(state.q_left),
                                 enforce_limits=False)
    pos, rot, ok = bm.check_preservation(
        model, bm.BimanualState(q_l, state.q_right, 1.0, 1.0), lock)
    assert abs(pos - 0.002) <= 1e-9
    assert rot <= 1e-9
    assert not ok

    # rotate the subordinate flange about its own axis by 0.01 rad
    turned = Pose(Rotation(left_pose.rotation.mat
                           @ kin.geo.so3_exp([0.0, 0.0, 0.01])),
                  left_pose.translation)
    q_l = kin.inverse_kinematics(model.left, turned, psi,
                                 kin.branch_of(state.q_left),
                                 enforce_limits=False)
    pos, rot, ok = bm.check_preservation(
        model, bm.BimanualState(q_l, state.q_right, 1.0, 1.0), lock)
    assert pos <= 1e-9
    assert abs(rot - 0.01) <= 1e-9


def test_subordinate_command_tracks_and_holds(model, world_cfg):
    gl, gr = None, None
    from bilock import worldsim as ws
    box = ws.box_pose_from_init(world_cfg, (0.0, 0.6, 0.0))
    gl, gr = ws.grasp_targets(world_cfg, box)
    q_l = kin.inverse_kinematics(model.left, gl, world_cfg.psi_left)
    q_r = kin.inverse_kinematics(model.right, gr, world_cfg.psi_right)
    state = bm.BimanualState(q_l, q_r, 1.0, 1.0)
    lock = bm.engage_lock(model, state)

    # control pose unchanged: subordinate reproduces its lock-time pose
    q_new, held = bm.subordinate_command(model, lock, gr, world_cfg.psi_left,
                                         prev_sub=q_l)
    assert not held
    achieved = kin.forward_kinematics(model.left, q_new)
    assert np.linalg.norm(achieved.translation - gl.translation) <= 1e-10

    # control pose moved inside the shared workspace: lock preserved
    moved = Pose(gr.rotation, gr.translation + [0.0, 0.0, 0.05])
    q_new, held = bm.subordinate_command(model, lock, moved, world_cfg.psi_left,
                                         prev_sub=q_l)
    assert not held
    achieved = kin.forward_kinematics(model.left, q_new)
    rel = moved.inverse() @ achieved
    assert np.linalg.norm(rel.translation - lock.locked_rel.translation) <= 1e-10
    assert geodesic_distance(rel.rotation, lock.locked_rel.rotation) <= 1e-10

    # unreachable control pose: hold the previous configuration bitwise
    far = Pose(gr.rotation, gr.translation + [0.0, 10.0, 0.0])
    q_new, held = bm.subordinate_command(model, lock, far, world_cfg.psi_left,
                                         prev_sub=q_l)
    assert held
    assert q_new is q_l


def test_subordinate_psi_changes_config_not_transform(model, world_cfg):
    from bilock import worldsim as ws
    box = ws.box_pose_from_init(world_cfg, (0.0, 0.6, 0.0))
    gl, gr = ws.grasp_targets(world_cfg, box)
    q_l = kin.inverse_kinematics(model.left, gl, world_cfg.psi_left)
    q_r = kin.inverse_kinematics(model.right, gr, world_cfg.psi_right)
    lock = bm.engage_lock(model, bm.BimanualState(q_l, q_r, 1.0, 1.0))
    configs = []
    for psi in (-0.3, 0.0, 0.3):
        q_new, held = bm.subordinate_command(model, lock, gr, psi, prev_sub=q_l)
        assert not held
        achieved = kin.forward_kinematics(model.left, q_new)
        rel = gr.inverse() @ achieved
        assert np.linalg.norm(rel.translation
                              - lock.locked_rel.translation) <= 1e-10
        configs.append(q_new)
    assert np.abs(configs[0] - configs[2]).max() > 1e-3


def test_lock_tolerances_validated():
    with pytest.raises(ValueError):
        bm.TransformLock("right", Pose.identity(), pos_tol=0.0)
