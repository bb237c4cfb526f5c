"""Two-arm model, relative end-effector transform, and transform locking.

A two-arm configuration is the 14 joints ``episodes.Q14`` of a 16-D
command, laid out by ``episodes.JOINTS``.

Transform locking fixes the relative pose between the grippers: the
control arm is commanded freely while the subordinate arm tracks IK
solutions that preserve the locked transform.  When no valid solution
exists, the subordinate holds its most recent valid configuration until a
feasible command arrives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import kinematics as kin
from .episodes import JOINTS
from .errors import IkFailure
from .geometry import Pose, pose_error


@dataclass
class BimanualModel:
    left: kin.ArmModel
    right: kin.ArmModel

    def __post_init__(self):
        if np.allclose(self.left.base_pose.translation,
                       self.right.base_pose.translation):
            raise ValueError("arm base poses must be distinct")

    def arm(self, side):
        if side == "left":
            return self.left
        if side == "right":
            return self.right
        raise ValueError(f"unknown arm {side!r}")

    def other(self, side):
        return "right" if side == "left" else "left"


@dataclass(frozen=True)
class TransformLock:
    """Snapshot of the subordinate gripper pose in the control frame."""

    control_arm: str
    locked_rel: Pose
    pos_tol: float = 1e-9
    rot_tol: float = 1e-8

    def __post_init__(self):
        if self.pos_tol <= 0.0 or self.rot_tol <= 0.0:
            raise ValueError("lock tolerances must be positive")


def relative_generic(model, q14):
    """Left gripper in the right gripper frame as (nested-list R, list p),
    generic in the scalars of q14 (floats, jets or (N,) columns)."""
    rl, tl = kin.forward_kinematics_generic(model.left, q14[JOINTS["left"]])
    rr, tr = kin.forward_kinematics_generic(model.right, q14[JOINTS["right"]])
    d = [tl[0] - tr[0], tl[1] - tr[1], tl[2] - tr[2]]
    return geo.gmat_mul(geo.gmat_transpose(rr), rl), geo.gmat_t_vec(rr, d)


def relative_of_q14(model, q14):
    """Pose of the left gripper expressed in the right gripper frame."""
    return Pose(*relative_generic(model, q14))


def engage_lock(model, q14, control_arm="right", pos_tol=1e-9, rot_tol=1e-8):
    """Capture the relative transform at q14 in the control-gripper frame."""
    x = relative_of_q14(model, q14)
    locked = x if control_arm == "right" else x.inverse()
    return TransformLock(control_arm, locked, pos_tol, rot_tol)


def check_preservation(model, q14, lock):
    """(pos_err, rot_err, ok) of the configuration q14 against the lock."""
    x = relative_of_q14(model, q14)
    cur = x if lock.control_arm == "right" else x.inverse()
    pos_err, rot_err = pose_error(cur, lock.locked_rel)
    return pos_err, rot_err, (pos_err <= lock.pos_tol and rot_err <= lock.rot_tol)


def subordinate_command(model, lock, control_pose, psi_sub,
                        branch=kin.IkBranch(), prev_sub=None):
    """Subordinate joint command tracking a control-arm pose under a lock.

    Returns (config, held): held is True when IK fails or the achieved
    relative transform misses the lock tolerances, in which case the
    previous configuration is returned unchanged.
    """
    sub_side = model.other(lock.control_arm)
    sub_model = model.arm(sub_side)
    target = control_pose @ lock.locked_rel
    try:
        q = kin.inverse_kinematics(sub_model, target, psi_sub, branch,
                                   enforce_limits=True)
    except IkFailure:
        return prev_sub, True
    achieved = kin.forward_kinematics(sub_model, q)
    rel = control_pose.inverse() @ achieved
    pos_err, rot_err = pose_error(rel, lock.locked_rel)
    if pos_err > lock.pos_tol or rot_err > lock.rot_tol:
        return prev_sub, True
    return q, False
