"""Two-arm state, relative end-effector transform, and transform locking.

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
from .errors import BilockError
from .geometry import Pose, geodesic_distance


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


@dataclass
class BimanualState:
    """Joint configuration in R^14 plus gripper commands in [0, 1]."""

    q_left: np.ndarray
    q_right: np.ndarray
    grip_left: float = 0.0
    grip_right: float = 0.0

    def __post_init__(self):
        self.q_left = np.asarray(self.q_left, dtype=float).reshape(7)
        self.q_right = np.asarray(self.q_right, dtype=float).reshape(7)
        for g in (self.grip_left, self.grip_right):
            if not 0.0 <= g <= 1.0:
                raise ValueError("gripper commands must lie in [0, 1]")

    @classmethod
    def from_vector(cls, v):
        v = np.asarray(v, dtype=float).reshape(16)
        return cls(v[:7], v[7:14], v[14], v[15])

    def to_vector(self):
        return np.concatenate([self.q_left, self.q_right,
                               [self.grip_left, self.grip_right]])

    def q14(self):
        return np.concatenate([self.q_left, self.q_right])


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
    generic in the scalars of q14 (floats or ``Dual2``)."""
    rl, tl = kin.forward_kinematics_generic(model.left, q14[:7])
    rr, tr = kin.forward_kinematics_generic(model.right, q14[7:14])
    d = [tl[0] - tr[0], tl[1] - tr[1], tl[2] - tr[2]]
    return geo.gmat_mul(geo.gmat_transpose(rr), rl), geo.gmat_t_vec(rr, d)


def relative_of_q14(model, q14):
    """Pose of the left gripper expressed in the right gripper frame."""
    return Pose.from_parts(*relative_generic(model, q14))


def engage_lock(model, state, control_arm="right", pos_tol=1e-9, rot_tol=1e-8):
    """Capture the current relative transform in the control-gripper frame."""
    x = relative_of_q14(model, state.q14())
    locked = x if control_arm == "right" else x.inverse()
    return TransformLock(control_arm, locked, pos_tol, rot_tol)


def check_preservation(model, state, lock):
    """(pos_err, rot_err, ok) of the current state against the lock."""
    x = relative_of_q14(model, state.q14())
    cur = x if lock.control_arm == "right" else x.inverse()
    pos_err = float(np.linalg.norm(cur.translation - lock.locked_rel.translation))
    rot_err = geodesic_distance(cur.rotation, lock.locked_rel.rotation)
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
    except BilockError:
        return prev_sub, True
    achieved = kin.forward_kinematics(sub_model, q)
    rel = control_pose.inverse() @ achieved
    pos_err = float(np.linalg.norm(rel.translation - lock.locked_rel.translation))
    rot_err = geodesic_distance(rel.rotation, lock.locked_rel.rotation)
    if pos_err > lock.pos_tol or rot_err > lock.rot_tol:
        return prev_sub, True
    return q, False
