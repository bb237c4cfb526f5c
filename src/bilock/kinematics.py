"""Single-arm 7-DoF S-R-S kinematics.

The arm family covered here has a spherical shoulder (joints 1-3 meeting
at a point S), a revolute elbow (joint 4 at E), and a spherical wrist
(joints 5-7 at W), with local joint axes alternating z/y and pure-z link
translations: the layout of an iiwa-14-class manipulator.  Geometry is
supplied by a config file (``arm_model_v1``), so any arm in the family
works.

One chain computes every kinematic quantity: ``joint_frames`` walks the
joints once, generic in the scalars of q (plain floats, the jets of
:mod:`bilock.autodiff`, or (N,) float columns), and forward
kinematics, the geometric Jacobian and the SEW angle all read its frames.
It accepts any chain of translational offsets whose joints each turn
about the local z or y axis; only the analytic IK needs the S-R-S layout.

The redundancy is parameterized by a SEW angle whose reference direction
is the parallel transport of a fixed tangent vector along the great
circle from the antipode of a configurable pole to the shoulder-wrist
direction.  The parameterization is therefore singular on a single ray
(wrist along the pole), which the config points away from the workspace.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry as geo
from .errors import IkFailure
from .geometry import Pose
from .schema import (GEOMETRY, TEXT, array, choice, document, parse_json,
                     seq, spec, table)


def wrap_angle(x):
    """Wrap to (-pi, pi]."""
    w = math.remainder(x, math.tau)
    if w <= -math.pi:
        w += math.tau
    return w


@dataclass(frozen=True)
class IkBranch:
    """Discrete branch of the analytic IK (8 combinations)."""

    shoulder_flip: bool = False
    elbow_flip: bool = False
    wrist_flip: bool = False


def _pose(xyz=(0.0, 0.0, 0.0), rpy_deg=(0.0, 0.0, 0.0)):
    """A pose from a translation and roll, pitch and yaw in degrees."""
    roll, pitch, yaw = np.deg2rad(rpy_deg)
    return Pose(geo.so3_exp([0.0, 0.0, yaw]) @ geo.so3_exp([0.0, pitch, 0.0])
                @ geo.so3_exp([roll, 0.0, 0.0]), xyz)


def _unit(v, what):
    """v scaled to unit length; its norm must be finite and >= 1e-9."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if not 1e-9 <= n < math.inf:
        raise ValueError(f"{what} has norm {n:g}, outside [1e-9, inf)")
    return v / n


@dataclass
class ArmModel:
    """One 7-DoF arm: the ``arm_model_v1`` table.  The base pose is xyz and
    rpy_deg (each zero if absent); the eight joint offsets, frame i-1 to
    joint i plus flange, are translations (xyz); each joint axis is the
    local z axis [0, 0, 1] or y axis [0, 1, 0]; joint limits are (7, 2)
    [lo, hi] in radians; the SEW pole and zero direction are in the base
    frame."""

    name: str = spec(TEXT)
    base_pose: Pose = spec(table({"xyz": GEOMETRY, "rpy_deg": array(
        3, bound=360.0)}, optional=["xyz", "rpy_deg"], make=_pose))
    joint_offsets: list = spec(seq(table({"xyz": GEOMETRY}, optional=["xyz"],
                                         make=_pose), 8))
    joint_axes: np.ndarray = spec(array(7, 3, bound=10.0))
    joint_limits: np.ndarray = spec(array(7, 2), deg=True)
    structure_tag: str = spec(choice("S-R-S"), "S-R-S")
    sew_pole: np.ndarray = spec(GEOMETRY, np.array([-1.0, 0.0, 0.0]))
    sew_zero_dir: np.ndarray = spec(GEOMETRY, np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        self.joint_axes = np.asarray(self.joint_axes, dtype=float)
        self.joint_limits = np.asarray(self.joint_limits, dtype=float)
        if not all(a.tolist() in ([0, 0, 1], [0, 1, 0])
                   for a in self.joint_axes):
            raise ValueError("each joint axis must be [0, 0, 1] or [0, 1, 0]")
        if np.any(self.joint_limits[:, 0] >= self.joint_limits[:, 1]):
            raise ValueError("joint limits must satisfy lo < hi")
        self.sew_pole = pole = _unit(self.sew_pole, "sew_pole")
        zd = self.sew_zero_dir
        self.sew_zero_dir = _unit(zd - (zd @ pole) * pole,
                                  "sew_zero_dir off sew_pole")

    # --- derived S-R-S quantities ---

    @cached_property
    def srs(self):
        """(S, a, b, d7): shoulder point, link lengths, flange offset.  Checks
        the S-R-S layout that the analytic IK (not FK) needs: with offsets 1,
        2, 5 and 6 zero, each spherical group's three axes meet at one point."""
        offs = [np.asarray(p.translation, dtype=float) for p in self.joint_offsets]
        for i in (1, 2, 5, 6):
            if np.linalg.norm(offs[i]) > 1e-12:
                raise ValueError(f"offset {i} must be zero for a spherical group")
        for i in (3, 4, 7):
            if np.linalg.norm(offs[i][:2]) > 1e-12 or offs[i][2] <= 0.0:
                raise ValueError(f"offset {i} must be a positive z translation")
        pattern = np.array([(0, 0, 1), (0, 1, 0)] * 3 + [(0, 0, 1)], dtype=float)
        if not np.array_equal(self.joint_axes, pattern):
            raise ValueError("joint axes must follow the z/y/z/y/z/y/z pattern")
        return offs[0].copy(), float(offs[3][2]), float(offs[4][2]), float(offs[7][2])

    @cached_property
    def _generic(self):
        """Python-native copies of the chain constants (offsets are pure
        translations), and each joint's rotation builder."""
        base_r = [[float(v) for v in row] for row in self.base_pose.rotation]
        base_t = [float(v) for v in self.base_pose.translation]
        offs = [[float(v) for v in p.translation] for p in self.joint_offsets]
        rots = [geo.grot_z if a[2] == 1.0 else geo.grot_y
                for a in self.joint_axes]
        return base_r, base_t, offs, rots


# --- forward kinematics ---

def joint_frames(model, q):
    """Yield the world-frame (R, origin) before each of the 7 joints, then
    the flange.

    R is a nested-list 3x3 matrix and origin a list, generic in the scalars
    of q: plain floats, the jets of :mod:`bilock.autodiff` (how derivative
    information is threaded through the chain), or the (N,) rows of a
    (7, N) stack, giving (N,) columns (floats where no joint reaches).
    Joint i turns about ``R_i @ joint_axes[i]`` through its origin; the last
    frame is the flange pose.
    """
    r, t, offs, rots = model._generic
    for i in range(7):
        off = offs[i]
        if off[0] != 0.0 or off[1] != 0.0 or off[2] != 0.0:
            d = geo.gmat_vec(r, off)
            t = [t[0] + d[0], t[1] + d[1], t[2] + d[2]]
        yield r, t
        r = geo.gmat_mul(r, rots[i](q[i]))
    d = geo.gmat_vec(r, offs[7])
    yield r, [t[0] + d[0], t[1] + d[1], t[2] + d[2]]


def forward_kinematics_generic(model, q):
    """Flange pose as (nested-list R, list t), generic in the scalars of q."""
    return deque(joint_frames(model, q), maxlen=1).pop()


def forward_kinematics(model, q):
    """World-frame flange pose for joint configuration q (radians)."""
    return Pose(*deque(joint_frames(model, q), maxlen=1).pop())


def geometric_jacobian(model, q):
    """6x7 geometric Jacobian at the flange (rows: linear, angular)."""
    frames = list(joint_frames(model, q))
    p = np.array(frames[7][1])
    jac = np.empty((6, 7))
    for i in range(7):
        r, o = frames[i]
        z = np.array(r) @ model.joint_axes[i]
        jac[:3, i] = np.cross(z, p - np.array(o))
        jac[3:, i] = z
    return jac


# --- SEW angle ---

def _shortest_arc(u, v):
    """Rotation taking unit vector u to unit vector v along the short arc."""
    c = float(u @ v)
    if c < -1.0 + 1e-12:
        # antipodal: pi rotation about any axis orthogonal to u
        pick = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        axis = np.cross(u, pick)
        axis /= np.linalg.norm(axis)
        return geo.so3_exp(math.pi * axis)
    w = np.cross(u, v)
    k = geo.hat(w)
    return np.eye(3) + k + (k @ k) / (1.0 + c)


def _sew_reference(u, pole, zero_dir):
    if float(pole @ u) > 1.0 - 1e-9:
        raise IkFailure("degenerate_sew",
                        "wrist direction on the SEW singular ray")
    return _shortest_arc(-pole, u) @ zero_dir


def _sew_azimuth(s, e, w, pole, zero_dir):
    sw = w - s
    dist = np.linalg.norm(sw)
    if dist < 1e-6:
        raise IkFailure("degenerate_sew", "shoulder and wrist coincide")
    u = sw / dist
    pe = (e - s) - ((e - s) @ u) * u
    n = np.linalg.norm(pe)
    if n < 1e-9:
        raise IkFailure("degenerate_sew",
                        "elbow lies on the shoulder-wrist line")
    pe /= n
    ref = _sew_reference(u, pole, zero_dir)
    return math.atan2(float(u @ np.cross(ref, pe)), float(ref @ pe))


def sew_angle(model, q):
    """SEW redundancy angle of a configuration, in (-pi, pi].

    Invariant under base placement (computed in the arm base frame) and
    under pure flange roll (joint 7 does not move S, E, or W).
    """
    s, a, b, d7 = model.srs
    frames = list(joint_frames(model, q))
    to_base = model.base_pose.inverse()
    return _sew_azimuth(s, to_base @ frames[3][1], to_base @ frames[4][1],
                        model.sew_pole, model.sew_zero_dir)


def branch_of(q):
    """IK branch that reproduces configuration q."""
    return IkBranch(shoulder_flip=q[1] < 0.0, elbow_flip=q[3] < 0.0,
                    wrist_flip=q[5] < 0.0)


# --- analytic inverse kinematics ---

def _zyz(r, flip):
    """Euler ZYZ decomposition r = Rz(a) Ry(b) Rz(c), the sign of b selected
    by flip.

    a and b come from the third column.  c is read from the first column of
    (Rz(a) Ry(b))^T r, not from the third row: near b = 0 the third row and
    column are about |sin b| in size, so each outer angle alone is off by
    about 1e-16/|b|, and only c solved against the computed a cancels that
    error in the recomposition.
    """
    sy = math.hypot(r[0, 2], r[1, 2])
    if sy < 1e-12:
        if r[2, 2] > 0.0:
            return 0.0, 0.0, math.atan2(r[1, 0], r[0, 0])
        return 0.0, math.pi, math.atan2(r[0, 1], r[1, 1])
    sign = -1.0 if flip else 1.0
    a = math.atan2(sign * r[1, 2], sign * r[0, 2])
    b = sign * math.atan2(sy, r[2, 2])
    ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
    return a, b, math.atan2(ca * r[1, 0] - sa * r[0, 0],
                            cb * (ca * r[0, 0] + sa * r[1, 0]) - sb * r[2, 0])


_ELBOW_MARGIN = 1e-6
_REACH_MARGIN = 1e-9


def inverse_kinematics(model, target, psi, branch=IkBranch(),
                       enforce_limits=True):
    """Joint configuration reaching a world-frame flange pose.

    psi selects the elbow position on the self-motion circle; branch picks
    one of the 8 discrete solutions.  The returned configuration satisfies
    FK(q) = target and sew_angle(q) = psi to numerical precision.
    """
    s, a, b, d7 = model.srs
    tgt = model.base_pose.inverse() @ target
    rt = tgt.rotation
    wrist = tgt.translation - d7 * rt[:, 2]
    sw = wrist - s
    dist = float(np.linalg.norm(sw))
    if dist < 1e-6:
        raise IkFailure("degenerate_sew",
                        "wrist target coincides with the shoulder")
    if not (abs(a - b) + _REACH_MARGIN <= dist <= a + b - _REACH_MARGIN):
        raise IkFailure(
            "unreachable", f"wrist target at {dist:.6f} m outside annulus "
            f"[{abs(a - b):.6f}, {a + b:.6f}]")
    cos4 = (dist * dist - a * a - b * b) / (2.0 * a * b)
    q4_mag = math.acos(min(1.0, max(-1.0, cos4)))
    if q4_mag < _ELBOW_MARGIN or q4_mag > math.pi - _ELBOW_MARGIN:
        raise IkFailure("elbow_singular",
                        f"elbow angle {q4_mag:.3e} within margin of 0 or pi")
    q4 = -q4_mag if branch.elbow_flip else q4_mag

    u = sw / dist
    m = np.array([b * math.sin(q4), 0.0, a + b * math.cos(q4)])
    r_align = _shortest_arc(m / dist, u)
    elbow0 = s + a * r_align[:, 2]
    psi0 = _sew_azimuth(s, elbow0, wrist, model.sew_pole, model.sew_zero_dir)
    phi = wrap_angle(psi - psi0)
    r3 = geo.so3_exp(phi * u) @ r_align
    q1, q2, q3 = _zyz(r3, branch.shoulder_flip)
    r4 = r3 @ geo.so3_exp(np.array([0.0, q4, 0.0]))
    q5, q6, q7 = _zyz(r4.T @ rt, branch.wrist_flip)
    q = np.array([q1, q2, q3, q4, q5, q6, q7])

    if enforce_limits:
        lo, hi = model.joint_limits[:, 0], model.joint_limits[:, 1]
        bad = np.nonzero((q < lo) | (q > hi))[0]
        if bad.size:
            raise IkFailure("joint_limits",
                            f"joints {bad.tolist()} outside limits", bad)
    return q


def load_arm_model(path):
    """Load an arm from an ``arm_model_v1`` JSON document."""
    with open(path, encoding="utf-8") as fh:
        model = document(ArmModel, parse_json(fh.read()), "arm_model_v1")
    model.srs  # the analytic-IK layout checks, so a bad layout fails here
    return model
