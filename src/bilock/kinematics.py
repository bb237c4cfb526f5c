"""Single-arm 7-DoF S-R-S kinematics.

The arm family covered here has a spherical shoulder (joints 1-3 meeting
at a point S), a revolute elbow (joint 4 at E), and a spherical wrist
(joints 5-7 at W), with local joint axes alternating z/y and pure-z link
translations: the layout of an iiwa-14-class manipulator.  Geometry is
supplied by a config file (``arm_model_v1``), so any arm in the family
works.

One chain computes every kinematic quantity: ``joint_frames`` walks the
joints once, generic in the scalars of q (plain floats or the dual scalars
of :mod:`bilock.autodiff`), and forward kinematics, the geometric
Jacobian and the SEW angle all read its frames.  It accepts any chain of
translational offsets and unit joint axes; only the analytic IK needs the
S-R-S layout.

The redundancy is parameterized by a SEW angle whose reference direction
is the parallel transport of a fixed tangent vector along the great
circle from the antipode of a configurable pole to the shoulder-wrist
direction.  The parameterization is therefore singular on a single ray
(wrist along the pole), which the config points away from the workspace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry as geo
from .errors import (DegenerateSEW, ElbowSingular, JointLimitViolation,
                     Unreachable)
from .geometry import Pose, Rotation


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


@dataclass
class ArmModel:
    """Kinematic description of one 7-DoF arm.

    joint_offsets: eight fixed poses, frame i-1 to joint i plus flange.
    joint_axes: unit axes in the local joint frames.
    joint_limits: (7, 2) array of [lo, hi] in radians.
    sew_pole / sew_zero_dir: SEW reference construction, base frame.
    """

    name: str
    base_pose: Pose
    joint_offsets: list
    joint_axes: np.ndarray
    joint_limits: np.ndarray
    structure_tag: str = "S-R-S"
    sew_pole: np.ndarray = field(default_factory=lambda: np.array([-1.0, 0.0, 0.0]))
    sew_zero_dir: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        if self.structure_tag != "S-R-S":
            raise ValueError("only S-R-S arms are supported")
        self.joint_axes = np.asarray(self.joint_axes, dtype=float)
        self.joint_limits = np.asarray(self.joint_limits, dtype=float)
        if self.joint_axes.shape != (7, 3):
            raise ValueError("expected 7 joint axes")
        if len(self.joint_offsets) != 8:
            raise ValueError("expected 8 joint offsets (7 joints + flange)")
        for i, p in enumerate(self.joint_offsets):
            if geo.rotation_angle(p.rotation.mat) > 1e-12:
                raise ValueError(f"joint offset {i} carries a rotation; "
                                 "only translational offsets are supported")
        norms = np.linalg.norm(self.joint_axes, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("joint axes must be unit norm within 1e-12")
        if np.any(self.joint_limits[:, 0] >= self.joint_limits[:, 1]):
            raise ValueError("joint limits must satisfy lo < hi")
        pole = np.asarray(self.sew_pole, dtype=float)
        self.sew_pole = pole / np.linalg.norm(pole)
        zd = np.asarray(self.sew_zero_dir, dtype=float)
        zd = zd - (zd @ self.sew_pole) * self.sew_pole
        n = np.linalg.norm(zd)
        if n < 1e-9:
            raise ValueError("sew_zero_dir parallel to sew_pole")
        self.sew_zero_dir = zd / n

    # --- derived S-R-S quantities ---

    @cached_property
    def srs(self):
        """(S, a, b, d7): shoulder point, link lengths, flange offset.

        Validates the canonical S-R-S layout required by the analytic IK;
        forward kinematics does not need it.  With offsets 1, 2, 5 and 6
        zero, the three joints of each spherical group share one origin, so
        their axes meet there.
        """
        offs = [np.asarray(p.translation, dtype=float) for p in self.joint_offsets]
        for i in (1, 2, 5, 6):
            if np.linalg.norm(offs[i]) > 1e-12:
                raise ValueError(f"offset {i} must be zero for a spherical group")
        for i in (3, 4, 7):
            if np.linalg.norm(offs[i][:2]) > 1e-12 or offs[i][2] <= 0.0:
                raise ValueError(f"offset {i} must be a positive z translation")
        pattern = [(0, 0, 1), (0, 1, 0), (0, 0, 1), (0, 1, 0),
                   (0, 0, 1), (0, 1, 0), (0, 0, 1)]
        for i, want in enumerate(pattern):
            if np.linalg.norm(self.joint_axes[i] - np.array(want, dtype=float)) > 1e-12:
                raise ValueError("joint axes must follow the z/y/z/y/z/y/z pattern")
        return offs[0].copy(), float(offs[3][2]), float(offs[4][2]), float(offs[7][2])

    @cached_property
    def _generic(self):
        """Python-native copies of the chain constants (offsets are pure
        translations, checked above)."""
        base_r = [[float(v) for v in row] for row in self.base_pose.rotation.mat]
        base_t = [float(v) for v in self.base_pose.translation]
        offs = [[float(v) for v in p.translation] for p in self.joint_offsets]
        axes = [tuple(float(v) for v in a) for a in self.joint_axes]
        return base_r, base_t, offs, axes


# --- forward kinematics ---

def joint_frames(model, q):
    """World-frame (R, origin) before each of the 7 joints, then the flange.

    R is a nested-list 3x3 matrix and origin a list; both are generic in
    the scalars of q, which may be plain floats or the dual scalars of
    :mod:`bilock.autodiff` (how derivative information is threaded through
    the chain).  Joint i turns about ``R_i @ joint_axes[i]`` through its
    origin; the last entry is the flange pose.
    """
    base_r, base_t, offs, axes = model._generic
    r = base_r
    t = base_t
    frames = []
    for i in range(7):
        off = offs[i]
        if off[0] != 0.0 or off[1] != 0.0 or off[2] != 0.0:
            d = geo.gmat_vec(r, off)
            t = [t[0] + d[0], t[1] + d[1], t[2] + d[2]]
        frames.append((r, t))
        r = geo.gmat_mul(r, geo.grot_axis(axes[i], q[i]))
    d = geo.gmat_vec(r, offs[7])
    frames.append((r, [t[0] + d[0], t[1] + d[1], t[2] + d[2]]))
    return frames


def forward_kinematics_generic(model, q):
    """Flange pose as (nested-list R, list t), generic in the scalars of q."""
    return joint_frames(model, q)[7]


def forward_kinematics(model, q):
    """World-frame flange pose for joint configuration q (radians)."""
    return Pose.from_parts(*joint_frames(model, q)[7])


def geometric_jacobian(model, q):
    """6x7 geometric Jacobian at the flange (rows: linear, angular)."""
    frames = joint_frames(model, q)
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
        raise DegenerateSEW("wrist direction on the SEW singular ray")
    return _shortest_arc(-pole, u) @ zero_dir


def _sew_azimuth(s, e, w, pole, zero_dir):
    sw = w - s
    dist = np.linalg.norm(sw)
    if dist < 1e-6:
        raise DegenerateSEW("shoulder and wrist coincide")
    u = sw / dist
    pe = (e - s) - ((e - s) @ u) * u
    n = np.linalg.norm(pe)
    if n < 1e-9:
        raise DegenerateSEW("elbow lies on the shoulder-wrist line")
    pe /= n
    ref = _sew_reference(u, pole, zero_dir)
    return math.atan2(float(u @ np.cross(ref, pe)), float(ref @ pe))


def sew_angle(model, q):
    """SEW redundancy angle of a configuration, in (-pi, pi].

    Invariant under base placement (computed in the arm base frame) and
    under pure flange roll (joint 7 does not move S, E, or W).
    """
    s, a, b, d7 = model.srs
    frames = joint_frames(model, q)
    to_base = model.base_pose.inverse()
    return _sew_azimuth(s, to_base @ frames[3][1], to_base @ frames[4][1],
                        model.sew_pole, model.sew_zero_dir)


def branch_of(q):
    """IK branch that reproduces configuration q."""
    return IkBranch(shoulder_flip=q[1] < 0.0, elbow_flip=q[3] < 0.0,
                    wrist_flip=q[5] < 0.0)


# --- analytic inverse kinematics ---

def _zyz(r, flip):
    """Euler ZYZ decomposition, middle angle sign selected by flip."""
    sy = math.hypot(r[0, 2], r[1, 2])
    if sy < 1e-12:
        if r[2, 2] > 0.0:
            return 0.0, 0.0, math.atan2(r[1, 0], r[0, 0])
        return 0.0, math.pi, math.atan2(r[0, 1], r[1, 1])
    if flip:
        return (math.atan2(-r[1, 2], -r[0, 2]),
                -math.atan2(sy, r[2, 2]),
                math.atan2(-r[2, 1], r[2, 0]))
    return (math.atan2(r[1, 2], r[0, 2]),
            math.atan2(sy, r[2, 2]),
            math.atan2(r[2, 1], -r[2, 0]))


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
    rt = tgt.rotation.mat
    wrist = tgt.translation - d7 * rt[:, 2]
    sw = wrist - s
    dist = float(np.linalg.norm(sw))
    if dist < 1e-6:
        raise DegenerateSEW("wrist target coincides with the shoulder")
    if not (abs(a - b) + _REACH_MARGIN <= dist <= a + b - _REACH_MARGIN):
        raise Unreachable(
            f"wrist target at {dist:.6f} m outside annulus "
            f"[{abs(a - b):.6f}, {a + b:.6f}]")
    cos4 = (dist * dist - a * a - b * b) / (2.0 * a * b)
    q4_mag = math.acos(min(1.0, max(-1.0, cos4)))
    if q4_mag < _ELBOW_MARGIN or q4_mag > math.pi - _ELBOW_MARGIN:
        raise ElbowSingular(f"elbow angle {q4_mag:.3e} within margin of 0 or pi")
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
            raise JointLimitViolation(
                f"joints {bad.tolist()} outside limits", bad.tolist())
    return q


# --- config IO (arm_model_v1) ---

def _pose_from_config(node):
    rpy = np.deg2rad(np.asarray(node.get("rpy_deg", [0.0, 0.0, 0.0]), dtype=float))
    rot = (Rotation.from_axis_angle([0.0, 0.0, rpy[2]])
           @ Rotation.from_axis_angle([0.0, rpy[1], 0.0])
           @ Rotation.from_axis_angle([rpy[0], 0.0, 0.0]))
    return Pose(rot, node.get("xyz", [0.0, 0.0, 0.0]))


def arm_model_from_dict(cfg):
    """ArmModel from an arm_model_v1 document; the dataclass holds the
    defaults of the optional keys."""
    if not isinstance(cfg, dict):
        raise ValueError("arm model must be a JSON object")
    if cfg.get("schema_version") != "arm_model_v1":
        raise ValueError(
            f"unsupported arm model schema {cfg.get('schema_version')!r}")
    values = {k: v for k, v in cfg.items() if k != "schema_version"}
    try:
        values["base_pose"] = _pose_from_config(values["base_pose"])
        values["joint_offsets"] = [_pose_from_config(n)
                                   for n in values["joint_offsets"]]
        values["joint_limits"] = np.deg2rad(
            np.asarray(values.pop("joint_limits_deg"), dtype=float))
        model = ArmModel(**values)
        model.srs  # the analytic-IK layout checks, so a bad layout fails here
        return model
    except KeyError as exc:
        raise ValueError(f"arm model lacks key {exc}") from exc
    except (AttributeError, TypeError) as exc:  # an unknown key, a wrong type
        raise ValueError(f"arm model: {exc}") from exc


def load_arm_model(path):
    """Load an arm from an ``arm_model_v1`` JSON document."""
    with open(path, encoding="utf-8") as fh:
        return arm_model_from_dict(json.load(fh))
