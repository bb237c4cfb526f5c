"""Rigid-body math: rotations, poses, exp/log maps, geodesic distance.

Rotations are stored as 3x3 orthonormal matrices because the curvature
pipeline consumes matrix derivatives.  The public ``Rotation`` / ``Pose``
API works on numpy floats.  The ``g*`` helpers do 3x3 math on nested
lists whose entries may be floats or the dual scalars of
:mod:`bilock.autodiff`; the kinematic chain is built from them.
``so3_log`` is generic in the same way, so the pose interpolation of the
world scripts and the differentiable constraint residual share one SO(3)
log.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import BilockError, RotationNearPi

# Below this angle the log/exp maps switch to series expansions.
_SMALL_ANGLE = 1.4e-2
# Above this angle the log map switches to the symmetric-part extraction
# that stays accurate up to the pi boundary.
_NEAR_PI = 3.0
_PI_MARGIN = 1e-6


def hat(w):
    """Skew-symmetric matrix of a 3-vector."""
    return np.array([[0.0, -w[2], w[1]],
                     [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


def vee(m):
    """3-vector of a skew-symmetric matrix."""
    return np.array([m[2, 1] - m[1, 2],
                     m[0, 2] - m[2, 0],
                     m[1, 0] - m[0, 1]]) * 0.5


def so3_exp(w):
    """Rotation matrix for a rotation vector (Rodrigues)."""
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore"):
        th2 = float(w @ w)
    if not math.isfinite(th2):
        raise BilockError("rotation vector is not finite (or overflows)")
    if th2 < _SMALL_ANGLE ** 2:
        # sinc and versine series in theta^2; error O(theta^6)
        a = 1.0 - th2 / 6.0 * (1.0 - th2 / 20.0)
        b = 0.5 * (1.0 - th2 / 12.0 * (1.0 - th2 / 30.0))
    else:
        th = math.sqrt(th2)
        a = math.sin(th) / th
        b = (1.0 - math.cos(th)) / th2
    k = hat(w)
    return np.eye(3) + a * k + b * (k @ k)


def so3_log(r):
    """Rotation vector of a rotation matrix, as an array.

    r is a 3x3 array or nested list of floats or ``Dual2`` scalars.  The
    branches switch on the primal angle only, so the map is
    dual-differentiable everywhere below pi - 1e-6; the series branch keeps
    it smooth through the identity, where the constraint residual lives.
    Raises RotationNearPi beyond, where the axis sign becomes ill-defined.
    """
    a = [(r[2][1] - r[1][2]) * 0.5,  # sin(theta) * axis
         (r[0][2] - r[2][0]) * 0.5,
         (r[1][0] - r[0][1]) * 0.5]
    c = (r[0][0] + r[1][1] + r[2][2] - 1.0) * 0.5
    s2 = a[0] * a[0] + a[1] * a[1] + a[2] * a[2]
    th_val = math.atan2(math.sqrt(ad.value(s2)), ad.value(c))
    if th_val > math.pi - _PI_MARGIN:
        raise RotationNearPi(f"rotation angle {th_val:.9f} within 1e-6 of pi")
    if th_val < _SMALL_ANGLE:
        u = 1.0 - c
        # theta/sin(theta) as a series in (1 - cos theta)
        g = 1.0 + u * (1.0 / 3.0) + u * u * (2.0 / 15.0) + u * u * u * (2.0 / 35.0)
        return np.array([g * a[0], g * a[1], g * a[2]])
    s = ad.sqrt(s2)
    th = ad.atan2(s, c)
    if th_val < _NEAR_PI:
        g = th / s
        return np.array([g * a[0], g * a[1], g * a[2]])
    # Near pi the skew part loses precision; recover the axis from the
    # symmetric part B = (R + R^T)/2 - c*I = (1-c) * axis axis^T, whose
    # column of largest diagonal entry is parallel to the axis.
    k = max(range(3), key=lambda i: ad.value(r[i][i]))
    col = [(r[i][k] + r[k][i]) * 0.5 for i in range(3)]
    col[k] = col[k] - c
    n = ad.sqrt(col[0] * col[0] + col[1] * col[1] + col[2] * col[2])
    if ad.value(col[0] * a[0] + col[1] * a[1] + col[2] * a[2]) < 0.0:
        n = -n  # a = sin(theta)*axis fixes the sign
    g = th / n
    return np.array([g * col[0], g * col[1], g * col[2]])


def rotation_angle(r):
    """Angle in [0, pi] of a rotation matrix, accurate at both ends."""
    r = np.asarray(r, dtype=float)
    a = vee(r)
    c = 0.5 * (r[0, 0] + r[1, 1] + r[2, 2] - 1.0)
    return math.atan2(math.sqrt(float(a @ a)), c)


class Rotation:
    """Element of SO(3), stored as a 3x3 orthonormal matrix."""

    __slots__ = ("mat",)

    _ORTHO_TOL = 1e-12

    def __init__(self, mat, *, _validated=False):
        mat = np.array(mat, dtype=float)
        if not _validated:
            err = np.linalg.norm(mat.T @ mat - np.eye(3))
            if err > 100 * self._ORTHO_TOL:
                raise ValueError(f"matrix not orthonormal (|R^T R - I| = {err:.2e})")
            if abs(np.linalg.det(mat) - 1.0) > 1e-9:
                raise ValueError("matrix determinant is not +1")
        mat.setflags(write=False)
        self.mat = mat

    @classmethod
    def identity(cls):
        return cls(np.eye(3), _validated=True)

    @classmethod
    def from_axis_angle(cls, w):
        return cls(so3_exp(w), _validated=True)

    @classmethod
    def from_quaternion(cls, q):
        """Rotation from a (w, x, y, z) quaternion; normalized on input."""
        q = np.asarray(q, dtype=float)
        n = np.linalg.norm(q)
        if n < 1e-9:
            raise ValueError("quaternion norm below normalization tolerance")
        w, x, y, z = q / n
        mat = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
        return cls(mat, _validated=True)

    def __matmul__(self, other):
        if isinstance(other, Rotation):
            return Rotation(self.mat @ other.mat, _validated=True)
        return self.mat @ np.asarray(other, dtype=float)

    def inverse(self):
        return Rotation(self.mat.T.copy(), _validated=True)

    def apply(self, v):
        return self.mat @ np.asarray(v, dtype=float)

    def log(self):
        """Rotation vector; raises RotationNearPi within 1e-6 of pi."""
        return so3_log(self.mat)

    def angle(self):
        return rotation_angle(self.mat)

    def allclose(self, other, tol=1e-12):
        return bool(np.linalg.norm(self.mat - other.mat) <= tol)

    def __repr__(self):
        return f"Rotation({self.mat.tolist()})"


def random_rotation(rng):
    """Uniform random rotation (quaternion method)."""
    q = rng.normal(size=4)
    return Rotation.from_quaternion(q / np.linalg.norm(q))


def geodesic_distance(r1, r2):
    """SO(3) geodesic distance: the rotation angle of r1^T r2, in [0, pi]."""
    m1 = r1.mat if isinstance(r1, Rotation) else np.asarray(r1, dtype=float)
    m2 = r2.mat if isinstance(r2, Rotation) else np.asarray(r2, dtype=float)
    return rotation_angle(m1.T @ m2)


class Pose:
    """Rigid transform: rotation plus translation in meters."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation, translation):
        if not isinstance(rotation, Rotation):
            rotation = Rotation(rotation)
        translation = np.array(translation, dtype=float).reshape(3)
        translation.setflags(write=False)
        self.rotation = rotation
        self.translation = translation

    @classmethod
    def identity(cls):
        return cls(Rotation.identity(), np.zeros(3))

    @classmethod
    def from_parts(cls, mat, t):
        return cls(Rotation(mat, _validated=True), t)

    def __matmul__(self, other):
        if isinstance(other, Pose):
            return Pose(self.rotation @ other.rotation,
                        self.rotation.apply(other.translation) + self.translation)
        return self.rotation.apply(other) + self.translation

    def inverse(self):
        rinv = self.rotation.inverse()
        return Pose(rinv, -rinv.apply(self.translation))

    def apply(self, p):
        return self.rotation.apply(p) + self.translation

    def allclose(self, other, pos_tol=1e-12, rot_tol=1e-12):
        return (bool(np.linalg.norm(self.translation - other.translation) <= pos_tol)
                and geodesic_distance(self.rotation, other.rotation) <= rot_tol)

    def __repr__(self):
        return (f"Pose(R={self.rotation.mat.tolist()}, "
                f"t={self.translation.tolist()})")


def pose_log(p):
    """6-vector [translation; rotation vector] of a pose.

    The two blocks are decoupled: this is the chart used by the constraint
    residual, not an SE(3) screw log.
    """
    return np.concatenate([p.translation, p.rotation.log()])


def pose_exp(xi):
    """Inverse of pose_log on 6-vectors."""
    xi = np.asarray(xi, dtype=float)
    return Pose(Rotation.from_axis_angle(xi[3:]), xi[:3])


# --- scalar-generic 3x3 math on nested lists (floats or dual scalars) ---

def gmat_mul(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
             for j in range(3)] for i in range(3)]


def gmat_vec(a, v):
    return [a[i][0] * v[0] + a[i][1] * v[1] + a[i][2] * v[2]
            for i in range(3)]


def gmat_t_vec(a, v):
    return [a[0][i] * v[0] + a[1][i] * v[1] + a[2][i] * v[2]
            for i in range(3)]


def gmat_transpose(a):
    return [[a[j][i] for j in range(3)] for i in range(3)]


def grot_z(q):
    c, s = ad.cos(q), ad.sin(q)
    return [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]


def grot_y(q):
    c, s = ad.cos(q), ad.sin(q)
    return [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]


def grot_x(q):
    c, s = ad.cos(q), ad.sin(q)
    return [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]


_AXIS_ROT = {(0.0, 0.0, 1.0): grot_z, (0.0, 1.0, 0.0): grot_y,
             (1.0, 0.0, 0.0): grot_x}


def grot_axis(axis, q):
    """Rotation about a fixed unit axis, generic in the angle scalar."""
    key = (float(axis[0]), float(axis[1]), float(axis[2]))
    builder = _AXIS_ROT.get(key)
    if builder is not None:
        return builder(q)
    c, s = ad.cos(q), ad.sin(q)
    x, y, z = (float(axis[0]), float(axis[1]), float(axis[2]))
    v = 1.0 - c
    return [[c + x * x * v, x * y * v - z * s, x * z * v + y * s],
            [y * x * v + z * s, c + y * y * v, y * z * v - x * s],
            [z * x * v - y * s, z * y * v + x * s, c + z * z * v]]
