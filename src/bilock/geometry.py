"""Rigid-body math: poses, SO(3) exp/log maps, geodesic distance, pose errors.

A rotation is a 3x3 orthonormal matrix because the curvature pipeline
consumes matrix derivatives.  ``Pose`` holds a read-only float rotation
array and translation; ``pose_error`` is the one translation-distance /
geodesic-angle pair every pose comparison uses.  The ``g*`` helpers do
3x3 math on nested lists whose entries may be floats, (N,) float columns
or the jets of :mod:`bilock.autodiff`; the kinematic chain is built from
them.  ``so3_log`` is generic in the same way, so the pose interpolation
of the world scripts and the differentiable constraint residual share one
SO(3) log.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import NumericalFailure

# Below this angle the log/exp maps switch to series expansions.
_SMALL_ANGLE = 1.4e-2
# Above this angle the log map switches to the symmetric-part extraction
# that stays accurate up to the pi boundary.
_NEAR_PI = 3.0
_PI_MARGIN = 1e-6
_SERIES, _SKEW = 3, 4  # so3_log's other branches; 0-2 are near pi
_STACKS = (np.ndarray, ad.Jet)  # so3_log entries that hold one row per point


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
        raise NumericalFailure("rotation vector is not finite (or overflows)")
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

    r is a 3x3 array or nested list of floats, or of (N,) float columns and
    floats, which gives a (3, N) array, or of jets of N rows (and floats),
    which gives an object array of three jets.  The branches switch on the
    primal angle only, so the map is dual-differentiable everywhere below
    pi - 1e-6; the series branch keeps it smooth through the identity,
    where the constraint residual lives.  Raises NumericalFailure beyond,
    where the axis sign becomes ill-defined.
    """
    a = [(r[2][1] - r[1][2]) * 0.5,  # sin(theta) * axis
         (r[0][2] - r[2][0]) * 0.5,
         (r[1][0] - r[0][1]) * 0.5]
    c = (r[0][0] + r[1][1] + r[2][2] - 1.0) * 0.5
    s2 = a[0] * a[0] + a[1] * a[1] + a[2] * a[2]
    if isinstance(c, _STACKS) or isinstance(s2, _STACKS):
        return _so3_log_rows(r, a, c, s2)
    th = math.atan2(math.sqrt(s2), c)
    if th > math.pi - _PI_MARGIN:
        raise NumericalFailure(f"rotation angle {th:.9f} within 1e-6 of pi")
    branch = (_SERIES if th < _SMALL_ANGLE else _SKEW if th < _NEAR_PI
              else max(range(3), key=lambda i: r[i][i]))
    return np.array(_log_branch(r, a, c, s2, branch))


def _so3_log_rows(r, a, c, s2):
    """``so3_log`` of (N,) columns or N-row jets, each row on the branch of
    its primal angle; a branch that not all rows take runs on its rows."""
    if not isinstance(c, ad.Jet):  # give float entries the column shape
        c, s2, *v = np.broadcast_arrays(c, s2, *a,
                                        *[e for row in r for e in row])
        a, r = v[:3], [v[3:6], v[6:9], v[9:12]]
    pc, ps2, *diag = np.broadcast_arrays(*[np.ravel(ad.value(x)) for x in (
        c, s2, r[0][0], r[1][1], r[2][2])])
    th = ad.atan2(np.sqrt(ps2), pc)
    near = th > math.pi - _PI_MARGIN
    if near.any():
        raise NumericalFailure(
            f"rotation angle {th[near][0]:.9f} within 1e-6 of pi")
    branch = np.select([th < _SMALL_ANGLE, th < _NEAR_PI], [_SERIES, _SKEW],
                       np.argmax(diag, axis=0))
    kinds = set(branch.tolist())  # not np.unique: it imports numpy.ma
    if len(kinds) == 1:
        return np.array(_log_branch(r, a, c, s2, kinds.pop()))
    out = [-c for _ in range(3)]  # new rows of c's kind, overwritten below
    for b in kinds:
        rows = np.flatnonzero(branch == b)
        cb, s2b, *v = [x[rows] if isinstance(x, _STACKS) else x
                       for x in (c, s2, *a, *r[0], *r[1], *r[2])]
        part = _log_branch([v[3:6], v[6:9], v[9:12]], v[:3], cb, s2b, b)
        for o, p in zip(out, part):
            o[rows] = p
    return np.array(out)


def _log_branch(r, a, c, s2, k):
    """The log by branch k, on scalars, or on columns or jets whose rows
    all take it."""
    if k == _SERIES:
        u = 1.0 - c
        # theta/sin(theta) as a series in (1 - cos theta)
        g = 1.0 + u * (1.0 / 3.0) + u * u * (2.0 / 15.0) + u * u * u * (2.0 / 35.0)
        return [g * a[0], g * a[1], g * a[2]]
    s = ad.sqrt(s2)
    th = ad.atan2(s, c)
    if k == _SKEW:
        g = th / s
        return [g * a[0], g * a[1], g * a[2]]
    # Near pi the skew part loses precision; recover the axis from the
    # symmetric part B = (R + R^T)/2 - c*I = (1-c) * axis axis^T, whose
    # column k of largest diagonal entry is parallel to the axis.
    col = [(r[i][k] + r[k][i]) * 0.5 for i in range(3)]
    col[k] = col[k] - c
    n = ad.sqrt(col[0] * col[0] + col[1] * col[1] + col[2] * col[2])
    dot = ad.value(col[0] * a[0] + col[1] * a[1] + col[2] * a[2])
    n = n * np.where(dot < 0.0, -1.0, 1.0)  # a = sin(theta)*axis fixes the sign
    g = th / n
    return [g * col[0], g * col[1], g * col[2]]


def rotation_angle(r):
    """Angle in [0, pi] of a rotation matrix, accurate at both ends."""
    r = np.asarray(r, dtype=float)
    a = vee(r)
    c = 0.5 * (r[0, 0] + r[1, 1] + r[2, 2] - 1.0)
    return math.atan2(math.sqrt(float(a @ a)), c)


def random_rotation(rng):
    """Uniform random rotation matrix (quaternion method)."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def geodesic_distance(r1, r2):
    """SO(3) geodesic distance: the rotation angle of r1^T r2, in [0, pi]."""
    return rotation_angle(np.asarray(r1, dtype=float).T
                          @ np.asarray(r2, dtype=float))


class Pose:
    """Rigid transform: a read-only 3x3 rotation matrix and a read-only
    translation in meters."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation, translation):
        rotation = np.array(rotation, dtype=float).reshape(3, 3)
        translation = np.array(translation, dtype=float).reshape(3)
        rotation.setflags(write=False)
        translation.setflags(write=False)
        self.rotation = rotation
        self.translation = translation

    def __matmul__(self, other):
        if isinstance(other, Pose):
            return Pose(self.rotation @ other.rotation,
                        self.rotation @ other.translation + self.translation)
        return self.rotation @ np.asarray(other, dtype=float) + self.translation

    def inverse(self):
        rinv = self.rotation.T.copy()
        return Pose(rinv, -(rinv @ self.translation))

    def __repr__(self):
        return (f"Pose(R={self.rotation.tolist()}, "
                f"t={self.translation.tolist()})")


def pose_error(a, b):
    """(translation distance, geodesic angle) between two poses."""
    return (float(np.linalg.norm(a.translation - b.translation)),
            geodesic_distance(a.rotation, b.rotation))


# --- scalar-generic 3x3 math on nested lists (floats, columns or jets) ---

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
