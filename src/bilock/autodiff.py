"""Forward-mode automatic differentiation and numerical differentiation.

A ``Jet`` holds K points' values and their first and second derivatives
along P directions each.  Seeded along e_i and e_i + e_j (i < j), one
evaluation of f on jets gives the value, Jacobian and Hessian at all K
points (``value_jacobian_hessian``), with
H_ij = (d2(e_i + e_j) - H_ii - H_jj) / 2 (Griewank, Utke & Walther,
Math. Comp. 2000).  Functions differentiated in dual mode are written
against the operators and the dispatching helpers of this module (``sin``,
``cos``, ``sqrt``, ``atan2``, ``value``), so the same code runs on floats,
jets and (N,) float columns.  A jet's values are bitwise the float code's,
except that a jet divides as a * (1 / b).  Given a step,
``value_jacobian_hessian`` takes central differences instead, the
independent check of the dual pass: ``jacobian_numeric`` and
``hessian_numeric`` each call f once, on all their probe points stacked.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BilockError, NumericalFailure


class Jet:
    """Value (K, 1) and first and second derivatives (K, P) of K points
    along P directions each."""

    __slots__ = ("val", "d1", "d2")
    __array_ufunc__ = None  # numpy scalars and arrays defer to the operators

    def __init__(self, val, d1, d2):
        self.val = val
        self.d1 = d1
        self.d2 = d2

    def __getitem__(self, rows):
        return Jet(self.val[rows], self.d1[rows], self.d2[rows])

    def __setitem__(self, rows, other):
        self.val[rows] = value(other)
        self.d1[rows] = other.d1 if isinstance(other, Jet) else 0.0
        self.d2[rows] = other.d2 if isinstance(other, Jet) else 0.0

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.d1 + other.d1,
                       self.d2 + other.d2)
        return Jet(self.val + other, self.d1, self.d2)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, self.d1 - other.d1,
                       self.d2 - other.d2)
        return Jet(self.val - other, self.d1, self.d2)

    def __rsub__(self, other):
        return Jet(other - self.val, -self.d1, -self.d2)

    def __mul__(self, other):
        if isinstance(other, Jet):
            d2 = self.d1 * other.d1
            d2 += d2
            d2 += self.val * other.d2
            d2 += other.val * self.d2
            d1 = self.val * other.d1
            d1 += other.val * self.d1
            return Jet(self.val * other.val, d1, d2)
        if isinstance(other, float) and other in (0.0, 1.0):
            # the constant entries of grot_z/grot_y: x * 0.0 is a constant
            return (self.val * other if other == 0.0 else
                    Jet(self.val * other, self.d1, self.d2))
        return Jet(self.val * other, other * self.d1, other * self.d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            inv = 1.0 / other.val
            return self * other._chain(inv, -inv * inv, 2.0 * inv ** 3)
        inv = 1.0 / other
        return Jet(self.val * inv, self.d1 * inv, self.d2 * inv)

    def __neg__(self):
        return Jet(-self.val, -self.d1, -self.d2)

    def _chain(self, f, df, d2f):
        """Unary chain rule: f(self) given f, f', f'' at the values."""
        d2 = d2f * self.d1
        d2 *= self.d1
        d2 += df * self.d2
        return Jet(f, df * self.d1, d2)

    def sin(self):
        s, c = np.sin(self.val), np.cos(self.val)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = np.sin(self.val), np.cos(self.val)
        return self._chain(c, -s, -c)

    def sqrt(self):
        r = np.sqrt(self.val)
        return self._chain(r, 0.5 / r, -0.25 / (r * self.val))

    @staticmethod
    def atan2(y, x):
        yv, xv = value(y), value(x)
        r2 = xv * xv + yv * yv
        fy, fx = xv / r2, -yv / r2
        fyy = -2.0 * xv * yv / r2 ** 2
        fxy = (yv * yv - xv * xv) / r2 ** 2
        gy, hy = (y.d1, y.d2) if isinstance(y, Jet) else (0.0, 0.0)
        gx, hx = (x.d1, x.d2) if isinstance(x, Jet) else (0.0, 0.0)
        d2 = (fy * hy + fx * hx + fyy * (gy * gy - gx * gx)
              + 2.0 * fxy * gy * gx)
        return Jet(atan2(yv, xv), fy * gy + fx * gx, d2)


def value(x):
    """Values of a jet; a float or float column is its own value."""
    return x.val if isinstance(x, Jet) else x


# --- dispatching math: floats to math, jets to themselves, arrays to numpy ---

def sin(x):
    return (math.sin(x) if isinstance(x, float) else
            x.sin() if isinstance(x, Jet) else np.sin(x))


def cos(x):
    return (math.cos(x) if isinstance(x, float) else
            x.cos() if isinstance(x, Jet) else np.cos(x))


def sqrt(x):
    return (math.sqrt(x) if isinstance(x, float) else
            x.sqrt() if isinstance(x, Jet) else np.sqrt(x))


def atan2(y, x):
    if isinstance(y, Jet) or isinstance(x, Jet):
        return Jet.atan2(y, x)
    if isinstance(y, np.ndarray) or isinstance(x, np.ndarray):
        # math.atan2 per element: np.arctan2 may differ in the last bit
        return np.frompyfunc(math.atan2, 2, 1)(y, x).astype(float)
    return math.atan2(y, x)


# --- the derivative front end ---

def _call(f, x):
    """f(x) as an array; a library error or RuntimeWarning passes unchanged,
    any other exception becomes a ``NumericalFailure``."""
    try:
        return np.asarray(f(x), dtype=object if x.dtype == object else float)
    except (BilockError, RuntimeWarning):
        raise
    except Exception as exc:
        raise NumericalFailure(f"function raised at probe point: {exc}") from exc


def _jet_pass(f, x):
    """(values (K, m), Jacobians (K, m, n), Hessians (K, m, n, n)) at the K
    columns of the (n, K) array x, from one evaluation of f on n jets."""
    n, k = x.shape
    i, j = np.triu_indices(n, 1)
    eye = np.eye(n)
    dirs = np.concatenate([eye, eye[:, i] + eye[:, j]], axis=1)  # (n, P)
    zero = np.zeros((k, dirs.shape[1]))
    seeds = np.empty(n, dtype=object)
    for a in range(n):
        seeds[a] = Jet(x[a][:, None], np.tile(dirs[a], (k, 1)), zero)
    y = _call(f, seeds)
    val = np.stack([np.broadcast_to(value(yi), (k, 1))[:, 0] for yi in y],
                   axis=1)
    d1, d2 = (np.stack([getattr(yi, part) if isinstance(yi, Jet) else zero
                        for yi in y], axis=1) for part in ("d1", "d2"))
    hess = np.empty((k, y.shape[0], n, n))
    diag = d2[..., :n]
    hess[..., range(n), range(n)] = diag
    hess[..., i, j] = hess[..., j, i] = (d2[..., n:] - diag[..., i]
                                         - diag[..., j]) / 2.0
    return val, d1[..., :n], hess


def jacobian_numeric(f, x, h):
    """m x n Jacobian of f: R^n -> R^m at the float point x, by central
    differences of step h: one evaluation of f on the 2n probe points
    x + h e_i, x - h e_i stacked as the columns of an (n, 2n) array."""
    n = x.shape[0]
    d = np.eye(n) * h
    y = _call(f, np.concatenate([x[:, None] + d, x[:, None] - d], axis=1))
    return (y[:, :n] - y[:, n:]) / (2.0 * h)


def hessian_numeric(f, x, h):
    """m x n x n Hessian of f: R^n -> R^m at the float point x, by the
    4-point central second difference of step h: for each i <= j the probe
    points (x +- h e_i) +- h e_j, all 2n(n + 1) of them stacked as the
    columns of one array and passed to f in one evaluation."""
    n = x.shape[0]
    i, j = np.triu_indices(n)
    e = np.eye(n) * h
    xp, xm, ej = x[:, None] + e[:, i], x[:, None] - e[:, i], e[:, j]
    y = _call(f, np.concatenate([xp + ej, xp - ej, xm + ej, xm - ej], axis=1))
    f1, f2, f3, f4 = np.split(y, 4, axis=1)
    d = f1 - f2 - f3 + f4
    d /= 4.0 * h * h
    hess = np.zeros((y.shape[0], n, n))
    hess[:, i, j] = hess[:, j, i] = d
    return hess


def value_jacobian_hessian(f, x, fd_step=None):
    """(f(x), m x n Jacobian, m x n x n Hessian) of f: R^n -> R^m at x.

    x is one point (n,), or K points as the columns of an (n, K) array, for
    which the results are stacked: (K, m), (K, m, n) and (K, m, n, n).  With
    ``fd_step`` None, f is evaluated once on jets of all K points.  With a
    step (in the input units: radians for joint-space maps), each point in
    turn is passed to f, ``jacobian_numeric`` and ``hessian_numeric``.
    """
    x = np.asarray(x, dtype=float)
    cols = x.reshape(x.shape[0], -1)
    if fd_step is None:
        out = _jet_pass(f, cols)
    else:
        out = [np.array(part) for part in zip(*[
            (_call(f, xk), jacobian_numeric(f, xk, fd_step),
             hessian_numeric(f, xk, fd_step)) for xk in cols.T])]
    return tuple(part[0] for part in out) if x.ndim == 1 else tuple(out)
