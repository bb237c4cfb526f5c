"""Forward-mode automatic differentiation and numerical differentiation.

One scalar type implements forward mode: ``Dual2`` carries a value, the
gradient and the full (symmetric) Hessian of that value with respect to
the seeded inputs.  One evaluation of a function on ``Dual2`` seeds
therefore yields value, gradient and Hessian together
(``value_jacobian_hessian``).

Functions differentiated in dual mode must be written against the
dispatching helpers of this module (``sin``, ``cos``, ``sqrt``,
``atan2``, ``value``, ...) or the arithmetic operators, so the same code
runs on plain floats, ``Dual2`` scalars and (N,) float columns.  Given a
step, ``value_jacobian_hessian`` takes central differences instead, the
independent check of the dual pass: ``jacobian_numeric`` and
``hessian_numeric`` each call f once, on all their probe points stacked.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BilockError, NumericalFailure


class Dual2:
    """Scalar with gradient and full Hessian payloads."""

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val = val
        self.grad = grad
        self.hess = hess

    def __add__(self, other):
        if isinstance(other, Dual2):
            return Dual2(self.val + other.val, self.grad + other.grad,
                         self.hess + other.hess)
        return Dual2(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual2):
            return Dual2(self.val - other.val, self.grad - other.grad,
                         self.hess - other.hess)
        return Dual2(self.val - other, self.grad, self.hess)

    def __rsub__(self, other):
        return Dual2(other - self.val, -self.grad, -self.hess)

    def __mul__(self, other):
        if isinstance(other, Dual2):
            cross = np.outer(self.grad, other.grad)
            return Dual2(self.val * other.val,
                         self.val * other.grad + other.val * self.grad,
                         self.val * other.hess + other.val * self.hess
                         + cross + cross.T)
        return Dual2(self.val * other, other * self.grad, other * self.hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual2):
            return self * other._reciprocal()
        inv = 1.0 / other
        return Dual2(self.val * inv, self.grad * inv, self.hess * inv)

    def _reciprocal(self):
        inv = 1.0 / self.val
        g = (-inv * inv) * self.grad
        outer = np.outer(self.grad, self.grad)
        h = (2.0 * inv ** 3) * outer - (inv * inv) * self.hess
        return Dual2(inv, g, h)

    def __neg__(self):
        return Dual2(-self.val, -self.grad, -self.hess)

    def _chain(self, f, df, d2f):
        """Unary chain rule: f(self) given f, f', f'' at the primal."""
        return Dual2(f, df * self.grad,
                     df * self.hess + d2f * np.outer(self.grad, self.grad))

    def sin(self):
        s, c = math.sin(self.val), math.cos(self.val)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = math.sin(self.val), math.cos(self.val)
        return self._chain(c, -s, -c)

    def sqrt(self):
        r = math.sqrt(self.val)
        return self._chain(r, 0.5 / r, -0.25 / (r * self.val))

    @staticmethod
    def atan2(y, x):
        yv, xv = value(y), value(x)
        r2 = xv * xv + yv * yv
        fy, fx = xv / r2, -yv / r2
        fyy = -2.0 * xv * yv / r2 ** 2
        fxx = 2.0 * xv * yv / r2 ** 2
        fxy = (yv * yv - xv * xv) / r2 ** 2
        n = (y.grad if isinstance(y, Dual2) else x.grad).shape[0]
        gy = y.grad if isinstance(y, Dual2) else np.zeros(n)
        gx = x.grad if isinstance(x, Dual2) else np.zeros(n)
        hy = y.hess if isinstance(y, Dual2) else np.zeros((n, n))
        hx = x.hess if isinstance(x, Dual2) else np.zeros((n, n))
        cross = np.outer(gy, gx)
        hess = (fy * hy + fx * hx + fyy * np.outer(gy, gy)
                + fxx * np.outer(gx, gx) + fxy * (cross + cross.T))
        return Dual2(math.atan2(yv, xv), fy * gy + fx * gx, hess)

    def __repr__(self):
        return f"Dual2({self.val!r})"


def value(x):
    """Primal value of a float or ``Dual2`` scalar."""
    return x.val if isinstance(x, Dual2) else x


# --- dispatching math: floats to math, Dual2 to itself, arrays to numpy ---

def sin(x):
    return (math.sin(x) if isinstance(x, float) else
            x.sin() if isinstance(x, Dual2) else np.sin(x))


def cos(x):
    return (math.cos(x) if isinstance(x, float) else
            x.cos() if isinstance(x, Dual2) else np.cos(x))


def sqrt(x):
    return (math.sqrt(x) if isinstance(x, float) else
            x.sqrt() if isinstance(x, Dual2) else np.sqrt(x))


def atan2(y, x):
    if isinstance(y, Dual2) or isinstance(x, Dual2):
        return Dual2.atan2(y, x)
    if isinstance(y, np.ndarray) or isinstance(x, np.ndarray):
        # math.atan2 per element: np.arctan2 may differ in the last bit
        return np.frompyfunc(math.atan2, 2, 1)(y, x).astype(float)
    return math.atan2(y, x)


def seed_duals2(x):
    """Second-order seeds for the entries of a point x in R^n."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.array([Dual2(x[i], eye[i], zero) for i in range(n)],
                    dtype=object)


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


def _dual_pass(f, x):
    """(value, Jacobian, symmetrized Hessian) from one ``Dual2`` evaluation."""
    n = x.shape[0]
    y = _call(f, seed_duals2(x))
    val = np.array([value(yi) for yi in y], dtype=float)
    jac = np.zeros((y.shape[0], n))
    hess = np.zeros((y.shape[0], n, n))
    for k, yi in enumerate(y):
        if isinstance(yi, Dual2):
            jac[k] = yi.grad
            hess[k] = 0.5 * (yi.hess + yi.hess.T)
    return val, jac, hess


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

    With ``fd_step`` None, f is evaluated once on ``Dual2`` seeds.  With a
    step (in the input units: radians for joint-space maps), f is evaluated
    at x and the central differences of ``jacobian_numeric`` and
    ``hessian_numeric`` give the derivatives.
    """
    x = np.asarray(x, dtype=float)
    if fd_step is None:
        return _dual_pass(f, x)
    return (_call(f, x), jacobian_numeric(f, x, fd_step),
            hessian_numeric(f, x, fd_step))
