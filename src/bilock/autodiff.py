"""Forward-mode automatic differentiation and numerical differentiation.

One scalar type implements forward mode: ``Dual2`` carries a value, the
gradient and the full (symmetric) Hessian of that value with respect to
the seeded inputs.  One evaluation of a function on ``Dual2`` seeds
therefore yields value, gradient and Hessian together
(``value_jacobian_hessian``).

Functions differentiated in dual mode must be written against the
dispatching helpers of this module (``sin``, ``cos``, ``sqrt``,
``atan2``, ``value``, ...) or the arithmetic operators, so the same code
runs on plain floats and on ``Dual2`` scalars.  Central finite
differences are provided as an independent cross-check and work with any
float-valued function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationFailure


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

    def __rtruediv__(self, other):
        return other * self._reciprocal()

    def _reciprocal(self):
        inv = 1.0 / self.val
        g = (-inv * inv) * self.grad
        outer = np.outer(self.grad, self.grad)
        h = (2.0 * inv ** 3) * outer - (inv * inv) * self.hess
        return Dual2(inv, g, h)

    def __neg__(self):
        return Dual2(-self.val, -self.grad, -self.hess)

    def __pow__(self, p):
        return self._chain(self.val ** p,
                           p * self.val ** (p - 1),
                           p * (p - 1) * self.val ** (p - 2))

    def __abs__(self):
        return self if self.val >= 0.0 else -self

    def __lt__(self, other):
        return self.val < value(other)

    def __le__(self, other):
        return self.val <= value(other)

    def __gt__(self, other):
        return self.val > value(other)

    def __ge__(self, other):
        return self.val >= value(other)

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


# --- dispatching scalar math (float / Dual2) ---

def sin(x):
    return x.sin() if isinstance(x, Dual2) else math.sin(x)


def cos(x):
    return x.cos() if isinstance(x, Dual2) else math.cos(x)


def sqrt(x):
    return x.sqrt() if isinstance(x, Dual2) else math.sqrt(x)


def atan2(y, x):
    if isinstance(y, Dual2) or isinstance(x, Dual2):
        return Dual2.atan2(y, x)
    return math.atan2(y, x)


def seed_duals2(x):
    """Second-order seeds for the entries of a point x in R^n."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.array([Dual2(x[i], eye[i], zero) for i in range(n)],
                    dtype=object)


# --- numerical differentiation front end ---

@dataclass(frozen=True)
class DiffConfig:
    """Derivative engine selection.

    mode: "dual" for forward-mode dual numbers (exact for polynomials),
          "fd" for central finite differences (independent oracle).
    fd_step: finite-difference step in the input units (radians for
             joint-space maps).
    """

    mode: str = "dual"
    fd_step: float = 1e-5

    def __post_init__(self):
        if self.mode not in ("dual", "fd"):
            raise ValueError(f"unknown differentiation mode {self.mode!r}")
        if self.fd_step <= 0.0:
            raise ValueError("fd_step must be positive")


def _call(f, x):
    try:
        return np.asarray(f(x), dtype=object if x.dtype == object else float)
    except (EvaluationFailure, KeyboardInterrupt):
        raise
    except Exception as exc:
        raise EvaluationFailure(f"function raised at probe point: {exc}") from exc


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


def _fd_jacobian(f, x, h):
    n = x.shape[0]
    cols = []
    for i in range(n):
        dx = np.zeros(n)
        dx[i] = h
        cols.append((_call(f, x + dx) - _call(f, x - dx)) / (2.0 * h))
    return np.array(cols, dtype=float).T


def _fd_hessian(f, x, h, m):
    n = x.shape[0]
    hess = np.zeros((m, n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            d = (_call(f, x + ei + ej) - _call(f, x + ei - ej)
                 - _call(f, x - ei + ej) + _call(f, x - ei - ej))
            d /= 4.0 * h * h
            hess[:, i, j] = d
            hess[:, j, i] = d
    return hess


def value_jacobian_hessian(f, x, cfg=DiffConfig()):
    """(f(x), m x n Jacobian, m x n x n Hessian) of f: R^n -> R^m at x.

    Dual mode evaluates f once on ``Dual2`` seeds; fd mode evaluates f at x
    and then takes the central differences of ``jacobian_numeric`` and
    ``hessian_numeric``.
    """
    x = np.asarray(x, dtype=float)
    if cfg.mode == "dual":
        return _dual_pass(f, x)
    y = _call(f, x)
    return (y, _fd_jacobian(f, x, cfg.fd_step),
            _fd_hessian(f, x, cfg.fd_step, y.shape[0]))


def jacobian_numeric(f, x, cfg=DiffConfig()):
    """m x n Jacobian of f: R^n -> R^m at x.

    In dual mode, f is evaluated once on seeded ``Dual2`` scalars and must
    be written against the dispatching math helpers of this module.  In fd
    mode, f is probed with plain float vectors.
    """
    x = np.asarray(x, dtype=float)
    if cfg.mode == "dual":
        return _dual_pass(f, x)[1]
    return _fd_jacobian(f, x, cfg.fd_step)


def hessian_numeric(f, x, cfg=DiffConfig()):
    """m x n x n Hessian tensor of f: R^n -> R^m at x.

    Each output slice is symmetrized; dual mode produces it in a single
    forward pass, fd mode uses the 4-point central second difference.
    """
    x = np.asarray(x, dtype=float)
    if cfg.mode == "dual":
        return _dual_pass(f, x)[2]
    return _fd_hessian(f, x, cfg.fd_step, _call(f, x).shape[0])
