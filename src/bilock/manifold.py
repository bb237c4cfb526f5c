"""Curvature of the constraint manifold via the Gauss equation.

The constraint map sends a 14-D joint configuration to a 6-D residual of
the relative gripper transform against a reference snapshot; its zero set
is the 8-D constraint manifold.  At a query point the Jacobian's null
space gives an orthonormal tangent basis, the second fundamental form is
solved from the Jacobian and Hessian, and the Riemann tensor follows from
the Gauss equation in the flat ambient joint metric.  The squared
Frobenius norm of the tensor (the Kretschmann scalar) is the headline
statistic because it cannot cancel.

At points off the manifold the same formulas evaluate the curvature of
the level set through the query point, with the residual norm recorded
alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bimanual as bm
from . import geometry as geo
from .autodiff import DiffConfig, jacobian_numeric, value_jacobian_hessian
from .errors import NoTransportPhase, RankDeficient

RANK_TOL = 1e-8


class ConstraintFunction:
    """Vector constraint map with a scalar-generic evaluation path.

    The wrapped function must accept a 1-D array of plain floats or of
    ``Dual2`` scalars and return a sequence of scalars of matching kind;
    that single entry point feeds both derivative engines.
    """

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, q):
        return np.asarray(self._fn(np.asarray(q)))

    def residual_norm(self, q):
        return float(np.linalg.norm(self(np.asarray(q, dtype=float))))


def make_constraint(model, q0):
    """Residual of the relative gripper transform against its value at q0.

    First three components: relative translation offset (meters); last
    three: rotation vector of the relative-rotation discrepancy (radians).
    The anchor is computed by the same code as the residual, so the
    residual is exactly 0.0 at q0 (as a float and as a ``Dual2`` value) and
    zero wherever the locked transform is preserved.
    """
    r0, p0 = bm.relative_generic(model, np.asarray(q0, dtype=float).reshape(14))
    r0_t = geo.gmat_transpose(r0)

    def fn(q):
        rx, p = bm.relative_generic(model, q)
        w = geo.so3_log(geo.gmat_mul(r0_t, rx))
        return [p[0] - p0[0], p[1] - p0[1], p[2] - p0[2], w[0], w[1], w[2]]

    return ConstraintFunction(fn)


def constraint_for_episode(model, episode):
    """Constraint anchored at the first transport knot's commanded
    configuration (the configuration holding the box when carrying starts)."""
    transport = episode.transport_indices()
    if not transport:
        raise NoTransportPhase("episode has no transport phase to anchor on")
    return make_constraint(model, episode.steps[transport[0]].act[:14])


@dataclass
class ManifoldFrame:
    """Orthonormal tangent/normal split of the ambient space at q."""

    q: np.ndarray
    jac: np.ndarray
    tangent_basis: np.ndarray
    normal_basis: np.ndarray
    sigma_min: float
    cond_j: float


def _frame(q, jac, rank_tol):
    """Tangent/normal split from a rank-revealing SVD of the Jacobian."""
    m = jac.shape[0]
    _, s, vt = np.linalg.svd(jac, full_matrices=True)
    if s[m - 1] <= rank_tol:
        raise RankDeficient("constraint Jacobian rank deficient", float(s[m - 1]))
    return ManifoldFrame(q=q, jac=jac, tangent_basis=vt[m:].T,
                         normal_basis=vt[:m].T, sigma_min=float(s[m - 1]),
                         cond_j=float(s[0] / s[m - 1]))


def frame_at(f, q, cfg=DiffConfig(), rank_tol=RANK_TOL):
    """Tangent/normal bases of the level set of f through q."""
    q = np.asarray(q, dtype=float)
    return _frame(q, jacobian_numeric(f, q, cfg), rank_tol)


def second_fundamental_form(frame, hess):
    """II in normal-basis coordinates: (dim_t, dim_t, m).

    For tangent directions u_i, u_j the normal coordinates n solve
    (J N) n = -(u_i^T H u_j) per constraint output; symmetric in (i, j).
    """
    t = frame.tangent_basis
    n = frame.normal_basis
    v = np.einsum("aij,ip,jq->pqa", hess, t, t)
    jn = frame.jac @ n
    m = jn.shape[0]
    dim_t = t.shape[1]
    sol = np.linalg.solve(jn, -v.reshape(-1, m).T)
    ii = sol.T.reshape(dim_t, dim_t, m)
    return 0.5 * (ii + ii.transpose(1, 0, 2))


@dataclass
class CurvatureResult:
    kretschmann: float
    riemann: np.ndarray
    residual_norm: float
    frame: ManifoldFrame


def riemann_and_kretschmann(f, q, cfg=DiffConfig(), rank_tol=RANK_TOL):
    """Riemann tensor (orthonormal tangent basis) and Kretschmann scalar.

    Gauss equation in the flat ambient metric:
    R_ijkl = <II_ik, II_jl> - <II_il, II_jk>.  Off the manifold the level
    set through q is measured and the residual norm reported.  Residual,
    Jacobian and Hessian come from one derivative call: a single ``Dual2``
    evaluation of f in dual mode.
    """
    q = np.asarray(q, dtype=float)
    val, jac, hess = value_jacobian_hessian(f, q, cfg)
    frame = _frame(q, jac, rank_tol)
    ii = second_fundamental_form(frame, hess)
    riemann = (np.einsum("ika,jla->ijkl", ii, ii)
               - np.einsum("ila,jka->ijkl", ii, ii))
    return CurvatureResult(kretschmann=float(np.sum(riemann * riemann)),
                           riemann=riemann,
                           residual_norm=float(np.linalg.norm(val)),
                           frame=frame)


def rollout_curvature_series(f, episode, cfg=DiffConfig(), rank_tol=RANK_TOL,
                             knot_stride=1):
    """Per-transport-knot curvature record list plus rank-deficient gaps.

    Returns (records, gaps): records are dicts {t, kretschmann, residual,
    cond_j}; gaps lists the knot times skipped as rank deficient.
    """
    transport = episode.transport_indices()
    if not transport:
        raise NoTransportPhase("episode has no transport-phase knots")
    records = []
    gaps = []
    for idx in transport[::knot_stride]:
        t = episode.steps[idx].t
        q = episode.steps[idx].act[:14]
        try:
            res = riemann_and_kretschmann(f, q, cfg, rank_tol)
        except RankDeficient as exc:
            gaps.append({"t": t, "sigma_min": exc.sigma_min})
            continue
        records.append({"t": t, "kretschmann": res.kretschmann,
                        "residual": res.residual_norm,
                        "cond_j": res.frame.cond_j})
    return records, gaps

