import math

import numpy as np
import pytest

from bilock import bimanual as bm
from bilock import kinematics as kin
from bilock import manifold as mf
from bilock import worldsim as ws
from bilock.autodiff import (hessian_numeric, jacobian_numeric,
                             value_jacobian_hessian)
from bilock.errors import DataError, RankDeficient
from bilock.geometry import Pose

from conftest import at_knot, fk_oracle, raises_exactly, random_q14


def _poly_constraint(fn_scalars):
    """Constraint from scalar expressions generic over float/dual inputs."""
    def fn(q):
        vals = fn_scalars(q)
        if isinstance(q, np.ndarray) and q.dtype == object:
            return np.array(vals, dtype=object)
        return np.array(vals, dtype=float)
    return mf.ConstraintFunction(fn)


def frame_and_hessian(f, q):
    """The tangent/normal frame of the level set of f through q, and the
    Hessian of f there, from one dual pass."""
    q = np.asarray(q, dtype=float)
    _, jac, hess = value_jacobian_hessian(f, q)
    return mf._frame(q, jac, mf.RANK_TOL), hess


def sphere(r, n):
    def expr(q):
        s = q[0] * q[0]
        for i in range(1, n):
            s = s + q[i] * q[i]
        return [s - r * r]
    return _poly_constraint(expr)


def test_constraint_zero_at_anchor(model):
    """The anchor comes from the residual's own code, so the residual there
    is exactly zero, from the float path and from a jet pass alike."""
    rng = np.random.default_rng(50)
    for _ in range(5):
        q0 = random_q14(model, rng, scale=0.7)
        f = mf.make_constraint(model, q0)
        assert np.array_equal(f(q0), np.zeros(6))
        assert mf.riemann_and_kretschmann(
            *at_knot(f, q0)).residual_norm == 0.0


def test_constraint_matches_numpy_reference(model):
    """The residual agrees with a reference that shares no code with it:
    homogeneous-matrix FK for the relative transform, and the exp map
    (which no kinematics path calls) for the rotation block."""
    from bilock import geometry as geo

    def relative(q):
        t_left = fk_oracle(model.left, q[:7])
        t_right = fk_oracle(model.right, q[7:14])
        return np.linalg.inv(t_right) @ t_left

    rng = np.random.default_rng(57)
    for _ in range(20):
        q0 = random_q14(model, rng, scale=0.7)
        f = mf.make_constraint(model, q0)
        x0 = relative(q0)
        for q in (random_q14(model, rng, scale=0.7),
                  q0 + rng.normal(scale=0.05, size=14)):
            x = relative(q)
            e = f(q)
            assert np.abs(e[:3] - (x[:3, 3] - x0[:3, 3])).max() <= 1e-12
            assert np.abs(geo.so3_exp(e[3:])
                          - x0[:3, :3].T @ x[:3, :3]).max() <= 1e-12


def test_constraint_tracks_subordinate_translation(model, world_cfg):
    box = ws.box_pose_from_init(world_cfg, (0.0, 0.6, 0.0))
    gl, gr = ws.grasp_targets(world_cfg, box)
    q_l = kin.inverse_kinematics(model.left, gl, world_cfg.psi_left)
    q_r = kin.inverse_kinematics(model.right, gr, world_cfg.psi_right)
    q0 = np.concatenate([q_l, q_r])
    f = mf.make_constraint(model, q0)
    moved = Pose(gl.rotation, gl.translation + [0.001, 0.0, 0.0])
    q_l2 = kin.inverse_kinematics(model.left, moved, world_cfg.psi_left,
                                  enforce_limits=False)
    e = f(np.concatenate([q_l2, q_r]))
    assert abs(np.linalg.norm(e[:3]) - 0.001) <= 1e-9
    assert np.linalg.norm(e[3:]) <= 1e-9


def test_constraint_zero_along_locked_self_motion(model, world_cfg):
    """Changing the subordinate redundancy angle under the lock stays on
    the constraint manifold."""
    box = ws.box_pose_from_init(world_cfg, (0.0, 0.6, 0.0))
    gl, gr = ws.grasp_targets(world_cfg, box)
    q_l = kin.inverse_kinematics(model.left, gl, world_cfg.psi_left)
    q_r = kin.inverse_kinematics(model.right, gr, world_cfg.psi_right)
    q0 = np.concatenate([q_l, q_r])
    f = mf.make_constraint(model, q0)
    lock = bm.engage_lock(model, np.concatenate([q_l, q_r]))
    for psi in (-0.4, -0.1, 0.2, 0.5):
        q_new, held = bm.subordinate_command(model, lock, gr, psi, prev_sub=q_l)
        assert not held
        assert np.linalg.norm(f(np.concatenate([q_new, q_r]))) <= 1e-9


def test_frame_sphere_and_affine():
    f = sphere(1.0, 3)
    frame = mf.riemann_and_kretschmann(
        *at_knot(f, np.array([1.0, 0.0, 0.0]))).frame
    assert abs(abs(frame.normal_basis[0, 0]) - 1.0) <= 1e-12
    span = frame.tangent_basis
    assert np.abs(span[0]).max() <= 1e-12  # tangent lies in the e2/e3 plane

    a = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, -1.0]])

    def expr(q):
        return [a[0, 0] * q[0] + a[0, 1] * q[1] + a[0, 2] * q[2] - 1.0,
                a[1, 0] * q[0] + a[1, 1] * q[1] + a[1, 2] * q[2] + 0.5]
    f = _poly_constraint(expr)
    t1 = mf.riemann_and_kretschmann(
        *at_knot(f, np.zeros(3))).frame.tangent_basis
    t2 = mf.riemann_and_kretschmann(*at_knot(
        f, np.array([5.0, -2.0, 1.0]))).frame.tangent_basis
    # affine constraint: the tangent space is constant (basis up to sign)
    proj1 = t1 @ t1.T
    proj2 = t2 @ t2.T
    assert np.abs(proj1 - proj2).max() <= 1e-10


def test_frame_rank_deficient():
    def expr(q):
        return [q[0], q[0]]  # duplicated row: rank 1, not 2
    f = _poly_constraint(expr)
    with pytest.raises(RankDeficient):
        mf.riemann_and_kretschmann(*at_knot(f, np.zeros(3)))


def test_bimanual_frame_dimensions(model):
    rng = np.random.default_rng(51)
    q0 = random_q14(model, rng, scale=0.6)
    f = mf.make_constraint(model, q0)
    frame = mf.riemann_and_kretschmann(*at_knot(f, q0)).frame
    assert frame.tangent_basis.shape == (14, 8)
    assert frame.normal_basis.shape == (14, 6)
    assert np.abs(frame.jac @ frame.tangent_basis).max() <= 1e-8
    assert np.abs(frame.tangent_basis.T @ frame.tangent_basis
                  - np.eye(8)).max() <= 1e-10
    assert np.abs(frame.normal_basis.T @ frame.normal_basis
                  - np.eye(6)).max() <= 1e-10
    assert np.abs(frame.tangent_basis.T @ frame.normal_basis).max() <= 1e-10


def test_second_fundamental_form_oracles():
    # affine: trivially flat
    def expr(q):
        return [q[0] + 2.0 * q[1] - 1.0]
    f = _poly_constraint(expr)
    frame, hess = frame_and_hessian(f, np.array([1.0, 0.0, 0.0]))
    ii = mf.second_fundamental_form(frame, hess)
    assert np.abs(ii).max() <= 1e-12

    # unit sphere: II = -identity in the outward normal coordinate
    f = sphere(1.0, 3)
    q = np.array([1.0, 0.0, 0.0])
    frame, hess = frame_and_hessian(f, q)
    ii = mf.second_fundamental_form(frame, hess)
    sign = np.sign(frame.normal_basis[:, 0] @ q)
    assert np.abs(sign * ii[:, :, 0] + np.eye(2)).max() <= 1e-10

    # cylinder: principal curvatures -1/r and 0
    def cyl(q):
        return [q[0] * q[0] + q[1] * q[1] - 0.25]
    f = _poly_constraint(cyl)
    q = np.array([0.5, 0.0, 0.3])
    frame, hess = frame_and_hessian(f, q)
    ii = mf.second_fundamental_form(frame, hess)
    sign = np.sign(frame.normal_basis[:2, 0] @ q[:2])
    eigs = np.sort(np.linalg.eigvalsh(sign * ii[:, :, 0]))
    assert abs(eigs[0] + 2.0) <= 1e-10
    assert abs(eigs[1]) <= 1e-10


def test_kretschmann_oracles():
    for n in (3, 4, 6):
        m = n - 1
        for r in (0.25, 0.5, 1.0, 2.0):
            q = np.zeros(n)
            q[0] = r
            res = mf.riemann_and_kretschmann(*at_knot(sphere(r, n), q))
            want = 2.0 * m * (m - 1) / r ** 4
            assert abs(res.kretschmann - want) <= 1e-6 * want

    def cyl(q):
        return [q[0] * q[0] + q[1] * q[1] - 0.25]
    res = mf.riemann_and_kretschmann(*at_knot(_poly_constraint(cyl),
                                              np.array([0.5, 0.0, 0.3])))
    assert res.kretschmann <= 1e-10

    def parab(q):
        return [q[2] - q[0] * q[0] - q[1] * q[1]]
    res = mf.riemann_and_kretschmann(*at_knot(_poly_constraint(parab),
                                              np.zeros(3)))
    assert abs(res.kretschmann - 64.0) <= 1e-6 * 64.0


def test_sphere_family_scale_invariant():
    vals = []
    for r in (0.25, 0.5, 1.0, 2.0):
        q = np.zeros(3)
        q[0] = r
        vals.append(mf.riemann_and_kretschmann(
            *at_knot(sphere(r, 3), q)).kretschmann * r ** 4)
    vals = np.array(vals)
    assert np.abs(vals - vals[0]).max() <= 1e-8 * vals[0]


def test_riemann_symmetries_bimanual(model):
    rng = np.random.default_rng(52)
    for _ in range(5):
        q0 = random_q14(model, rng, scale=0.6)
        f = mf.make_constraint(model, q0)
        res = mf.riemann_and_kretschmann(*at_knot(f, q0))
        r = res.riemann
        scale = np.abs(r).max()
        assert np.abs(r + r.transpose(1, 0, 2, 3)).max() <= 1e-8 * scale
        assert np.abs(r + r.transpose(0, 1, 3, 2)).max() <= 1e-8 * scale
        assert np.abs(r - r.transpose(2, 3, 0, 1)).max() <= 1e-8 * scale
        bianchi = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
        assert np.abs(bianchi).max() <= 1e-8 * scale
        assert abs(res.kretschmann - np.sum(r * r)) <= 1e-10 * res.kretschmann


def test_kretschmann_basis_invariance(model):
    rng = np.random.default_rng(53)
    q0 = random_q14(model, rng, scale=0.6)
    f = mf.make_constraint(model, q0)
    frame, hess = frame_and_hessian(f, q0)
    ii = mf.second_fundamental_form(frame, hess)
    k0 = float(np.sum((np.einsum("ika,jla->ijkl", ii, ii)
                       - np.einsum("ila,jka->ijkl", ii, ii)) ** 2))
    rot, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    rotated = mf.ManifoldFrame(
        q=frame.q, jac=frame.jac, tangent_basis=frame.tangent_basis @ rot,
        normal_basis=frame.normal_basis, sigma_min=frame.sigma_min,
        cond_j=frame.cond_j)
    ii2 = mf.second_fundamental_form(rotated, hess)
    k1 = float(np.sum((np.einsum("ika,jla->ijkl", ii2, ii2)
                       - np.einsum("ila,jka->ijkl", ii2, ii2)) ** 2))
    assert abs(k1 - k0) <= 1e-9 * k0


def test_kretschmann_chart_invariance(model):
    """The left rotation-residual chart cuts out the same manifold, so the
    Kretschmann scalar on it must agree with the fixed-reference chart."""
    from bilock import geometry as geo

    rng = np.random.default_rng(56)
    q0 = random_q14(model, rng, scale=0.6)
    f_right = mf.make_constraint(model, q0)
    r0, p0 = bm.relative_generic(model, q0)

    def left_residual(q):
        rx, p = bm.relative_generic(model, q)
        w = geo.so3_log(geo.gmat_mul(rx, geo.gmat_transpose(r0)))
        return [p[0] - p0[0], p[1] - p0[1], p[2] - p0[2], w[0], w[1], w[2]]

    f_left = mf.ConstraintFunction(left_residual)
    k_right = mf.riemann_and_kretschmann(*at_knot(f_right, q0)).kretschmann
    k_left = mf.riemann_and_kretschmann(*at_knot(f_left, q0)).kretschmann
    assert abs(k_left - k_right) <= 1e-3 * k_right


def test_kretschmann_dual_vs_fd(model):
    rng = np.random.default_rng(54)
    q0 = random_q14(model, rng, scale=0.6)
    f = mf.make_constraint(model, q0)
    kd = mf.riemann_and_kretschmann(*at_knot(f, q0)).kretschmann
    kf = mf.riemann_and_kretschmann(
        *at_knot(f, q0, fd_step=1e-4)).kretschmann
    assert abs(kd - kf) <= 1e-4 * kd


def test_one_constraint_evaluation_per_knot(model, clean_episode):
    """Dual mode takes residual, Jacobian and Hessian from one pass per
    stack of ``KNOTS_PER_PASS`` knots."""
    f = mf.constraint_for_episode(model, clean_episode)
    calls = []

    def counted(q):
        calls.append(1)
        return f(q)

    records, gaps = mf.rollout_curvature_series(
        mf.ConstraintFunction(counted), clean_episode, knot_stride=5)
    knots = len(records) + len(gaps)
    assert len(calls) == math.ceil(knots / 8) and knots > 0


def test_fd_mode_stacks_each_kernel_into_one_evaluation(model, clean_episode):
    """fd mode calls f three times per knot: at the knot, then once per
    kernel on all of its probe points as the columns of one stack."""
    f = mf.constraint_for_episode(model, clean_episode)
    shapes = []

    def counted(q):
        shapes.append(np.shape(q))
        return f(q)

    records, gaps = mf.rollout_curvature_series(
        mf.ConstraintFunction(counted), clean_episode, fd_step=1e-5,
        knot_stride=5)
    knots = len(records) + len(gaps)
    assert knots > 0
    assert shapes == [(14,), (14, 28), (14, 420)] * knots


def _fd_per_probe(f, x, h):
    """Central differences with one evaluation of f per probe point."""
    n = x.shape[0]
    jac = np.array([(f(x + dx) - f(x - dx)) / (2.0 * h)
                    for dx in np.eye(n) * h]).T
    hess = np.zeros((jac.shape[0], n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            d = (f(x + ei + ej) - f(x + ei - ej)
                 - f(x - ei + ej) + f(x - ei - ej))
            d /= 4.0 * h * h
            hess[:, i, j] = d
            hess[:, j, i] = d
    return jac, hess


def test_stacked_fd_kernels_match_per_probe_differences(model):
    rng = np.random.default_rng(57)
    h = 1e-5
    for _ in range(5):
        q0 = random_q14(model, rng, scale=0.6)
        f = mf.make_constraint(model, q0)
        q = q0 + rng.normal(scale=0.05, size=14)
        jac, hess = _fd_per_probe(f, q, h)
        assert np.abs(jacobian_numeric(f, q, h) - jac).max() \
            <= 1e-12 * np.abs(jac).max()
        assert np.abs(hessian_numeric(f, q, h) - hess).max() \
            <= 1e-6 * np.abs(hess).max()


def test_rollout_series_clean(model, clean_episode):
    f = mf.constraint_for_episode(model, clean_episode)
    records, gaps = mf.rollout_curvature_series(f, clean_episode)
    assert len(records) + len(gaps) == len(clean_episode.transport_indices())
    assert all(r["residual"] <= 1e-9 for r in records)
    assert all(r["kretschmann"] >= 0.0 for r in records)


def test_rollout_series_constant_configuration(model, clean_episode):
    import copy
    ep = copy.deepcopy(clean_episode)
    tr = ep.transport_indices()
    ep.act[tr] = ep.act[tr[0]]
    f = mf.constraint_for_episode(model, ep)
    records, gaps = mf.rollout_curvature_series(f, ep)
    ks = [r["kretschmann"] for r in records]
    assert np.abs(np.diff(ks)).max() <= 1e-12 * max(ks)


def test_rollout_requires_transport(model, clean_episode):
    from bilock.episodes import Episode
    keep = [t for t, p in enumerate(clean_episode.phases) if p == "approach"]
    ep = Episode("m", 0.1, clean_episode.obs[keep], clean_episode.act[keep],
                 ["approach"] * len(keep), [False] * len(keep), [], {})
    f = mf.make_constraint(model, np.zeros(14) + 0.3)
    with raises_exactly(DataError, "no transport-phase knots"):
        mf.rollout_curvature_series(f, ep)

