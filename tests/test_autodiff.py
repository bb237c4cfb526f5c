import math
import warnings

import numpy as np

from bilock import autodiff as ad
from bilock import geometry as geo
from bilock import kinematics as kin
from bilock import manifold as mf
from bilock.autodiff import (hessian_numeric, jacobian_numeric,
                             value_jacobian_hessian)
from bilock.errors import NumericalFailure

from conftest import raises_exactly, random_joint_config, random_q14
from test_geometry import _log_of_zyz, _zyz, _zyz_turning_by

FD_STEP = 1e-5  # the pipeline config's default fd_step


def dual_jacobian(f, x):
    return value_jacobian_hessian(f, x)[1]


def dual_hessian(f, x):
    return value_jacobian_hessian(f, x)[2]


def test_jacobian_identity_map():
    f = lambda x: x
    x = np.array([0.3, -1.2, 4.0])
    for j in (dual_jacobian(f, x), jacobian_numeric(f, x, FD_STEP)):
        assert np.allclose(j, np.eye(3), atol=1e-10)


def test_jacobian_squared_norm():
    f = lambda x: np.array([x[0] * x[0] + x[1] * x[1]], dtype=object) \
        if x.dtype == object else np.array([x[0] ** 2 + x[1] ** 2])
    j = dual_jacobian(f, np.array([1.0, 2.0]))
    assert np.array_equal(j, np.array([[2.0, 4.0]]))  # dual mode is exact


def test_hessian_linear_and_quadratic():
    lin = lambda x: np.array([3.0 * x[0] - x[1]], dtype=object) \
        if x.dtype == object else np.array([3.0 * x[0] - x[1]])
    h = dual_hessian(lin, np.array([0.5, 0.5]))
    assert np.array_equal(h, np.zeros((1, 2, 2)))
    quad = lambda x: np.array([x[0] * x[0] + x[1] * x[1]], dtype=object) \
        if x.dtype == object else np.array([x[0] ** 2 + x[1] ** 2])
    h = dual_hessian(quad, np.array([1.0, 2.0]))
    assert np.array_equal(h[0], 2.0 * np.eye(2))


def test_dual_output_independent_of_input():
    f = lambda x: np.array([x[0], 7.0], dtype=object) \
        if x.dtype == object else np.array([x[0], 7.0])
    j = dual_jacobian(f, np.array([1.0, 2.0]))
    assert np.array_equal(j, np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_evaluation_failure_wrapped():
    def bad(x):
        raise RuntimeError("boom")
    with raises_exactly(NumericalFailure, "function raised at probe point"):
        value_jacobian_hessian(bad, np.zeros(2))
    with raises_exactly(NumericalFailure, "function raised at probe point"):
        hessian_numeric(bad, np.zeros(2), FD_STEP)


def test_fk_position_dual_vs_fd(model):
    """Cross-mode oracle on the forward-kinematics position map."""
    arm = model.left

    def pos_map(q):
        return kin.forward_kinematics_generic(arm, q)[1]

    rng = np.random.default_rng(10)
    for _ in range(10):
        q = random_joint_config(arm, rng, scale=0.9)
        jd = dual_jacobian(pos_map, q)
        jf = jacobian_numeric(pos_map, q, FD_STEP)
        scale = max(1.0, np.abs(jd).max())
        assert np.abs(jd - jf).max() / scale <= 1e-6


def test_hessian_symmetry_fd_mode(model):
    arm = model.left

    def pos_map(q):
        return kin.forward_kinematics_generic(arm, q)[1]

    rng = np.random.default_rng(11)
    q = random_joint_config(arm, rng, scale=0.8)
    for h in (dual_hessian(pos_map, q), hessian_numeric(pos_map, q, 1e-4)):
        assert np.abs(h - h.transpose(0, 2, 1)).max() <= 1e-8


def test_trig_chain_dual_matches_fd():
    def f(x):
        return [ad.sin(x[0]) * ad.cos(x[1]),
                ad.sqrt(1.0 + x[0] * x[0]),
                ad.atan2(x[1], x[0])]

    x0 = np.array([0.7, -0.3])
    jd = dual_jacobian(f, x0)
    jf = jacobian_numeric(f, x0, FD_STEP)
    assert np.abs(jd - jf).max() <= 1e-9
    hd = dual_hessian(f, x0)
    hf = hessian_numeric(f, x0, 1e-4)
    assert np.abs(hd - hf).max() <= 1e-6


def test_stacked_jets_match_single_points(model):
    """One jet pass over a (14, 8) stack gives each knot the value of its own
    pass bitwise, and its Jacobian and Hessian to 1e-12 of the largest
    entry; each Hessian agrees with central differences within criterion
    5's bound."""
    rng = np.random.default_rng(12)
    q0 = random_q14(model, rng, scale=0.6)
    f = mf.make_constraint(model, q0)
    qs = q0[:, None] + rng.normal(scale=0.05, size=(14, 8))
    qs[:, 0] = q0
    val, jac, hess = value_jacobian_hessian(f, qs)
    assert val.shape == (8, 6) and jac.shape == (8, 6, 14) \
        and hess.shape == (8, 6, 14, 14)
    assert np.array_equal(val[0], np.zeros(6))
    for k in range(8):
        v1, j1, h1 = value_jacobian_hessian(f, qs[:, k])
        assert np.array_equal(val[k], v1)
        assert np.abs(jac[k] - j1).max() <= 1e-12 * np.abs(j1).max()
        assert np.abs(hess[k] - h1).max() <= 1e-12 * np.abs(h1).max()
        hf = hessian_numeric(f, qs[:, k], 1e-4)
        assert np.abs(hess[k] - hf).max() <= 1e-5 * np.abs(hess[k]).max()


def _zyz_stack(thetas, b=0.4, s=0.3):
    """(3, K) ZYZ angles of rotations through each of the angles thetas."""
    return np.stack([_zyz_turning_by(th, b, s) for th in thetas], axis=1)


def test_stacked_log_takes_each_rows_branch():
    """Rows on both sides of the series cut-off and of the near-pi switch
    run their own branch: each row's value is bitwise that of its own jet
    pass, and the float log's up to the last bit (a jet divides as a times
    1/b, the float code as a/b)."""
    cuts = [geo._SMALL_ANGLE, geo._NEAR_PI]
    thetas = [c * (1.0 + side * 1e-4) for c in cuts for side in (-1.0, 1.0)]
    x = _zyz_stack(thetas + [1e-5, 0.7, 3.1])
    val, jac, _ = value_jacobian_hessian(_log_of_zyz, x)
    for k in range(x.shape[1]):
        v1, j1, _ = value_jacobian_hessian(_log_of_zyz, x[:, k])
        assert np.array_equal(val[k], v1)
        assert np.abs(val[k] - geo.so3_log(_zyz(x[:, k]))).max() <= 1e-15
        assert np.abs(jac[k] - j1).max() <= 1e-12 * np.abs(j1).max()


def test_stacked_log_raises_for_one_row_near_pi():
    x = _zyz_stack([0.3, math.pi - 5e-7, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with raises_exactly(NumericalFailure, "within 1e-6 of pi"):
            value_jacobian_hessian(_log_of_zyz, x)
