import contextlib

import numpy as np
import pytest

from bilock import configio as cio
from bilock import geometry as geo
from bilock import worldsim as ws
from bilock.autodiff import value_jacobian_hessian


@pytest.fixture(scope="session")
def models():
    """(BimanualModel, WorldConfig) from the packaged defaults."""
    return cio.load_models(cio.PipelineConfig())


@pytest.fixture(scope="session")
def model(models):
    return models[0]


@pytest.fixture(scope="session")
def world_cfg(models):
    return models[1]


@pytest.fixture(scope="session")
def clean_episode(model, world_cfg):
    return ws.generate_demonstration(model, world_cfg, (0.0, 0.6, 0.0), seed=7)


@pytest.fixture(scope="session")
def clean_set(model, world_cfg):
    """Small clean dataset for module-level checks."""
    eps = []
    for i in range(12):
        init = ws.sample_box_init(ws.TRAIN_DIST, ws.rng_from(5, i))
        eps.append(ws.generate_demonstration(model, world_cfg, init, seed=100 + i))
    return eps


# the one-line stderr message of a failed stage starts with its code's prefix
EXIT_PREFIXES = {2: "config error", 3: "data error", 4: "numerical failure"}


@contextlib.contextmanager
def raises_exactly(cls, match):
    """``pytest.raises(cls, match=match)`` that no subclass of cls satisfies:
    a failure raised as its base is told apart by its message alone."""
    with pytest.raises(cls, match=match) as info:
        yield info
    assert type(info.value) is cls, type(info.value)


def at_knot(f, q, fd_step=None):
    """(q, residual, Jacobian, Hessian) of the constraint f at the point q:
    the arguments of ``manifold.riemann_and_kretschmann`` before
    ``rank_tol``."""
    q = np.asarray(q, dtype=float)
    return (q, *value_jacobian_hessian(f, q, fd_step))


def random_joint_config(arm, rng, scale=1.0):
    lo = arm.joint_limits[:, 0] * scale
    hi = arm.joint_limits[:, 1] * scale
    return rng.uniform(lo, hi)


def random_q14(model, rng, scale=1.0):
    return np.concatenate([random_joint_config(model.left, rng, scale),
                           random_joint_config(model.right, rng, scale)])


def fk_oracle(arm, q):
    """Independent straight-line homogeneous-matrix chain: the 4x4 world
    transform of the flange."""
    t = np.eye(4)
    t[:3, :3] = arm.base_pose.rotation
    t[:3, 3] = arm.base_pose.translation
    for i in range(7):
        off = np.eye(4)
        off[:3, 3] = arm.joint_offsets[i].translation
        off[:3, :3] = arm.joint_offsets[i].rotation
        rot = np.eye(4)
        rot[:3, :3] = geo.so3_exp(arm.joint_axes[i] * q[i])
        t = t @ off @ rot
    off = np.eye(4)
    off[:3, 3] = arm.joint_offsets[7].translation
    t = t @ off
    return t
