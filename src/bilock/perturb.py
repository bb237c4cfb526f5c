"""Mean-reverting (OU) perturbation of subordinate end-effector commands.

A single 6-D OU process drives the perturbation: translation coordinates
in meters, rotation coordinates in radians, Euler-Maruyama discretized.
The state at each transport knot is applied to the subordinate arm's
commanded flange pose in its local gripper frame and mapped back to joint
commands by IK at the episode's redundancy angle and branch, so the
temporal correlation of the violations matches the driving process
exactly.

Rotation coordinates carry ``ROT_SCALE`` times the translation
volatility.  The scale is the 0.71 deg/cm orientation-to-position error
ratio of the target violation tables, converted to rad/m; with equal
volatilities the ratio would come out at 0.573 deg/cm instead.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import kinematics as kin
from .errors import BilockError, EmptyDataset, IkFailureDuringPerturb
from .geometry import Pose, so3_exp
from .metrics import violation_profile, violation_table
from .seeding import rng_from

# rad/m of rotation volatility per translation volatility: 0.71 deg/cm
ROT_SCALE = 0.71 * math.pi / 1.8

LEVEL_ETAS = (0.0, 0.001, 0.0025, 0.005)


@dataclass(frozen=True)
class PerturbationLevel:
    """Named volatility levels of the degradation study."""

    level: int
    eta: float = None

    def __post_init__(self):
        if self.level not in (0, 1, 2, 3):
            raise ValueError("perturbation level must be 0..3")
        expected = LEVEL_ETAS[self.level]
        if self.eta is None:
            object.__setattr__(self, "eta", expected)
        elif self.eta != expected:
            raise ValueError(
                f"level {self.level} is defined as eta={expected}, got {self.eta}")


@dataclass(frozen=True)
class OuParams:
    """dZ = -alpha Z dt + eta dW, discretized per control step."""

    eta: float
    alpha: float = 0.01
    dt: float = 1.0
    z0: np.ndarray = field(default_factory=lambda: np.zeros(6))
    rot_scale: float = ROT_SCALE

    def __post_init__(self):
        object.__setattr__(self, "z0", np.asarray(self.z0, dtype=float).reshape(6))
        if self.alpha < 0.0 or self.eta < 0.0 or self.dt <= 0.0:
            raise ValueError("require alpha >= 0, eta >= 0, dt > 0")
        if self.alpha * self.dt >= 1.0:
            raise ValueError("alpha*dt must be below 1 for a stable step")


def ou_path(params, n_steps, seed):
    """(n_steps, 6) OU sample path starting at z0; deterministic per seed.

    The noise is generated at unit volatility and scaled, so paths are
    exactly linear in eta for a fixed seed.
    """
    rng = rng_from(seed)
    rho = 1.0 - params.alpha * params.dt
    sq = math.sqrt(params.dt)
    unit = np.zeros((n_steps, 6))
    z = np.zeros(6)
    for k in range(1, n_steps):
        z = rho * z + sq * rng.standard_normal(6)
        unit[k] = z
    scale = np.array([params.eta] * 3 + [params.eta * params.rot_scale] * 3)
    path = unit * scale
    if np.any(params.z0 != 0.0):
        decay = rho ** np.arange(n_steps)
        path = path + decay[:, None] * params.z0
    return path


def ou_variance(params, k):
    """Closed-form per-coordinate variance of the translation block at
    step k (rotation block scales by rot_scale**2)."""
    rho = 1.0 - params.alpha * params.dt
    if rho == 1.0:  # no mean reversion: plain random walk
        return params.eta ** 2 * params.dt * k
    return params.eta ** 2 * params.dt * (1.0 - rho ** (2 * k)) / (1.0 - rho ** 2)


def _perturbed_pose(pose, z):
    """Right-multiplied local-frame offset: hand-tremor-like error."""
    rot = pose.rotation.mat @ so3_exp(z[3:])
    return Pose.from_parts(rot, pose.translation + pose.rotation.mat @ z[:3])


def level_and_eta(level):
    """(level tag, eta) of a PerturbationLevel, a level index, or a raw
    volatility (tagged "raw")."""
    if isinstance(level, PerturbationLevel):
        return level.level, level.eta
    if isinstance(level, int):
        pl = PerturbationLevel(level)
        return pl.level, pl.eta
    return "raw", float(level)  # raw volatility overrides the level table


def perturb_episode(model, episode, level, seed, params=None):
    """Episode with OU-perturbed subordinate commands at transport knots.

    level may be a PerturbationLevel, a level index, or a raw volatility.
    Non-transport phases, observations, gripper channels, and the control
    arm are untouched.  Knots whose perturbed pose has no IK solution are
    left clean and counted in metadata["ik_failures"].
    """
    level_tag, eta = level_and_eta(level)
    out = copy.deepcopy(episode)
    out.metadata = dict(out.metadata)
    out.metadata.update({"perturbation_level": level_tag, "eta": eta,
                         "perturb_seed": int(seed), "ik_failures": 0})
    if eta == 0.0:
        return out

    control = episode.metadata["control_arm"]
    sub = "left" if control == "right" else "right"
    sub_model = model.arm(sub)
    psi = episode.metadata["psi_left" if sub == "left" else "psi_right"]
    branch = kin.IkBranch(*episode.metadata.get("branch", (False, False, False)))
    sub_slice = slice(0, 7) if sub == "left" else slice(7, 14)

    transport = out.transport_indices()
    if not transport:
        return out
    if params is None:
        params = OuParams(eta=eta)
    elif params.eta != eta:
        raise ValueError("params.eta inconsistent with the requested level")
    path = ou_path(params, len(transport), seed)

    failures = 0
    for j, idx in enumerate(transport):
        z = path[j]
        if not np.any(z):
            continue
        act = out.steps[idx].act
        pose = kin.forward_kinematics(sub_model, act[sub_slice])
        try:
            q_new = kin.inverse_kinematics(sub_model, _perturbed_pose(pose, z),
                                           psi, branch, enforce_limits=False)
        except BilockError:
            failures += 1
            continue
        act[sub_slice] = q_new
    out.metadata["ik_failures"] = failures
    return out


def perturb_dataset(model, episodes, level, master_seed, max_failure_rate=1e-3):
    """Perturb every episode; per-episode seeds derive from master_seed
    and the episode index only, so levels share noise realizations."""
    out = []
    failures = 0
    knots = 0
    for i, ep in enumerate(episodes):
        seed = int(rng_from(master_seed, i).integers(2 ** 62))
        pe = perturb_episode(model, ep, level, seed)
        failures += pe.metadata["ik_failures"]
        knots += len(pe.transport_indices())
        out.append(pe)
    if knots and failures / knots > max_failure_rate:
        raise IkFailureDuringPerturb(
            f"{failures}/{knots} perturbed knots lost to IK failure "
            f"(> {max_failure_rate:.1%}); workspace margins too tight "
            "for this volatility")
    return out


def dataset_violation_summary(model, episodes, window=16, stride=8):
    """Violation-table row for a dataset, plus the number of per-knot
    errors it pools."""
    if not episodes:
        raise EmptyDataset("violation summary of an empty dataset")
    profiles = [violation_profile(model, ep, window=window, stride=stride)
                for ep in episodes]
    summary = violation_table(profiles)
    summary["n_knot_errors"] = sum(p.all_pos_errors().size for p in profiles)
    return summary
