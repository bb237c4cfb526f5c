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

A dataset is perturbed at one translation volatility eta, passed as a
plain number together with its metadata tag: a level index with its
``LEVEL_ETAS`` entry, or "raw" with any finite eta >= 0.  The mean
reversion ``OU_ALPHA`` and the unit time step are fixed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import kinematics as kin
from .episodes import JOINTS
from .errors import DataError, IkFailure, NumericalFailure
from .geometry import Pose, so3_exp
from .metrics import violation_profile, violation_table
from .seeding import rng_from

# rad/m of rotation volatility per translation volatility: 0.71 deg/cm
ROT_SCALE = 0.71 * math.pi / 1.8

# eta of perturbation levels 0..3 of the degradation study
LEVEL_ETAS = (0.0, 0.001, 0.0025, 0.005)

# mean reversion per control step: dZ = -OU_ALPHA Z dt + eta dW, dt = 1
OU_ALPHA = 0.01

# share of perturbed knots that may be lost to IK failure in a dataset
MAX_FAILURE_RATE = 1e-3


def ou_path(eta, n_steps, seed):
    """(n_steps, 6) OU sample path starting at 0; deterministic per seed.

    The noise is generated at unit volatility and scaled, so paths are
    exactly linear in eta for a fixed seed.
    """
    if not (math.isfinite(eta) and eta >= 0.0):
        raise ValueError(f"eta must be finite and >= 0, got {eta!r}")
    rng = rng_from(seed)
    rho = 1.0 - OU_ALPHA
    noise = rng.standard_normal((max(n_steps - 1, 0), 6))
    unit = np.zeros((n_steps, 6))
    z = np.zeros(6)
    for k in range(1, n_steps):
        z = rho * z + noise[k - 1]
        unit[k] = z
    return unit * np.array([eta] * 3 + [eta * ROT_SCALE] * 3)


def ou_variance(eta, k):
    """Closed-form per-coordinate variance of the translation block at
    step k (rotation block scales by ROT_SCALE**2)."""
    rho = 1.0 - OU_ALPHA
    return eta ** 2 * (1.0 - rho ** (2 * k)) / (1.0 - rho ** 2)


def perturb_episode(model, episode, level, eta, seed):
    """Episode with OU-perturbed subordinate commands at transport knots.

    level is the metadata tag of the volatility eta: a level index, or
    "raw".  Non-transport phases, observations, gripper channels, and the
    control arm are untouched.  Knots whose perturbed pose has no IK
    solution (an ``IkFailure``) are left clean and counted in
    metadata["ik_failures"]; any other failure, such as a rotation vector
    that overflows, ends the call.
    """
    out = dataclasses.replace(episode, act=episode.act.copy(), metadata={
        **episode.metadata, "perturbation_level": level, "eta": eta,
        "perturb_seed": int(seed), "ik_failures": 0})
    if eta == 0.0:
        return out

    sub = model.other(episode.metadata["control_arm"])
    sub_model = model.arm(sub)
    psi = episode.metadata[f"psi_{sub}"]
    branch = kin.IkBranch(*episode.metadata.get("branch", (False, False, False)))

    transport = out.transport_indices()
    path = ou_path(eta, len(transport), seed)

    failures = 0
    for j, idx in enumerate(transport):
        z = path[j]
        if not np.any(z):
            continue
        pose = kin.forward_kinematics(sub_model, out.act[idx, JOINTS[sub]])
        try:
            # right-multiplied local-frame offset: hand-tremor-like error
            q_new = kin.inverse_kinematics(
                sub_model, pose @ Pose(so3_exp(z[3:]), z[:3]), psi, branch,
                enforce_limits=False)
        except IkFailure:
            failures += 1
            continue
        out.act[idx, JOINTS[sub]] = q_new
    out.metadata["ik_failures"] = failures
    return out


def perturb_dataset(model, episodes, level, eta, master_seed):
    """Perturb every episode; per-episode seeds derive from master_seed
    and the episode index only, so levels share noise realizations."""
    out = [perturb_episode(model, ep, level, eta,
                           int(rng_from(master_seed, i).integers(2 ** 62)))
           for i, ep in enumerate(episodes)]
    failures = sum(pe.metadata["ik_failures"] for pe in out)
    knots = sum(len(pe.transport_indices()) for pe in out)
    if knots and failures / knots > MAX_FAILURE_RATE:
        raise NumericalFailure(
            f"{failures}/{knots} perturbed knots lost to IK failure "
            f"(> {MAX_FAILURE_RATE:.1%}); workspace margins too tight "
            "for this volatility")
    return out


def dataset_violation_summary(model, episodes, window=16, stride=8):
    """Violation-table row for a dataset, plus the number of per-knot
    errors it pools."""
    if not episodes:
        raise DataError("violation summary of an empty dataset")
    profiles = [violation_profile(model, ep, window=window, stride=stride)
                for ep in episodes]
    summary = violation_table(profiles)
    summary["n_knot_errors"] = sum(pos.size for pos, _ in profiles)
    return summary
