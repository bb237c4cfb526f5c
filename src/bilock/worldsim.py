"""Rule-based kinematic world, scripted demonstrations, action execution.

The world replaces contact physics with attachment rules: the box rigidly
follows the control gripper while grasped; a gripper whose pose error
relative to the box exceeds the retention thresholds slips off
(``grasp_detach``), and past ``drop_factor`` times those thresholds the
errant arm knocks the box out of the remaining grasp entirely
(``box_drop``).  Placement fires when the box rests inside the shelf
region with the grippers commanded open.

The scripted generator stands in for the human teleoperator: approach
above the box, descend, lock the transform, close, lift, carry to the
shelf, insert, open, unlock, retreat, with per-seed timing jitter for
data diversity.

Generation and replay share one first-order-hold executor over a known
action array: between knots the command is linearly interpolated at
``substeps`` world evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bimanual as bm
from . import kinematics as kin
from .episodes import (ANGLE, BOX_DROP, CMD_DIM, GRASP_ATTACH, GRASP_DETACH,
                       GRIP, JOINTS, PLACED, Q14, Episode, Event)
from .errors import ConfigError, IkFailure
from .geometry import Pose, pose_error, so3_exp, so3_log
from .schema import GEOMETRY, choice, document, num, parse_json, spec, table
from .seeding import rng_from


# --- box initial pose sampling ---

@dataclass(frozen=True)
class BoxInitDistribution:
    """Uniform half-open boxes for the initial (x, y, theta)."""

    x_range: tuple
    y_range: tuple
    theta_range: tuple

    def __post_init__(self):
        for name, (lo, hi) in vars(self).items():
            if not lo < hi:
                raise ValueError(f"{name} needs lo < hi, got {[lo, hi]}")


TRAIN_DIST = BoxInitDistribution((-0.2, 0.2), (0.55, 0.65),
                                 (-math.pi / 8, math.pi / 8))
EVAL_DIST = BoxInitDistribution((-0.1, 0.1), (0.575, 0.625),
                                (-math.pi / 16, math.pi / 16))


def sample_box_init(dist, rng):
    """Uniform sample from the distribution; rng may be a seed."""
    if not isinstance(rng, np.random.Generator):
        rng = rng_from(rng)
    return (float(rng.uniform(*dist.x_range)),
            float(rng.uniform(*dist.y_range)),
            float(rng.uniform(*dist.theta_range)))


# --- world configuration (task_world_v1) ---

# the scripted segments of a demonstration, in the order _build_script draws
# their jittered knot counts
SEGMENTS = ("approach", "descend", "grasp", "lift", "lateral", "insert",
            "release", "retreat")


# offsets of a few metres (the arms reach 0.82 m); counts that keep an episode
# to seconds
OFFSET = num(ge=-2.0, le=2.0)
KNOTS = num(ge=1, le=100)
POSITIVE = num(gt=0.0)


@dataclass
class WorldConfig:
    """The ``task_world_v1`` table; angles are given there in degrees."""

    box_dims: list = spec(GEOMETRY)
    grasp_pitch: float = spec(num(ge=-360.0, le=360.0), deg=True)
    shelf_center: list = spec(GEOMETRY)
    shelf_region_half: list = spec(GEOMETRY)
    approach_clearance: float = spec(OFFSET, 0.10)
    lift_height: float = spec(OFFSET, 0.15)
    shelf_pre_offset: float = spec(OFFSET, 0.05)
    retreat_back: float = spec(OFFSET, 0.10)
    retreat_up: float = spec(OFFSET, 0.06)
    grasp_eps_pos: float = spec(POSITIVE, 0.005)
    grasp_eps_rot: float = spec(POSITIVE, math.radians(2.0), deg=True)
    retain_pos: float = spec(POSITIVE, 0.015)
    retain_rot: float = spec(POSITIVE, math.radians(5.0), deg=True)
    drop_factor: float = spec(num(ge=1.0), 2.5)
    dt: float = spec(POSITIVE, 0.1)
    substeps: int = spec(num(integer=True, ge=1, le=50), 5)
    control_arm: str = spec(choice("left", "right"), "right")
    psi_left: float = spec(ANGLE, -0.05)
    psi_right: float = spec(ANGLE, 0.05)
    lock_pos_tol: float = spec(POSITIVE, 1e-9)
    lock_rot_tol: float = spec(POSITIVE, 1e-8)
    segment_knots: dict = spec(table(dict.fromkeys(SEGMENTS, KNOTS)), dict(
        zip(SEGMENTS, (12, 8, 5, 8, 14, 6, 4, 8))))
    timing_jitter: float = spec(num(ge=0.0, lt=1.0), 0.10)

    def psi(self, side):
        return self.psi_left if side == "left" else self.psi_right


def load_world_config(path):
    with open(path, encoding="utf-8") as fh:
        return document(WorldConfig, parse_json(fh.read()), "task_world_v1")


# --- grasp geometry ---

# gripper frame on the box face: approach axis (flange z) points into the
# box; the frames keep det +1 on both sides.
_M_LEFT = np.column_stack([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
_M_RIGHT = np.column_stack([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])


def grasp_targets(cfg, box_pose):
    """Nominal (left, right) gripper poses for a box pose."""
    half = cfg.box_dims[0] / 2.0
    pitch = so3_exp([0.0, cfg.grasp_pitch, 0.0])
    rb = box_pose.rotation
    left = Pose(rb @ _M_LEFT @ pitch, box_pose @ [-half, 0.0, 0.0])
    right = Pose(rb @ _M_RIGHT @ pitch, box_pose @ [half, 0.0, 0.0])
    return left, right


def box_pose_from_init(cfg, init):
    x, y, theta = init
    return Pose(so3_exp([0.0, 0.0, theta]), [x, y, cfg.box_dims[2] / 2.0])


# --- world state and transition rules ---

class TaskWorld:
    """Mutable world state for one episode."""

    def __init__(self, cfg, box_init):
        self.cfg = cfg
        self.box_pose = box_pose_from_init(cfg, box_init)
        self.attach_state = "free"
        self.attached = {"left": False, "right": False}
        self.slipped = {"left": False, "right": False}
        self.grasp_rel = {}

    def in_shelf_region(self):
        d = np.abs(self.box_pose.translation - self.cfg.shelf_center)
        return bool(np.all(d <= self.cfg.shelf_region_half))

    def _carrier(self):
        order = (self.cfg.control_arm, "left" if self.cfg.control_arm == "right"
                 else "right")
        for side in order:
            if self.attached[side]:
                return side
        return None

    def step(self, model, cmd):
        """Advance the attachment rules for one 16-D command.

        Returns a list of (kind, arm) event tuples, in deterministic
        left-before-right order.
        """
        if self.attach_state == "free":
            return self._try_attach(model, cmd)
        if self.attach_state != "grasped":
            return []

        events = []
        poses = {side: kin.forward_kinematics(model.arm(side), cmd[joints])
                 for side, joints in JOINTS.items()}
        carrier = self._carrier()
        self.box_pose = poses[carrier] @ self.grasp_rel[carrier]

        attached = [s for s in ("left", "right") if self.attached[s]]
        opening = [s for s in attached if cmd[GRIP[s]] < 0.5]
        if opening and len(opening) == len(attached):
            if self.in_shelf_region():
                self.attach_state = "placed"
                events.append((PLACED, None))
            else:
                self.attach_state = "dropped"
                events.append((BOX_DROP, None))
            return events
        for side in opening:
            self.attached[side] = False
            events.append((GRASP_DETACH, side))

        # pose error of each formerly-grasping gripper against its nominal
        # grasp pose on the carried box; a slipped arm keeps being tracked
        # because it is still commanded and can knock the box loose
        errs = {}
        for side in ("left", "right"):
            if not (self.attached[side] or self.slipped[side]):
                continue
            nominal = self.box_pose @ self.grasp_rel[side].inverse()
            errs[side] = pose_error(poses[side], nominal)
        drop_pos = self.cfg.drop_factor * self.cfg.retain_pos
        drop_rot = self.cfg.drop_factor * self.cfg.retain_rot
        if any(p > drop_pos or r > drop_rot for p, r in errs.values()):
            for side in ("left", "right"):
                if self.attached[side]:
                    self.attached[side] = False
                    events.append((GRASP_DETACH, side))
            self.attach_state = "dropped"
            events.append((BOX_DROP, None))
            return events
        for side in ("left", "right"):
            if not self.attached[side]:
                continue
            p, r = errs[side]
            if p > self.cfg.retain_pos or r > self.cfg.retain_rot:
                self.attached[side] = False
                self.slipped[side] = True
                events.append((GRASP_DETACH, side))
        if not any(self.attached.values()):
            self.attach_state = "dropped"
            events.append((BOX_DROP, None))
        return events

    def _try_attach(self, model, cmd):
        if cmd[GRIP["left"]] < 0.5 or cmd[GRIP["right"]] < 0.5:
            return []
        nominal_l, nominal_r = grasp_targets(self.cfg, self.box_pose)
        poses = {side: kin.forward_kinematics(model.arm(side), cmd[joints])
                 for side, joints in JOINTS.items()}
        for pose, nominal in ((poses["left"], nominal_l), (poses["right"], nominal_r)):
            dp, dr = pose_error(pose, nominal)
            if dp > self.cfg.grasp_eps_pos or dr > self.cfg.grasp_eps_rot:
                return []
        self.attach_state = "grasped"
        events = []
        for side in ("left", "right"):
            self.attached[side] = True
            self.grasp_rel[side] = poses[side].inverse() @ self.box_pose
            events.append((GRASP_ATTACH, side))
        return events


def _command(q, grip):
    """16-D command of per-side joint configurations, both grippers at grip."""
    cmd = np.full(CMD_DIM, float(grip))
    cmd[JOINTS["left"]], cmd[JOINTS["right"]] = q["left"], q["right"]
    return cmd


# --- first-order-hold execution ---

def execute_actions(model, world, actions, phases, locks, *, initial_state,
                    dt=0.1, substeps=5, model_ref="", metadata=None):
    """Run stored (K, 16) actions through the world with first-order holds.

    Between knots the command is linearly interpolated at ``substeps``
    world evaluations.  Each knot's observation is the previous command
    (the 16-D initial state at the first knot).
    """
    act = np.array(actions, dtype=float)
    obs = np.vstack([initial_state, act])[:-1]
    events = []
    for t, (prev, cmd) in enumerate(zip(obs, act)):
        for s in range(1, substeps + 1):
            alpha = s / substeps
            for kind, arm in world.step(model, (1.0 - alpha) * prev + alpha * cmd):
                events.append(Event(t, kind, arm))
    # stream_exhausted is an episode_v1 key; datasets carry it
    meta = {**(metadata or {}), "stream_exhausted": True}
    return Episode(model_ref, dt, obs, act, list(phases),
                   [bool(lock) for lock in locks], events, meta)


# --- scripted demonstration generation ---

def _pose_interp(p0, p1, alpha):
    w = so3_log(p0.rotation.T @ p1.rotation)
    rot = p0.rotation @ so3_exp(alpha * w)
    return Pose(rot, (1.0 - alpha) * p0.translation + alpha * p1.translation)


def _lifted(pose, dz):
    return Pose(pose.rotation, pose.translation + [0.0, 0.0, dz])


@dataclass
class _ScriptKnot:
    phase: str
    lock: bool
    grip: float
    poses: dict  # side -> target flange pose


def _segment(knots, phase, lock, n, pose_fn, grip_fn):
    for j in range(n):
        alpha = (j + 1) / n
        knots.append(_ScriptKnot(phase, lock, grip_fn(alpha),
                                 dict(zip(("left", "right"), pose_fn(alpha)))))


def _home_poses(cfg):
    """Staging (left, right) gripper poses above the nominal box position."""
    home_box = box_pose_from_init(cfg, (0.0, 0.60, 0.0))
    home_l, home_r = grasp_targets(cfg, home_box)
    dz = cfg.approach_clearance + 0.10
    return _lifted(home_l, dz), _lifted(home_r, dz)


def _build_script(cfg, init, rng):
    """Per-knot target poses, grips, phases for one demonstration."""
    box0 = box_pose_from_init(cfg, init)
    grasp_l, grasp_r = grasp_targets(cfg, box0)
    shelf_box = Pose(np.eye(3), cfg.shelf_center)
    place_l, place_r = grasp_targets(cfg, shelf_box)

    home_l, home_r = _home_poses(cfg)

    app_l = _lifted(grasp_l, cfg.approach_clearance)
    app_r = _lifted(grasp_r, cfg.approach_clearance)
    lift_l = _lifted(grasp_l, cfg.lift_height)
    lift_r = _lifted(grasp_r, cfg.lift_height)
    pre_l = _lifted(place_l, cfg.shelf_pre_offset)
    pre_r = _lifted(place_r, cfg.shelf_pre_offset)
    back = np.array([cfg.retreat_back, 0.0, 0.0])
    up = np.array([0.0, 0.0, cfg.retreat_up])
    out_l = Pose(place_l.rotation, place_l.translation - back + up)
    out_r = Pose(place_r.rotation, place_r.translation + back + up)

    j = cfg.timing_jitter
    n = {name: max(2, int(round(cfg.segment_knots[name]
                                * (1.0 + rng.uniform(-j, j)))))
         for name in SEGMENTS}

    knots = []
    _segment(knots, "approach", False, n["approach"],
             lambda a: (_pose_interp(home_l, app_l, a),
                        _pose_interp(home_r, app_r, a)), lambda a: 0.0)
    _segment(knots, "approach", False, n["descend"],
             lambda a: (_pose_interp(app_l, grasp_l, a),
                        _pose_interp(app_r, grasp_r, a)), lambda a: 0.0)
    # the transform is locked before the grippers close
    _segment(knots, "grasp", True, n["grasp"],
             lambda a: (grasp_l, grasp_r), lambda a: a)
    _segment(knots, "transport", True, n["lift"],
             lambda a: (_pose_interp(grasp_l, lift_l, a),
                        _pose_interp(grasp_r, lift_r, a)), lambda a: 1.0)
    _segment(knots, "transport", True, n["lateral"],
             lambda a: (_pose_interp(lift_l, pre_l, a),
                        _pose_interp(lift_r, pre_r, a)), lambda a: 1.0)
    _segment(knots, "transport", True, n["insert"],
             lambda a: (_pose_interp(pre_l, place_l, a),
                        _pose_interp(pre_r, place_r, a)), lambda a: 1.0)
    # the lock is released only after the grippers open
    _segment(knots, "release", True, n["release"],
             lambda a: (place_l, place_r), lambda a: 1.0 - a)
    _segment(knots, "retreat", False, n["retreat"],
             lambda a: (_pose_interp(place_l, out_l, a),
                        _pose_interp(place_r, out_r, a)), lambda a: 0.0)
    return knots, (grasp_l, grasp_r), (app_l, app_r)


def _script_to_actions(model, cfg, knots, grasp_poses, approach_poses):
    """IK the scripted poses into 16-D actions; the subordinate arm is
    driven through the transform lock during locked phases."""
    branch = kin.IkBranch()
    control = cfg.control_arm
    sub = model.other(control)

    solved = {}
    for label, poses in (("grasp", grasp_poses), ("approach", approach_poses)):
        for side, pose in zip(("left", "right"), poses):
            try:
                solved[label, side] = kin.inverse_kinematics(
                    model.arm(side), pose, cfg.psi(side), branch)
            except IkFailure as exc:
                raise ConfigError(
                    f"{side} {label} pose infeasible: {exc}") from exc

    grasp_q = {side: solved["grasp", side] for side in JOINTS}
    lock = bm.engage_lock(model, _command(grasp_q, 1.0)[Q14], control,
                          cfg.lock_pos_tol, cfg.lock_rot_tol)

    actions = []
    prev = {"left": None, "right": None}
    for i, knot in enumerate(knots):
        q = {}
        ctrl_pose = knot.poses[control]
        try:
            q[control] = kin.inverse_kinematics(
                model.arm(control), ctrl_pose, cfg.psi(control), branch)
        except IkFailure as exc:
            raise ConfigError(
                f"control arm IK failed at knot {i} ({knot.phase}): {exc}") from exc
        if knot.lock:
            q_sub, held = bm.subordinate_command(
                model, lock, ctrl_pose, cfg.psi(sub), branch, prev[sub])
            if held:
                raise ConfigError(
                    f"subordinate hold at knot {i} ({knot.phase}); "
                    "clean demonstrations must track the lock exactly")
            q[sub] = q_sub
        else:
            try:
                q[sub] = kin.inverse_kinematics(
                    model.arm(sub), knot.poses[sub], cfg.psi(sub), branch)
            except IkFailure as exc:
                raise ConfigError(
                    f"subordinate IK failed at knot {i} ({knot.phase}): {exc}") from exc
        prev.update(q)
        actions.append(_command(q, knot.grip))
    return np.array(actions)


def home_state(model, cfg):
    """16-D staging command, grippers open, used as the first observation."""
    q = {side: kin.inverse_kinematics(model.arm(side), pose, cfg.psi(side))
         for side, pose in zip(("left", "right"), _home_poses(cfg))}
    return _command(q, 0.0)


def _execute_from_home(model, cfg, init, actions, phases, locks, model_ref,
                       metadata):
    """Execute actions in a fresh world for box init, from the home state."""
    return execute_actions(model, TaskWorld(cfg, init), actions, phases, locks,
                           initial_state=home_state(model, cfg), dt=cfg.dt,
                           substeps=cfg.substeps, model_ref=model_ref,
                           metadata=metadata)


def generate_demonstration(model, cfg, init, seed):
    """One clean transform-locked demonstration episode.

    Deterministic in (model, cfg, init, seed); raises ConfigError when the
    scripted motion is kinematically impossible: a grasp or approach pose
    without IK, an infeasible path, or a run that does not place the box.
    """
    rng = rng_from(seed)
    knots, grasps, approaches = _build_script(cfg, init, rng)
    actions = _script_to_actions(model, cfg, knots, grasps, approaches)
    meta = {
        "seed": int(seed),
        "box_init": [float(v) for v in init],
        "perturbation_level": 0,
        "eta": 0.0,
        "control_arm": cfg.control_arm,
        "psi_left": cfg.psi_left,
        "psi_right": cfg.psi_right,
        "branch": [False, False, False],
        "source": "generator",
        "ik_failures": 0,
    }
    episode = _execute_from_home(
        model, cfg, init, actions, [k.phase for k in knots],
        [k.lock for k in knots], f"{model.left.name}+{model.right.name}", meta)
    kinds = [e.kind for e in episode.events]
    if PLACED not in kinds or kinds.count(GRASP_ATTACH) != 2:
        raise ConfigError(
            f"generated demonstration did not complete the task "
            f"(events: {kinds}, init {init})")
    return episode


def replay_episode(model, cfg, episode, extra_meta=None):
    """Re-execute stored actions in a fresh world (surrogate rollout).

    Events and observations are regenerated from the commands; phase tags
    and the action sequence are preserved.
    """
    meta = {**episode.metadata, "source": "replay", **(extra_meta or {})}
    return _execute_from_home(model, cfg, episode.metadata["box_init"],
                              episode.act, episode.phases, episode.locks,
                              episode.model_ref, meta)
