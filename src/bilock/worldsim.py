"""Rule-based kinematic world, scripted demonstrations, action execution.

The world replaces contact physics with attachment rules: the box rigidly
follows the control gripper while grasped; a gripper whose pose error
relative to the box exceeds the retention thresholds slips off
(``grasp_detach``), and past ``drop_factor`` times those thresholds the
errant arm knocks the box out of the remaining grasp entirely
(``box_drop``).  Placement fires when the box rests inside the shelf
region with the grippers commanded open.

The scripted generator stands in for the human teleoperator.  Its script is
one table, ``SCRIPT``: approach above the box, descend, lock the transform
and close, lift, carry to the shelf, insert, open and unlock, retreat.  Each
row moves both grippers to a named waypoint (or holds the one they are at)
over a knot count with per-seed timing jitter for data diversity.

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
from .errors import ConfigError, IkFailure, NumericalFailure
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

# the scripted demonstration, one row per segment in the order its jittered
# knot count is drawn: name, phase, lock, default knot count, gripper command
# at the segment's start and end, and the waypoint both grippers move to from
# the previous row's ("home" before the first); a row whose waypoint is the
# previous one holds it
SCRIPT = (
    ("approach", "approach", False, 12, 0.0, 0.0, "approach"),
    ("descend", "approach", False, 8, 0.0, 0.0, "grasp"),
    # the transform is locked before the grippers close
    ("grasp", "grasp", True, 5, 0.0, 1.0, "grasp"),
    ("lift", "transport", True, 8, 1.0, 1.0, "lift"),
    ("lateral", "transport", True, 14, 1.0, 1.0, "pre"),
    ("insert", "transport", True, 6, 1.0, 1.0, "place"),
    # the lock is released only after the grippers open
    ("release", "release", True, 4, 1.0, 0.0, "place"),
    ("retreat", "retreat", False, 8, 0.0, 0.0, "out"),
)
SEGMENTS = tuple(row[0] for row in SCRIPT)


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
    segment_knots: dict = spec(table(dict.fromkeys(SEGMENTS, KNOTS)), {
        row[0]: row[3] for row in SCRIPT})
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

    def step(self, cmd, flange):
        """Advance the attachment rules for one 16-D command, whose flange
        poses are flange: one (R, t) pair per arm, left then right.

        Returns a list of (kind, arm) event tuples, in deterministic
        left-before-right order.
        """
        if self.attach_state == "free":
            if cmd[GRIP["left"]] < 0.5 or cmd[GRIP["right"]] < 0.5:
                return []
        elif self.attach_state != "grasped":
            return []
        poses = {side: Pose(r, t) for side, (r, t) in zip(JOINTS, flange)}
        if self.attach_state == "free":
            return self._try_attach(poses)

        events = []
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

    def _try_attach(self, poses):
        """Attach when both closed grippers are at their grasp poses."""
        for side, nominal in zip(JOINTS, grasp_targets(self.cfg, self.box_pose)):
            dp, dr = pose_error(poses[side], nominal)
            if dp > self.cfg.grasp_eps_pos or dr > self.cfg.grasp_eps_rot:
                return []
        self.attach_state = "grasped"
        for side in JOINTS:
            self.attached[side] = True
            self.grasp_rel[side] = poses[side].inverse() @ self.box_pose
        return [(GRASP_ATTACH, side) for side in JOINTS]


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
    (the 16-D initial state at the first knot); both are views of one buffer.
    """
    buf = np.vstack([initial_state, actions], dtype=float)
    obs, act = buf[:-1], buf[1:]
    alpha = (np.arange(1, substeps + 1) / substeps)[:, None]
    cmds = (1.0 - alpha) * obs[:, None] + alpha * act[:, None]
    cmds = cmds.reshape(-1, CMD_DIM)  # substep i belongs to knot i // substeps
    flanges = []  # per arm, the flange (R, t) of every substep: one FK call
    for side, joints in JOINTS.items():
        r, t = kin.forward_kinematics_generic(model.arm(side),
                                              cmds[:, joints].T)
        rt = np.stack(np.broadcast_arrays(*r[0], *r[1], *r[2], *t), axis=1)
        flanges.append(zip(rt[:, :9].reshape(-1, 3, 3), rt[:, 9:]))
    events = [Event(i // substeps, kind, arm)
              for i, (cmd, *flange) in enumerate(zip(cmds, *flanges))
              for kind, arm in world.step(cmd, flange)]
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


def _home_poses(cfg):
    """Staging (left, right) gripper poses above the nominal box position."""
    home_box = box_pose_from_init(cfg, (0.0, 0.60, 0.0))
    dz = cfg.approach_clearance + 0.10
    return tuple(_lifted(p, dz) for p in grasp_targets(cfg, home_box))


def _waypoints(cfg, init):
    """The (left, right) gripper poses SCRIPT names, for box init."""
    grasp = grasp_targets(cfg, box_pose_from_init(cfg, init))
    place = grasp_targets(cfg, Pose(np.eye(3), cfg.shelf_center))
    back = np.array([cfg.retreat_back, 0.0, 0.0])
    up = np.array([0.0, 0.0, cfg.retreat_up])
    return {"home": _home_poses(cfg), "grasp": grasp, "place": place,
            "approach": tuple(_lifted(p, cfg.approach_clearance) for p in grasp),
            "lift": tuple(_lifted(p, cfg.lift_height) for p in grasp),
            "pre": tuple(_lifted(p, cfg.shelf_pre_offset) for p in place),
            "out": (Pose(place[0].rotation, place[0].translation - back + up),
                    Pose(place[1].rotation, place[1].translation + back + up))}


def _build_script(cfg, wp, rng):
    """(phase, lock, grip, (left, right) target poses) of each knot of one
    demonstration over the waypoints wp: knot j of a segment of n knots is
    (j + 1) / n of the way from the previous row's waypoint to its own."""
    knots = []
    start = "home"
    jitter = cfg.timing_jitter
    for name, phase, lock, _, g0, g1, end in SCRIPT:
        n = max(2, int(round(cfg.segment_knots[name]
                             * (1.0 + rng.uniform(-jitter, jitter)))))
        try:
            for a in (j / n for j in range(1, n + 1)):
                poses = wp[end] if end == start else tuple(
                    _pose_interp(p0, p1, a) for p0, p1 in zip(wp[start], wp[end]))
                knots.append((phase, lock, g0 + (g1 - g0) * a, poses))
        except NumericalFailure as exc:  # a half-turn between the waypoints
            raise ConfigError(f"{name} segment infeasible: {exc}") from exc
        start = end
    return knots


def _ik(model, side, pose, cfg, what):
    """One arm's joints at a scripted pose; a pose without IK is a
    ConfigError led by what."""
    try:
        return kin.inverse_kinematics(model.arm(side), pose, cfg.psi(side))
    except IkFailure as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _script_to_actions(model, cfg, wp, knots):
    """IK the scripted poses into 16-D actions; the subordinate arm is
    driven through the transform lock during locked phases."""
    control = cfg.control_arm
    sub = model.other(control)
    q_at = {label: {side: _ik(model, side, pose, cfg,
                              f"{side} {label} pose infeasible")
                    for side, pose in zip(JOINTS, wp[label])}
            for label in ("grasp", "approach")}
    lock = bm.engage_lock(model, _command(q_at["grasp"], 1.0)[Q14], control,
                          cfg.lock_pos_tol, cfg.lock_rot_tol)

    actions = []
    for i, (phase, locked, grip, pair) in enumerate(knots):
        poses = dict(zip(JOINTS, pair))
        where = f"at knot {i} ({phase})"
        q = {control: _ik(model, control, poses[control], cfg,
                          f"control arm IK failed {where}")}
        if locked:
            q[sub], held = bm.subordinate_command(model, lock, poses[control],
                                                  cfg.psi(sub))
            if held:
                raise ConfigError(
                    f"subordinate hold {where}; "
                    "clean demonstrations must track the lock exactly")
        else:
            q[sub] = _ik(model, sub, poses[sub], cfg,
                         f"subordinate IK failed {where}")
        actions.append(_command(q, grip))
    return np.array(actions)


def home_state(model, cfg):
    """16-D staging command, grippers open, used as the first observation."""
    return _command({side: _ik(model, side, pose, cfg,
                               f"{side} home pose infeasible")
                     for side, pose in zip(JOINTS, _home_poses(cfg))}, 0.0)


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
    without IK, an infeasible path (a half-turn between two waypoints too),
    or a run that does not place the box.
    """
    wp = _waypoints(cfg, init)
    knots = _build_script(cfg, wp, rng_from(seed))
    actions = _script_to_actions(model, cfg, wp, knots)
    phases, locks, _, _ = zip(*knots)
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
        model, cfg, init, actions, phases, locks,
        f"{model.left.name}+{model.right.name}", meta)
    kinds = [e.kind for e in episode.events]
    if PLACED not in kinds or kinds.count(GRASP_ATTACH) != 2:
        raise ConfigError(
            f"generated demonstration did not complete the task "
            f"(events: {kinds}, init {init})")
    return episode


def replay_episode(model, cfg, episode):
    """Execute a record's stored actions in a fresh world: new observations
    and events, the same actions, phases and locks, ``source`` "replay"."""
    meta = {**episode.metadata, "source": "replay"}
    return _execute_from_home(model, cfg, episode.metadata["box_init"],
                              episode.act, episode.phases, episode.locks,
                              episode.model_ref, meta)
