import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bilock import bimanual as bm
from bilock import kinematics as kin
from bilock import metrics as mx
from bilock import worldsim as ws
from bilock.episodes import (BOX_DROP, GRASP_ATTACH, GRASP_DETACH, GRIP,
                             JOINTS, PLACED, Q14, episode_to_record)
from bilock.errors import ConfigError
from bilock.geometry import Pose, geodesic_distance
from bilock.seeding import rng_from

from conftest import raises_exactly


def test_sample_box_init_bounds_and_moments():
    rng = rng_from(123)
    xs = np.array([ws.sample_box_init(ws.TRAIN_DIST, rng) for _ in range(100000)])
    for col, (lo, hi) in zip(xs.T, (ws.TRAIN_DIST.x_range, ws.TRAIN_DIST.y_range,
                                    ws.TRAIN_DIST.theta_range)):
        assert col.min() >= lo and col.max() < hi
        width = hi - lo
        sigma = width / math.sqrt(12.0) / math.sqrt(len(col))
        assert abs(col.mean() - (lo + hi) / 2.0) <= 3.0 * sigma


def test_sample_box_init_deterministic():
    a = ws.sample_box_init(ws.TRAIN_DIST, 99)
    b = ws.sample_box_init(ws.TRAIN_DIST, 99)
    assert a == b


def test_degenerate_range_rejected():
    with pytest.raises(ValueError):
        ws.BoxInitDistribution((0.1, 0.1), (0.0, 1.0), (0.0, 1.0))


def test_world_config_schema(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"schema_version": "task_world_v9"}))
    with pytest.raises(ValueError):
        ws.load_world_config(path)


def test_clean_episode_structure(model, world_cfg, clean_episode):
    ep = clean_episode
    kinds = [(e.kind, e.arm) for e in ep.events]
    assert kinds == [(GRASP_ATTACH, "left"), (GRASP_ATTACH, "right"),
                     (PLACED, None)]
    assert mx.classify_outcome(ep) == "I"
    ts = [e.t for e in ep.events]
    assert ts == sorted(ts)
    k = len(ep.phases)
    assert ep.obs.shape == ep.act.shape == (k, 16) and len(ep.locks) == k
    for phase, lock in zip(ep.phases, ep.locks):
        if phase == "transport":
            assert lock
    # unperturbed joints stay within limits
    acts = ep.act
    for sl, arm in ((JOINTS["left"], model.left), (JOINTS["right"], model.right)):
        assert np.all(acts[:, sl] >= arm.joint_limits[:, 0] - 1e-12)
        assert np.all(acts[:, sl] <= arm.joint_limits[:, 1] + 1e-12)


def test_clean_transport_constraint(model, clean_episode):
    tr = clean_episode.transport_indices()
    ref = bm.relative_of_q14(model, clean_episode.act[tr[0], Q14])
    for i in tr:
        x = bm.relative_of_q14(model, clean_episode.act[i, Q14])
        assert np.linalg.norm(x.translation - ref.translation) <= 1e-10
        assert geodesic_distance(x.rotation, ref.rotation) <= 1e-6


def test_generator_deterministic(model, world_cfg, clean_episode):
    again = ws.generate_demonstration(model, world_cfg, (0.0, 0.6, 0.0), seed=7)
    blob1 = json.dumps(episode_to_record(clean_episode), sort_keys=True)
    blob2 = json.dumps(episode_to_record(again), sort_keys=True)
    assert blob1 == blob2


def test_generator_unreachable_box(model, world_cfg):
    with raises_exactly(ConfigError, "grasp pose infeasible"):
        ws.generate_demonstration(model, world_cfg, (2.0, 2.0, 0.0), seed=0)


def test_script_table_drives_the_episode(model, world_cfg):
    """Without jitter each scripted segment runs its configured knot count,
    a count of 1 as 2 knots, in script order; the lock is on exactly over
    grasp, transport and release, the grippers close over grasp and open
    over release in equal steps, and both hold the arms still."""
    counts = {"approach": 3, "descend": 2, "grasp": 4, "lift": 1,
              "lateral": 3, "insert": 2, "release": 5, "retreat": 2}
    cfg = dataclasses.replace(world_cfg, timing_jitter=0.0,
                              segment_knots=counts)
    ep = ws.generate_demonstration(model, cfg, (0.0, 0.6, 0.0), seed=7)
    assert ep.phases == (["approach"] * 5 + ["grasp"] * 4 + ["transport"] * 7
                         + ["release"] * 5 + ["retreat"] * 2)
    assert ep.locks == [p in ("grasp", "transport", "release")
                        for p in ep.phases]
    grips = ([0.0] * 5 + [i / 4 for i in range(1, 5)] + [1.0] * 7
             + [1.0 - i / 5 for i in range(1, 6)] + [0.0] * 2)
    for side in ("left", "right"):
        assert ep.act[:, GRIP[side]].tolist() == grips
    for held in (ep.act[5:9, Q14], ep.act[16:21, Q14]):
        assert (held == held[0]).all()


def test_replay_reproduces_knot_states(model, world_cfg, clean_episode):
    replayed = ws.replay_episode(model, world_cfg, clean_episode)
    assert len(replayed.phases) == len(clean_episode.phases)
    assert np.abs(replayed.act - clean_episode.act).max() <= 1e-12
    assert np.abs(replayed.obs - clean_episode.obs).max() <= 1e-12
    assert ([(e.kind, e.arm) for e in replayed.events]
            == [(e.kind, e.arm) for e in clean_episode.events])


class _RecordingWorld:
    """Stub world capturing every substep command vector."""

    def __init__(self):
        self.states = []

    def step(self, cmd, flange):
        self.states.append(cmd.copy())
        return []


def test_first_order_hold_interpolation(model):
    qa = np.full(16, 0.0)
    qb = np.full(16, 1.0)
    qb[GRIP["left"]] = qb[GRIP["right"]] = 0.5
    world = _RecordingWorld()
    home = np.zeros(16)
    ep = ws.execute_actions(model, world, np.array([qa, qb]),
                            ["approach"] * 2, [False] * 2, initial_state=home,
                            substeps=4)
    assert len(ep.act) == 2
    # knot b follows knot a: midpoint substep is the average command
    states = np.array(world.states)
    assert np.allclose(states[3], qa, atol=0)
    mid = states[4 + 1]  # substeps of the second knot: 2/4 point
    assert np.allclose(mid, (qa + qb) / 2.0, atol=1e-15)
    # constant chunks interpolate to the same constant
    world2 = _RecordingWorld()
    ws.execute_actions(model, world2, np.array([qa, qa, qa]), ["approach"] * 3,
                       [False] * 3, initial_state=home, substeps=4)
    tail = np.array(world2.states[4:])
    assert np.abs(tail - qa).max() == 0.0


knot_actions = st.integers(1, 5).flatmap(
    lambda k: arrays(np.float64, (k, 16), elements=st.floats(0.0, 1.0)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(actions=knot_actions, substeps=st.integers(1, 6),
       initial=arrays(np.float64, 16, elements=st.floats(0.0, 1.0)))
def test_executor_holds_each_knot(model, actions, substeps, initial):
    """The world sees substeps commands per knot, the last of them exactly
    the knot's action; each step observes the previous command."""
    world = _RecordingWorld()
    k = len(actions)
    ep = ws.execute_actions(model, world, actions, ["approach"] * k,
                            [False] * k, substeps=substeps,
                            initial_state=initial)
    assert len(world.states) == k * substeps
    for t in range(k):
        assert np.array_equal(world.states[(t + 1) * substeps - 1], actions[t])
        prev = actions[t - 1] if t else initial
        assert np.array_equal(ep.obs[t], prev)
        assert np.array_equal(ep.act[t], actions[t])


def test_stream_exhaustion_flag(model):
    world = _RecordingWorld()
    ep = ws.execute_actions(model, world, np.zeros((3, 16)), ["approach"] * 3,
                            [False] * 3, initial_state=np.zeros(16))
    assert len(ep.act) == 3
    assert ep.metadata["stream_exhausted"]


def _displace_left(model, episode, indices, offset):
    """Copy of the episode with the left flange translated at the given
    transport knots (joint commands re-solved by IK)."""
    out = json.loads(json.dumps(episode_to_record(episode)))
    from bilock.episodes import episode_from_record
    out = episode_from_record(out)
    psi = episode.metadata["psi_left"]
    for idx in indices:
        pose = kin.forward_kinematics(model.left, out.act[idx, JOINTS["left"]])
        moved = Pose(pose.rotation, pose.translation + offset)
        out.act[idx, JOINTS["left"]] = kin.inverse_kinematics(
            model.left, moved, psi, enforce_limits=False)
    return out


def test_single_gripper_displacement_detaches_without_drop(model, world_cfg,
                                                           clean_episode):
    tr = clean_episode.transport_indices()
    mid = tr[len(tr) // 2: len(tr) // 2 + 3]
    off = np.array([0.0, 0.0, 2.0 * world_cfg.retain_pos])
    bumped = _displace_left(model, clean_episode, mid, off)
    rolled = ws.replay_episode(model, world_cfg, bumped)
    kinds = [(e.kind, e.arm) for e in rolled.events]
    assert (GRASP_DETACH, "left") in kinds
    assert BOX_DROP not in [k for k, _ in kinds]
    assert (PLACED, None) in kinds
    assert mx.classify_outcome(rolled) == "II"


def test_large_displacement_drops_box(model, world_cfg, clean_episode):
    tr = clean_episode.transport_indices()
    mid = tr[len(tr) // 2:]
    off = np.array([0.0, 0.0,
                    1.2 * world_cfg.drop_factor * world_cfg.retain_pos])
    bumped = _displace_left(model, clean_episode, mid, off)
    rolled = ws.replay_episode(model, world_cfg, bumped)
    kinds = [e.kind for e in rolled.events]
    assert BOX_DROP in kinds
    assert PLACED not in kinds
    assert mx.classify_outcome(rolled) == "III"


def test_never_closing_grippers_produces_no_events(model, world_cfg,
                                                   clean_episode):
    acts = clean_episode.act.copy()
    acts[:, GRIP["left"]] = 0.0
    acts[:, GRIP["right"]] = 0.0
    world = ws.TaskWorld(world_cfg, clean_episode.metadata["box_init"])
    ep = ws.execute_actions(model, world, acts, clean_episode.phases,
                            clean_episode.locks,
                            initial_state=ws.home_state(model, world_cfg),
                            dt=world_cfg.dt, substeps=world_cfg.substeps)
    assert ep.events == []


def test_step_world_transition_function(model, world_cfg, clean_episode):
    """One commanded state with both grippers closed on the box attaches it
    and reports both attach events, left before right."""
    world = ws.TaskWorld(world_cfg, clean_episode.metadata["box_init"])
    grasp_knot = max(i for i, p in enumerate(clean_episode.phases)
                     if p == "grasp")  # grippers fully closed here
    cmd = clean_episode.act[grasp_knot]
    flange = [(pose.rotation, pose.translation) for pose in (
        kin.forward_kinematics(model.arm(side), cmd[joints])
        for side, joints in JOINTS.items())]
    events = world.step(cmd, flange)
    assert [(k, a) for k, a in events] == [(GRASP_ATTACH, "left"),
                                           (GRASP_ATTACH, "right")]
    assert world.attach_state == "grasped"


def test_threshold_monotonicity(model, world_cfg, clean_episode):
    """Enlarging the retention thresholds never converts a success into a
    drop on a fixed action stream."""
    tr = clean_episode.transport_indices()
    rng = np.random.default_rng(40)
    for trial in range(4):
        # random constant displacement somewhere around the drop threshold
        scale = world_cfg.retain_pos * world_cfg.drop_factor * rng.uniform(0.5, 1.5)
        direction = rng.normal(size=3)
        direction *= scale / np.linalg.norm(direction)
        start = rng.integers(1, len(tr) - 2)
        bumped = _displace_left(model, clean_episode, tr[start:], direction)

        outcomes = {}
        for factor in (1.0, 2.0):
            cfg2 = dataclasses.replace(
                world_cfg, retain_pos=world_cfg.retain_pos * factor,
                retain_rot=world_cfg.retain_rot * factor)
            rolled = ws.replay_episode(model, cfg2, bumped)
            outcomes[factor] = mx.classify_outcome(rolled)
        if outcomes[1.0] in ("I", "II"):
            assert outcomes[2.0] != "III"
