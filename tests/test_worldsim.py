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
from bilock.episodes import (BOX_DROP, GRASP_ATTACH, GRASP_DETACH, PLACED,
                             episode_to_record)
from bilock.errors import UnreachableGrasp
from bilock.geometry import Pose, geodesic_distance
from bilock.seeding import rng_from


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
    for s in ep.steps:
        assert s.obs.shape == (16,) and s.act.shape == (16,)
        if s.phase == "transport":
            assert s.lock
    # unperturbed joints stay within limits
    acts = ep.actions()
    for sl, arm in ((slice(0, 7), model.left), (slice(7, 14), model.right)):
        assert np.all(acts[:, sl] >= arm.joint_limits[:, 0] - 1e-12)
        assert np.all(acts[:, sl] <= arm.joint_limits[:, 1] + 1e-12)


def test_clean_transport_constraint(model, clean_episode):
    tr = clean_episode.transport_indices()
    ref = bm.relative_of_q14(model, clean_episode.steps[tr[0]].act[:14])
    for i in tr:
        x = bm.relative_of_q14(model, clean_episode.steps[i].act[:14])
        assert np.linalg.norm(x.translation - ref.translation) <= 1e-10
        assert geodesic_distance(x.rotation, ref.rotation) <= 1e-6


def test_generator_deterministic(model, world_cfg, clean_episode):
    again = ws.generate_demonstration(model, world_cfg, (0.0, 0.6, 0.0), seed=7)
    blob1 = json.dumps(episode_to_record(clean_episode), sort_keys=True)
    blob2 = json.dumps(episode_to_record(again), sort_keys=True)
    assert blob1 == blob2


def test_generator_unreachable_box(model, world_cfg):
    with pytest.raises(UnreachableGrasp):
        ws.generate_demonstration(model, world_cfg, (2.0, 2.0, 0.0), seed=0)


def test_replay_reproduces_knot_states(model, world_cfg, clean_episode):
    replayed = ws.replay_episode(model, world_cfg, clean_episode)
    assert replayed.n_steps == clean_episode.n_steps
    assert np.abs(replayed.actions() - clean_episode.actions()).max() <= 1e-12
    assert np.abs(replayed.observations()
                  - clean_episode.observations()).max() <= 1e-12
    assert ([(e.kind, e.arm) for e in replayed.events]
            == [(e.kind, e.arm) for e in clean_episode.events])


class _RecordingWorld:
    """Stub world capturing every substep command vector."""

    def __init__(self):
        self.states = []

    def step(self, model, state):
        self.states.append(state.to_vector())
        return []


def test_first_order_hold_interpolation(model):
    qa = np.full(16, 0.0)
    qb = np.full(16, 1.0)
    qb[14] = qb[15] = 0.5
    world = _RecordingWorld()
    home = bm.BimanualState(np.zeros(7), np.zeros(7), 0.0, 0.0)
    ep = ws.execute_actions(model, world, np.array([qa, qb]),
                            ["approach"] * 2, [False] * 2, initial_state=home,
                            substeps=4)
    assert ep.n_steps == 2
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
                            initial_state=bm.BimanualState.from_vector(initial))
    assert len(world.states) == k * substeps
    for t in range(k):
        assert np.array_equal(world.states[(t + 1) * substeps - 1], actions[t])
        prev = actions[t - 1] if t else initial
        assert np.array_equal(ep.steps[t].obs, prev)
        assert np.array_equal(ep.steps[t].act, actions[t])


def test_stream_exhaustion_flag(model):
    world = _RecordingWorld()
    home = bm.BimanualState(np.zeros(7), np.zeros(7), 0.0, 0.0)
    ep = ws.execute_actions(model, world, np.zeros((3, 16)), ["approach"] * 3,
                            [False] * 3, initial_state=home)
    assert ep.n_steps == 3
    assert ep.metadata["stream_exhausted"]


def _displace_left(model, episode, indices, offset):
    """Copy of the episode with the left flange translated at the given
    transport knots (joint commands re-solved by IK)."""
    out = json.loads(json.dumps(episode_to_record(episode)))
    from bilock.episodes import episode_from_record
    out = episode_from_record(out)
    psi = episode.metadata["psi_left"]
    for idx in indices:
        act = out.steps[idx].act
        pose = kin.forward_kinematics(model.left, act[:7])
        moved = Pose(pose.rotation, pose.translation + offset)
        act[:7] = kin.inverse_kinematics(model.left, moved, psi,
                                         enforce_limits=False)
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
    acts = clean_episode.actions()
    acts[:, 14] = 0.0
    acts[:, 15] = 0.0
    world = ws.TaskWorld(world_cfg, clean_episode.metadata["box_init"])
    ep = ws.execute_actions(model, world, acts,
                            [s.phase for s in clean_episode.steps],
                            [s.lock for s in clean_episode.steps],
                            initial_state=ws.home_state(model, world_cfg),
                            dt=world_cfg.dt, substeps=world_cfg.substeps)
    assert ep.events == []


def test_step_world_transition_function(model, world_cfg, clean_episode):
    """One commanded state with both grippers closed on the box attaches it
    and reports both attach events, left before right."""
    world = ws.TaskWorld(world_cfg, clean_episode.metadata["box_init"])
    grasp_knot = max(i for i, s in enumerate(clean_episode.steps)
                     if s.phase == "grasp")  # grippers fully closed here
    cmd = bm.BimanualState.from_vector(clean_episode.steps[grasp_knot].act)
    events = world.step(model, cmd)
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
            import dataclasses
            cfg2 = dataclasses.replace(
                world_cfg, retain_pos=world_cfg.retain_pos * factor,
                retain_rot=world_cfg.retain_rot * factor)
            rolled = ws.replay_episode(model, cfg2, bumped)
            outcomes[factor] = mx.classify_outcome(rolled)
        if outcomes[1.0] in ("I", "II"):
            assert outcomes[2.0] != "III"
