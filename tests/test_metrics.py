import numpy as np
import pytest

from bilock import bimanual as bm
from bilock import kinematics as kin
from bilock import metrics as mx
from bilock import perturb as pb
from bilock import worldsim as ws
from bilock.episodes import Episode, Event, Step
from bilock.errors import (EmptyDataset, InvalidCounts, MissingEventLog,
                           NoTransportPhase)
from bilock.geometry import Pose, Rotation


def test_clean_profile_is_flat(model, clean_episode):
    pos, rot = mx.violation_profile(model, clean_episode)
    assert pos.max() <= 1e-10
    assert rot.max() <= 1e-6
    assert pos.mean() >= 0.0


def test_window_one_is_all_zero(model, clean_episode):
    pos, rot = mx.violation_profile(model, clean_episode, window=1, stride=1)
    assert pos.max() == 0.0 and rot.max() == 0.0


def test_window_one_zero_even_for_perturbed(model, clean_episode):
    noisy = pb.perturb_episode(model, clean_episode, 3, pb.LEVEL_ETAS[3],
                               seed=3)
    pos, rot = mx.violation_profile(model, noisy, window=1, stride=1)
    assert pos.max() == 0.0 and rot.max() == 0.0


def test_constant_offset_mid_window(model, world_cfg, clean_episode):
    """A 3 mm subordinate offset from mid-transport onward shows up as a
    3 mm position error (and no rotation error) at affected knots inside
    windows anchored before the offset."""
    import copy
    ep = copy.deepcopy(clean_episode)
    tr = ep.transport_indices()
    start = len(tr) // 2
    psi = ep.metadata["psi_left"]
    for idx in tr[start:]:
        pose = kin.forward_kinematics(model.left, ep.steps[idx].act[:7])
        moved = Pose(pose.rotation, pose.translation + [0.003, 0.0, 0.0])
        ep.steps[idx].act[:7] = kin.inverse_kinematics(
            model.left, moved, psi, enforce_limits=False)
    pos, rot = mx.violation_profile(model, ep, window=16, stride=8)
    # the profile concatenates windows of min(16, n - knot0) knots
    knots0 = range(0, len(tr), 8)
    cuts = np.cumsum([min(16, len(tr) - k) for k in knots0])[:-1]
    for knot0, pos_err, rot_err in zip(knots0, np.split(pos, cuts),
                                       np.split(rot, cuts)):
        for j, (p, r) in enumerate(zip(pos_err, rot_err)):
            before_ref = knot0 < start
            affected = knot0 + j >= start
            if before_ref and affected:
                assert abs(p - 0.003) <= 1e-9
                assert r <= 1e-8
            elif before_ref and not affected:
                assert p <= 1e-10
            elif not before_ref:
                assert p <= 1e-10  # reference itself offset


def test_profile_requires_transport(model, clean_episode):
    ep = Episode(clean_episode.model_ref, 0.1,
                 [s for s in clean_episode.steps if s.phase == "approach"],
                 [], {})
    with pytest.raises(NoTransportPhase):
        mx.violation_profile(model, ep)


def test_profile_invariant_to_rigid_world_motion(model, clean_episode):
    t = Pose(Rotation.from_axis_angle([0.0, 0.0, 0.8]), [0.5, -0.3, 0.2])
    moved = bm.BimanualModel(
        kin.ArmModel(name="l2", base_pose=t @ model.left.base_pose,
                     joint_offsets=model.left.joint_offsets,
                     joint_axes=model.left.joint_axes,
                     joint_limits=model.left.joint_limits),
        kin.ArmModel(name="r2", base_pose=t @ model.right.base_pose,
                     joint_offsets=model.right.joint_offsets,
                     joint_axes=model.right.joint_axes,
                     joint_limits=model.right.joint_limits))
    a_pos, a_rot = mx.violation_profile(model, clean_episode)
    b_pos, b_rot = mx.violation_profile(moved, clean_episode)
    assert np.abs(a_pos - b_pos).max() <= 1e-12
    assert np.abs(a_rot - b_rot).max() <= 1e-12


def _episode_with_events(kinds):
    steps = [Step(t, np.zeros(16), np.zeros(16), "transport", True)
             for t in range(4)]
    events = [Event(t, kind, arm) for t, (kind, arm) in enumerate(kinds)]
    return Episode("m", 0.1, steps, events, {})


def test_classify_outcomes():
    I = _episode_with_events([("grasp_attach", "left"),
                              ("grasp_attach", "right"), ("placed", None)])
    assert mx.classify_outcome(I) == "I"
    II = _episode_with_events([("grasp_attach", "left"),
                               ("grasp_attach", "right"),
                               ("grasp_detach", "left"), ("placed", None)])
    assert mx.classify_outcome(II) == "II"
    III = _episode_with_events([("grasp_attach", "left"),
                                ("grasp_attach", "right"),
                                ("grasp_detach", "left"),
                                ("grasp_detach", "right"),
                                ("box_drop", None)])
    assert mx.classify_outcome(III) == "III"
    IV = _episode_with_events([])
    assert mx.classify_outcome(IV) == "IV"
    assert mx.classify_outcome(I) in ("I", "II")
    assert mx.classify_outcome(II) in ("I", "II")
    assert mx.classify_outcome(III) not in ("I", "II")


def test_classify_is_pure_function_of_events():
    a = _episode_with_events([("grasp_attach", "left"),
                              ("grasp_attach", "right"), ("placed", None)])
    b = _episode_with_events([("grasp_attach", "left"),
                              ("grasp_attach", "right"), ("placed", None)])
    assert mx.classify_outcome(a) == mx.classify_outcome(b)


def test_missing_event_log():
    ep = Episode("m", 0.1, [], None, {})
    with pytest.raises(MissingEventLog):
        mx.classify_outcome(ep)


def test_wilson_boundaries():
    lo, hi = mx.wilson_interval(0, 25)
    assert lo == 0.0
    lo, hi = mx.wilson_interval(25, 25)
    assert hi == 1.0


def test_wilson_closed_form_value():
    lo, hi = mx.wilson_interval(50, 100, 0.95)
    assert abs(lo - 0.4038) <= 1e-3
    assert abs(hi - 0.5962) <= 1e-3


def test_wilson_width_scales_inverse_sqrt_n():
    lo1, hi1 = mx.wilson_interval(50, 100)
    lo4, hi4 = mx.wilson_interval(200, 400)
    ratio = (hi4 - lo4) / (hi1 - lo1)
    assert abs(ratio - 0.5) <= 0.05 * 0.5


def test_wilson_invalid_counts():
    with pytest.raises(InvalidCounts):
        mx.wilson_interval(5, 0)
    with pytest.raises(InvalidCounts):
        mx.wilson_interval(7, 5)


def test_aggregate_report_clean(model, clean_set):
    profiles = [mx.violation_profile(model, e) for e in clean_set]
    outcomes = [mx.classify_outcome(e) for e in clean_set]
    rep = mx.aggregate_report(clean_set, profiles, outcomes)
    assert rep["outcome_counts"]["I"] == len(clean_set)
    assert sum(rep["outcome_counts"].values()) == len(clean_set)
    assert rep["success_rate"] == 1.0
    assert rep["wilson_hi"] == 1.0
    assert rep["violation"]["pos_mean_cm"] <= 1e-8
    rep2 = mx.aggregate_report(clean_set, profiles, outcomes)
    assert rep == rep2


def test_aggregate_report_empty():
    with pytest.raises(EmptyDataset):
        mx.aggregate_report([], [], [])
