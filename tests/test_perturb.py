import json
import math

import numpy as np
import pytest

from bilock import kinematics as kin
from bilock import perturb as pb
from bilock.episodes import GRIPS, JOINTS, episode_to_record
from bilock.errors import DataError

from conftest import raises_exactly


def test_level_table_fixed():
    assert pb.LEVEL_ETAS == (0.0, 0.001, 0.0025, 0.005)


def test_ou_params_validation():
    for eta in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            pb.ou_path(eta, 10, seed=0)


def test_ou_path_zero_eta_is_zero():
    path = pb.ou_path(0.0, 40, seed=1)
    assert np.array_equal(path, np.zeros((40, 6)))


def test_ou_path_doubling_exact():
    p1 = pb.ou_path(0.001, 60, seed=5)
    p2 = pb.ou_path(0.002, 60, seed=5)
    assert np.array_equal(2.0 * p1, p2)
    p4 = pb.ou_path(0.004, 60, seed=5)
    assert np.array_equal(4.0 * p1, p4)


def test_ou_path_linearity_in_level_etas():
    p1 = pb.ou_path(pb.LEVEL_ETAS[1], 60, seed=6)
    p3 = pb.ou_path(pb.LEVEL_ETAS[3], 60, seed=6)
    np.testing.assert_allclose(p3, 5.0 * p1, rtol=1e-12, atol=0.0)


def test_ou_zero_mean_bound():
    eta = 0.01
    k = 25
    n = 4000
    finals = np.array([pb.ou_path(eta, k + 1, seed=i)[k] for i in range(n)])
    bound = 3.0 * math.sqrt(pb.ou_variance(eta, k)) / math.sqrt(n)
    assert np.abs(finals[:, :3].mean(axis=0)).max() <= bound * 1.5


def test_ou_variance_recursion_small_mc():
    eta = 0.003
    k = 40
    n = 20000
    vals = np.array([pb.ou_path(eta, k + 1, seed=i)[k, 1] for i in range(n)])
    ratio = vals.var() / pb.ou_variance(eta, k)
    assert abs(ratio - 1.0) <= 0.05


def test_perturb_level0_bitwise(model, clean_episode):
    out = pb.perturb_episode(model, clean_episode, 0, pb.LEVEL_ETAS[0],
                             seed=9)
    assert np.array_equal(out.act, clean_episode.act)
    assert np.array_equal(out.obs, clean_episode.obs)
    assert not np.shares_memory(out.act, clean_episode.act)
    assert out.metadata["perturbation_level"] == 0


def test_perturb_locality(model, clean_episode):
    out = pb.perturb_episode(model, clean_episode, 3, pb.LEVEL_ETAS[3],
                             seed=11)
    transport = set(clean_episode.transport_indices())
    assert not np.shares_memory(out.act, clean_episode.act)
    assert np.array_equal(clean_episode.obs, out.obs)
    for i, (a, b) in enumerate(zip(clean_episode.act, out.act)):
        assert np.array_equal(a[JOINTS["right"]], b[JOINTS["right"]])  # control
        assert np.array_equal(a[GRIPS], b[GRIPS])
        if i not in transport:
            assert np.array_equal(a, b)
    # first transport knot carries Z_0 = 0: unchanged
    first = clean_episode.transport_indices()[0]
    assert np.array_equal(clean_episode.act[first], out.act[first])
    changed = [i for i in sorted(transport)
               if not np.array_equal(clean_episode.act[i], out.act[i])]
    assert changed


def test_perturb_deterministic(model, clean_episode):
    a = pb.perturb_episode(model, clean_episode, 2, pb.LEVEL_ETAS[2],
                           seed=13)
    b = pb.perturb_episode(model, clean_episode, 2, pb.LEVEL_ETAS[2],
                           seed=13)
    assert json.dumps(episode_to_record(a), sort_keys=True) \
        == json.dumps(episode_to_record(b), sort_keys=True)


def test_perturb_displacement_scales_with_eta(model, clean_episode):
    """Pre-IK pose displacement at every knot scales exactly with eta."""
    sub = JOINTS["left"]  # control arm is right: subordinate is left
    out1 = pb.perturb_episode(model, clean_episode, 1, pb.LEVEL_ETAS[1],
                              seed=21)
    out3 = pb.perturb_episode(model, clean_episode, 3, pb.LEVEL_ETAS[3],
                              seed=21)
    assert out1.metadata["ik_failures"] == 0
    assert out3.metadata["ik_failures"] == 0
    for i in clean_episode.transport_indices():
        base = kin.forward_kinematics(model.left, clean_episode.act[i, sub])
        p1 = kin.forward_kinematics(model.left, out1.act[i, sub])
        p3 = kin.forward_kinematics(model.left, out3.act[i, sub])
        d1 = np.linalg.norm(p1.translation - base.translation)
        d3 = np.linalg.norm(p3.translation - base.translation)
        if d1 > 1e-12:
            assert abs(d3 / d1 - 5.0) <= 1e-6


def test_violation_summary_clean_dataset(model, clean_set):
    s = pb.dataset_violation_summary(model, clean_set)
    assert s["pos_mean_cm"] <= 1e-8
    assert s["rot_mean_deg"] <= 1e-4


def test_violation_summary_single_episode(model, clean_set):
    s_one = pb.dataset_violation_summary(model, clean_set[:1])
    s_same = pb.dataset_violation_summary(model, [clean_set[0]])
    assert s_one == s_same


def test_violation_summary_level_ratios(model, clean_set):
    means = {}
    for lvl in (1, 2, 3):
        pset = pb.perturb_dataset(model, clean_set, lvl, pb.LEVEL_ETAS[lvl],
                                   master_seed=31)
        s = pb.dataset_violation_summary(model, pset)
        means[lvl] = (s["pos_mean_cm"], s["rot_mean_deg"])
    # shared noise realizations make the level ratios essentially exact
    assert abs(means[2][0] / means[1][0] - 2.5) <= 0.01
    assert abs(means[3][0] / means[1][0] - 5.0) <= 0.02
    assert abs(means[2][1] / means[1][1] - 2.5) <= 0.05
    assert abs(means[3][1] / means[1][1] - 5.0) <= 0.10
    ratio = means[3][1] / means[3][0]
    assert abs(ratio - 0.71) <= 0.15 * 0.71


def test_empty_dataset_rejected(model):
    with raises_exactly(DataError, "violation summary of an empty dataset"):
        pb.dataset_violation_summary(model, [])


def test_raw_eta_override(model, clean_episode):
    out = pb.perturb_episode(model, clean_episode, "raw", 0.0025, seed=17)
    via_level = pb.perturb_episode(model, clean_episode, 2, pb.LEVEL_ETAS[2],
                                   seed=17)
    assert np.array_equal(out.act, via_level.act)
    assert out.metadata["perturbation_level"] == "raw"
