"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The heavyweight fixtures (200-episode datasets and
their perturbed variants) are built once and shared.
"""

import math

import numpy as np
import pytest

from bilock import bimanual as bm
from bilock import cli
from bilock import kinematics as kin
from bilock import manifold as mf
from bilock import metrics as mx
from bilock import perturb as pb
from bilock import stats as st
from bilock import worldsim as ws
from bilock.autodiff import (hessian_numeric, jacobian_numeric,
                             value_jacobian_hessian)
from bilock.episodes import Q14
from bilock.geometry import geodesic_distance
from bilock.seeding import rng_from

from conftest import at_knot, random_joint_config, random_q14


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def clean200(model, world_cfg):
    eps = []
    for i in range(200):
        init = ws.sample_box_init(ws.TRAIN_DIST, rng_from(2001, i, 0))
        seed = int(rng_from(2001, i, 1).integers(2 ** 62))
        eps.append(ws.generate_demonstration(model, world_cfg, init, seed))
    return eps


@pytest.fixture(scope="module")
def perturbed_levels(model, clean200):
    return {lvl: pb.perturb_dataset(model, clean200, lvl, pb.LEVEL_ETAS[lvl],
                                   master_seed=909)
            for lvl in (1, 2, 3)}


def test_criterion_1_transform_lock_adherence(model, clean200):
    worst_pos = worst_rot = 0.0
    for ep in clean200[:50]:
        transport = ep.transport_indices()
        ref = bm.relative_of_q14(model, ep.act[transport[0], Q14])
        for i in transport:
            x = bm.relative_of_q14(model, ep.act[i, Q14])
            worst_pos = max(worst_pos, float(np.linalg.norm(
                x.translation - ref.translation)))
            worst_rot = max(worst_rot, geodesic_distance(x.rotation,
                                                         ref.rotation))
    full_success = sum(1 for ep in clean200
                       if mx.classify_outcome(ep) == "I")
    ok = (worst_pos <= 1e-10 and worst_rot <= 1e-6
          and full_success == len(clean200))
    report(1, "transform-lock adherence", ok,
           f"50 episodes, max pos {worst_pos:.2e} m <= 1e-10, "
           f"max rot {worst_rot:.2e} rad <= 1e-6; "
           f"{full_success}/{len(clean200)} clean episodes category I")


def test_criterion_2_perturbation_scaling(model, perturbed_levels):
    summaries = {lvl: pb.dataset_violation_summary(model, eps)
                 for lvl, eps in perturbed_levels.items()}
    pos = [summaries[lvl]["pos_mean_cm"] for lvl in (1, 2, 3)]
    rot = [summaries[lvl]["rot_mean_deg"] for lvl in (1, 2, 3)]
    checks = []
    for vals in (pos, rot):
        for target, measured in zip((2.5, 5.0), (vals[1] / vals[0],
                                                 vals[2] / vals[0])):
            checks.append(abs(measured / target - 1.0) <= 0.10)
    monotone = pos[0] < pos[1] < pos[2] and rot[0] < rot[1] < rot[2]
    ratio = rot[2] / pos[2]
    ratio_ok = abs(ratio - 0.71) <= 0.15 * 0.71
    ok = all(checks) and monotone and ratio_ok
    report(2, "perturbation scaling", ok,
           f"pos means {pos[0]:.3f}/{pos[1]:.3f}/{pos[2]:.3f} cm "
           f"(ratios {pos[1] / pos[0]:.3f}, {pos[2] / pos[0]:.3f}); "
           f"rot means {rot[0]:.3f}/{rot[1]:.3f}/{rot[2]:.3f} deg; "
           f"ori/pos {ratio:.3f} deg/cm vs 0.71 +/- 15%; monotone={monotone}")


def _poly_constraint(expr):
    def fn(q):
        vals = expr(q)
        if isinstance(q, np.ndarray) and q.dtype == object:
            return np.array(vals, dtype=object)
        return np.array(vals, dtype=float)
    return mf.ConstraintFunction(fn)


def test_criterion_3_curvature_oracles():
    details = []
    ok = True

    def affine(q):
        return [q[0] + 2.0 * q[1] - 0.3, q[2] - q[1] + 1.0]
    k = mf.riemann_and_kretschmann(*at_knot(
        _poly_constraint(affine), np.array([0.3, 0.0, -1.0, 0.5]))).kretschmann
    ok &= k <= 1e-10
    details.append(f"affine {k:.1e}<=1e-10")

    worst = 0.0
    for n in (3, 4, 5, 6):
        m = n - 1
        for r in (0.25, 0.5, 1.0, 2.0):
            def sphere(q, r=r, n=n):
                s = q[0] * q[0]
                for i in range(1, n):
                    s = s + q[i] * q[i]
                return [s - r * r]
            q = np.zeros(n)
            q[0] = r
            k = mf.riemann_and_kretschmann(
                *at_knot(_poly_constraint(sphere), q)).kretschmann
            want = 2.0 * m * (m - 1) / r ** 4
            worst = max(worst, abs(k - want) / want)
    ok &= worst <= 1e-6
    details.append(f"spheres rel {worst:.1e}<=1e-6")

    def cyl(q):
        return [q[0] * q[0] + q[1] * q[1] - 0.25]
    k = mf.riemann_and_kretschmann(*at_knot(
        _poly_constraint(cyl), np.array([0.5, 0.0, 0.4]))).kretschmann
    ok &= k <= 1e-10
    details.append(f"cylinder {k:.1e}<=1e-10")

    def parab(q):
        return [q[2] - q[0] * q[0] - q[1] * q[1]]
    k = mf.riemann_and_kretschmann(*at_knot(_poly_constraint(parab),
                                            np.zeros(3))).kretschmann
    ok &= abs(k - 64.0) <= 1e-6 * 64.0
    details.append(f"paraboloid {k:.6f} vs 64")
    report(3, "curvature oracles", ok, "; ".join(details))


def test_criterion_4_riemann_symmetries(model):
    rng = np.random.default_rng(4004)
    worst_sym = worst_rot_inv = 0.0
    for _ in range(100):
        q0 = random_q14(model, rng, scale=0.65)
        f = mf.make_constraint(model, q0)
        res = mf.riemann_and_kretschmann(*at_knot(f, q0))
        r = res.riemann
        scale = np.abs(r).max()
        worst_sym = max(
            worst_sym,
            np.abs(r + r.transpose(1, 0, 2, 3)).max() / scale,
            np.abs(r + r.transpose(0, 1, 3, 2)).max() / scale,
            np.abs(r - r.transpose(2, 3, 0, 1)).max() / scale,
            np.abs(r + r.transpose(0, 2, 3, 1)
                   + r.transpose(0, 3, 1, 2)).max() / scale)
    for _ in range(5):
        q0 = random_q14(model, rng, scale=0.65)
        f = mf.make_constraint(model, q0)
        _, jac, hess = value_jacobian_hessian(f, q0)
        frame = mf._frame(q0, jac, mf.RANK_TOL)
        ii = mf.second_fundamental_form(frame, hess)
        k0 = float(np.sum((np.einsum("ika,jla->ijkl", ii, ii)
                           - np.einsum("ila,jka->ijkl", ii, ii)) ** 2))
        rot, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        frame2 = mf.ManifoldFrame(q=frame.q, jac=frame.jac,
                                  tangent_basis=frame.tangent_basis @ rot,
                                  normal_basis=frame.normal_basis,
                                  sigma_min=frame.sigma_min,
                                  cond_j=frame.cond_j)
        ii2 = mf.second_fundamental_form(frame2, hess)
        k1 = float(np.sum((np.einsum("ika,jla->ijkl", ii2, ii2)
                           - np.einsum("ila,jka->ijkl", ii2, ii2)) ** 2))
        worst_rot_inv = max(worst_rot_inv, abs(k1 - k0) / k0)
    ok = worst_sym <= 1e-8 and worst_rot_inv <= 1e-9
    report(4, "Riemann symmetries", ok,
           f"100 points, worst symmetry/Bianchi violation {worst_sym:.1e} "
           f"<= 1e-8; basis-rotation invariance {worst_rot_inv:.1e} <= 1e-9")


def test_criterion_5_derivative_cross_validation(model):
    rng = np.random.default_rng(5005)
    worst_jac = 0.0
    for _ in range(100):
        arm = model.left if rng.uniform() < 0.5 else model.right
        q = random_joint_config(arm, rng, scale=0.8)
        jac = kin.geometric_jacobian(arm, q)

        def pose_map(qq, arm=arm):
            r, t = kin.forward_kinematics_generic(arm, qq)
            return t
        jf = jacobian_numeric(pose_map, q, 1e-6)
        worst_jac = max(worst_jac, np.abs(jac[:3] - jf).max())
    worst_hess = 0.0
    for _ in range(100):
        q0 = random_q14(model, rng, scale=0.65)
        f = mf.make_constraint(model, q0)
        hd = value_jacobian_hessian(f, q0)[2]
        hf = hessian_numeric(f, q0, 1e-4)
        worst_hess = max(worst_hess, np.abs(hd - hf).max() / np.abs(hd).max())
    ok = worst_jac <= 1e-6 and worst_hess <= 1e-5
    report(5, "derivative cross-validation", ok,
           f"geometric Jacobian vs FD {worst_jac:.1e} <= 1e-6; "
           f"constraint Hessian dual vs FD rel {worst_hess:.1e} <= 1e-5")


def test_criterion_6_ik_round_trip(model):
    rng = np.random.default_rng(6006)
    worst_pos = worst_rot = worst_psi = 0.0
    n = 0
    while n < 10000:
        arm = model.left if n % 2 else model.right
        q = random_joint_config(arm, rng)
        if abs(q[3]) < 1e-4:
            continue
        pose = kin.forward_kinematics(arm, q)
        psi = kin.sew_angle(arm, q)
        q2 = kin.inverse_kinematics(arm, pose, psi, kin.branch_of(q),
                                    enforce_limits=False)
        achieved = kin.forward_kinematics(arm, q2)
        worst_pos = max(worst_pos, float(np.linalg.norm(
            achieved.translation - pose.translation)))
        worst_rot = max(worst_rot, geodesic_distance(achieved.rotation,
                                                     pose.rotation))
        worst_psi = max(worst_psi, abs(kin.wrap_angle(
            kin.sew_angle(arm, q2) - psi)))
        n += 1
    ok = worst_pos <= 1e-10 and worst_rot <= 1e-10 and worst_psi <= 1e-9
    report(6, "IK round trip", ok,
           f"10^4 queries: pos {worst_pos:.1e} <= 1e-10 m, "
           f"rot {worst_rot:.1e} <= 1e-10 rad, SEW {worst_psi:.1e} <= 1e-9")


def test_criterion_7_statistics():
    lo, hi = mx.wilson_interval(50, 100, 0.95)
    wilson_ok = abs(lo - 0.4038) <= 1e-3 and abs(hi - 0.5962) <= 1e-3

    h = 1e4
    xs = np.linspace(-5 * h, 2e6 + 5 * h, 4096)
    kdes = [st.kde_pdf([c], h, xs) for c in (0.0, 1e6, 2e6)]
    js_disjoint = st.js_divergence(kdes, xs)
    disjoint_ok = abs(js_disjoint - math.log(3.0)) <= 1e-3

    xs = np.linspace(-5.0, 7.0, 2048)
    kde = st.kde_pdf([0.0, 0.5, 2.0], 0.8, xs)
    js_same = st.js_divergence([kde, kde, kde], xs)
    same_ok = abs(js_same) <= 1e-6
    ok = wilson_ok and disjoint_ok and same_ok
    report(7, "statistics", ok,
           f"wilson(50,100)=({lo:.4f},{hi:.4f}) vs (0.4038,0.5962); "
           f"JS disjoint {js_disjoint:.4f} vs ln3={math.log(3.0):.4f}; "
           f"JS identical {js_same:.2e} <= 1e-6")


def test_criterion_8_ou_process():
    eta = 0.002
    k = 20
    n_paths = 100000
    finals = np.empty(n_paths)
    for i in range(n_paths):
        finals[i] = pb.ou_path(eta, k + 1, seed=i)[k, 2]
    var_ratio = finals.var() / pb.ou_variance(eta, k)
    var_ok = abs(var_ratio - 1.0) <= 0.02

    p1 = pb.ou_path(0.001, 80, seed=88)
    p2 = pb.ou_path(0.002, 80, seed=88)
    linear_ok = np.array_equal(2.0 * p1, p2)
    ok = var_ok and linear_ok
    report(8, "OU process", ok,
           f"MC/closed-form variance ratio {var_ratio:.4f} within 2%; "
           f"eta-doubling exact={linear_ok}")


def test_criterion_9_outcome_gradient(model, world_cfg, perturbed_levels):
    stats = {}
    for lvl in (1, 3):
        cats = {c: 0 for c in mx.CATEGORIES}
        for ep in perturbed_levels[lvl]:
            rolled = ws.replay_episode(model, world_cfg, ep)
            cats[mx.classify_outcome(rolled)] += 1
        successes = cats["I"] + cats["II"]
        stats[lvl] = (successes / 200.0, cats)
    ok = (stats[3][0] < stats[1][0]
          and stats[3][1]["III"] > stats[1][1]["III"])
    report(9, "outcome gradient", ok,
           f"success level1={stats[1][0]:.3f} {stats[1][1]} vs "
           f"level3={stats[3][0]:.3f} {stats[3][1]}; "
           f"III: {stats[3][1]['III']} > {stats[1][1]['III']}")


def test_criterion_10_cli_determinism(tmp_path):
    outs = []
    for run_id in ("a", "b"):
        base = tmp_path / run_id
        assert cli.main(["gen", "--out-dir", str(base / "gen"), "--n", "4",
                         "--seed", "31"]) == 0
        assert cli.main(["perturb", "--in", str(base / "gen/episodes.jsonl"),
                         "--out-dir", str(base / "pert"), "--level", "2",
                         "--seed", "31"]) == 0
        assert cli.main(["eval", "--in", str(base / "pert/episodes.jsonl"),
                         "--out-dir", str(base / "eval")]) == 0
        assert cli.main(["curvature", "--in", str(base / "pert/episodes.jsonl"),
                         "--out-dir", str(base / "curv"), "--max-episodes", "2",
                         "--knot-stride", "6"]) == 0
        outs.append(base)
    files = ["gen/episodes.jsonl", "gen/manifest.json", "pert/episodes.jsonl",
             "pert/perturb_summary.json", "eval/eval_report.json",
             "curv/curvature_series.jsonl", "curv/curvature_analysis.json"]
    diffs = [f for f in files
             if (outs[0] / f).read_bytes() != (outs[1] / f).read_bytes()]
    report(10, "CLI determinism", not diffs,
           f"{len(files)} output files byte-compared; differing: {diffs}")
