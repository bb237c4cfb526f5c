import math

import numpy as np
import pytest

from bilock import stats as st
from bilock.errors import (DegenerateSample, GridTooCoarse,
                           InsufficientCategory)


def test_scott_bandwidth_formula():
    # 50 symmetric pairs: sample standard deviation exactly 2
    a = 2.0 * math.sqrt(99) / 10.0
    samples = [a, -a] * 50
    h = st.scott_bandwidth(samples)
    assert abs(h - 2.0 * 100 ** (-0.2)) <= 1e-5
    assert abs(h - 0.79621) <= 1e-5


def test_scott_bandwidth_homogeneity():
    rng = np.random.default_rng(60)
    x = rng.normal(size=64)
    h = st.scott_bandwidth(x)
    assert abs(st.scott_bandwidth(7.0 * x) - 7.0 * h) <= 1e-12 * h


def test_scott_degenerate():
    with pytest.raises(DegenerateSample):
        st.scott_bandwidth([1.0])
    with pytest.raises(DegenerateSample):
        st.scott_bandwidth([3.0] * 10)


def test_kde_density_properties():
    rng = np.random.default_rng(61)
    samples = rng.normal(size=200)
    xs = np.linspace(-8.0, 8.0, 2048)
    vals = st.kde_pdf(samples, st.scott_bandwidth(samples), xs)
    assert np.all(vals >= 0.0)
    assert abs(np.trapezoid(vals, xs) - 1.0) <= 1e-3


def test_kde_validation():
    xs = np.linspace(-1.0, 1.0, 16)
    with pytest.raises(DegenerateSample):
        st.kde_pdf([], 1.0, xs)
    for h in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            st.kde_pdf([0.0], h, xs)


def test_js_identical_densities_zero():
    xs = np.linspace(-5.0, 7.0, 2048)
    kde = st.kde_pdf([0.0, 1.0, 2.0], 0.7, xs)
    js = st.js_divergence([kde, kde, kde], xs)
    assert abs(js) <= 1e-6


def test_js_three_disjoint_is_ln3():
    """Gaussians a million apart (relative to bandwidth, effectively
    disjoint) on a grid fine enough to resolve them."""
    h = 1e4
    xs = np.linspace(-5 * h, 2e6 + 5 * h, 4096)
    kdes = [st.kde_pdf([c], h, xs) for c in (0.0, 1e6, 2e6)]
    js = st.js_divergence(kdes, xs)
    assert abs(js - math.log(3.0)) <= 1e-3


def test_js_two_disjoint_is_ln2():
    xs = np.linspace(-6.0, 106.0, 4096)
    kdes = [st.kde_pdf([0.0], 1.0, xs), st.kde_pdf([100.0], 1.0, xs)]
    assert abs(st.js_divergence(kdes, xs) - math.log(2.0)) <= 1e-3


def test_js_permutation_symmetric():
    rng = np.random.default_rng(62)
    xs = np.linspace(-4.0, 7.0, 2048)
    kdes = [st.kde_pdf(rng.normal(loc=m, size=50), 0.5, xs)
            for m in (0.0, 1.0, 3.0)]
    a = st.js_divergence(kdes, xs)
    b = st.js_divergence(kdes[::-1], xs)
    assert a == b
    assert 0.0 <= a <= math.log(3.0) + 1e-3


def test_js_grid_too_coarse():
    xs = np.linspace(-1e6, 1e6, 64)  # spacing far wider than the bandwidth
    kde = st.kde_pdf([0.0], 1.0, xs)
    with pytest.raises(GridTooCoarse):
        st.js_divergence([kde, kde], xs)


def test_pearson_exact_lines():
    x = np.arange(10.0)
    assert abs(st.pearson(x, 2.0 * x + 3.0) - 1.0) <= 1e-12
    assert abs(st.pearson(x, -x) + 1.0) <= 1e-12


def test_pearson_hand_computed_value():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    y = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
    # means 3, 3; cov sum = 8; var sums = 10, 10
    want = 8.0 / 10.0
    assert abs(st.pearson(x, y) - want) <= 1e-12


def test_correlations_affine_invariant():
    rng = np.random.default_rng(63)
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    r = st.pearson(x, y)
    rho = st.spearman(x, y)
    assert abs(st.pearson(2.5 * x + 1.0, 0.3 * y - 7.0) - r) <= 1e-12
    assert abs(st.spearman(2.5 * x + 1.0, 0.3 * y - 7.0) - rho) <= 1e-12


def test_pearson_degenerate():
    with pytest.raises(DegenerateSample):
        st.pearson([1.0], [2.0])
    with pytest.raises(DegenerateSample):
        st.pearson([1.0, 1.0], [2.0, 3.0])


def test_spearman_monotone():
    x = np.array([0.3, 1.2, 2.0, 5.5, 9.0])
    assert abs(st.spearman(x, np.exp(x)) - 1.0) <= 1e-12
    assert abs(st.spearman(x, -(x ** 3)) + 1.0) <= 1e-12


def test_spearman_ties_match_rank_oracle():
    x = np.array([1.0, 2.0, 2.0, 3.0, 4.0])
    y = np.array([0.5, 0.1, 0.9, 0.7, 1.5])
    # explicit mean-rank construction for the tie pair
    rx = np.array([1.0, 2.5, 2.5, 4.0, 5.0])
    ry = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
    assert abs(st.spearman(x, y) - st.pearson(rx, ry)) <= 1e-12


def test_outcome_js_identical_series_zero():
    series = [[1.0, 2.0, 3.0]] * 6
    outcomes = ["I", "I", "II", "II", "III", "III"]
    js = st.outcome_conditioned_js(series, outcomes, "mean")
    assert abs(js) <= 1e-6
    js = st.outcome_conditioned_js(series, outcomes, "max")
    assert abs(js) <= 1e-6


def test_outcome_js_disjoint_is_ln3():
    # category statistics near 0, 1e6, 2e6 with spreads wide enough for
    # the default grid to resolve, yet mutually disjoint
    series = ([[0.0], [1e4]] + [[1e6], [1e6 + 1e4]]
              + [[2e6], [2e6 + 1e4]])
    outcomes = ["I", "I", "II", "II", "III", "III"]
    js = st.outcome_conditioned_js(series, outcomes, "mean")
    assert abs(js - math.log(3.0)) <= 1e-3


def test_outcome_js_insufficient_category():
    series = [[1.0]] * 5
    outcomes = ["I", "I", "II", "II", "III"]
    with pytest.raises(InsufficientCategory):
        st.outcome_conditioned_js(series, outcomes, "mean")


def test_outcome_js_excludes_full_failures():
    series = [[1.0, 2.0]] * 6 + [[999.0]]
    outcomes = ["I", "I", "II", "II", "III", "III", "IV"]
    js = st.outcome_conditioned_js(series, outcomes, "mean")
    assert abs(js) <= 1e-6  # the IV rollout is ignored


def test_outcome_js_end_to_end_surrogate(model, world_cfg, clean_set):
    """Pipeline smoke: curvature statistics of surrogate rollouts pooled
    over perturbation levels give a finite JS in [0, ln 3]."""
    from bilock import manifold as mf
    from bilock import metrics as mx
    from bilock import perturb as pb
    from bilock import worldsim as ws

    series = []
    outcomes = []
    for lvl in (1, 2, 3):
        for ep in pb.perturb_dataset(model, clean_set, lvl, pb.LEVEL_ETAS[lvl],
                                     master_seed=64):
            rolled = ws.replay_episode(model, world_cfg, ep)
            outcomes.append(mx.classify_outcome(rolled))
            f = mf.constraint_for_episode(model, ep)
            records, _ = mf.rollout_curvature_series(f, ep, knot_stride=8)
            series.append([r["kretschmann"] for r in records])
    cats = {c: outcomes.count(c) for c in ("I", "II", "III")}
    assert min(cats.values()) >= 2, cats  # pooled levels populate I, II, III
    for stat in ("mean", "max"):
        js = st.outcome_conditioned_js(series, outcomes, stat)
        assert 0.0 <= js <= math.log(3.0) + 1e-3
