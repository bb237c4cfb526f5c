"""KDE with Scott's-rule bandwidths, multi-way JS divergence, correlations.

Densities are plain arrays: ``kde_pdf`` samples a Gaussian KDE on a grid
``xs``, and ``js_divergence`` takes such samples on one shared grid.  The
Jensen-Shannon divergence of m distributions is H(mean) minus the mean of
the entropies, evaluated by trapezoidal quadrature on that grid; it is
bounded by ln(m), attained by pairwise-disjoint densities.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSample, GridTooCoarse, InsufficientCategory


def scott_bandwidth(samples):
    """h = sigma_hat * n^(-1/5) with the 1-D sample standard deviation."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise DegenerateSample("Scott's rule needs at least 2 samples")
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise DegenerateSample("Scott's rule needs nonzero variance")
    return sd * x.size ** (-0.2)


def kde_pdf(samples, bandwidth, xs):
    """Gaussian kernel density estimate of samples, evaluated at xs."""
    samples = np.asarray(samples, dtype=float).reshape(-1)
    if samples.size == 0:
        raise DegenerateSample("KDE of an empty sample")
    if not bandwidth > 0.0:
        raise ValueError("bandwidth must be positive")
    z = (np.asarray(xs, dtype=float)[..., None] - samples) / bandwidth
    norm = bandwidth * math.sqrt(2.0 * math.pi) * samples.size
    return np.exp(-0.5 * z * z).sum(axis=-1) / norm


def _entropy(p, xs):
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(p > 0.0, p * np.log(p), 0.0)
    return -float(np.trapezoid(integrand, xs))


def js_divergence(densities, xs):
    """Multi-way Jensen-Shannon divergence in nats of densities sampled on
    the shared grid xs.

    Each density is integrated on the grid and must capture its mass to
    within 1e-2 before renormalization, else the grid is too coarse.
    """
    if len(densities) < 2:
        raise ValueError("need at least two densities")
    ps = []
    for i, vals in enumerate(densities):
        mass = float(np.trapezoid(vals, xs))
        if abs(mass - 1.0) > 1e-2:
            raise GridTooCoarse(
                f"density {i} integrates to {mass:.4f} on the grid")
        ps.append(vals / mass)
    mean = np.mean(ps, axis=0)
    return _entropy(mean, xs) - float(np.mean([_entropy(p, xs) for p in ps]))


def pearson(x, y):
    """Product-moment correlation coefficient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise DegenerateSample("pearson needs two equal-length samples, n >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        raise DegenerateSample("pearson needs nonzero variances")
    return float((dx @ dy) / math.sqrt(vx * vy))


def _average_ranks(x):
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=float)
    xs = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and xs[j + 1] == xs[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # mean rank, 1-based
        i = j + 1
    return ranks


def spearman(x, y):
    """Pearson correlation of average-ranked data (ties get mean ranks)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise DegenerateSample("spearman needs two equal-length samples, n >= 2")
    return pearson(_average_ranks(x), _average_ranks(y))


def _category_bandwidth(values):
    try:
        return scott_bandwidth(values)
    except DegenerateSample:
        # degenerate (constant) statistic: any common spread keeps the
        # identical-density JS at zero while the grid stays valid
        scale = max(1.0, float(np.abs(values).max()))
        return 1e-6 * scale


def outcome_conditioned_js(curvature_series, outcomes, statistic="mean"):
    """JS divergence of a per-rollout curvature statistic across outcomes.

    curvature_series: one iterable of Kretschmann values per rollout.
    outcomes: the matching category strings.  Full failures are excluded:
    the constrained motion never happens there.
    """
    if statistic not in ("mean", "max"):
        raise ValueError("statistic must be 'mean' or 'max'")
    reducer = np.mean if statistic == "mean" else np.max
    groups = {"I": [], "II": [], "III": []}
    for series, cat in zip(curvature_series, outcomes):
        if cat not in groups:
            continue
        vals = np.asarray(list(series), dtype=float)
        if vals.size == 0:
            continue
        groups[cat].append(float(reducer(vals)))
    for cat, vals in groups.items():
        if len(vals) < 2:
            raise InsufficientCategory(
                f"category {cat} has {len(vals)} rollouts; need at least 2")
    samples = [np.asarray(groups[cat]) for cat in ("I", "II", "III")]
    bandwidths = [_category_bandwidth(vals) for vals in samples]
    pooled = np.concatenate(samples)
    h_max = max(bandwidths)
    xs = np.linspace(float(pooled.min() - 3.0 * h_max),
                     float(pooled.max() + 3.0 * h_max), 2048)
    return js_divergence([kde_pdf(vals, h, xs)
                          for vals, h in zip(samples, bandwidths)], xs)
