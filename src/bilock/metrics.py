"""Constraint-violation profiles, outcome classification, Wilson CIs.

Violation profiles mimic how a deployed chunked policy is scored: the
transport knots are grouped into windows of ``window`` commands starting
every ``stride`` knots (matching the predict-16/execute-8 cadence), and
each knot's commanded relative transform is compared against the window's
first commanded relative transform.  Errors are position (Euclidean) and
rotation (geodesic), evaluated at knot points only.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from . import bimanual as bm
from .episodes import BOX_DROP, GRASP_ATTACH, GRASP_DETACH, PLACED
from .errors import (EmptyDataset, InvalidCounts, MissingEventLog,
                     NoTransportPhase)
from .geometry import geodesic_distance

CATEGORIES = ("I", "II", "III", "IV")


def violation_profile(model, episode, window=16, stride=None):
    """Windowed relative-transform errors over the transport knots.

    Returns (pos_err, rot_err): one entry per knot of each window, the
    windows in order.  With window=1 every knot is its own reference and
    all errors vanish.
    """
    if stride is None:
        stride = max(1, window // 2)
    transport = episode.transport_indices()
    if not transport:
        raise NoTransportPhase("episode has no transport-phase knots")
    rels = [bm.relative_of_q14(model, episode.steps[i].act[:14])
            for i in transport]
    pos = []
    rot = []
    for start in range(0, len(transport), stride):
        ref = rels[start]
        for x in rels[start:start + window]:
            pos.append(np.linalg.norm(x.translation - ref.translation))
            rot.append(geodesic_distance(x.rotation, ref.rotation))
    return np.array(pos), np.array(rot)


def classify_outcome(episode):
    """Category "I".."IV" from the world event log; I and II count as
    binary success.

    I:   placed, both grippers attached throughout transport;
    II:  placed despite a grasp detach during transport;
    III: both grippers attached but the box dropped before placement;
    IV:  anything else (the box was never carried to the shelf).
    """
    if episode.events is None:
        raise MissingEventLog("episode carries no event log")
    placed = any(e.kind == PLACED for e in episode.events)
    attaches = sum(1 for e in episode.events if e.kind == GRASP_ATTACH)
    dropped = any(e.kind == BOX_DROP for e in episode.events)
    detach_in_transport = any(
        e.kind == GRASP_DETACH
        and episode.steps[e.t].phase == "transport"
        for e in episode.events)
    if placed:
        return "II" if detach_in_transport else "I"
    if attaches == 2 and dropped:
        return "III"
    return "IV"


def wilson_interval(successes, trials, confidence=0.95):
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise InvalidCounts(f"bad counts {successes}/{trials}")
    if not 0.0 < confidence < 1.0:
        raise InvalidCounts("confidence must lie in (0, 1)")
    z = NormalDist().inv_cdf(0.5 * (1.0 + confidence))
    n = trials
    p = successes / n
    z2n = z * z / n
    center = (p + z2n / 2.0) / (1.0 + z2n)
    half = (z / (1.0 + z2n)) * np.sqrt(p * (1.0 - p) / n + z2n / (4.0 * n))
    return max(0.0, center - half), min(1.0, center + half)


def violation_table(profiles):
    """Violation-table row: mean, spread and maximum of the pooled per-knot
    errors of the (pos_err, rot_err) profiles, in centimeters and degrees."""
    pos = np.concatenate([pos for pos, _ in profiles])
    rot = np.concatenate([rot for _, rot in profiles])
    return {
        "pos_mean_cm": float(pos.mean() * 100.0),
        "pos_std_cm": float(pos.std() * 100.0),
        "pos_max_cm": float(pos.max() * 100.0),
        "rot_mean_deg": float(np.degrees(rot.mean())),
        "rot_std_deg": float(np.degrees(rot.std())),
        "rot_max_deg": float(np.degrees(rot.max())),
    }


def aggregate_report(episodes, profiles, outcomes, window=16, stride=8,
                     confidence=0.95):
    """The ``eval_report_v1`` document: category counts, Wilson CI and the
    violation table of the profiles."""
    if not episodes:
        raise EmptyDataset("cannot aggregate an empty episode list")
    if not (len(episodes) == len(profiles) == len(outcomes)):
        raise InvalidCounts("episodes, profiles, outcomes length mismatch")
    counts = {c: 0 for c in CATEGORIES}
    for o in outcomes:
        counts[o] += 1
    successes = counts["I"] + counts["II"]
    lo, hi = wilson_interval(successes, len(outcomes), confidence)
    return {"schema_version": "eval_report_v1",
            "n_episodes": len(episodes), "outcome_counts": counts,
            "successes": successes, "success_rate": successes / len(outcomes),
            "wilson_lo": lo, "wilson_hi": hi,
            "violation": violation_table(profiles),
            "window": window, "stride": stride, "confidence": confidence}
