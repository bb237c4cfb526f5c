"""Output checks for the benchmark's CLI stages.

Each stage's output files are reduced to a summary of integer fields and
float summaries.  A summary must pass the stage's invariants at every seed,
and at the reference seed and size it must match the committed reference:
integers exactly, floats within the tolerances below.  The tolerances admit
last-bit changes from faster kernels, not different results.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# (kind, tolerance): "rel" relative to the reference, "abs" absolute.
VIOLATION_TOL = ("rel", 1e-6)
TOLERANCES = {
    "dual": {
        "pos_mean_cm": VIOLATION_TOL, "pos_std_cm": VIOLATION_TOL,
        "pos_max_cm": VIOLATION_TOL, "rot_mean_deg": VIOLATION_TOL,
        "rot_std_deg": VIOLATION_TOL, "rot_max_deg": VIOLATION_TOL,
        "success_rate": ("rel", 1e-9), "wilson_lo": ("rel", 1e-9),
        "wilson_hi": ("rel", 1e-9),
        "pearson": ("abs", 1e-6), "spearman": ("abs", 1e-6),
        "js_mean": ("rel", 1e-6), "js_max": ("rel", 1e-6),
        "kretschmann_min": ("rel", 1e-6), "kretschmann_mean": ("rel", 1e-6),
        "kretschmann_max": ("rel", 1e-6), "residual_mean": ("rel", 1e-6),
        "cond_j_max": ("rel", 1e-6),
    },
}
# Central second differences at a 1e-5 step amplify a last-bit change in the
# constraint by about eps/h^2, so the fd oracle's summaries get wider bounds.
TOLERANCES["fd"] = dict(TOLERANCES["dual"], **{
    "pearson": ("abs", 1e-3), "spearman": ("abs", 1e-2),
    "js_mean": ("rel", 1e-3), "js_max": ("rel", 1e-3),
    "kretschmann_min": ("rel", 1e-3), "kretschmann_mean": ("rel", 1e-3),
    "kretschmann_max": ("rel", 1e-3),
    "residual_mean": ("rel", 1e-3), "cond_j_max": ("rel", 1e-3),
})

VIOLATION_FIELDS = ("pos_mean_cm", "pos_std_cm", "pos_max_cm",
                    "rot_mean_deg", "rot_std_deg", "rot_max_deg")


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _episode_records(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    return [json.loads(line) for line in lines[1:]]


def transport_knots(dataset, n_episodes, stride):
    """Knots ``curvature`` visits: every stride-th transport step per episode."""
    total = 0
    for rec in _episode_records(dataset)[:n_episodes]:
        idx = [i for i, s in enumerate(rec["steps"]) if s["phase"] == "transport"]
        total += len(idx[::stride])
    return total


def summarize(kind, out_dir):
    """Summary of one stage's outputs in out_dir."""
    out = Path(out_dir)
    if kind == "gen":
        recs = _episode_records(out / "episodes.jsonl")
        manifest = _load(out / "manifest.json")
        return {"n_episodes": manifest["n_episodes"],
                "n_records": len(recs),
                "n_steps": sum(len(r["steps"]) for r in recs),
                "n_transport": sum(s["phase"] == "transport"
                                   for r in recs for s in r["steps"])}
    if kind == "perturb":
        doc = _load(out / "perturb_summary.json")
        return {k: doc[k] for k in ("ik_failures", "n_knot_errors")
                + VIOLATION_FIELDS}
    if kind == "eval":
        doc = _load(out / "eval_report.json")
        summary = {f"outcome_{c}": n for c, n in doc["outcome_counts"].items()}
        summary.update({k: doc[k] for k in ("n_episodes", "successes",
                                            "success_rate", "wilson_lo",
                                            "wilson_hi")})
        summary.update(doc["violation"])
        return summary
    if kind == "curvature":
        doc = _load(out / "curvature_analysis.json")
        with open(out / "curvature_series.jsonl", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()][1:]
        records = [r for row in rows for r in row["series"]]
        ks = [r["kretschmann"] for r in records]
        summary = {k: doc[k] for k in ("n_rollouts", "n_knots",
                                       "rank_deficient_knots", "pearson",
                                       "spearman", "js_mean", "js_max")}
        summary.update({f"outcome_{c}": n
                        for c, n in doc["category_counts"].items()})
        summary.update({
            "js_ran": doc["js_mean"] is not None,
            "series_rollouts": len(rows),
            "series_records": len(records),
            "series_gaps": sum(len(row["gaps"]) for row in rows),
            "series_outcomes": {c: sum(row["outcome"] == c for row in rows)
                                for c in doc["category_counts"]},
            "kretschmann_min": min(ks) if ks else 0.0,
            "kretschmann_mean": sum(ks) / len(ks) if ks else 0.0,
            "kretschmann_max": max(ks) if ks else 0.0,
            "residual_mean": (sum(r["residual"] for r in records) / len(records)
                              if records else 0.0),
            "cond_j_max": max((r["cond_j"] for r in records), default=0.0),
        })
        return summary
    raise ValueError(f"unknown stage kind {kind!r}")


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def invariants(kind, summary, expect):
    """Problems with a summary that hold at any seed.

    expect: n_episodes (gen, eval), n_rollouts and n_knots (curvature),
    violation (eval: the perturb summary of the same dataset) and
    below (perturb: a summary at lower volatility).
    """
    problems = []

    def need(ok, msg):
        if not ok:
            problems.append(msg)

    if kind == "gen":
        n = expect["n_episodes"]
        need(summary["n_episodes"] == n == summary["n_records"],
             f"gen wrote {summary['n_records']} episodes, manifest says "
             f"{summary['n_episodes']}, expected {n}")
        need(summary["n_transport"] > 0, "gen produced no transport knots")
    elif kind == "perturb":
        for k in VIOLATION_FIELDS:
            need(_finite(summary[k]) and summary[k] >= 0.0, f"{k} not finite")
        need(summary["n_knot_errors"] > 0, "no knot errors measured")
        below = expect.get("below")
        if below is not None:
            need(summary["pos_mean_cm"] > below["pos_mean_cm"],
                 "violation did not grow with volatility")
    elif kind == "eval":
        n = expect["n_episodes"]
        counts = [summary[f"outcome_{c}"] for c in ("I", "II", "III", "IV")]
        need(summary["n_episodes"] == n and sum(counts) == n,
             f"outcome counts {counts} do not sum to {n}")
        need(summary["wilson_lo"] - 1e-12 <= summary["success_rate"]
             <= summary["wilson_hi"] + 1e-12,
             "Wilson interval excludes the rate")
        for k in VIOLATION_FIELDS:
            ref = expect["violation"][k]
            need(math.isclose(summary[k], ref, rel_tol=1e-9, abs_tol=1e-12),
                 f"eval {k}={summary[k]!r} differs from perturb's {ref!r}")
    elif kind == "curvature":
        rollouts = expect["n_rollouts"]
        counts = {c: summary[f"outcome_{c}"] for c in ("I", "II", "III", "IV")}
        need(summary["n_rollouts"] == rollouts == summary["series_rollouts"],
             f"{summary['n_rollouts']} rollouts, expected {rollouts}")
        need(summary["n_knots"] + summary["rank_deficient_knots"]
             == expect["n_knots"],
             f"{summary['n_knots']}+{summary['rank_deficient_knots']} knots, "
             f"expected {expect['n_knots']}")
        need(summary["series_records"] == summary["n_knots"]
             and summary["series_gaps"] == summary["rank_deficient_knots"],
             "series file disagrees with the analysis")
        need(summary["series_outcomes"] == counts,
             "series outcomes disagree with the category counts")
        need(summary["n_knots"] == 0 or summary["kretschmann_min"] >= 0.0,
             "negative Kretschmann scalar")
        for k in ("pearson", "spearman"):
            v = summary[k]
            need(v is None or (_finite(v) and -1.0 <= v <= 1.0),
                 f"{k}={v!r} outside [-1, 1]")
        for k in ("js_mean", "js_max"):
            v = summary[k]
            need(v is None or (_finite(v) and 0.0 <= v <= math.log(3.0) + 1e-9),
                 f"{k}={v!r} outside [0, ln 3]")
    return problems


def compare(summary, reference, mode="dual"):
    """Problems of a summary against its reference: integers, booleans and
    None exactly; floats within TOLERANCES[mode]."""
    tol = TOLERANCES[mode]
    problems = []
    for key, ref in reference.items():
        got = summary.get(key)
        if key in tol and isinstance(ref, float):
            kind, bound = tol[key]
            scale = abs(ref) if kind == "rel" else 1.0
            if not (_finite(got) and abs(got - ref) <= bound * scale):
                problems.append(f"{key}={got!r}, reference {ref!r} "
                                f"({kind} tol {bound:g})")
        elif got != ref or type(got) is not type(ref):
            problems.append(f"{key}={got!r}, reference {ref!r} (exact)")
    return problems


def file_hashes(out_dir):
    """sha256 of every file under out_dir, keyed by relative path."""
    root = Path(out_dir)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}
