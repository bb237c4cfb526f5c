"""Cross-version numeric reference for the perturb, eval and curvature stages.

``tests/data/reference_v1.json`` holds the stage summaries of a fixed small
run.  A change that is meant to alter speed or structure, not results, must
reproduce it: integers, strings, booleans and outcome counts exactly, floats
within the tolerances below (the dual-mode bounds of ``perfbench/checks.py``).
They admit last-bit changes from faster kernels, not different results.

To regenerate after a change that is meant to alter results::

    PYTHONPATH=src python3 tests/test_reference.py > tests/data/reference_v1.json
"""

import contextlib
import json
import math
import sys
import tempfile
from pathlib import Path

from bilock import cli

REFERENCE = Path(__file__).parent / "data" / "reference_v1.json"

VIOLATION_TOL = ("rel", 1e-6)
TOLERANCES = {
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
}


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _without_hash(doc):
    # the config hash covers paths and option spellings, not results
    return {k: v for k, v in doc.items() if k != "config_hash"}


def stage_summaries(base):
    """Run gen -> perturb -> eval -> curvature under base; summarize each."""
    base = Path(base)
    data = str(base / "pert" / "episodes.jsonl")
    runs = [["gen", "--n", "4", "--seed", "1", "--out-dir", str(base / "gen")],
            ["perturb", "--in", str(base / "gen" / "episodes.jsonl"),
             "--level", "3", "--seed", "1", "--out-dir", str(base / "pert")],
            ["eval", "--in", data, "--out-dir", str(base / "eval")],
            ["curvature", "--in", data, "--knot-stride", "2",
             "--out-dir", str(base / "curv")]]
    for args in runs:
        assert cli.main(args) == 0, args
    curvature = _without_hash(_load(base / "curv" / "curvature_analysis.json"))
    with open(base / "curv" / "curvature_series.jsonl", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()][1:]
    records = [r for row in rows for r in row["series"]]
    ks = [r["kretschmann"] for r in records]
    curvature["series"] = {
        "outcomes": [row["outcome"] for row in rows],
        "records": len(records),
        "gaps": sum(len(row["gaps"]) for row in rows),
        "kretschmann_min": min(ks),
        "kretschmann_mean": sum(ks) / len(ks),
        "kretschmann_max": max(ks),
        "residual_mean": sum(r["residual"] for r in records) / len(records),
        "cond_j_max": max(r["cond_j"] for r in records),
    }
    return {
        "perturb": _without_hash(_load(base / "pert" / "perturb_summary.json")),
        "eval": _without_hash(_load(base / "eval" / "eval_report.json")),
        "curvature": curvature,
    }


def _mismatches(got, ref, path=""):
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(ref)}"]
        return [m for k in ref for m in _mismatches(got[k], ref[k], f"{path}.{k}")]
    key = path.rsplit(".", 1)[-1]
    if isinstance(ref, float) and key in TOLERANCES:
        kind, bound = TOLERANCES[key]
        scale = abs(ref) if kind == "rel" else 1.0
        if isinstance(got, float) and math.isfinite(got) \
                and abs(got - ref) <= bound * scale:
            return []
        return [f"{path}={got!r}, reference {ref!r} ({kind} tol {bound:g})"]
    if got != ref or type(got) is not type(ref):
        return [f"{path}={got!r}, reference {ref!r} (exact)"]
    return []


def test_stage_summaries_match_reference(tmp_path):
    got = stage_summaries(tmp_path)
    assert _mismatches(got, _load(REFERENCE)) == []


if __name__ == "__main__":
    # the stages' progress lines go to stderr so stdout holds only the JSON
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        summaries = stage_summaries(tmp)
    json.dump(summaries, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
