"""Every function in ``src/bilock`` is run by one of the four CLI stages, or
is named in ``UNREACHED`` with the reason it is not.

A subprocess installs ``sys.setprofile`` before it imports bilock, runs gen,
perturb (by level and by eta), eval and curvature (dual and fd) on a
three-episode dataset, and prints every function of the package it entered.
An ``ast`` walk lists the functions the package defines (lambdas and
comprehensions are not functions here).  The two must differ by exactly
``UNREACHED``: a new function that no stage runs fails, and so does an
entry whose function a stage now runs or that no longer exists.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bilock"

UNREACHED = {
    # oracles of the acceptance criteria and property tests; they stay next
    # to the code they check
    "kinematics.geometric_jacobian": "criterion 5 checks FD against it",
    "kinematics.sew_angle": "criterion 6: the IK round trip keeps psi",
    "kinematics.branch_of": "the IK round trip picks the branch of q",
    "geometry.random_rotation": "uniform rotations for geometry properties",
    "bimanual.check_preservation": "criterion 1: the lock holds on clean data",
    "perturb.ou_variance": "criterion 8: OU paths against the closed form",
    # error paths that no successful stage takes
    "errors.IkFailure.__init__": "raised only for a pose without an IK "
                                 "solution, which this run never meets",
    "errors.MalformedRecord.__init__": "raised only for a bad dataset",
    "errors.RankDeficient.__init__": "raised only at a singular knot",
    "cli._Parser.error": "runs only on an argument error",
    "geometry.Pose.__repr__": "for debugging",
    # the KDE/JS path needs >= 2 rollouts in each of outcomes I, II and III;
    # three episodes are not enough, so outcome_conditioned_js stops early
    "stats._category_bandwidth": "KDE/JS path",
    "stats.scott_bandwidth": "KDE/JS path",
    "stats.kde_pdf": "KDE/JS path",
    "stats.js_divergence": "KDE/JS path",
    "stats._entropy": "KDE/JS path",
}

STAGES = r"""
import json, sys
from pathlib import Path

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
from bilock import cli

out = Path(sys.argv[1])
data = str(out / "gen" / "episodes.jsonl")
l3 = str(out / "l3" / "episodes.jsonl")
runs = {"gen": ["gen", "--n", "3", "--seed", "1"],
        "l3": ["perturb", "--in", data, "--level", "3"],
        "eta": ["perturb", "--in", data, "--eta", "0.0028"],
        "eval": ["eval", "--in", l3],
        "dual": ["curvature", "--in", l3, "--knot-stride", "8"],
        "fd": ["curvature", "--in", l3, "--diff-mode", "fd",
               "--max-episodes", "1", "--knot-stride", "30"]}
codes = [cli.main(args + ["--out-dir", str(out / name)])
         for name, args in runs.items()]
sys.setprofile(None)
root = Path(cli.__file__).parent
print(json.dumps({"codes": codes, "entered": sorted(
    f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in entered
    if Path(c.co_filename).parent == root)}))
"""


def defined_functions():
    """``<module>.<qualname>`` of every def in the package."""
    names = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return names


def test_stages_reach_every_function_outside_the_allowlist(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", STAGES, str(tmp_path)], capture_output=True,
        text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent),
             "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * 6, proc.stderr
    defined = defined_functions()
    unreached = defined - set(result["entered"])
    assert not unreached - UNREACHED.keys(), (
        "functions no stage runs; delete them, or name them in UNREACHED "
        f"with the reason: {sorted(unreached - UNREACHED.keys())}")
    assert not UNREACHED.keys() - unreached, (
        "stale UNREACHED entries (now run, or gone): "
        f"{sorted(UNREACHED.keys() - unreached)}")
