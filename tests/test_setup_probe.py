"""The benchmark (perfbench/run.py) times its ``SETUP_PROBE`` snippet, which
calls ``bilock.cli`` functions by name.  If those names moved, only the
benchmark's setup row would fail, so the probe is run here from source, in
a subprocess, the way the benchmark runs it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _setup_probe():
    """The probe's source text, read without importing perfbench/run.py."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SETUP_PROBE"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SETUP_PROBE")


def test_setup_probe_runs_and_prints_one_float():
    proc = subprocess.run([sys.executable, "-c", _setup_probe()], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.split()
    assert len(printed) == 1, proc.stdout
    float(printed[0])
