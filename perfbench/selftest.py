"""Tests of the benchmark itself.

Run from the repository root (about half a minute on two cores):

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` so the library's own test run does not
collect it.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks   # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_tiny(workload, trace):
    proc = _run("--workload", workload, "--n", "2", "--seed", "1",
                "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run("--workload", "degrade", cwd=bare,
                script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _bilock_namespaces():
    mods = [importlib.import_module(f"bilock.{m}") for m in tracing.MODULES]
    worldsim = importlib.import_module("bilock.worldsim")
    manifold = importlib.import_module("bilock.manifold")
    return mods + [worldsim.TaskWorld, manifold.ConstraintFunction]


def test_trace_wrappers_restore_every_attribute():
    spaces = _bilock_namespaces()
    before = [dict(vars(ns)) for ns in spaces]
    tracer = tracing.Tracer()
    with tracer:
        changed = sum(vars(ns).get(k) is not v
                      for ns, snap in zip(spaces, before)
                      for k, v in snap.items())
        assert changed >= len(tracing.TARGETS)
        kin = importlib.import_module("bilock.kinematics")
        assert hasattr(kin.forward_kinematics, "__wrapped__")
    after = [dict(vars(ns)) for ns in spaces]
    for ns, snap, now in zip(spaces, before, after):
        assert now.keys() == snap.keys(), ns
        for key, value in snap.items():
            assert now[key] is value, f"{ns}.{key} not restored"


def test_traced_call_records_span():
    bimanual = importlib.import_module("bilock.bimanual")
    configio = importlib.import_module("bilock.configio")
    model, _ = configio.load_models(configio.PipelineConfig())
    tracer = tracing.Tracer()
    with tracer:
        bimanual.relative_of_q14(model, [0.1] * 14)
    metrics, _ = tracing.layer_metrics(tracer)
    assert metrics["bimanual.relative_of_q14.calls"][0] == 1
    assert metrics["kinematics.forward_kinematics.calls"][0] == 2
    assert metrics["geometry.so3_exp.calls"][0] == 14


def _numbers(summary):
    return [(k, v) for k, v in summary.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_reference_check_catches_each_nudged_number(workload):
    reference = json.loads((HERE / "reference" / f"{workload}.json")
                           .read_text(encoding="utf-8"))
    mode = "fd" if workload == "curvature-fd" else "dual"
    for stage, summary in reference.items():
        assert checks.compare(summary, summary, mode) == []
        for key, value in _numbers(summary):
            if isinstance(value, int):
                nudged = value + 1
            else:
                kind, bound = checks.TOLERANCES[mode][key]
                step = 10 * bound * (abs(value) if kind == "rel" else 1.0)
                nudged = value + (step or 1e-9)
            problems = checks.compare(dict(summary, **{key: nudged}), summary,
                                      mode)
            assert len(problems) == 1 and problems[0].startswith(f"{key}="), (
                stage, key, problems)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tracing.tail(list(range(10))) == (0.0, 0.0)
    assert tracing.tail(list(range(40))) == (75.0, 29.0)
    assert tracing.tail(list(range(1000))) == (99.0, 989.0)
