"""The benchmark's tracer (perfbench/tracing.py), run from source around
in-process stages.  Besides the function names that test_trace_targets.py
checks, the tracer reads the results it wraps: the frame of a curvature
result, the ``sigma_min`` of a ``RankDeficient``, ``TaskWorld.attach_state``
and the ``(q, held)`` pair of ``subordinate_command``."""

import importlib
import math

from bilock import cli
from bilock.errors import EXIT_NUMERIC

from test_trace_targets import _load_tracing


def _traced(tracing, args):
    """(exit code, per-layer metric values) of one stage run under a fresh
    tracer."""
    tracer = tracing["Tracer"]()
    with tracer:
        code = tracer.stage(args[0], cli.main, args)
    metrics, _ = tracing["layer_metrics"](tracer)
    return code, {name: value for name, (value, _) in metrics.items()}


def test_tracer_counts_fd_curvature_and_restores_the_library(tmp_path):
    tracing = _load_tracing()
    owners = [importlib.import_module(f"bilock.{m}")
              for m in tracing["MODULES"]]
    for mod_name, path, _ in tracing["TARGETS"]:
        owner = importlib.import_module(f"bilock.{mod_name}")
        for part in path.split(".")[:-1]:
            owner = getattr(owner, part)
            owners.append(owner)
    before = [dict(vars(owner)) for owner in owners]  # functions by name

    data = str(tmp_path / "gen" / "episodes.jsonl")
    code, gen = _traced(tracing, [
        "gen", "--n", "1", "--seed", "1", "--out-dir", str(tmp_path / "gen")])
    assert code == 0
    assert gen["bimanual.subordinate_command.calls"] > 0
    assert 0.0 <= gen["bimanual.subordinate_command.hold_frac"] < 1.0
    assert 0.0 < gen["worldsim.TaskWorld.step.active_frac"] < 1.0

    code, fd = _traced(tracing, [
        "curvature", "--in", data, "--diff-mode", "fd", "--knot-stride", "12",
        "--out-dir", str(tmp_path / "fd")])
    assert code == 0
    knots = fd["manifold.riemann_and_kretschmann.calls"]
    assert knots > 0
    assert fd["autodiff.jacobian_numeric.calls"] == knots
    assert fd["autodiff.hessian_numeric.calls"] == knots
    assert fd["autodiff.f_evals_per_knot"] == 2  # one stacked call per kernel
    assert fd["manifold.rank_deficient_frac"] == 0.0
    assert fd["manifold.sigma_min.min"] > 0.0
    assert math.isfinite(fd["manifold.cond_j.max"]) \
        and fd["manifold.cond_j.max"] >= 1.0

    code, singular = _traced(tracing, [
        "curvature", "--in", data, "--knot-stride", "12", "--rank-tol", "1e9",
        "--out-dir", str(tmp_path / "singular")])
    assert code == EXIT_NUMERIC
    assert singular["manifold.rank_deficient_frac"] == 1.0
    assert singular["manifold.sigma_min.min"] > 0.0

    for owner, names in zip(owners, before):
        assert all(vars(owner).get(name) is obj for name, obj in names.items())
