"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
name and reads the episode from a fixed argument position.  A rename or a
reordered signature would break ``--trace 1`` without failing any stage, so
each of its targets is checked here against the library."""

import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    """The tracer's globals, run from source (no bytecode cache is written
    next to it)."""
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         namespace)
    return namespace


def test_trace_targets_resolve_to_functions():
    tracing = _load_tracing()
    for mod_name in tracing["MODULES"]:
        importlib.import_module(f"bilock.{mod_name}")
    for mod_name, path, episode_arg in tracing["TARGETS"]:
        owner = importlib.import_module(f"bilock.{mod_name}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        fn = owner.__dict__.get(attr)
        assert inspect.isfunction(fn), f"{mod_name}.{path} is not a function"
        if isinstance(episode_arg, int):
            params = list(inspect.signature(fn).parameters)
            assert params[episode_arg] == "episode", (
                f"{mod_name}.{path}: argument {episode_arg} is "
                f"{params[episode_arg]!r}, not the episode")
