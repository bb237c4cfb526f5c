"""Span tracing of bilock's layer boundaries, installed from outside the library.

``Tracer.install()`` replaces each traced function with a timing wrapper in
every ``bilock`` module (and class) that holds a reference to it, so calls
made through ``from .x import f`` bindings are traced too.  ``remove()`` puts
every original back.  Spans stay in memory as flat arrays; ``save()`` writes
them out once the run is over.

A span holds a name, start, end, parent span and the index of the episode it
belongs to, plus two per-span bits: ``raised`` (the call raised) and ``flag``
(a per-function fact: TaskWorld.step entered while the world was free or
grasped, or subordinate_command held its previous configuration).
"""

from __future__ import annotations

import importlib
import os
import time
from array import array

import numpy as np

# module, attribute path, where the episode argument sits (None: not an
# episode-level call; "order": the n-th call of the stage is episode n)
TARGETS = [
    ("kinematics", "forward_kinematics", None),
    ("kinematics", "inverse_kinematics", None),
    ("kinematics", "forward_kinematics_generic", None),
    ("geometry", "so3_exp", None),
    ("geometry", "so3_log", None),
    ("bimanual", "subordinate_command", None),
    ("bimanual", "relative_of_q14", None),
    ("worldsim", "generate_demonstration", "order"),
    ("worldsim", "replay_episode", 2),
    ("worldsim", "TaskWorld.step", None),
    ("perturb", "perturb_dataset", None),
    ("perturb", "perturb_episode", 1),
    ("perturb", "ou_path", None),
    ("metrics", "violation_profile", 1),
    ("metrics", "classify_outcome", None),
    ("metrics", "aggregate_report", None),
    ("episodes", "read_episodes", None),
    ("episodes", "write_episodes", None),
    ("autodiff", "jacobian_numeric", None),
    ("autodiff", "hessian_numeric", None),
    ("manifold", "ConstraintFunction.__call__", None),
    ("manifold", "constraint_for_episode", 1),
    ("manifold", "rollout_curvature_series", 1),
    ("manifold", "riemann_and_kretschmann", None),
    ("stats", "outcome_conditioned_js", None),
    ("stats", "pearson", None),
    ("configio", "load_models", None),
]

MODULES = ("geometry", "autodiff", "kinematics", "bimanual", "episodes",
           "worldsim", "metrics", "perturb", "manifold", "stats", "configio",
           "cli")

# functions whose return value lists the episodes later calls refer to
_EPISODE_LISTS = ("episodes.read_episodes", "perturb.perturb_dataset")


class Tracer:
    """Records spans for calls into the traced bilock functions."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.episode = array("i")
        self.raised = array("b")
        self.flag = array("b")
        self.file_bytes = {}        # span index -> bytes read or written
        self.frames = []            # (sigma_min, cond_j, rank_deficient)
        self._stack = []
        self._episode_of = {}       # id(Episode) -> index in its dataset
        self._order = 0
        self._saved = []            # (owner, attribute, original)

    # --- spans ---

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid, episode):
        idx = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        if episode < 0 and parent >= 0:
            episode = self.episode[parent]
        self.name.append(nid)
        self.parent.append(parent)
        self.episode.append(episode)
        self.raised.append(0)
        self.flag.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def stage(self, name, fn, *args):
        """Run fn(*args) as the root span ``cli.<name>``; new episode numbering."""
        self._episode_of = {}
        self._order = 0
        idx = self._open(self._name_id(f"cli.{name}"), -1)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # --- wrappers ---

    def _wrap(self, qualname, fn, episode_arg):
        nid = self._name_id(qualname)
        tracer = self

        def episode_index(args):
            if episode_arg == "order":
                tracer._order += 1
                return tracer._order - 1
            if episode_arg is None or len(args) <= episode_arg:
                return -1
            return tracer._episode_of.get(id(args[episode_arg]), -1)

        def traced(*args, **kwargs):
            idx = tracer._open(nid, episode_index(args))
            if qualname == "worldsim.TaskWorld.step":
                tracer.flag[idx] = args[0].attach_state in ("free", "grasped")
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised[idx] = 1
                if qualname == "manifold.riemann_and_kretschmann":
                    tracer.frames.append((getattr(exc, "sigma_min", 0.0),
                                          0.0, True))
                raise
            finally:
                tracer._close(idx)
            tracer._observe(qualname, idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, qualname, idx, args, result):
        if qualname == "bimanual.subordinate_command":
            self.flag[idx] = bool(result[1])
        elif qualname == "manifold.riemann_and_kretschmann":
            self.frames.append((result.frame.sigma_min, result.frame.cond_j,
                                False))
        elif qualname in ("episodes.read_episodes", "episodes.write_episodes"):
            self.file_bytes[idx] = os.path.getsize(args[0])
        if qualname in _EPISODE_LISTS:
            episodes = result[0] if isinstance(result, tuple) else result
            self._episode_of = {id(ep): i for i, ep in enumerate(episodes)}

    def install(self):
        """Wrap every target in every bilock module and class that holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"bilock.{m}") for m in MODULES]
        for mod_name, path, episode_arg in TARGETS:
            qualname = f"{mod_name}.{path}"
            owner = importlib.import_module(f"bilock.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(qualname, original, episode_arg)
            holders = [owner] if cls_path else [
                m for m in modules if m.__dict__.get(attr) is original]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def remove(self):
        """Restore every attribute ``install`` replaced."""
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # --- output ---

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "episode": np.frombuffer(self.episode, dtype=np.int32),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
            "flag": np.frombuffer(self.flag, dtype=np.int8),
        }

    def save(self, path):
        """Write the spans, and the names their ``name`` ids index, as
        ``<path>.npz``."""
        np.savez(path, names=np.array(self.names), **self.arrays())


# --- per-layer metrics from the spans ---

TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values):
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it (nearest rank); (0, 0) below eleven samples."""
    n = len(values)
    for pct in TAIL_LADDER:
        rank = int(np.ceil(n * pct / 100.0))
        if rank >= 1 and n - rank >= 10:
            return pct, float(np.sort(values)[rank - 1])
    return 0.0, 0.0


def _frac(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics and tail details.

    Returns ({``<module>.<function>.<stat>``: (value, unit)},
    {``<module>.<function>``: {"tail_pct": ..., "samples": ...}}).
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    self_time = dur - child
    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(name):
        return a["name"] == ids.get(name, -1)

    def under(ancestor):
        """Spans with a span named ``ancestor`` on their parent chain."""
        anc = mask(ancestor)
        par = np.where(has_parent, a["parent"], 0)
        inside = np.zeros(dur.size, dtype=bool)
        while True:     # one pass per level of span nesting
            grown = has_parent & (anc[par] | inside[par])
            if np.array_equal(grown, inside):
                return inside
            inside = grown

    out = {}
    tails = {}

    def stats(name, *which, scale=1e6, unit="us"):
        m = mask(name)
        d = dur[m] * scale
        for w in which:
            if w == "calls":
                out[f"{name}.calls"] = (int(m.sum()), "count")
            elif w == "self_s":
                out[f"{name}.self_s"] = (float(self_time[m].sum()), "s")
            elif w == "p50":
                out[f"{name}.p50_{unit}"] = (
                    float(np.median(d)) if d.size else 0.0, unit)
            elif w == "tail":
                pct, val = tail(d)
                out[f"{name}.tail_{unit}"] = (val, unit)
                tails[name] = {"tail_pct": pct, "samples": int(d.size)}
        return m

    stats("kinematics.forward_kinematics", "calls", "self_s", "p50", "tail")
    ik = stats("kinematics.inverse_kinematics", "calls", "self_s", "p50", "tail")
    out["kinematics.inverse_kinematics.fail_frac"] = (
        _frac(a["raised"][ik].sum(), ik.sum()), "ratio")
    stats("kinematics.forward_kinematics_generic", "calls", "self_s")
    stats("geometry.so3_exp", "calls", "self_s")
    stats("geometry.so3_log", "calls", "self_s")
    sub = stats("bimanual.subordinate_command", "calls", "self_s")
    out["bimanual.subordinate_command.hold_frac"] = (
        _frac(a["flag"][sub].sum(), sub.sum()), "ratio")
    stats("bimanual.relative_of_q14", "calls", "self_s")
    ms = dict(scale=1e3, unit="ms")
    stats("worldsim.generate_demonstration", "calls", "p50", "tail", **ms)
    stats("worldsim.replay_episode", "calls", "p50", "tail", **ms)
    step = stats("worldsim.TaskWorld.step", "calls", "self_s")
    out["worldsim.TaskWorld.step.active_frac"] = (
        _frac(a["flag"][step].sum(), step.sum()), "ratio")
    stats("perturb.perturb_episode", "calls", "p50", "tail", **ms)
    stats("perturb.ou_path", "self_s")
    ik_in_perturb = ik & under("perturb.perturb_episode")
    out["perturb.ik_fail_frac"] = (
        _frac(a["raised"][ik_in_perturb].sum(), ik_in_perturb.sum()), "ratio")
    stats("metrics.violation_profile", "calls", "p50", "tail", **ms)
    stats("metrics.classify_outcome", "self_s")
    stats("metrics.aggregate_report", "self_s")
    for fn in ("read_episodes", "write_episodes"):
        name = f"episodes.{fn}"
        m = stats(name, "self_s")
        nbytes = sum(tracer.file_bytes.get(int(i), 0) for i in np.nonzero(m)[0])
        out[f"{name}.mb"] = (nbytes / 1e6, "MB")
    stats("autodiff.jacobian_numeric", "calls", "p50", "tail", **ms)
    stats("autodiff.hessian_numeric", "calls", "p50", "tail", **ms)
    knots = stats("manifold.riemann_and_kretschmann", "calls", "p50", "tail",
                  "self_s", **ms)
    f_evals = mask("manifold.ConstraintFunction.__call__") & (
        under("autodiff.jacobian_numeric") | under("autodiff.hessian_numeric"))
    out["autodiff.f_evals_per_knot"] = (_frac(f_evals.sum(), knots.sum()),
                                        "count")
    frames = tracer.frames
    good = [f for f in frames if not f[2]]
    out["manifold.rank_deficient_frac"] = (
        _frac(len(frames) - len(good), len(frames)), "ratio")
    out["manifold.sigma_min.min"] = (
        float(min(f[0] for f in frames)) if frames else 0.0, "1")
    out["manifold.cond_j.max"] = (
        float(max(f[1] for f in good)) if good else 0.0, "1")
    js = stats("stats.outcome_conditioned_js", "self_s")
    out["stats.js_ran"] = (int((js & (a["raised"] == 0)).sum()), "count")
    stats("stats.pearson", "self_s")
    stats("configio.load_models", "self_s")
    return out, tails
