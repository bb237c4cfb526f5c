"""Episode records and the JSON-lines dataset format.

One dataset file holds a header record followed by one episode per line.
Floats round-trip bitwise (shortest-repr JSON encoding), so re-serializing
a loaded dataset is byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedRecord, SchemaMismatch

EPISODE_SCHEMA = "episode_v1"
DATASET_SCHEMA = "episode_dataset_v1"

PHASES = ("approach", "grasp", "transport", "release", "retreat")

# event kinds
GRASP_ATTACH = "grasp_attach"
GRASP_DETACH = "grasp_detach"
BOX_DROP = "box_drop"
PLACED = "placed"


@dataclass
class Step:
    """One knot: observation before the action, the 16-D action, tags."""

    t: int
    obs: np.ndarray
    act: np.ndarray
    phase: str
    lock: bool

    def __post_init__(self):
        self.obs = np.asarray(self.obs, dtype=float).reshape(16)
        self.act = np.asarray(self.act, dtype=float).reshape(16)
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")


@dataclass
class Event:
    t: int
    kind: str
    arm: str | None = None


@dataclass
class Episode:
    model_ref: str
    dt: float
    steps: list
    events: list
    metadata: dict = field(default_factory=dict)

    @property
    def n_steps(self):
        return len(self.steps)

    def actions(self):
        return np.array([s.act for s in self.steps])

    def observations(self):
        return np.array([s.obs for s in self.steps])

    def transport_indices(self):
        return [i for i, s in enumerate(self.steps) if s.phase == "transport"]


def episode_to_record(ep):
    steps = [{"t": s.t, "obs": s.obs.tolist(), "act": s.act.tolist(),
              "phase": s.phase, "lock": bool(s.lock)} for s in ep.steps]
    events = [{"t": e.t, "kind": e.kind, "arm": e.arm} for e in ep.events]
    return {"schema_version": EPISODE_SCHEMA, "model_ref": ep.model_ref,
            "dt": ep.dt, "metadata": ep.metadata, "steps": steps,
            "events": events}


def episode_from_record(rec):
    if rec.get("schema_version") != EPISODE_SCHEMA:
        raise SchemaMismatch(
            f"unsupported episode schema {rec.get('schema_version')!r}")
    steps = [Step(s["t"], s["obs"], s["act"], s["phase"], s["lock"])
             for s in rec["steps"]]
    for s in steps:
        if not all(0.0 <= g <= 1.0 for g in (*s.obs[14:], *s.act[14:])):
            raise ValueError(f"step {s.t}: gripper channels must lie in [0, 1]")
    events = [Event(e["t"], e["kind"], e.get("arm")) for e in rec["events"]]
    metadata = rec.get("metadata", {})
    _check_metadata(metadata)
    return Episode(rec["model_ref"], rec["dt"], steps, events, metadata)


def _is_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _check_metadata(meta):
    """The metadata the stages read: box pose, control arm, SEW angles."""
    box = meta.get("box_init")
    if not (isinstance(box, list) and len(box) == 3
            and all(_is_number(v) for v in box)):
        raise ValueError(f"metadata box_init must be 3 numbers, got {box!r}")
    if meta.get("control_arm") not in ("left", "right"):
        raise ValueError("metadata control_arm must be 'left' or 'right', "
                         f"got {meta.get('control_arm')!r}")
    for key in ("psi_left", "psi_right"):
        if not _is_number(meta.get(key)):
            raise ValueError(f"metadata {key} must be a number, "
                             f"got {meta.get(key)!r}")


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def write_episodes(path, episodes, header_meta=None):
    """Write a dataset file: header line plus one episode per line."""
    header = {"schema_version": DATASET_SCHEMA, "n_episodes": len(episodes)}
    header.update(header_meta or {})
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dumps(header) + "\n")
        for ep in episodes:
            fh.write(_dumps(episode_to_record(ep)) + "\n")


def read_episodes(path, return_header=False):
    """Read a dataset file; validates schema versions per record."""
    episodes = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"invalid JSON ({exc.msg})", lineno) from exc
            if lineno == 1:
                if rec.get("schema_version") != DATASET_SCHEMA:
                    raise SchemaMismatch(
                        f"unsupported dataset schema {rec.get('schema_version')!r}")
                header = rec
                continue
            try:
                episodes.append(episode_from_record(rec))
            except SchemaMismatch:
                raise
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise MalformedRecord(str(exc), lineno) from exc
    if header is None:
        raise MalformedRecord("missing dataset header", 1)
    if header.get("n_episodes") != len(episodes):
        raise MalformedRecord(
            f"header declares n_episodes={header.get('n_episodes')!r} but "
            f"{len(episodes)} episode records follow", 1)
    if return_header:
        return episodes, header
    return episodes
