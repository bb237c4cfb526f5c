"""Episode records and the JSON-lines dataset format.

One dataset file holds a header record followed by one episode per line.
Floats round-trip bitwise (shortest-repr JSON encoding), so re-serializing
a loaded dataset is byte-identical.  ``write_records`` is the one writer of
every file the CLI stages emit.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path

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
EVENT_KINDS = (GRASP_ATTACH, GRASP_DETACH, BOX_DROP, PLACED)


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
    if not isinstance(rec["model_ref"], str):
        raise ValueError(f"model_ref must be a string, got {rec['model_ref']!r}")
    if not (is_real(rec["dt"]) and rec["dt"] > 0.0):
        raise ValueError(f"dt must be a finite number > 0, got {rec['dt']!r}")
    steps = [Step(s["t"], s["obs"], s["act"], s["phase"], s["lock"])
             for s in rec["steps"]]
    for i, s in enumerate(steps):
        if not (is_int(s.t) and s.t == i):
            raise ValueError(f"step {i}: t must equal its index, got {s.t!r}")
        if not isinstance(s.lock, bool):
            raise ValueError(f"step {s.t}: lock must be true or false, "
                             f"got {s.lock!r}")
        if not (np.isfinite(s.obs).all() and np.isfinite(s.act).all()):
            raise ValueError(f"step {s.t}: obs and act must be finite")
        if not all(0.0 <= g <= 1.0 for g in (*s.obs[14:], *s.act[14:])):
            raise ValueError(f"step {s.t}: gripper channels must lie in [0, 1]")
    events = [Event(e["t"], e["kind"], e.get("arm")) for e in rec["events"]]
    for e in events:
        if e.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {e.kind!r}")
        if e.arm not in ("left", "right", None):
            raise ValueError(f"event {e.kind!r}: arm must be 'left', 'right' "
                             f"or null, got {e.arm!r}")
        if not (is_int(e.t) and 0 <= e.t < len(steps)):
            raise ValueError(f"event {e.kind!r}: t must be a step index in "
                             f"[0, {len(steps)}), got {e.t!r}")
    metadata = rec.get("metadata", {})
    _check_metadata(metadata)
    return Episode(rec["model_ref"], rec["dt"], steps, events, metadata)


def is_int(v):
    """An integer that is not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v):
    """A finite real number that is not a bool; an integer too large for a
    float does not count."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


def _check_metadata(meta):
    """The metadata the stages read: box pose, control arm, SEW angles and
    the IK branch (three flags; absent means the default branch)."""
    box = meta.get("box_init")
    if not (isinstance(box, list) and len(box) == 3
            and all(is_real(v) for v in box)):
        raise ValueError(f"metadata box_init must be 3 numbers, got {box!r}")
    if meta.get("control_arm") not in ("left", "right"):
        raise ValueError("metadata control_arm must be 'left' or 'right', "
                         f"got {meta.get('control_arm')!r}")
    for key in ("psi_left", "psi_right"):
        psi = meta.get(key)
        if not (is_real(psi) and -math.pi <= psi <= math.pi):
            raise ValueError(f"metadata {key} must be an angle in [-pi, pi], "
                             f"got {psi!r}")
    branch = meta.get("branch", [False, False, False])
    if not (isinstance(branch, list) and len(branch) == 3
            and all(isinstance(v, bool) for v in branch)):
        raise ValueError(f"metadata branch must be 3 booleans, got {branch!r}")


def write_records(path, records):
    """Stream one canonical JSON line per record into a sibling
    ``<name>.tmp`` and move it onto ``path`` atomically.  On any failure the
    temporary file is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for rec in records:
                fh.write(json.dumps(rec, separators=(",", ":"),
                                    sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_episodes(path, episodes, header_meta=None):
    """Write a dataset file: header line plus one episode per line."""
    header = {"schema_version": DATASET_SCHEMA, "n_episodes": len(episodes)}
    header.update(header_meta or {})
    write_records(path, itertools.chain(
        [header], map(episode_to_record, episodes)))


def read_episodes(path, return_header=False):
    """Read a dataset file; validates schema versions per record."""
    episodes = []
    header = None
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise MalformedRecord(f"not UTF-8 ({exc.reason})", lineno) from exc
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"invalid JSON ({exc.msg})", lineno) from exc
            except ValueError as exc:  # an integer beyond the digit limit
                raise MalformedRecord(f"invalid JSON ({exc})", lineno) from exc
            if not isinstance(rec, dict):
                raise MalformedRecord("record is not a JSON object", lineno)
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
            except (AttributeError, KeyError, OverflowError, TypeError,
                    ValueError) as exc:
                raise MalformedRecord(str(exc), lineno) from exc
    if header is None:
        raise MalformedRecord("missing dataset header", 1)
    if header.get("n_episodes") != len(episodes):
        raise MalformedRecord(
            f"header declares n_episodes={header.get('n_episodes')!r} but "
            f"{len(episodes)} episode records follow", 1)
    return (episodes, header) if return_header else episodes
