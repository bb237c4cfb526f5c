"""Episodes, the 16-D command layout and the JSON-lines dataset format.

An episode's K knots are the rows of two (K, 16) arrays, the commands
``act`` and the observations ``obs`` (each the previous command), plus K
phases and K lock flags.  ``JOINTS``, ``Q14`` and ``GRIP`` name the layout.

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

# the 16-D command: left arm joints, right arm joints (together Q14), then
# the left and right gripper channel in [0, 1]
CMD_DIM = 16
JOINTS = {"left": slice(0, 7), "right": slice(7, 14)}
Q14 = slice(0, 14)
GRIP = {"left": 14, "right": 15}
GRIPS = slice(14, 16)

PHASES = ("approach", "grasp", "transport", "release", "retreat")

# event kinds
GRASP_ATTACH = "grasp_attach"
GRASP_DETACH = "grasp_detach"
BOX_DROP = "box_drop"
PLACED = "placed"
EVENT_KINDS = (GRASP_ATTACH, GRASP_DETACH, BOX_DROP, PLACED)


@dataclass
class Event:
    t: int
    kind: str
    arm: str | None = None


@dataclass
class Episode:
    """Knot t is row t of ``obs`` and ``act``, ``phases[t]`` and ``locks[t]``."""

    model_ref: str
    dt: float
    obs: np.ndarray
    act: np.ndarray
    phases: list
    locks: list
    events: list
    metadata: dict = field(default_factory=dict)

    def transport_indices(self):
        return [t for t, p in enumerate(self.phases) if p == "transport"]


def episode_to_record(ep):
    steps = [{"t": t, "obs": o, "act": a, "phase": p, "lock": bool(k)}
             for t, (o, a, p, k) in enumerate(zip(
                 ep.obs.tolist(), ep.act.tolist(), ep.phases, ep.locks))]
    events = [{"t": e.t, "kind": e.kind, "arm": e.arm} for e in ep.events]
    return {"schema_version": EPISODE_SCHEMA, "model_ref": ep.model_ref,
            "dt": ep.dt, "metadata": ep.metadata, "steps": steps,
            "events": events}


def _known_keys(obj, keys, where):
    """A ValueError if obj has a key beyond the space-separated keys."""
    unknown = set(obj) - set(keys.split())
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")


def episode_from_record(rec):
    if rec.get("schema_version") != EPISODE_SCHEMA:
        raise SchemaMismatch(
            f"unsupported episode schema {rec.get('schema_version')!r}")
    # metadata is free-form; an event's unknown key fails in Event(**e)
    _known_keys(rec, "schema_version model_ref dt metadata steps events",
                "episode record")
    if not isinstance(rec["model_ref"], str):
        raise ValueError(f"model_ref must be a string, got {rec['model_ref']!r}")
    if not (is_real(rec["dt"]) and rec["dt"] > 0.0):
        raise ValueError(f"dt must be a finite number > 0, got {rec['dt']!r}")
    steps = rec["steps"]
    for i, s in enumerate(steps):
        _known_keys(s, "t obs act phase lock", f"step {i}")
        if not (is_int(s["t"]) and s["t"] == i):
            raise ValueError(f"step {i}: t must equal its index, got {s['t']!r}")
        if s["phase"] not in PHASES:
            raise ValueError(f"step {i}: unknown phase {s['phase']!r}")
        if not isinstance(s["lock"], bool):
            raise ValueError(f"step {i}: lock must be true or false, "
                             f"got {s['lock']!r}")
        if not all(isinstance(s[k], list) and len(s[k]) == CMD_DIM
                   and set(map(type, s[k])) <= {float, int}
                   for k in ("obs", "act")):
            raise ValueError(f"step {i}: obs and act must be {CMD_DIM} numbers")
    obs, act = (np.array([s[k] for s in steps], dtype=float).reshape(
        len(steps), CMD_DIM) for k in ("obs", "act"))
    grips = np.hstack([obs[:, GRIPS], act[:, GRIPS]])
    finite = np.isfinite(np.hstack([obs, act]))
    for ok, what in ((finite, "obs and act must be finite"),
                     ((grips >= 0.0) & (grips <= 1.0),
                      "gripper channels must lie in [0, 1]")):
        if not ok.all():
            raise ValueError(f"step {ok.all(axis=1).argmin()}: {what}")
    events = [Event(**e) for e in rec["events"]]
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
    return Episode(rec["model_ref"], rec["dt"], obs, act,
                   [s["phase"] for s in steps], [s["lock"] for s in steps],
                   events, metadata)


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


def real_array(v, shape, name):
    """v as a float array of the given shape; a ValueError unless every
    element is ``is_real``, checked before any conversion."""
    a = np.array(v, dtype=object)
    if a.shape != shape or not all(map(is_real, a.flat)):
        raise ValueError(f"{name} must be {' x '.join(map(str, shape))} "
                         f"finite numbers, got {v!r}")
    return a.astype(float)


def _check_metadata(meta):
    """The metadata the stages read: box pose, control arm, SEW angles and
    the IK branch (three flags; absent means the default branch)."""
    real_array(meta.get("box_init"), (3,), "metadata box_init")
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
