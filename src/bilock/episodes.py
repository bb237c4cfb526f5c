"""Episodes, the 16-D command layout and the JSON-lines dataset format.

An episode's K knots are the rows of two (K, 16) arrays, the commands
``act`` and the observations ``obs`` (each the previous command), plus K
phases and K lock flags.  ``JOINTS``, ``Q14`` and ``GRIP`` name the layout.

One dataset file holds a header record followed by one episode per line;
blank lines are skipped.
Floats round-trip bitwise (shortest-repr JSON encoding), so re-serializing
a loaded dataset is byte-identical.  ``write_records`` is the one writer of
every file the CLI stages emit.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, MalformedRecord
from .schema import BOOL, TEXT, array, choice, num, parse_json, seq, table

EPISODE_SCHEMA = "episode_v1"
DATASET_SCHEMA = "episode_dataset_v1"

# the 16-D command: left arm joints, right arm joints (together Q14), then
# the left and right gripper channel in [0, 1]
CMD_DIM = 16
JOINTS = {"left": slice(0, 7), "right": slice(7, 14)}
Q14 = slice(0, 14)
GRIP = {"left": 14, "right": 15}
GRIPS = slice(14, 16)

ANGLE = num(ge=-math.pi, le=math.pi)  # a SEW angle

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


# metadata is free-form beyond the keys the stages read, and kept as written
_META = table({"box_init": array(3, bound=10.0),
               "control_arm": choice("left", "right"), "psi_left": ANGLE,
               "psi_right": ANGLE, "branch": seq(BOOL, 3)},
              optional=["branch"], extra_keys=True)
_STEP = table({"t": num(integer=True), "obs": array(CMD_DIM),
               "act": array(CMD_DIM), "phase": choice(*PHASES), "lock": BOOL})
_EVENT = table({"t": num(integer=True, ge=0), "kind": choice(*EVENT_KINDS),
                "arm": choice("left", "right", None)},
               optional=["arm"], make=Event)
RECORD = table({"schema_version": choice(EPISODE_SCHEMA), "model_ref": TEXT,
                "dt": num(gt=0.0), "metadata": _META, "steps": seq(_STEP),
                "events": seq(_EVENT)})
HEADER = table({"schema_version": choice(DATASET_SCHEMA),
                "n_episodes": num(integer=True, ge=0), "config_hash": TEXT},
               optional=["config_hash"])


def episode_from_record(rec):
    checked = RECORD(rec)
    steps, events = checked["steps"], checked["events"]
    for i, s in enumerate(steps):
        if s["t"] != i:
            raise ValueError(f"step {i}: t must equal its index, got {s['t']!r}")
    for e in events:
        if e.t >= len(steps):
            raise ValueError(f"event {e.kind!r}: t {e.t} is past the last step")
    obs, act = (np.array([s[k] for s in steps], dtype=float).reshape(
        len(steps), CMD_DIM) for k in ("obs", "act"))
    grips = np.hstack([obs[:, GRIPS], act[:, GRIPS]])
    in_range = ((grips >= 0.0) & (grips <= 1.0)).all(axis=1)
    if not in_range.all():
        raise ValueError(f"step {in_range.argmin()}: gripper channels must "
                         "lie in [0, 1]")
    return Episode(checked["model_ref"], checked["dt"], obs, act,
                   [s["phase"] for s in steps], [s["lock"] for s in steps],
                   events, rec["metadata"])


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
    """Write a dataset file: header line plus one episode per line.  A
    header the reader would reject is a ValueError."""
    header = HEADER({"schema_version": DATASET_SCHEMA,
                     "n_episodes": len(episodes), **(header_meta or {})},
                    "header")
    write_records(path, itertools.chain(
        [header], map(episode_to_record, episodes)))


def read_episodes(path, return_header=False):
    """Read a dataset file, whose first non-blank line is the header.  A
    record of another schema is a DataError, any other bad record a
    MalformedRecord; both name the record's line."""
    episodes = []
    header = None
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = parse_json(line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise MalformedRecord(f"not UTF-8 ({exc.reason})", lineno) from exc
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"invalid JSON ({exc.msg})", lineno) from exc
            except ValueError as exc:  # too many digits or nested too deeply
                raise MalformedRecord(f"invalid JSON ({exc})", lineno) from exc
            if not isinstance(rec, dict):
                raise MalformedRecord("record is not a JSON object", lineno)
            kind, schema = (("dataset", DATASET_SCHEMA) if header is None
                            else ("episode", EPISODE_SCHEMA))
            if rec.get("schema_version") != schema:
                raise DataError(f"line {lineno}: unsupported {kind} schema "
                                f"{rec.get('schema_version')!r}")
            try:
                if header is None:
                    header, header_line = HEADER(rec, "header"), lineno
                else:
                    episodes.append(episode_from_record(rec))
            except ValueError as exc:
                raise MalformedRecord(str(exc), lineno) from exc
    if header is None:
        raise MalformedRecord("missing dataset header", 1)
    if header["n_episodes"] != len(episodes):
        raise MalformedRecord(
            f"header declares n_episodes={header['n_episodes']!r} but "
            f"{len(episodes)} episode records follow", header_line)
    return (episodes, header) if return_header else episodes
