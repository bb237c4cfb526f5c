"""Pipeline configuration: defaults, file loading, flag overrides.

Resolution order is defaults, then the config file, then explicit
command-line flags.  Every emitted artifact records the hash of the
resolved configuration so outputs are traceable to their inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from importlib import resources

from . import bimanual as bm
from . import kinematics as kin
from . import worldsim as ws
from .schema import (TEXT, choice, document, num, parse_json, seq, spec,
                     table)

PIPELINE_SCHEMA = "pipeline_config_v1"


def default_data_path(name):
    """Path of a packaged default config document."""
    return resources.files("bilock.data").joinpath(name)


MAX_EPISODES = 100_000
COUNT = num(integer=True, ge=1)
RANGES = ("x_range", "y_range", "theta_range")


@dataclass
class PipelineConfig:
    """The pipeline config table."""

    arm_model_left: str = spec(TEXT, "default")
    arm_model_right: str = spec(TEXT, "default")
    world: str = spec(TEXT, "default")
    distribution: str = spec(choice("train", "eval", "custom"), "train")
    n_episodes: int = spec(num(integer=True, ge=1, le=MAX_EPISODES), 10)
    master_seed: int = spec(num(integer=True, ge=0), 0)
    level: int = spec(num(integer=True, ge=0, le=3), 0)
    eta: float = spec(num(ge=0.0, null=True), None)
    window: int = spec(COUNT, 16)
    stride: int = spec(COUNT, 8)
    diff_mode: str = spec(choice("dual", "fd"), "dual")
    fd_step: float = spec(num(gt=0.0), 1e-5)
    rank_tol: float = spec(num(gt=0.0), 1e-8)
    knot_stride: int = spec(COUNT, 1)
    max_episodes: int = spec(num(integer=True, ge=0, le=MAX_EPISODES), 0)
    out_dir: str = spec(TEXT, "out")
    workers: int = spec(num(integer=True, ge=1, le=32), 1)
    custom_distribution: dict = spec(table(
        dict.fromkeys(RANGES, seq(num(), 2)), optional=RANGES), {})

    def box_distribution(self):
        if self.distribution == "train":
            return ws.TRAIN_DIST
        if self.distribution == "eval":
            return ws.EVAL_DIST
        d = self.custom_distribution
        if set(d) != set(RANGES):
            raise ValueError(f"distribution custom needs custom_distribution "
                             f"with {list(RANGES)}, got {d!r}")
        return ws.BoxInitDistribution(*(tuple(d[key]) for key in RANGES))

    def canonical_dict(self):
        """The semantic configuration.

        The output directory and worker count do not influence results,
        so they are excluded: re-runs elsewhere or with different
        parallelism describe and hash identically.
        """
        d = asdict(self)
        del d["out_dir"], d["workers"]
        d["schema_version"] = PIPELINE_SCHEMA
        return d

    def config_hash(self):
        """Hash of the semantic configuration."""
        blob = json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_pipeline_config(path=None, overrides=None):
    """Resolved config: defaults <- file (optional) <- overrides."""
    doc = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            doc = parse_json(fh.read())
        if not isinstance(doc, dict):
            raise ValueError("pipeline config must be a JSON object")
    doc = {"schema_version": PIPELINE_SCHEMA, **doc, **{
        key: val for key, val in (overrides or {}).items() if val is not None}}
    cfg = document(PipelineConfig, doc, PIPELINE_SCHEMA)
    cfg.box_distribution()  # custom ranges: all three, each with lo < hi
    return cfg


def load_models(cfg):
    """(BimanualModel, WorldConfig) for a pipeline config."""
    def load(loader, path, default_name):
        if path == "default":
            with resources.as_file(default_data_path(default_name)) as p:
                return loader(p)
        return loader(path)

    left = load(kin.load_arm_model, cfg.arm_model_left, "arm_left.json")
    right = load(kin.load_arm_model, cfg.arm_model_right, "arm_right.json")
    world = load(ws.load_world_config, cfg.world, "world.json")
    return bm.BimanualModel(left, right), world
