"""Pipeline configuration: defaults, file loading, flag overrides.

Resolution order is defaults, then the config file, then explicit
command-line flags.  Every emitted artifact records the hash of the
resolved configuration so outputs are traceable to their inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from importlib import resources

from . import bimanual as bm
from . import kinematics as kin
from . import worldsim as ws
from .episodes import is_int, is_real

PIPELINE_SCHEMA = "pipeline_config_v1"


def default_data_path(name):
    """Path of a packaged default config document."""
    return resources.files("bilock.data").joinpath(name)


@dataclass
class PipelineConfig:
    arm_model_left: str = "default"
    arm_model_right: str = "default"
    world: str = "default"
    distribution: str = "train"
    n_episodes: int = 10
    master_seed: int = 0
    level: int = 0
    eta: float = None
    window: int = 16
    stride: int = 8
    diff_mode: str = "dual"
    fd_step: float = 1e-5
    rank_tol: float = 1e-8
    knot_stride: int = 1
    max_episodes: int = 0
    out_dir: str = "out"
    workers: int = 1
    custom_distribution: dict = field(default_factory=dict)

    def __post_init__(self):
        for f in fields(self):  # annotations are strings here
            v = getattr(self, f.name)
            if f.type == "str" and not isinstance(v, str):
                raise ValueError(f"{f.name} must be a string, got {v!r}")
            if f.type == "int" and not is_int(v):
                raise ValueError(f"{f.name} must be an integer, got {v!r}")
            if f.type == "float" and not (is_real(v) or (f.name == "eta"
                                                         and v is None)):
                raise ValueError(f"{f.name} must be a finite number, got {v!r}")
        if self.n_episodes < 1:
            raise ValueError("n_episodes must be at least 1")
        if self.distribution not in ("train", "eval", "custom"):
            raise ValueError("distribution must be train, eval, or custom")
        if self.level not in (0, 1, 2, 3):
            raise ValueError("perturbation level must be 0..3")
        if self.eta is not None and self.eta < 0.0:
            raise ValueError("eta must be a finite non-negative number")
        if self.diff_mode not in ("dual", "fd"):
            raise ValueError("diff_mode must be dual or fd")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        for name in ("window", "stride", "knot_stride"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("master_seed", "max_episodes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("rank_tol", "fd_step"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.distribution == "custom":
            try:
                self.box_distribution()
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    "distribution custom needs custom_distribution with "
                    "x_range, y_range and theta_range, each [lo, hi] with "
                    "lo < hi") from exc

    def box_distribution(self):
        if self.distribution == "train":
            return ws.TRAIN_DIST
        if self.distribution == "eval":
            return ws.EVAL_DIST
        d = self.custom_distribution
        return ws.BoxInitDistribution(tuple(d["x_range"]), tuple(d["y_range"]),
                                      tuple(d["theta_range"]))

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
    file_values = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError("pipeline config must be a JSON object")
        schema = file_values.pop("schema_version", PIPELINE_SCHEMA)
        if schema != PIPELINE_SCHEMA:
            raise ValueError(f"unsupported pipeline schema {schema!r}")
    values = dict(file_values)
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    known = set(PipelineConfig.__dataclass_fields__)
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return PipelineConfig(**values)


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
