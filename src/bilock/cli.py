"""Batch command-line interface binding the pipeline end to end.

Subcommands: ``gen`` (clean dataset), ``perturb`` (degraded dataset plus a
violation summary), ``eval`` (outcome counts, Wilson CIs, violation
aggregates over surrogate re-executions), ``curvature`` (per-knot
curvature series plus correlation/JS analysis).  Identical configs and
seeds produce byte-identical output files; ``gen --workers`` changes only
how fast.  A stage writes its files only once all of its computation has
succeeded, and each file replaces its predecessor atomically.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

from . import manifold as mf
from . import metrics as mx
from . import perturb as pb
from . import stats as st
from . import worldsim as ws
from .autodiff import DiffConfig
from .configio import load_models, load_pipeline_config
from .episodes import read_episodes, write_episodes, write_records
from .errors import (BilockError, EmptyDataset, IkFailureDuringPerturb,
                     InsufficientCategory, MalformedRecord, RankDeficient,
                     SchemaMismatch)
from .seeding import rng_from

CONFIG_ENV = "BILOCK_CONFIG"

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _episode_task(args):
    model, world_cfg, dist, master_seed, index = args
    init = ws.sample_box_init(dist, rng_from(master_seed, index, 0))
    seed = int(rng_from(master_seed, index, 1).integers(2 ** 62))
    return seed, ws.generate_demonstration(model, world_cfg, init, seed)


# A stage takes (cfg, model, world_cfg, episodes, out), episodes being the
# non-empty input dataset (None for gen), and returns its progress line.

def run_gen(cfg, model, world_cfg, _episodes, out):
    dist = cfg.box_distribution()
    tasks = [(model, world_cfg, dist, cfg.master_seed, i)
             for i in range(cfg.n_episodes)]
    if cfg.workers > 1:
        with multiprocessing.Pool(cfg.workers) as pool:
            results = list(pool.imap(_episode_task, tasks))
    else:
        results = [_episode_task(t) for t in tasks]
    episodes = [ep for _, ep in results]
    write_episodes(out / "episodes.jsonl", episodes,
                   {"config_hash": cfg.config_hash()})
    write_records(out / "manifest.json", [{
        "schema_version": "manifest_v1",
        "config_hash": cfg.config_hash(),
        "config": cfg.canonical_dict(),
        "episode_seeds": [s for s, _ in results],
        "n_episodes": len(episodes),
    }])
    return f"gen: wrote {len(episodes)} episodes to {out / 'episodes.jsonl'}"


def run_perturb(cfg, model, _world_cfg, episodes, out):
    # raw volatility overrides the named level
    if cfg.eta is None:
        level_tag, eta = cfg.level, pb.LEVEL_ETAS[cfg.level]
    else:
        level_tag, eta = "raw", float(cfg.eta)
    perturbed = pb.perturb_dataset(model, episodes, level_tag, eta,
                                   cfg.master_seed)
    summary = pb.dataset_violation_summary(model, perturbed,
                                           window=cfg.window, stride=cfg.stride)
    summary.update({"schema_version": "perturb_summary_v1",
                    "config_hash": cfg.config_hash(),
                    "level": level_tag, "eta": eta,
                    "ik_failures": int(sum(p.metadata["ik_failures"]
                                           for p in perturbed))})
    write_episodes(out / "episodes.jsonl", perturbed,
                   {"config_hash": cfg.config_hash()})
    write_records(out / "perturb_summary.json", [summary])
    return (f"perturb: level={level_tag} eta={eta} "
            f"pos_mean={summary['pos_mean_cm']:.3f}cm "
            f"rot_mean={summary['rot_mean_deg']:.3f}deg")


def run_eval(cfg, model, world_cfg, episodes, out):
    profiles = [mx.violation_profile(model, ep, cfg.window, cfg.stride)
                for ep in episodes]
    outcomes = [mx.classify_outcome(ws.replay_episode(model, world_cfg, ep))
                for ep in episodes]
    report = mx.aggregate_report(episodes, profiles, outcomes,
                                 window=cfg.window, stride=cfg.stride)
    report["config_hash"] = cfg.config_hash()
    write_records(out / "eval_report.json", [report])
    counts = report["outcome_counts"]
    return (f"eval: n={report['n_episodes']} outcomes I={counts['I']} "
            f"II={counts['II']} III={counts['III']} IV={counts['IV']} "
            f"success={report['success_rate']:.3f} "
            f"wilson=[{report['wilson_lo']:.4f},{report['wilson_hi']:.4f}]")


def run_curvature(cfg, model, world_cfg, episodes, out):
    if cfg.max_episodes:
        episodes = episodes[:cfg.max_episodes]
    diff = DiffConfig(cfg.diff_mode, cfg.fd_step)

    rows = []
    for i, ep in enumerate(episodes):
        f = mf.constraint_for_episode(model, ep)
        series, gaps = mf.rollout_curvature_series(
            f, ep, diff, cfg.rank_tol, cfg.knot_stride)
        rows.append({"episode": i, "series": series, "gaps": gaps,
                     "outcome": mx.classify_outcome(
                         ws.replay_episode(model, world_cfg, ep))})
    all_series = [row["series"] for row in rows]
    outcomes = [row["outcome"] for row in rows]
    if all(not s for s in all_series):
        raise RankDeficient("no curvature records produced", 0.0)

    ks = np.array([r["kretschmann"] for s in all_series for r in s])
    res = np.array([r["residual"] for s in all_series for r in s])
    analysis = {"schema_version": "curvature_analysis_v1",
                "config_hash": cfg.config_hash(),
                "n_rollouts": len(all_series),
                "n_knots": int(ks.size),
                "rank_deficient_knots": sum(len(row["gaps"]) for row in rows),
                "category_counts": {c: outcomes.count(c)
                                    for c in mx.CATEGORIES}}
    try:
        analysis["pearson"] = st.pearson(ks, res)
        analysis["spearman"] = st.spearman(ks, res)
    except BilockError as exc:
        analysis["pearson"] = analysis["spearman"] = None
        analysis["correlation_error"] = str(exc)
    series_k = [[r["kretschmann"] for r in s] for s in all_series]
    for stat in ("mean", "max"):
        try:
            analysis[f"js_{stat}"] = st.outcome_conditioned_js(
                series_k, outcomes, stat)
        except InsufficientCategory as exc:
            analysis[f"js_{stat}"] = None
            analysis[f"js_{stat}_error"] = str(exc)

    header = {"schema_version": "curvature_series_v1",
              "config_hash": cfg.config_hash()}
    write_records(out / "curvature_series.jsonl", [header, *rows])
    write_records(out / "curvature_analysis.json", [analysis])
    return (f"curvature: {analysis['n_knots']} knots over "
            f"{analysis['n_rollouts']} rollouts; pearson={analysis['pearson']} "
            f"spearman={analysis['spearman']} js_mean={analysis['js_mean']} "
            f"js_max={analysis['js_max']}")


STAGES = {"gen": run_gen, "perturb": run_perturb, "eval": run_eval,
          "curvature": run_curvature}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bilock",
        description="Constraint-locked bimanual demonstration synthesis, "
                    "perturbation, evaluation, and curvature analysis.")
    parser.add_argument("--config", default=os.environ.get(CONFIG_ENV),
                        help="pipeline config JSON (default: $BILOCK_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--arm-model-left", dest="arm_model_left")
        p.add_argument("--arm-model-right", dest="arm_model_right")
        p.add_argument("--world", dest="world")
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--seed", dest="master_seed", type=int)
        p.add_argument("--window", dest="window", type=int)
        p.add_argument("--stride", dest="stride", type=int)

    p = sub.add_parser("gen", help="generate clean demonstrations")
    add_common(p)
    p.add_argument("--n", dest="n_episodes", type=int)
    p.add_argument("--workers", dest="workers", type=int)
    p.add_argument("--distribution", dest="distribution",
                   choices=("train", "eval", "custom"))

    p = sub.add_parser("perturb", help="inject OU constraint violations")
    add_common(p)
    p.add_argument("--in", dest="in_dataset", required=True)
    p.add_argument("--level", dest="level", type=int, choices=(0, 1, 2, 3))
    p.add_argument("--eta", dest="eta", type=float,
                   help="raw volatility; overrides --level")

    p = sub.add_parser("eval", help="outcome and violation report")
    add_common(p)
    p.add_argument("--in", dest="in_dataset", required=True)

    p = sub.add_parser("curvature", help="curvature series and analysis")
    add_common(p)
    p.add_argument("--in", dest="in_dataset", required=True)
    p.add_argument("--diff-mode", dest="diff_mode", choices=("dual", "fd"))
    p.add_argument("--fd-step", dest="fd_step", type=float)
    p.add_argument("--rank-tol", dest="rank_tol", type=float)
    p.add_argument("--knot-stride", dest="knot_stride", type=int)
    p.add_argument("--max-episodes", dest="max_episodes", type=int)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config", "in_dataset")}
    try:
        cfg = load_pipeline_config(args.config, overrides)
        model, world_cfg = load_models(cfg)
    except (ValueError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        episodes = None
        if args.command != "gen":
            episodes = read_episodes(args.in_dataset)
            if not episodes:
                raise EmptyDataset("input dataset holds no episodes")
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        print(STAGES[args.command](cfg, model, world_cfg, episodes, out))
    except OSError as exc:  # a missing --in file, an out-dir that is a file
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MalformedRecord, SchemaMismatch, EmptyDataset) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (RankDeficient, IkFailureDuringPerturb) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BilockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return 0


if __name__ == "__main__":
    sys.exit(main())
