import json
import os

import numpy as np
import pytest

from bilock import cli
from bilock.configio import default_data_path
from bilock.episodes import read_episodes, write_episodes


def run(args):
    return cli.main(args)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("clean")
    assert run(["gen", "--out-dir", str(out), "--n", "6", "--seed", "42"]) == 0
    return out


def test_gen_outputs(clean_run):
    eps, header = read_episodes(clean_run / "episodes.jsonl", return_header=True)
    assert len(eps) == 6
    manifest = read_json(clean_run / "manifest.json")
    assert manifest["schema_version"] == "manifest_v1"
    assert manifest["config_hash"] == header["config_hash"]
    assert len(manifest["episode_seeds"]) == 6


def test_gen_deterministic(clean_run, tmp_path):
    out2 = tmp_path / "again"
    assert run(["gen", "--out-dir", str(out2), "--n", "6", "--seed", "42"]) == 0
    assert (clean_run / "episodes.jsonl").read_bytes() \
        == (out2 / "episodes.jsonl").read_bytes()
    assert (clean_run / "manifest.json").read_bytes() \
        == (out2 / "manifest.json").read_bytes()


def test_gen_worker_count_invariant(clean_run, tmp_path):
    out2 = tmp_path / "workers"
    assert run(["gen", "--out-dir", str(out2), "--n", "6", "--seed", "42",
                "--workers", "2"]) == 0
    assert (clean_run / "episodes.jsonl").read_bytes() \
        == (out2 / "episodes.jsonl").read_bytes()


def test_missing_model_file_is_config_error(tmp_path, capsys):
    code = run(["gen", "--out-dir", str(tmp_path / "x"), "--n", "1",
                "--arm-model-left", "/nonexistent/arm.json"])
    assert code == cli.EXIT_CONFIG
    assert "/nonexistent/arm.json" in capsys.readouterr().err


def test_bad_config_value_is_config_error(clean_run, tmp_path, capsys):
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps({
        "distribution": "custom",
        "custom_distribution": {"x_range": [0.2, -0.2], "y_range": [0.5, 0.6],
                                "theta_range": [-0.1, 0.1]}}))
    text_window = tmp_path / "text_window.json"
    text_window.write_text(json.dumps({"window": "16"}))
    world = json.loads(default_data_path("world.json").read_text())
    arm = json.loads(default_data_path("arm_left.json").read_text())
    bad_docs = {"no_box_dims": dict(world, box_dims=None),
                "unknown_world_key": dict(world, gravity=9.81),
                "zero_substeps": dict(world, substeps=0),
                "no_joint_axes": dict(arm, joint_axes=None)}
    for name, doc in bad_docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {k: v for k, v in doc.items() if v is not None}))
    data = str(clean_run / "episodes.jsonl")
    cases = [["gen", "--n", "0"],
             ["gen", "--distribution", "custom"],
             ["--config", str(flipped), "gen"],
             ["gen", "--window", "0"],
             ["--config", str(text_window), "gen"],
             ["gen", "--stride", "0"],
             ["curvature", "--in", data, "--knot-stride", "0"],
             ["curvature", "--in", data, "--max-episodes", "-1"],
             ["curvature", "--in", data, "--rank-tol", "0"],
             ["curvature", "--in", data, "--fd-step", "0"],
             ["gen", "--world", str(tmp_path / "no_box_dims.json")],
             ["gen", "--world", str(tmp_path / "unknown_world_key.json")],
             ["gen", "--world", str(tmp_path / "zero_substeps.json")],
             ["gen", "--arm-model-left", str(tmp_path / "no_joint_axes.json")]]
    for args in cases:
        code = run(args + ["--out-dir", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG, args
        assert err.startswith("config error: ") and err.count("\n") == 1, err


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": "pipeline_config_v1",
                               "n_episodes": 2, "master_seed": 7}))
    out1 = tmp_path / "from_file"
    assert run(["--config", str(cfg), "gen", "--out-dir", str(out1)]) == 0
    assert len(read_episodes(out1 / "episodes.jsonl")) == 2
    out2 = tmp_path / "flag_wins"
    assert run(["--config", str(cfg), "gen", "--out-dir", str(out2),
                "--n", "3"]) == 0
    assert len(read_episodes(out2 / "episodes.jsonl")) == 3


def test_config_env_var(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_episodes": 2, "master_seed": 3}))
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    out = tmp_path / "env"
    assert run(["gen", "--out-dir", str(out)]) == 0
    assert len(read_episodes(out / "episodes.jsonl")) == 2


def test_perturb_level0_preserves_episodes(clean_run, tmp_path):
    out = tmp_path / "l0"
    assert run(["perturb", "--in", str(clean_run / "episodes.jsonl"),
                "--out-dir", str(out), "--level", "0", "--seed", "42"]) == 0
    a = read_episodes(clean_run / "episodes.jsonl")
    b = read_episodes(out / "episodes.jsonl")
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.actions(), eb.actions())
        assert np.array_equal(ea.observations(), eb.observations())
    summary = read_json(out / "perturb_summary.json")
    assert summary["level"] == 0
    assert summary["pos_mean_cm"] <= 1e-8


def test_perturb_levels_monotone(clean_run, tmp_path):
    means = []
    for lvl in (1, 2, 3):
        out = tmp_path / f"l{lvl}"
        assert run(["perturb", "--in", str(clean_run / "episodes.jsonl"),
                    "--out-dir", str(out), "--level", str(lvl),
                    "--seed", "42"]) == 0
        means.append(read_json(out / "perturb_summary.json")["pos_mean_cm"])
    assert means[0] < means[1] < means[2]


def test_perturb_eta_overrides_level(clean_run, tmp_path):
    out_eta = tmp_path / "eta"
    assert run(["perturb", "--in", str(clean_run / "episodes.jsonl"),
                "--out-dir", str(out_eta), "--level", "1",
                "--eta", "0.0025", "--seed", "42"]) == 0
    out_l2 = tmp_path / "lvl2"
    assert run(["perturb", "--in", str(clean_run / "episodes.jsonl"),
                "--out-dir", str(out_l2), "--level", "2", "--seed", "42"]) == 0
    a = read_episodes(out_eta / "episodes.jsonl")
    b = read_episodes(out_l2 / "episodes.jsonl")
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.actions(), eb.actions())
    assert read_json(out_eta / "perturb_summary.json")["level"] == "raw"


def test_eval_clean_dataset(clean_run, tmp_path):
    out = tmp_path / "eval"
    assert run(["eval", "--in", str(clean_run / "episodes.jsonl"),
                "--out-dir", str(out)]) == 0
    rep = read_json(out / "eval_report.json")
    assert rep["schema_version"] == "eval_report_v1"
    assert rep["outcome_counts"]["I"] == 6
    assert rep["success_rate"] == 1.0
    assert rep["wilson_hi"] == 1.0
    out2 = tmp_path / "eval2"
    assert run(["eval", "--in", str(clean_run / "episodes.jsonl"),
                "--out-dir", str(out2)]) == 0
    assert (out / "eval_report.json").read_bytes() \
        == (out2 / "eval_report.json").read_bytes()


def test_eval_empty_dataset_is_data_error(tmp_path):
    empty = tmp_path / "empty.jsonl"
    write_episodes(empty, [])
    code = run(["eval", "--in", str(empty), "--out-dir", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA


def test_eval_malformed_dataset_is_data_error(clean_run, tmp_path):
    broken = tmp_path / "broken.jsonl"
    text = (clean_run / "episodes.jsonl").read_text().splitlines()
    text[1] = text[1][:40]
    broken.write_text("\n".join(text) + "\n")
    code = run(["eval", "--in", str(broken), "--out-dir", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA


def test_curvature_analysis_ranges(clean_run, tmp_path):
    out = tmp_path / "curv"
    assert run(["curvature", "--in", str(clean_run / "episodes.jsonl"),
                "--out-dir", str(out), "--max-episodes", "2",
                "--knot-stride", "5"]) == 0
    analysis = read_json(out / "curvature_analysis.json")
    assert analysis["n_knots"] > 0
    if analysis["pearson"] is not None:
        assert -1.0 <= analysis["pearson"] <= 1.0
        assert -1.0 <= analysis["spearman"] <= 1.0
    for stat in ("js_mean", "js_max"):
        if analysis[stat] is not None:
            assert 0.0 <= analysis[stat] <= np.log(3.0) + 1e-3
    lines = (out / "curvature_series.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["schema_version"] == "curvature_series_v1"
    rec = json.loads(lines[1])
    assert {"episode", "outcome", "series", "gaps"} <= set(rec)
    for row in rec["series"]:
        assert {"t", "kretschmann", "residual", "cond_j"} <= set(row)
        assert row["residual"] <= 1e-9  # clean dataset
    out2 = tmp_path / "curv2"
    assert run(["curvature", "--in", str(clean_run / "episodes.jsonl"),
                "--out-dir", str(out2), "--max-episodes", "2",
                "--knot-stride", "5"]) == 0
    assert (out / "curvature_series.jsonl").read_bytes() \
        == (out2 / "curvature_series.jsonl").read_bytes()
    assert (out / "curvature_analysis.json").read_bytes() \
        == (out2 / "curvature_analysis.json").read_bytes()


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_episodez": 5}))
    code = run(["--config", str(cfg), "gen", "--out-dir", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
