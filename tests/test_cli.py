import json
import math
import warnings

import numpy as np
import pytest

from bilock import cli
from bilock import metrics as mx
from bilock import worldsim as ws
from bilock.configio import default_data_path
from bilock.errors import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC
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
    assert code == EXIT_CONFIG
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
                "no_joint_axes": dict(arm, joint_axes=None),
                "no_descend": dict(world, segment_knots={"approach": 12}),
                "psi_out_of_range": dict(world, psi_left=4.0),
                "rotated_offset": dict(arm, joint_offsets=[
                    dict(n, rpy_deg=[0, 0, 30]) if i == 3 else n
                    for i, n in enumerate(arm["joint_offsets"])]),
                "x_axis_joint_7": dict(arm, joint_axes=[
                    *arm["joint_axes"][:6], [1, 0, 0]]),
                "text_knots": dict(world, segment_knots=dict(
                    world["segment_knots"], approach="x")),
                "text_drop_factor": dict(world, drop_factor="x"),
                "text_jitter": dict(world, timing_jitter="x"),
                "short_box_dims": dict(world, box_dims=[0.1]),
                "short_shelf_center": dict(world, shelf_center=[0.0, 0.62]),
                "zero_lock_tol": dict(world, lock_pos_tol=0),
                # bounds: counts, jitter, drop factor and scripted offsets
                "many_substeps": dict(world, substeps=51),
                "many_knots": dict(world, segment_knots=dict(
                    world["segment_knots"], lateral=101)),
                "negative_jitter": dict(world, timing_jitter=-1),
                "unit_jitter": dict(world, timing_jitter=1),
                "huge_jitter": dict(world, timing_jitter=1e308),
                "negative_drop_factor": dict(world, drop_factor=-5),
                "low_drop_factor": dict(world, drop_factor=0.5),
                "far_lift": dict(world, lift_height=1e308),
                "far_approach": dict(world, approach_clearance=-1e308),
                "far_shelf_pre_offset": dict(world, shelf_pre_offset=3),
                "far_retreat_back": dict(world, retreat_back=-3),
                "far_retreat_up": dict(world, retreat_up=3),
                "far_box_dims": dict(world, box_dims=[1e308, 0.2, 0.18]),
                # in range, yet no arm can serve the world: a shelf out of
                # reach, a box too wide to grasp
                "far_shelf": dict(world, shelf_center=[3.0, 0.6, 0.5]),
                "wide_box": dict(world, box_dims=[1.9, 0.2, 0.2])}
    # degree values that are booleans, not numbers
    for key in ("grasp_pitch_deg", "grasp_eps_rot_deg", "retain_rot_deg"):
        bad_docs[f"bool_{key}"] = dict(world, **{key: True})
    for name, doc in bad_docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {k: v for k, v in doc.items() if v is not None}))
    bad_configs = [({"level": 1.0}, "perturb"), ({"level": 0.0}, "perturb"),
                   ({"level": True}, "perturb"), ({"level": 4}, "perturb"),
                   ({"master_seed": 1.5}, "perturb"),
                   ({"window": 2.5}, "perturb"), ({"stride": 2.5}, "eval"),
                   ({"eta": 10 ** 400}, "perturb"), ({"eta": True}, "perturb"),
                   ({"knot_stride": 2.0}, "curvature"),
                   ({"max_episodes": 1.5}, "curvature"),
                   ({"rank_tol": "x"}, "curvature"),
                   ({"fd_step": None}, "curvature"),
                   ({"workers": 1.5}, "gen"), ({"world": 5}, "gen")]
    # custom box ranges: overflowing or text bounds, an unknown key, and a
    # custom_distribution that is not an object
    huge = 10 ** 400
    ranges = {"y_range": [0.5, 0.6], "theta_range": [-0.1, 0.1]}
    bad_configs += [({"distribution": "custom", "custom_distribution": dict(
        ranges, **extra)}, "gen") for extra in (
            {"x_range": [0, "1e400"]}, {"x_range": [0, huge]},
            {"x_range": ["a", "b"]},
            {"x_range": [-0.1, 0.1], "z_range": [0.0, 1.0]})]
    bad_configs.append(({"custom_distribution": 5}, "gen"))
    # a box yawed by a half turn: the path from the home pose has no
    # unique rotation
    bad_configs.append(({"distribution": "custom", "n_episodes": 1,
                         "workers": 1, "custom_distribution": dict(
                             ranges, x_range=[-0.1, 0.1],
                             theta_range=[3.1415925, 3.1415928])}, "gen"))
    magic = tmp_path / "magic.json"
    magic.write_text(json.dumps({"diff_mode": "magic"}))
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    nested = tmp_path / "nested.json"  # too deep for the JSON parser
    nested.write_text("[" * 100_000)
    data = str(clean_run / "episodes.jsonl")
    cases = [["gen", "--n", "0"],
             ["gen", "--distribution", "custom"],
             ["--config", str(flipped), "gen"],
             ["perturb", "--in", data, "--window", "0"],
             ["--config", str(text_window), "gen"],
             ["eval", "--in", data, "--stride", "0"],
             ["curvature", "--in", data, "--knot-stride", "0"],
             ["curvature", "--in", data, "--max-episodes", "-1"],
             ["curvature", "--in", data, "--rank-tol", "0"],
             ["curvature", "--in", data, "--fd-step", "0"],
             ["gen", "--world", str(tmp_path / "no_box_dims.json")],
             ["gen", "--world", str(tmp_path / "unknown_world_key.json")],
             ["gen", "--world", str(tmp_path / "zero_substeps.json")],
             ["gen", "--arm-model-left", str(tmp_path / "no_joint_axes.json")],
             ["gen", "--world", str(tmp_path / "no_descend.json")],
             ["gen", "--world", str(tmp_path / "psi_out_of_range.json")],
             ["gen", "--arm-model-left", str(tmp_path / "rotated_offset.json")],
             ["gen", "--arm-model-left", str(tmp_path / "x_axis_joint_7.json")],
             ["--config", str(magic), "curvature", "--in", data],
             ["perturb", "--in", data, "--eta", "-1"],
             ["perturb", "--in", data, "--eta", "nan"],
             ["perturb", "--in", data, "--eta", "inf"],
             ["gen", "--seed", "-1"],
             ["gen", "--n", "100001"],
             ["gen", "--workers", "33"],
             ["curvature", "--in", data, "--max-episodes", "100001"],
             ["--config", str(array), "gen"],
             ["gen", "--world", str(array)],
             ["gen", "--arm-model-left", str(array)],
             ["--config", str(nested), "gen"],
             ["gen", "--world", str(nested)],
             ["gen", "--arm-model-left", str(nested)]]
    cases += [["gen", "--world", str(tmp_path / f"{name}.json")] for name in
              ("text_knots", "text_drop_factor", "text_jitter",
               "short_box_dims", "short_shelf_center", "zero_lock_tol",
               "bool_grasp_pitch_deg", "bool_grasp_eps_rot_deg",
               "bool_retain_rot_deg", "many_substeps", "many_knots",
               "negative_jitter", "unit_jitter", "huge_jitter",
               "negative_drop_factor", "low_drop_factor", "far_lift",
               "far_approach", "far_shelf_pre_offset", "far_retreat_back",
               "far_retreat_up", "far_box_dims")]
    cases += [["gen", "--n", "1", "--world", str(tmp_path / f"{name}.json")]
              for name in ("far_shelf", "wide_box")]
    # arm documents: a name that is no string, joint limits that are no 7 x 2
    # array, integers too large for a float, an overflowing base rotation, a
    # zero or vanishing SEW pole, a NaN joint limit and a joint axis that is
    # neither z nor y, if only by 1e-13
    limits = arm["joint_limits_deg"]
    arm_docs = [dict(arm, name=5),
                *(dict(arm, joint_limits_deg=v)
                  for v in (None, True, 5, [], [1.0])),
                dict(arm, joint_axes=[[0, 0, huge], *arm["joint_axes"][1:]]),
                dict(arm, joint_limits_deg=[[-huge, 0], *limits[1:]]),
                dict(arm, sew_pole=[huge, 0, 0]),
                dict(arm, sew_zero_dir=[0, 0, huge]),
                dict(arm, base_pose=dict(arm["base_pose"],
                                         rpy_deg=[0, 0, "1e400"])),
                dict(arm, sew_pole=[0, 0, 0]), dict(arm, sew_pole=[1e-320, 0, 0]),
                dict(arm, joint_limits_deg=[[math.nan, 170], *limits[1:]]),
                dict(arm, joint_axes=[[0, 1e-13, 1], *arm["joint_axes"][1:]]),
                # geometry beyond a few metres, whose norms would overflow
                dict(arm, sew_pole=[1e308, 0, 0]),
                dict(arm, joint_axes=[[0, 0, 1e308], *arm["joint_axes"][1:]]),
                dict(arm, base_pose=dict(arm["base_pose"],
                                         rpy_deg=[0, 0, 1e308])),
                dict(arm, joint_offsets=[{"xyz": [0, 0, 1e308]},
                                         *arm["joint_offsets"][1:]])]
    for i, doc in enumerate(arm_docs):
        (tmp_path / f"arm{i}.json").write_text(
            json.dumps(doc).replace('"1e400"', "1e400"))
        cases.append(["gen", "--n", "1", "--arm-model-left",
                      str(tmp_path / f"arm{i}.json")])
    for i, (doc, stage) in enumerate(bad_configs):
        (tmp_path / f"config{i}.json").write_text(
            json.dumps(doc).replace('"1e400"', "1e400"))
        cases.append(["--config", str(tmp_path / f"config{i}.json"), stage]
                     + ([] if stage == "gen" else ["--in", data]))
    for args in cases:
        code = run(args + ["--out-dir", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, args
        assert err.startswith("config error: ") and err.count("\n") == 1, err


def test_overflowing_eta_is_one_line_numerical_failure(clean_run, tmp_path,
                                                       capsys):
    """An eta whose rotation vectors overflow ends as exit 4 with one line,
    and numpy prints no overflow warning on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["perturb", "--in", str(clean_run / "episodes.jsonl"),
                    "--out-dir", str(tmp_path / "o"), "--eta", "1e300"])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
    assert err == ("numerical failure: rotation vector is not finite "
                   "(or overflows)\n"), err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_workers_is_a_gen_flag(clean_run, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--in", str(clean_run / "episodes.jsonl"),
             "--out-dir", str(tmp_path / "o"), "--workers", "2"])
    assert exc.value.code == EXIT_CONFIG


def test_flags_belong_to_the_stages_that_read_them(clean_run, tmp_path):
    """--world and --seed are gen and perturb flags, --window and --stride
    are perturb and eval flags; a stage that would ignore one rejects it."""
    data = str(clean_run / "episodes.jsonl")
    world = str(default_data_path("world.json"))
    for args in (["gen", "--window", "3"], ["gen", "--stride", "9"],
                 ["eval", "--in", data, "--seed", "99"],
                 ["eval", "--in", data, "--world", world],
                 ["curvature", "--in", data, "--world", world],
                 ["curvature", "--in", data, "--window", "2"],
                 ["curvature", "--in", data, "--stride", "2"],
                 ["curvature", "--in", data, "--seed", "7"]):
        with pytest.raises(SystemExit) as exc:
            run(args + ["--out-dir", str(tmp_path / "o")])
        assert exc.value.code == EXIT_CONFIG, args


def test_argument_errors_are_one_line_config_errors(clean_run, tmp_path,
                                                  capsys):
    """A misplaced, unknown or missing flag and a bad choice end like every
    other config error: exit 2 and one stderr line.  -h still prints help."""
    data = str(clean_run / "episodes.jsonl")
    for args in (["eval", "--in", data, "--seed", "99"],
                 ["gen", "--window", "3"], ["gen", "--bogus", "1"],
                 ["perturb"], ["perturb", "--in", data, "--level", "7"]):
        with pytest.raises(SystemExit) as exc:
            run(args + ["--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_CONFIG, args
        assert err.startswith("config error: ") and err.count("\n") == 1, err
    for args in (["-h"], ["gen", "-h"]):
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_failed_stage_leaves_no_partial_output(clean_run, tmp_path, capsys):
    """A stage that fails writes nothing: every knot rank deficient ends
    the curvature stage before its series file exists."""
    out = tmp_path / "curv"
    code = run(["curvature", "--in", str(clean_run / "episodes.jsonl"),
                "--out-dir", str(out), "--max-episodes", "1",
                "--knot-stride", "10", "--rank-tol", "1e9"])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not (out / "curvature_series.jsonl").exists()
    assert list(out.glob("*.tmp")) == []


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
        assert np.array_equal(ea.act, eb.act)
        assert np.array_equal(ea.obs, eb.obs)
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
        assert np.array_equal(ea.act, eb.act)
    assert read_json(out_eta / "perturb_summary.json")["level"] == "raw"


def test_perturbed_records_execute_their_commands(clean_run, tmp_path, model,
                                                  world_cfg):
    """Each perturbed record observes its previous command and stores the
    events of executing its own commands."""
    for i, level in enumerate((["--level", "1"], ["--level", "3"],
                               ["--eta", "0.0028"])):
        out = tmp_path / f"p{i}"
        assert run(["perturb", "--in", str(clean_run / "episodes.jsonl"),
                    "--out-dir", str(out), "--seed", "42", *level]) == 0
        for ep in read_episodes(out / "episodes.jsonl"):
            assert np.array_equal(ep.obs[1:], ep.act[:-1]), level
            assert ep.metadata["source"] == "replay"
            assert mx.classify_outcome(ep) == mx.classify_outcome(
                ws.replay_episode(model, world_cfg, ep)), level


def test_curvature_reads_outcomes_from_the_records(clean_run, tmp_path,
                                                   monkeypatch):
    """curvature and eval classify the stored events: with the executor
    patched to raise they write the same files, whose outcomes are the
    records'."""
    data = tmp_path / "l3" / "episodes.jsonl"
    assert run(["perturb", "--in", str(clean_run / "episodes.jsonl"),
                "--out-dir", str(data.parent), "--level", "3",
                "--seed", "42"]) == 0
    args = ["curvature", "--in", str(data), "--max-episodes", "3",
            "--knot-stride", "5", "--out-dir"]
    eval_args = ["eval", "--in", str(data), "--out-dir"]
    assert run(args + [str(tmp_path / "replayable")]) == 0
    assert run(eval_args + [str(tmp_path / "replayable_eval")]) == 0

    def execute(*args, **kwargs):
        raise AssertionError("a stage executed an episode")

    monkeypatch.setattr(ws, "replay_episode", execute)
    monkeypatch.setattr(ws, "execute_actions", execute)
    out = tmp_path / "patched"
    assert run(args + [str(out)]) == 0
    for name in ("curvature_series.jsonl", "curvature_analysis.json"):
        assert (out / name).read_bytes() \
            == (tmp_path / "replayable" / name).read_bytes()
    assert run(eval_args + [str(tmp_path / "patched_eval")]) == 0
    assert (tmp_path / "patched_eval" / "eval_report.json").read_bytes() \
        == (tmp_path / "replayable_eval" / "eval_report.json").read_bytes()
    rows = (out / "curvature_series.jsonl").read_text().splitlines()[1:]
    assert [json.loads(row)["outcome"] for row in rows] == [
        mx.classify_outcome(ep) for ep in read_episodes(data)[:3]]


def test_eval_reports_the_outcomes_each_record_stores(tmp_path):
    """Records executed under a shelf moved 0.15 m in x placed their boxes
    there: eval, like curvature, reports those stored outcomes under the
    default world.  Re-executing them under the default world (perturb at
    level 0) keeps every command, and their boxes now drop off the shelf."""
    world = json.loads(default_data_path("world.json").read_text())
    world["shelf_center"][0] += 0.15
    moved = tmp_path / "moved_shelf.json"
    moved.write_text(json.dumps(world))
    data = tmp_path / "gen" / "episodes.jsonl"
    assert run(["gen", "--n", "2", "--seed", "1", "--world", str(moved),
                "--out-dir", str(data.parent)]) == 0
    assert run(["eval", "--in", str(data),
                "--out-dir", str(tmp_path / "eval")]) == 0
    counts = read_json(tmp_path / "eval" / "eval_report.json")["outcome_counts"]
    assert counts == {"I": 2, "II": 0, "III": 0, "IV": 0}
    assert run(["curvature", "--in", str(data), "--knot-stride", "10",
                "--out-dir", str(tmp_path / "curv")]) == 0
    assert read_json(tmp_path / "curv" / "curvature_analysis.json")[
        "category_counts"] == counts

    replayed = tmp_path / "l0" / "episodes.jsonl"
    assert run(["perturb", "--in", str(data), "--level", "0",
                "--out-dir", str(replayed.parent)]) == 0
    for ep, ep0 in zip(read_episodes(replayed), read_episodes(data)):
        assert np.array_equal(ep.act, ep0.act)
    assert run(["eval", "--in", str(replayed),
                "--out-dir", str(tmp_path / "eval_l0")]) == 0
    assert read_json(tmp_path / "eval_l0" / "eval_report.json")[
        "outcome_counts"] == {"I": 0, "II": 0, "III": 2, "IV": 0}


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


def test_eval_empty_dataset_is_data_error(clean_run, tmp_path, capsys):
    """An empty dataset, and one whose record has no transport knots (its
    transport phases relabelled approach), for eval and curvature."""
    empty = tmp_path / "empty.jsonl"
    write_episodes(empty, [])
    code = run(["eval", "--in", str(empty), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_DATA
    ep = read_episodes(clean_run / "episodes.jsonl")[0]
    ep.phases = ["approach" if p == "transport" else p for p in ep.phases]
    untransported = tmp_path / "untransported.jsonl"
    write_episodes(untransported, [ep])
    capsys.readouterr()
    for stage in ("eval", "curvature"):
        code = run([stage, "--in", str(untransported),
                    "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_DATA, stage
        assert err.startswith("data error: ") and err.count("\n") == 1, err


def test_eval_malformed_dataset_is_data_error(clean_run, tmp_path, capsys):
    """A truncated record, and one nested too deeply for the JSON parser."""
    broken = tmp_path / "broken.jsonl"
    text = (clean_run / "episodes.jsonl").read_text().splitlines()
    for record in (text[1][:40], "[" * 100_000):
        broken.write_text("\n".join([text[0], record, *text[2:]]) + "\n")
        code = run(["eval", "--in", str(broken),
                    "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error: line 2: ") and err.count("\n") == 1


def test_curvature_rejects_records_not_executed(clean_run, tmp_path, capsys):
    """A record whose observation differs from its previous command, as a
    perturbed record that kept the clean run's observations does, is a data
    error for curvature and eval, which trust its stored events."""
    stale = tmp_path / "stale.jsonl"
    eps = read_episodes(clean_run / "episodes.jsonl")
    eps[1].act[eps[1].transport_indices()[3], 0] += 1e-6
    write_episodes(stale, eps)
    for stage, report in (("eval", "eval_report.json"),
                          ("curvature", "curvature_series.jsonl")):
        code = run([stage, "--in", str(stale),
                    "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_DATA, stage
        assert err.startswith("data error: episode 1: ") \
            and err.count("\n") == 1, err
        assert not (tmp_path / "o" / report).exists(), stage


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
    assert code == EXIT_CONFIG
