import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilock import cli
from bilock.configio import (PipelineConfig, default_data_path,
                             load_pipeline_config)
from bilock.episodes import (EVENT_KINDS, PHASES, Episode, Event,
                             episode_from_record, episode_to_record,
                             read_episodes, write_episodes, write_records)
from bilock.errors import EXIT_DATA, DataError, MalformedRecord
from bilock.kinematics import load_arm_model
from bilock.worldsim import load_world_config

from conftest import EXIT_PREFIXES, raises_exactly


def test_round_trip_bitwise(tmp_path, clean_set):
    path = tmp_path / "eps.jsonl"
    write_episodes(path, clean_set, {"config_hash": "abc"})
    loaded, header = read_episodes(path, return_header=True)
    assert header["config_hash"] == "abc"
    assert header["n_episodes"] == len(clean_set)
    assert len(loaded) == len(clean_set)
    for a, b in zip(clean_set, loaded):
        assert a.model_ref == b.model_ref and a.dt == b.dt
        assert np.array_equal(a.act, b.act)
        assert np.array_equal(a.obs, b.obs)
        assert a.phases == b.phases and a.locks == b.locks
        assert ([(e.t, e.kind, e.arm) for e in a.events]
                == [(e.t, e.kind, e.arm) for e in b.events])
        assert a.metadata == b.metadata
    # re-serialization is byte identical
    path2 = tmp_path / "eps2.jsonl"
    write_episodes(path2, loaded, {"config_hash": "abc"})
    assert path.read_bytes() == path2.read_bytes()
    # the writer admits only a header that the reader reads
    with pytest.raises(ValueError, match="unknown keys"):
        write_episodes(path2, loaded, {"note": "x"})
    assert path.read_bytes() == path2.read_bytes()


def test_truncated_line_reports_line_number(tmp_path, clean_set):
    path = tmp_path / "eps.jsonl"
    write_episodes(path, clean_set[:3])
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1][: len(lines[-1]) // 2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedRecord) as exc:
        read_episodes(path)
    assert exc.value.line == 4  # header + episodes 1..2 are fine


def test_missing_record_is_malformed(tmp_path, clean_set):
    """A file cut at a line boundary still holds fewer episodes than its
    header declares."""
    path = tmp_path / "eps.jsonl"
    write_episodes(path, clean_set[:3])
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(MalformedRecord) as exc:
        read_episodes(path)
    assert exc.value.line == 1
    assert "n_episodes=3" in str(exc.value)


def test_unknown_schema_rejected(tmp_path, clean_set, capsys):
    path = tmp_path / "eps.jsonl"
    write_episodes(path, clean_set[:1])
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"episode_v1"', '"episode_v999"')
    path.write_text("\n".join(lines) + "\n")
    with raises_exactly(DataError, "^line 2: unsupported episode schema"):
        read_episodes(path)
    assert cli.main(["eval", "--in", str(path),
                     "--out-dir", str(tmp_path / "out")]) == EXIT_DATA
    assert capsys.readouterr().err == (
        "data error: line 2: unsupported episode schema 'episode_v999'\n")
    bad_header = path.read_text().splitlines()
    bad_header[0] = bad_header[0].replace('"episode_dataset_v1"',
                                          '"episode_dataset_v999"')
    path.write_text("\n".join(bad_header) + "\n")
    with raises_exactly(DataError, "unsupported dataset schema"):
        read_episodes(path)


def test_blank_first_line_reads_the_same(tmp_path, clean_set):
    """The header is the first line that is not blank."""
    path = tmp_path / "eps.jsonl"
    write_episodes(path, clean_set[:2], {"config_hash": "abc"})
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n" + path.read_text())
    (eps, header), (again, header2) = (read_episodes(p, return_header=True)
                                       for p in (path, blank))
    assert header == header2
    assert ([episode_to_record(ep) for ep in eps]
            == [episode_to_record(ep) for ep in again])
    # the count mismatch names the header's line
    blank.write_text("\n" + "\n".join(path.read_text().splitlines()[:2]))
    with pytest.raises(MalformedRecord) as exc:
        read_episodes(blank)
    assert exc.value.line == 2


def test_missing_field_is_malformed(tmp_path, clean_set):
    path = tmp_path / "eps.jsonl"
    write_episodes(path, clean_set[:1])
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    del rec["steps"]
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedRecord) as exc:
        read_episodes(path)
    assert exc.value.line == 2


def test_bad_contents_are_malformed(tmp_path, clean_set, capsys):
    """Gripper channels outside [0, 1], non-finite joint channels, fields
    of the wrong type or range (dt, step t and lock, model_ref, branch, SEW
    angles, event times, kinds and arms) and metadata the stages read but the
    record lacks are data errors at the record's line; so are a file that is not UTF-8
    and a header that is not an object or is outside its table (an
    n_episodes that is a boolean or a float, an unknown key), at line 1."""
    path = tmp_path / "eps.jsonl"
    write_episodes(path, clean_set[:1])
    lines = path.read_text().splitlines()

    def gripper(rec):
        rec["steps"][3]["act"][14] = 1.5

    def drop(key):
        return lambda rec: rec["metadata"].pop(key)

    def nan_joint(rec):
        rec["steps"][3]["act"][2] = float("nan")

    def step(key, v):
        return lambda rec: rec["steps"][3].update({key: v})

    def meta(key, v):
        return lambda rec: rec["metadata"].update({key: v})

    def late_event(rec):
        rec["events"][0]["t"] = 10 ** 6

    edits = [drop("box_init"), drop("control_arm"), drop("psi_left"),
             meta("box_init", [0.0, 0.6]), nan_joint,
             lambda rec: rec.update(dt="x"), lambda rec: rec.update(dt=-1.0),
             step("t", "a"), step("lock", "yes"),
             lambda rec: rec.update(model_ref=5), meta("branch", "xyz"),
             meta("psi_left", 1e300), late_event, gripper]
    for edit in edits:
        rec = json.loads(lines[1])
        edit(rec)
        path.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n")
        with pytest.raises(MalformedRecord) as exc:
            read_episodes(path)
        assert exc.value.line == 2
    # perturb never reads gripper channels, so only the reader can stop them
    assert cli.main(["perturb", "--in", str(path), "--level", "1",
                     "--out-dir", str(tmp_path / "out")]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: line 2: step 3:")
    # records that passed every stage, or ended in a traceback or a
    # numerical failure: step times that are not their indices, an unknown
    # event kind or arm, integers too large for a float, a box_init beyond
    # 10 in magnitude, a command channel given as text or a boolean, an
    # unknown key in the record, a step or an event, and an integer beyond
    # the JSON reader's digit limit
    def steps_t(times):
        return lambda rec: [s.update(t=times(i))
                            for i, s in enumerate(rec["steps"])]

    def edited(edit):
        rec = json.loads(lines[1])
        edit(rec)
        return json.dumps(rec)

    huge = 10 ** 400
    texts = [edited(edit) for edit in [
        steps_t(lambda i: 0), steps_t(lambda i: -i),
        lambda rec: rec["events"].append({"t": 0, "kind": "bogus", "arm": None}),
        lambda rec: rec["events"][0].update(arm="middle"),
        lambda rec: rec.update(dt=huge),
        lambda rec: rec["steps"][3]["obs"].__setitem__(2, huge),
        lambda rec: rec["steps"][3]["act"].__setitem__(2, huge),
        lambda rec: rec["steps"][3]["act"].__setitem__(2, "0.5"),
        lambda rec: rec["steps"][3]["obs"].__setitem__(0, True),
        meta("box_init", [huge, 0.6, 0.0]), meta("psi_left", huge),
        meta("box_init", [1e308, 0.6, 0.0]),
        meta("box_init", [0.0, -1e308, 0.0]),
        lambda rec: rec.update(bogus=1), step("bogus", 1),
        lambda rec: rec["events"][0].update(bogus=1)]]
    texts.append(edited(lambda rec: rec.update(dt="DIGITS")).replace(
        '"DIGITS"', "1" + "0" * 5000))
    for text in texts:
        path.write_text("\n".join([lines[0], text]) + "\n")
        with pytest.raises(MalformedRecord) as exc:
            read_episodes(path)
        assert exc.value.line == 2
        assert cli.main(["eval", "--in", str(path),
                         "--out-dir", str(tmp_path / "out")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: line 2: ") and err.count("\n") == 1
    # a file that is not UTF-8, a header that is not an object, and headers
    # outside their table
    headers = [json.dumps(dict(json.loads(lines[0]), **edit)) for edit in (
        {"n_episodes": True}, {"n_episodes": 1.0}, {"junk": 5})]
    for contents in (b"\xff\xfe\x00garbage\n" + lines[1].encode(),
                     *(f"{head}\n{lines[1]}".encode()
                       for head in ["[1]", *headers])):
        path.write_bytes(contents)
        with pytest.raises(MalformedRecord) as exc:
            read_episodes(path)
        assert exc.value.line == 1
        assert cli.main(["eval", "--in", str(path),
                         "--out-dir", str(tmp_path / "out")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: line 1: ") and err.count("\n") == 1


def test_write_records_is_atomic(tmp_path):
    """A record that cannot be serialized leaves the old file in place and
    no temporary file behind."""
    path = tmp_path / "doc.json"
    write_records(path, [{"a": 1.5}])
    assert path.read_text() == '{"a":1.5}\n'
    with pytest.raises(TypeError):
        write_records(path, [{"a": 2.0}, {"b": object()}])
    assert path.read_text() == '{"a":1.5}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_record_round_trip_structure(clean_episode):
    rec = episode_to_record(clean_episode)
    back = episode_from_record(json.loads(json.dumps(rec)))
    assert np.array_equal(back.act, clean_episode.act)


finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0)


@st.composite
def episodes(draw):
    n = draw(st.integers(1, 6))
    def command():
        return (draw(st.lists(finite, min_size=14, max_size=14))
                + draw(st.lists(unit, min_size=2, max_size=2)))

    knots = [(command(), command(), draw(st.sampled_from(PHASES)),
              draw(st.booleans())) for t in range(n)]
    obs, act, phases, locks = (list(column) for column in zip(*knots))
    events = draw(st.lists(st.builds(
        Event, st.integers(0, n - 1), st.sampled_from(EVENT_KINDS),
        st.sampled_from(["left", "right", None])), max_size=4))
    psi = st.floats(-math.pi, math.pi)
    metadata = {"box_init": draw(st.lists(st.floats(-10.0, 10.0), min_size=3,
                                          max_size=3)),
                "control_arm": draw(st.sampled_from(["left", "right"])),
                "psi_left": draw(psi), "psi_right": draw(psi),
                "branch": draw(st.lists(st.booleans(), min_size=3,
                                        max_size=3))}
    return Episode(draw(st.text(max_size=8)),
                   draw(st.floats(1e-300, 1e300)), np.array(obs),
                   np.array(act), phases, locks, events, metadata)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(eps=st.lists(episodes(), min_size=1, max_size=3))
def test_dataset_round_trip_is_byte_identical(tmp_path_factory, eps):
    d = tmp_path_factory.mktemp("round_trip")
    write_episodes(d / "a.jsonl", eps)
    write_episodes(d / "b.jsonl", read_episodes(d / "a.jsonl"))
    assert (d / "a.jsonl").read_bytes() == (d / "b.jsonl").read_bytes()


def _field_paths(node, path=()):
    """Every key and list entry of a record, descending into the first and
    last step only (the others have the same shape)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
        if path == ("steps",):
            items = [(0, node[0]), (len(node) - 1, node[-1])]
    else:
        return []
    paths = []
    for key, child in items:
        paths.append(path + (key,))
        paths += _field_paths(child, path + (key,))
    return paths


FUZZ_VALUES = [None, True, "x", [], {}, 10 ** 400, -1, 0, [1.0], 1e308, -1e308,
               10 ** 6]


def _replaced(doc, path, value):
    """The JSON text of doc with the field at path set to value; doc itself
    is left as it was."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    kept, node[path[-1]] = node[path[-1]], value
    text = json.dumps(doc)
    node[path[-1]] = kept
    return text


def test_single_field_replacement_reads_or_is_malformed(
        tmp_path, clean_episode, capsys):
    """Replacing any one field of a valid pipeline config, world or arm
    document, episode record or dataset header with any of FUZZ_VALUES
    either loads or is rejected with the kind's own one-line error:
    ValueError for the configs, DataError for records and headers.  A
    derandomized sample of the accepted documents then runs through ``gen
    --n 1`` or a one-record ``eval``, up to four of each kind, which ends
    with exit 0, or with exit 2, 3 or 4 and one stderr line that carries the
    prefix of its code."""
    ranges = {"x_range": [-0.2, 0.2], "y_range": [0.55, 0.65],
              "theta_range": [-0.3, 0.3]}
    docs = {"pipeline": {**PipelineConfig().canonical_dict(), "workers": 1,
                         "out_dir": "out", "distribution": "custom",
                         "custom_distribution": ranges},
            "world": json.loads(default_data_path("world.json").read_text()),
            "arm": json.loads(default_data_path("arm_left.json").read_text()),
            "record": json.loads(json.dumps(episode_to_record(clean_episode))),
            "header": {"schema_version": "episode_dataset_v1", "n_episodes": 1,
                       "config_hash": "abc"}}
    loaders = {"pipeline": load_pipeline_config, "world": load_world_config,
               "arm": load_arm_model, "record": read_episodes,
               "header": read_episodes}
    # a record follows its header, and a header precedes its record
    header, record = json.dumps(docs["header"]), json.dumps(docs["record"])
    path = tmp_path / "doc.json"
    accepted = {kind: [] for kind in docs}
    for kind, doc in docs.items():
        errors = DataError if kind in ("record", "header") else ValueError
        for field in _field_paths(doc):
            for value in FUZZ_VALUES:
                text = _replaced(doc, field, value)
                if kind == "record":
                    text = f"{header}\n{text}\n"
                elif kind == "header":
                    text = f"{text}\n{record}\n"
                path.write_text(text)
                try:
                    loaders[kind](path)
                except errors as exc:
                    assert "\n" not in str(exc), (kind, field, value)
                else:
                    accepted[kind].append((field, value, text))
    # flags keep every gen run to one episode in one process
    stages = {"pipeline": ["--config", str(path), "gen"],
              "world": ["gen", "--world", str(path)],
              "arm": ["gen", "--arm-model-left", str(path)],
              "record": ["eval", "--in", str(path)],
              "header": ["eval", "--in", str(path)]}
    sample = [(kind, *case) for kind, cases in accepted.items()
              for case in random.Random(0).sample(cases, min(4, len(cases)))]
    for kind, field, value, text in sample:
        path.write_text(text)
        args = stages[kind] + ["--out-dir", str(tmp_path / "out")]
        if stages[kind][0] == "gen":
            args += ["--n", "1", "--workers", "1"]
        code = cli.main(args)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (kind, field, value)
        assert err.count("\n") == (code != 0), (kind, field, value, err)
        assert code == 0 or err.startswith(EXIT_PREFIXES[code] + ": "), err
