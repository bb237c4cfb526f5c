import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilock import cli
from bilock.episodes import (EVENT_KINDS, PHASES, Episode, Event, Step,
                             episode_from_record, episode_to_record,
                             read_episodes, write_episodes, write_records)
from bilock.errors import MalformedRecord, SchemaMismatch


def test_round_trip_bitwise(tmp_path, clean_set):
    path = tmp_path / "eps.jsonl"
    write_episodes(path, clean_set, {"config_hash": "abc"})
    loaded, header = read_episodes(path, return_header=True)
    assert header["config_hash"] == "abc"
    assert header["n_episodes"] == len(clean_set)
    assert len(loaded) == len(clean_set)
    for a, b in zip(clean_set, loaded):
        assert a.model_ref == b.model_ref and a.dt == b.dt
        assert np.array_equal(a.actions(), b.actions())
        assert np.array_equal(a.observations(), b.observations())
        assert [s.phase for s in a.steps] == [s.phase for s in b.steps]
        assert ([(e.t, e.kind, e.arm) for e in a.events]
                == [(e.t, e.kind, e.arm) for e in b.events])
        assert a.metadata == b.metadata
    # re-serialization is byte identical
    path2 = tmp_path / "eps2.jsonl"
    write_episodes(path2, loaded, {"config_hash": "abc"})
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


def test_unknown_schema_rejected(tmp_path, clean_set):
    path = tmp_path / "eps.jsonl"
    write_episodes(path, clean_set[:1])
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"episode_v1"', '"episode_v999"')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaMismatch):
        read_episodes(path)
    bad_header = path.read_text().splitlines()
    bad_header[0] = bad_header[0].replace('"episode_dataset_v1"',
                                          '"episode_dataset_v999"')
    path.write_text("\n".join(bad_header) + "\n")
    with pytest.raises(SchemaMismatch):
        read_episodes(path)


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
    and a header that is not an object, at line 1."""
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
                     "--out-dir", str(tmp_path / "out")]) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: line 2: step 3:")
    # records that passed every stage, or ended in a traceback: step times
    # that are not their indices, an unknown event kind or arm, integers
    # too large for a float, and one beyond the JSON reader's digit limit
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
        meta("box_init", [huge, 0.6, 0.0]), meta("psi_left", huge)]]
    texts.append(edited(lambda rec: rec.update(dt="DIGITS")).replace(
        '"DIGITS"', "1" + "0" * 5000))
    for text in texts:
        path.write_text("\n".join([lines[0], text]) + "\n")
        with pytest.raises(MalformedRecord) as exc:
            read_episodes(path)
        assert exc.value.line == 2
        assert cli.main(["eval", "--in", str(path),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: line 2: ") and err.count("\n") == 1
    # a file that is not UTF-8, and a header that is not an object
    for contents in (b"\xff\xfe\x00garbage\n" + lines[1].encode(),
                     ("[1]\n" + lines[1]).encode()):
        path.write_bytes(contents)
        with pytest.raises(MalformedRecord) as exc:
            read_episodes(path)
        assert exc.value.line == 1
        assert cli.main(["eval", "--in", str(path),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_DATA
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
    assert np.array_equal(back.actions(), clean_episode.actions())


finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0)


@st.composite
def episodes(draw):
    n = draw(st.integers(1, 6))
    steps = [Step(t, draw(st.lists(finite, min_size=14, max_size=14))
                  + draw(st.lists(unit, min_size=2, max_size=2)),
                  draw(st.lists(finite, min_size=14, max_size=14))
                  + draw(st.lists(unit, min_size=2, max_size=2)),
                  draw(st.sampled_from(PHASES)), draw(st.booleans()))
             for t in range(n)]
    events = draw(st.lists(st.builds(
        Event, st.integers(0, n - 1), st.sampled_from(EVENT_KINDS),
        st.sampled_from(["left", "right", None])), max_size=4))
    psi = st.floats(-math.pi, math.pi)
    metadata = {"box_init": draw(st.lists(finite, min_size=3, max_size=3)),
                "control_arm": draw(st.sampled_from(["left", "right"])),
                "psi_left": draw(psi), "psi_right": draw(psi),
                "branch": draw(st.lists(st.booleans(), min_size=3,
                                        max_size=3))}
    return Episode(draw(st.text(max_size=8)),
                   draw(st.floats(1e-300, 1e300)), steps, events, metadata)


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


JSON_VALUES = [None, True, False, 0, 1, -1, 2.5, 1e308, -1e308, 10 ** 400,
               -10 ** 400, "", "x", "transport", [], [1.0], {}, {"a": 1}]


@pytest.fixture(scope="module")
def record_paths(clean_episode):
    rec = episode_to_record(clean_episode)
    return rec, _field_paths(rec)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(pick=st.integers(0, 10 ** 6), value=st.sampled_from(JSON_VALUES))
def test_single_field_replacement_reads_or_is_malformed(
        tmp_path_factory, record_paths, pick, value):
    """Replacing any one field of a valid record with any JSON value either
    reads back or is a MalformedRecord/SchemaMismatch; nothing else
    escapes the reader."""
    rec, paths = record_paths
    rec = json.loads(json.dumps(rec))
    *parents, key = paths[pick % len(paths)]
    node = rec
    for p in parents:
        node = node[p]
    node[key] = value
    path = tmp_path_factory.mktemp("fuzz") / "eps.jsonl"
    header = {"schema_version": "episode_dataset_v1", "n_episodes": 1}
    path.write_text(json.dumps(header) + "\n" + json.dumps(rec) + "\n")
    try:
        read_episodes(path)
    except (MalformedRecord, SchemaMismatch):
        pass
