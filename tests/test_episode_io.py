import json

import numpy as np
import pytest

from bilock import cli
from bilock.episodes import (episode_from_record, episode_to_record,
                             read_episodes, write_episodes)
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
    """Gripper channels outside [0, 1] and metadata the stages read but the
    record lacks are data errors at the record's line."""
    path = tmp_path / "eps.jsonl"
    write_episodes(path, clean_set[:1])
    lines = path.read_text().splitlines()

    def gripper(rec):
        rec["steps"][3]["act"][14] = 1.5

    def drop(key):
        return lambda rec: rec["metadata"].pop(key)

    edits = [drop("box_init"), drop("control_arm"), drop("psi_left"),
             lambda rec: rec["metadata"].update(box_init=[0.0, 0.6]), gripper]
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


def test_record_round_trip_structure(clean_episode):
    rec = episode_to_record(clean_episode)
    back = episode_from_record(json.loads(json.dumps(rec)))
    assert np.array_equal(back.actions(), clean_episode.actions())
