"""Every input file (personas, platform records, follows, a config file, a
run's ``agents.jsonl``, ``actions.jsonl`` and ``manifest.json``) is opened
by ``jsonl.read_text``: a malformed line is a ValueError citing
``<path> line <n>:``, a missing file one ending ``not found: <path>``, and a
file that cannot be read as text (a directory, undecodable bytes) one naming
the file, whichever reader meets it."""

import json

import pytest

from traitsim.cli import load_config, read_follows, read_personas
from traitsim.engine import (
    SimulationConfig,
    load_run,
    run_simulation,
    write_artifacts,
    write_manifest,
)
from traitsim.grounding import parse_records
from traitsim.jsonl import string

from conftest import make_personas


def well_formed_input(tmp_path, reader):
    """The file ``reader`` reads, well formed, and a call of the reader."""
    if reader == "personas":
        path = tmp_path / "personas.jsonl"
        path.write_text("".join(json.dumps(p) + "\n"
                                for p in make_personas(2)))
        return path, lambda: read_personas(path)
    if reader == "records":
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json.dumps(
            {"user": user, "kind": "post", "timestamp": 0, "text": "x"})
            + "\n" for user in ("u1", "u2")))
        return path, lambda: parse_records(path)
    if reader == "follows":
        path = tmp_path / "follows.csv"
        path.write_text("follower,followee\na,b\n")
        return path, lambda: read_follows(path)
    if reader == "config":
        path = tmp_path / "config.json"
        path.write_text('{"iterations": 2}\n')
        return path, lambda: load_config(path)
    run = tmp_path / "run"
    config = SimulationConfig(iterations=2)
    world = run_simulation(config, make_personas(2))
    write_artifacts(world, run)
    if reader == "manifest":
        write_manifest(world, config, run, {"type": "stub"}, [])
        return run / "manifest.json", lambda: load_run(run)
    return run / f"{reader}.jsonl", lambda: load_run(run)


READERS = ["personas", "records", "follows", "config", "agents", "actions",
           "manifest"]
FAULTS = ["malformed-line", "missing-file", "directory", "binary-file"]


# A run without manifest.json is read without the schema check, so a missing
# manifest is no fault.
@pytest.mark.parametrize("reader, fault", [
    (reader, fault) for reader in READERS for fault in FAULTS
    if (reader, fault) != ("manifest", "missing-file")])
def test_every_reader_cites_the_file(tmp_path, reader, fault):
    path, read = well_formed_input(tmp_path, reader)
    read()
    if fault == "malformed-line":
        path.write_text(path.read_text() + "{oops\n")
        cause = "ValueError" if reader == "follows" else "JSONDecodeError"
        cited = f"{path} line {len(path.read_text().splitlines())}: {cause}: "
    elif fault == "missing-file":
        path.unlink()
        cited = f"not found: {path}"
    elif fault == "directory":
        path.unlink()
        path.mkdir()
        cited = f"cannot read {path}: "
    else:
        path.write_bytes(b"\xff\xfe\x00{\n")
        cited = f"{path}"
    with pytest.raises(ValueError) as err:
        read()
    assert cited in str(err.value)
    if fault == "missing-file":
        assert str(err.value).endswith(cited)


@pytest.mark.parametrize("value, nullable, message", [
    (5, False, "key must be a string, got 5"),
    (None, False, "key must be a string, got null"),
    (["x"], True, 'key must be a string or null, got ["x"]'),
    (True, True, "key must be a string or null, got true"),
])
def test_string_rejects_other_json_types(value, nullable, message):
    with pytest.raises(TypeError) as err:
        string({"key": value}, "key", nullable)
    assert str(err.value) == message
    assert string({"key": "v"}, "key", nullable) == "v"
    with pytest.raises(KeyError):
        string({}, "key", nullable)
