"""Every input file (personas, platform records, follows, a config file, a
run's ``agents.jsonl``, ``actions.jsonl`` and ``manifest.json``) is opened
by ``jsonl.read_text``: a malformed line is a ValueError citing
``<path> line <n>:``, a missing file one ending ``not found: <path>``, and a
file that cannot be read as text (a directory, undecodable bytes) one naming
the file, whichever reader meets it."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from traitsim.cli import load_config, read_follows, read_personas
from traitsim.engine import (
    SimulationConfig,
    load_run,
    run_simulation,
    write_artifacts,
    write_manifest,
)
from traitsim.grounding import parse_records
from traitsim.jsonl import malformed, read_jsonl, string

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
        write_manifest(world, config, run, {}, [])
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


# Characters ``str.splitlines`` breaks at besides line feed and carriage
# return: JSON allows the first three raw inside a string; the other five
# are control characters, which it does not.
LEGAL_SEPARATORS = "\x85\u2028\u2029"
CONTROL_SEPARATORS = "\x0b\x0c\x1c\x1d\x1e"
SEPARATORS = LEGAL_SEPARATORS + CONTROL_SEPARATORS


@pytest.mark.parametrize("char", LEGAL_SEPARATORS)
def test_a_string_may_hold_a_unicode_line_separator(tmp_path, char):
    """A persona, a platform record and a run line whose text holds the
    character raw (as ``ensure_ascii=False`` writes it) read, and a
    malformed line after them is cited at its own number."""
    text = f"a{char}b"
    personas = tmp_path / "personas.jsonl"
    personas.write_text(json.dumps({"id": "p1", "identity_text": text},
                                   ensure_ascii=False) + "\n")
    assert read_personas(personas)[0]["identity_text"] == text
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps({"user": "u", "kind": "post",
                                   "timestamp": 0, "text": text},
                                  ensure_ascii=False) + "\n")
    assert parse_records(records)[0].text == text

    run = tmp_path / "run"
    write_artifacts(run_simulation(SimulationConfig(iterations=2),
                                   make_personas(2)), run)
    actions = run / "actions.jsonl"
    rows = [json.loads(line) for line in actions.read_text().splitlines()]
    post = next(r for r in rows if r["kind"] == "post")
    post["payload"] = text
    actions.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n"
                               for r in rows))
    log, content, _ = load_run(run)
    assert text in {record.payload for record in log}
    assert text in {item.text for item in content.values()}

    personas.write_text(personas.read_text() * 2 + "{oops\n")
    with pytest.raises(ValueError, match=f"{personas} line 3: "
                                         f"JSONDecodeError: Expecting"):
        read_personas(personas)


@pytest.mark.parametrize("char", CONTROL_SEPARATORS)
def test_a_raw_control_character_is_malformed_at_its_own_line(tmp_path,
                                                              char):
    path = tmp_path / "personas.jsonl"
    path.write_text('{"id": "p1", "identity_text": "a\u2028b"}\n'
                    f'{{"id": "p2", "identity_text": "a{char}b"}}\n')
    with pytest.raises(ValueError) as err:
        read_personas(path)
    assert str(err.value).startswith(
        f"malformed record in {path} line 2: JSONDecodeError: Invalid "
        f"control character")


json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text()
    | st.integers() | st.integers(min_value=10 ** 20),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=8)
whitespace = st.text(" \t", min_size=1, max_size=3)


@st.composite
def jsonl_lines(draw):
    """One line as a file may hold it: a ``json.dumps`` value, possibly with
    surrounding whitespace, extra data, a BOM or cut short, a blank or
    out-of-range line, or a string holding ``SEPARATORS`` raw."""
    line = json.dumps(draw(json_values))
    edit = draw(st.sampled_from(["none", "lead", "trail", "extra", "bom",
                                 "cut", "blank", "digits", "raw"]))
    if edit == "lead":
        return draw(whitespace) + line
    if edit == "trail":
        return line + draw(whitespace)
    if edit == "extra":
        return line + draw(st.sampled_from([" 1", "{}", "x", ",", " ]"]))
    if edit == "bom":
        return "\ufeff" + line
    if edit == "cut":
        return line[:draw(st.integers(0, len(line) - 1))]
    if edit == "blank":
        return draw(st.sampled_from(["", " ", "\t "]))
    if edit == "digits":  # beyond the integer string conversion limit
        return "1" * 5000
    if edit == "raw":  # a string holding separators and control characters
        return '"' + draw(st.text(SEPARATORS + "a", max_size=6)) + '"'
    return line


def loads_per_line(path):
    """``read_jsonl(path, parse=identity)`` as ``json.loads`` per line:
    the rows and the error text."""
    rows = []
    for number, line in enumerate(path.read_text().split("\n"), start=1):
        if line.strip():
            try:
                rows.append(json.loads(line))
            except ValueError as err:
                return rows, str(malformed(path, number, err))
    return rows, None


def read_per_line(path):
    rows = []
    try:
        read_jsonl(path, rows.append)
    except ValueError as err:
        return rows, str(err)
    return rows, None


@settings(max_examples=300, deadline=None)
@given(st.lists(jsonl_lines(), min_size=1, max_size=6))
def test_read_jsonl_decodes_as_json_loads(lines):
    """The same values (NaN, -0.0, ints and floats kept apart, so compared by
    repr) and the same error text as ``json.loads`` for the whole file and
    for each line alone."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.jsonl"
        for text in ["\n".join(lines) + "\n", *(line + "\n" for line in lines)]:
            path.write_text(text)
            assert repr(read_per_line(path)) == repr(loads_per_line(path))
