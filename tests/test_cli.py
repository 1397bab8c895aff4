import csv
import gc
import hashlib
import json
import os
import socket
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

import traitsim
from traitsim import cli, reasoning
from traitsim.cli import main
from traitsim.engine import SimulationConfig
from traitsim.reasoning import EndpointConfig, StubBackend, TransportError

from conftest import chat_server, make_personas, pool_threads


@pytest.fixture
def personas_file(tmp_path):
    path = tmp_path / "personas.jsonl"
    path.write_text("\n".join(json.dumps(p) for p in make_personas(4)) + "\n")
    return path


MALFORMED_ENDPOINTS = ["localhost:11434/v1/chat/completions",
                       "ftp://localhost/v1", "http:///v1",
                       "http://localhost:port/v1"]


def simulate(tmp_path, personas_file, out_name="run", extra=()):
    out = tmp_path / out_name
    code = main(["simulate", "--personas", str(personas_file),
                 "--iterations", "8", "--seed", "5", "--out", str(out),
                 *extra])
    assert code == 0
    return out


def edit_first_record(of_kind, **fields):
    """A corruption of actions.jsonl: set ``fields`` on its first record of
    kind ``of_kind`` (of any kind for None)."""
    def corrupt(text):
        records = [json.loads(line) for line in text.splitlines()]
        n = next(n for n, r in enumerate(records)
                 if of_kind is None or r["kind"] == of_kind)
        records[n].update(fields)
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    return corrupt


def drop_first_key(key):
    """A corruption of a run file: remove ``key`` from its first line."""
    def corrupt(text):
        first, rest = text.split("\n", 1)
        record = json.loads(first)
        del record[key]
        return json.dumps(record, sort_keys=True) + "\n" + rest
    return corrupt


def reshare_twice(text):
    """A corruption of actions.jsonl: a later record of the first agent to
    re-share becomes a second re-share of the same item."""
    records = [json.loads(line) for line in text.splitlines()]
    first = next(r for r in records if r["kind"] == "reshare")
    later = next(r for r in records if r["agent"] == first["agent"]
                 and r["iteration"] > first["iteration"])
    later.update(kind="reshare", target=first["target"], payload=None,
                 order=first["order"])
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def reshare_own_post(text):
    """A corruption of actions.jsonl: a later record of the first agent to
    post becomes a re-share of that post. Content ids count the post and
    re-share records from 1."""
    records = [json.loads(line) for line in text.splitlines()]
    created = [r for r in records if r["kind"] in ("post", "reshare")]
    n, first = next((n, r) for n, r in enumerate(created, 1)
                    if r["kind"] == "post")
    later = next(r for r in records if r["agent"] == first["agent"]
                 and r["iteration"] > first["iteration"])
    later.update(kind="reshare", target=n, payload=None, order="first_order")
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def swap_first_lines(text):
    first, second, rest = text.split("\n", 2)
    return "\n".join((second, first, rest))


class TestSimulate:
    def test_writes_artifact_bundle(self, tmp_path, personas_file):
        out = simulate(tmp_path, personas_file)
        for name in ("actions.jsonl", "content.jsonl", "agents.jsonl",
                     "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["master_seed"] == 5
        assert manifest["config"]["iterations"] == 8
        assert manifest["completed_iterations"] == 8
        digest = next(iter(manifest["inputs"].values()))
        assert len(digest) == 64  # sha256 of the personas file
        bare = tmp_path / "bare"
        assert main(["simulate", "--personas", str(personas_file),
                     "--out", str(bare)]) == 0
        manifest = json.loads((bare / "manifest.json").read_text())
        defaults = SimulationConfig()
        assert manifest["master_seed"] == defaults.master_seed
        assert manifest["completed_iterations"] == defaults.iterations
        assert manifest["config"] == {
            "configuration": defaults.configuration,
            "iterations": defaults.iterations,
            "feed_size": defaults.feed_size,
            "backend": {}, "memory": asdict(defaults.memory)}

    def test_repeat_runs_are_byte_identical(self, tmp_path, personas_file):
        a = simulate(tmp_path, personas_file, "run_a")
        b = simulate(tmp_path, personas_file, "run_b")
        for name in ("actions.jsonl", "content.jsonl", "agents.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_config_file_with_cli_override(self, tmp_path, personas_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "iterations": 3, "master_seed": 9,
            "personas": str(personas_file),
            "memory": {"stm_capacity": 10, "w_reshare": 3},  # int for a float
        }))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--iterations", "2",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["iterations"] == 2  # CLI wins
        assert manifest["master_seed"] == 9
        assert manifest["config"]["memory"]["stm_capacity"] == 10
        assert manifest["config"]["memory"]["w_reshare"] == 3

    def test_unknown_config_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iterationz": 3}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 1
        assert "iterationz" in capsys.readouterr().err

    def test_unknown_memory_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"memory": {"stm_cap": 5}}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 1
        assert "stm_cap" in capsys.readouterr().err

    def test_w_comment_is_an_unknown_memory_key(self, tmp_path, capsys,
                                                personas_file):
        # comments do not enter the engagement score, so no weight exists
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"personas": str(personas_file),
                                   "memory": {"w_comment": 1.0}}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "unknown config key(s)" in err and "memory.w_comment" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text", ["[]", '{"backend": "llm"}',
                                      '{"memory": 5}'],
                             ids=["list", "backend", "memory"])
    def test_non_object_config_is_named(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "JSON object" in err

    def test_missing_config_file_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "nope.json"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "not found" in err and str(cfg) in err

    @pytest.mark.parametrize("key, section", [
        pytest.param("personas", {"personas": 5}, id="personas-int"),
        pytest.param("follows", {"follows": ["f.csv"]}, id="follows-list"),
        pytest.param("configuration", {"configuration": 1},
                     id="configuration-int"),
        pytest.param("iterations", {"iterations": "3"}, id="iterations-str"),
        pytest.param("iterations", {"iterations": True}, id="iterations-bool"),
        pytest.param("master_seed", {"master_seed": "x"}, id="master_seed-str"),
        pytest.param("feed_size", {"feed_size": 2.5}, id="feed_size-float"),
        pytest.param("memory.stm_capacity", {"memory": {"stm_capacity": "5"}},
                     id="stm_capacity-str"),
        pytest.param("memory.w_like", {"memory": {"w_like": "1"}},
                     id="w_like-str"),
        pytest.param("backend.temperature",
                     {"backend": {"temperature": "hot"}}, id="temperature-str"),
        pytest.param("backend.model", {"backend": {"model": 7}},
                     id="model-int"),
        pytest.param("backend.concurrency", {"backend": {"concurrency": True}},
                     id="concurrency-bool"),
        pytest.param("backend.concurrency", {"backend": {"concurrency": "4"}},
                     id="concurrency-str"),
        pytest.param("backend.concurrency", {"backend": {"concurrency": 2.0}},
                     id="concurrency-float"),
    ])
    def test_config_value_of_wrong_type_is_named(self, tmp_path, capsys,
                                                 personas_file, key, section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"personas": str(personas_file), **section}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert f"'{key}'" in err and str(cfg) in err

    def test_backend_type_is_an_unknown_key(self, tmp_path, capsys,
                                            personas_file):
        # the backend follows from the endpoint settings; no switch names it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"personas": str(personas_file),
                                   "backend": {"type": "stub"}}))
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: unknown config key(s) in {cfg}: "
                       f"backend.type\n")
        assert not out.exists()

    def test_every_flag_sets_the_config_key_of_its_dest(self):
        """The other keys are set from ``--config`` only."""
        import argparse

        parser = cli.build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction))
        dests = {action.dest
                 for action in commands.choices["simulate"]._actions
                 if not isinstance(action, argparse._HelpAction)}
        assert dests - {"config", "out"} <= (set(cli._CONFIG_KEYS)
                                             | set(cli._BACKEND_KEYS))

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_concurrency_below_one_is_named(self, tmp_path, capsys,
                                            personas_file, where):
        backend = {"endpoint": "http://localhost:1/v1", "model": "m"}
        cfg = tmp_path / "cfg.json"
        extra = []
        if where == "config":
            backend["concurrency"] = 0
        else:
            extra = ["--concurrency", "0"]
        cfg.write_text(json.dumps({"personas": str(personas_file),
                                   "backend": backend}))
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), *extra,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "'backend.concurrency'" in err and "at least 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("timeout", [0, -1.5])
    def test_timeout_not_above_zero_is_named(self, tmp_path, capsys,
                                             personas_file, timeout):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"personas": str(personas_file), "backend": {
            "endpoint": "http://localhost:1/v1", "model": "m",
            "timeout": timeout}}))
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid 'backend.timeout': timeout must "
                              "be above 0")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, where", [
        ("timeout", 1e300, "config"), ("timeout", float("inf"), "config"),
        ("temperature", float("nan"), "config"),
        ("temperature", "nan", "flag")],
        ids=["timeout-1e300", "timeout-infinity", "temperature-nan",
             "temperature-nan-flag"])
    def test_setting_the_client_cannot_use_is_named(
            self, tmp_path, capsys, personas_file, monkeypatch, key, value,
            where):
        """A timeout no socket takes, or a temperature no JSON request body
        can carry, is refused before the run."""
        monkeypatch.setattr(cli, "run_simulation", must_not_run)
        backend = {"endpoint": "http://localhost:1/v1", "model": "m"}
        extra = []
        if where == "config":
            backend[key] = value  # json.dumps writes Infinity and NaN
        else:
            extra = [f"--{key}", value]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"personas": str(personas_file),
                                   "backend": backend}))
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), *extra,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid 'backend.{key}': {key} must ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("eval_period", 0), ("promotion_quantile", 1.5),
        ("promotion_quantile", -0.1), ("am_window", -1), ("stm_capacity", -1),
        ("decay_horizon", -2), ("w_like", float("nan")),
        ("w_reshare", float("inf")), ("w_dislike", float("-inf")),
    ])
    def test_memory_setting_out_of_range_is_named(
            self, tmp_path, capsys, personas_file, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"personas": str(personas_file),
                                   "memory": {key: value}}))
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), "--iterations", "5",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: memory.{key} must be")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_is_rejected_before_the_run(
            self, tmp_path, capsys, personas_file, where):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"personas": str(personas_file),
                                   "master_seed": -1}))
        args = (["--config", str(cfg)] if where == "config"
                else ["--personas", str(personas_file), "--seed", "-1"])
        out = tmp_path / "x"
        assert main(["simulate", *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: master seed must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_feed_size_above_maxsize_is_rejected_before_the_run(
            self, tmp_path, capsys, personas_file, where):
        # islice, which fills a feed, takes no stop above sys.maxsize
        size = sys.maxsize + 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"personas": str(personas_file),
                                   "feed_size": size}))
        args = (["--config", str(cfg)] if where == "config"
                else ["--personas", str(personas_file), "--feed-size",
                      str(size)])
        out = tmp_path / "x"
        assert main(["simulate", *args, "--iterations", "3",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: feed size must be in [1, {sys.maxsize}]\n"
        assert not out.exists()

    def test_every_simulation_option_is_a_config_key(self):
        assert (set(SimulationConfig.__dataclass_fields__)
                <= set(cli._CONFIG_KEYS))

    def test_missing_personas_file(self, tmp_path, capsys):
        assert main(["simulate", "--personas", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "x")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_personas_line_is_cited(self, tmp_path, capsys):
        path = tmp_path / "personas.jsonl"
        for bad in ("{broken", "[1]"):
            path.write_text('{"id": "a", "identity_text": "x"}\n' + bad + "\n")
            assert main(["simulate", "--personas", str(path),
                         "--out", str(tmp_path / "x")]) == 1
            assert "line 2" in capsys.readouterr().err

    def test_unknown_trait_is_cited(self, tmp_path, capsys):
        path = tmp_path / "personas.jsonl"
        for trait in ('"XX"', '["PC"]'):
            path.write_text('{"id": "a", "identity_text": "x", "trait": "PC"}\n'
                            '{"id": "b", "identity_text": "x", "trait": %s}\n'
                            % trait)
            assert main(["simulate", "--personas", str(path),
                         "--out", str(tmp_path / "x")]) == 1
            err = capsys.readouterr().err
            assert "line 2" in err and "unknown trait" in err

    @pytest.mark.parametrize("line, key", [
        ('{"id": 5, "identity_text": "x"}', "id"),
        ('{"id": "b", "identity_text": 7}', "identity_text"),
        ('{"id": null, "identity_text": "x"}', "id"),
        ('{"id": "b", "identity_text": "x", "topic": ["m"]}', "topic"),
    ], ids=["int-id", "int-text", "null-id", "list-topic"])
    def test_persona_id_and_text_must_be_strings(self, tmp_path, capsys,
                                                 line, key):
        path = tmp_path / "personas.jsonl"
        path.write_text('{"id": "a", "identity_text": "x"}\n' + line + "\n")
        out = tmp_path / "x"
        assert main(["simulate", "--personas", str(path), "--configuration",
                     "IdentityOnly", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{path} line 2: TypeError: {key} must be a string" in err
        assert not out.exists()

    @pytest.mark.parametrize("personas, follows, message", [
        ('{"id": "a", "identity_text": "x"}\n' * 2, None, "duplicate"),
        ("\n", None, "empty persona set"),
        ('{"id": "a", "identity_text": "x", "trait": "PC"}\n',
         "follower,followee\na,ghost\n", "unknown agent"),
    ], ids=["duplicate-id", "empty", "unknown-followee"])
    def test_population_errors_fail_before_writing(
            self, tmp_path, capsys, personas, follows, message):
        path = tmp_path / "personas.jsonl"
        path.write_text(personas)
        args = ["simulate", "--personas", str(path)]
        if follows is not None:
            (tmp_path / "follows.csv").write_text(follows)
            args += ["--follows", str(tmp_path / "follows.csv")]
        out = tmp_path / "run"
        assert main(args + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_agent_named_follower_keeps_its_edges(self, tmp_path):
        """Only a first row ``follower,followee`` is the header."""
        personas = tmp_path / "personas.jsonl"
        personas.write_text("".join(
            json.dumps({"id": i, "identity_text": "x", "trait": "PC"}) + "\n"
            for i in ("follower", "a", "b")))
        follows = tmp_path / "follows.csv"
        follows.write_text("follower,followee\nfollower,b\na,follower\n")
        assert cli.read_follows(follows) == [("follower", "b"),
                                             ("a", "follower")]
        follows.write_text("follower,b\nfollower,followee\n")
        assert cli.read_follows(follows) == [("follower", "b"),
                                             ("follower", "followee")]
        follows.write_text("follower,followee\nfollower,b\na,follower\n")
        out = tmp_path / "x"
        assert main(["simulate", "--personas", str(personas), "--follows",
                     str(follows), "--iterations", "1", "--out", str(out)]) == 0
        following = {row["agent_id"]: set(row["following"]) for row in map(
            json.loads, (out / "agents.jsonl").read_text().splitlines())}
        assert "b" in following["follower"] and "follower" in following["a"]

    def test_short_follows_row_is_cited(self, tmp_path, personas_file, capsys):
        follows = tmp_path / "follows.csv"
        follows.write_text("follower,followee\np000-SO,p001-SO\np002-SO\n")
        assert main(["simulate", "--personas", str(personas_file),
                     "--follows", str(follows),
                     "--out", str(tmp_path / "x")]) == 1
        assert (f"malformed record in {follows} line 3: ValueError: expected "
                f"follower,followee, got ['p002-SO']"
                in capsys.readouterr().err)

    def test_corrupt_content_store_fails_before_writing(
            self, tmp_path, personas_file, monkeypatch, capsys):
        real_run = cli.run_simulation

        def corrupting_run(*args, **kwargs):
            world = real_run(*args, **kwargs)
            next(iter(world.content.values())).reshares += 1
            return world

        monkeypatch.setattr(cli, "run_simulation", corrupting_run)
        out = tmp_path / "run"
        assert main(["simulate", "--personas", str(personas_file),
                     "--iterations", "3", "--out", str(out)]) != 0
        assert "integrity" in capsys.readouterr().err
        assert not (out / "content.jsonl").exists()

    def test_transport_error_writes_completed_iterations(
            self, tmp_path, personas_file, monkeypatch, capsys):
        agents = 4 * 7

        class FlakyBackend(StubBackend):
            calls = 0

            def complete(self, prompt, rng):
                self.calls += 1
                if self.calls > 3 * agents + 5:
                    raise TransportError("backend unreachable: refused")
                return super().complete(prompt, rng)

        monkeypatch.setattr(cli, "_make_backend", lambda cfg: FlakyBackend())
        out = tmp_path / "run"
        assert main(["simulate", "--personas", str(personas_file),
                     "--iterations", "8", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "iteration 4" in err and "last completed iteration (3)" in err
        assert str(out) in err
        for name in ("actions.jsonl", "content.jsonl", "agents.jsonl",
                     "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["completed_iterations"] == 3
        iterations = [json.loads(line)["iteration"] for line in
                      (out / "actions.jsonl").read_text().splitlines()]
        assert sorted(set(iterations)) == [1, 2, 3]
        assert len(iterations) == 3 * agents
        assert main(["analyze", "--run", str(out)]) == 0

    @pytest.mark.parametrize("url", MALFORMED_ENDPOINTS)
    def test_malformed_endpoint_fails_before_the_run(
            self, tmp_path, capsys, personas_file, url):
        out = tmp_path / "x"
        assert main(["simulate", "--personas", str(personas_file),
                     "--endpoint", url, "--model", "m",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid 'backend.endpoint': endpoint "
                              "must be an http")
        assert repr(url) in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("out", ["file", "file/run"])
    def test_out_that_cannot_be_a_directory_fails_before_the_run(
            self, tmp_path, personas_file, blocking_file, monkeypatch, capsys,
            out):
        monkeypatch.setattr(cli, "run_simulation", must_not_run)
        out = tmp_path / out
        assert main(["simulate", "--personas", str(personas_file),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == NOT_A_DIRECTORY.format(
            out=out, file=blocking_file)
        assert blocking_file.read_text() == "kept\n"

    def test_out_that_is_a_dangling_symlink_fails_before_the_run(
            self, tmp_path, personas_file, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_simulation", must_not_run)
        out = tmp_path / "link"
        out.symlink_to(tmp_path / "missing")
        assert main(["simulate", "--personas", str(personas_file),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == NOT_A_DIRECTORY.format(
            out=out, file=out)
        assert out.is_symlink() and not out.exists()

    def test_answer_past_a_decoder_limit_is_reprompted(self, tmp_path,
                                                       personas_file):
        """A model answer whose content id has more digits than ``int``
        converts is re-prompted; the run completes and is written."""
        def answer(system, user, attempt):
            if attempt == 0:
                return "CHOICE: like\nREASON: x\nCONTENT: " + "9" * 5000
            return "CHOICE: inactive\nREASON: ok\nCONTENT:"

        out = tmp_path / "run"
        with chat_server(answer) as (url, seen):
            assert main(["simulate", "--personas", str(personas_file),
                         "--iterations", "1",
                         "--endpoint", url, "--model", "m",
                         "--out", str(out)]) == 0
        records = [json.loads(line) for line in
                   (out / "actions.jsonl").read_text().splitlines()]
        assert len(seen) == 2 * len(records) == 2 * 4 * 7
        assert {(r["kind"], r["reason"]) for r in records} == {
            ("inactive", "ok")}

    def test_endpoint_and_model_alone_select_the_model(self, tmp_path,
                                                       personas_file):
        out = tmp_path / "run"
        with chat_server(lambda *a: "CHOICE: inactive\nREASON: served\n"
                                    "CONTENT:") as (url, seen):
            assert main(["simulate", "--personas", str(personas_file),
                         "--iterations", "1", "--endpoint", url,
                         "--model", "m", "--out", str(out)]) == 0
        reasons = [json.loads(line)["reason"] for line in
                   (out / "actions.jsonl").read_text().splitlines()]
        assert reasons == ["served"] * len(seen) == ["served"] * 4 * 7
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["backend"] == asdict(EndpointConfig(url,
                                                                      "m"))

    def test_llm_backend_requires_endpoint(self, tmp_path, personas_file,
                                           capsys):
        """Any one endpoint setting selects the model, which then needs
        both the endpoint and the model; nothing is written without them."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"personas": str(personas_file),
                                   "backend": {"timeout": 5}}))
        out = tmp_path / "x"
        for argv in (["simulate", "--personas", str(personas_file),
                      "--temperature", "0.2"],
                     ["simulate", "--personas", str(personas_file),
                      "--concurrency", "4"],
                     ["simulate", "--config", str(cfg)],
                     ["simulate", "--personas", str(personas_file),
                      "--endpoint", "http://localhost:1/v1"],
                     ["ground", "--records", str(ground_records(tmp_path)),
                      "--model", "m"]):
            assert main([*argv, "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                "error: llm backend requires 'endpoint' and 'model'\n")
            assert not out.exists()


NOT_A_DIRECTORY = "error: --out {out}: {file} exists and is not a directory\n"


def must_not_run(*args, **kwargs):
    raise AssertionError("the work ran although an argument was invalid")


@pytest.fixture
def blocking_file(tmp_path):
    """A regular file where an ``--out`` directory, or its parent, would
    go; the name the error cites."""
    path = tmp_path / "file"
    path.write_text("kept\n")
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestAnalyze:
    def test_full_bundle(self, tmp_path, personas_file):
        run = simulate(tmp_path, personas_file)
        assert main(["analyze", "--run", str(run)]) == 0
        for name in ("clusters.csv", "chains.csv", "chain_table.csv",
                     "order_dynamics.csv", "content_mix.csv",
                     "centrality_resharing.csv", "centrality_interaction.csv",
                     "summary.txt"):
            assert (run / name).exists()
        clusters = read_csv(run / "clusters.csv")
        assert clusters[0] == ["agent", "trait", "p_post", "p_reshare",
                               "p_interact", "p_inactive", "cluster"]
        assert len(clusters) == 1 + 4 * 7  # header + every agent
        dynamics = read_csv(run / "order_dynamics.csv")
        assert len(dynamics) == 1 + 8  # header + one row per iteration

    def test_small_run_skips_clustering(self, tmp_path, personas_file):
        run = simulate(tmp_path, personas_file,
                       extra=["--configuration", "IdentityOnly"])
        assert main(["analyze", "--run", str(run)]) == 0
        assert len(read_csv(run / "clusters.csv")) == 1
        assert ("clustering skipped: 4 agents, fewer than k_max=8"
                in (run / "summary.txt").read_text().splitlines())

    def test_separate_out_directory(self, tmp_path, personas_file):
        run = simulate(tmp_path, personas_file)
        out = tmp_path / "analysis"
        assert main(["analyze", "--run", str(run), "--out", str(out)]) == 0
        assert (out / "summary.txt").exists()

    def test_which_selects_sections(self, tmp_path, personas_file):
        run = simulate(tmp_path, personas_file)
        out = tmp_path / "rq2"
        assert main(["analyze", "--run", str(run), "--which", "rq2",
                     "--out", str(out)]) == 0
        assert (out / "chains.csv").exists()
        assert not (out / "clusters.csv").exists()
        assert not (out / "centrality_resharing.csv").exists()

    def test_empty_log_yields_headers_only(self, tmp_path):
        run = tmp_path / "empty"
        run.mkdir()
        (run / "actions.jsonl").write_text("")
        (run / "agents.jsonl").write_text("")
        assert main(["analyze", "--run", str(run)]) == 0
        for name in ("clusters.csv", "chains.csv", "centrality_resharing.csv"):
            assert len(read_csv(run / name)) == 1

    def test_compare_reports_mann_whitney(self, tmp_path, personas_file,
                                          capsys):
        a = simulate(tmp_path, personas_file, "a")
        b = simulate(tmp_path, personas_file, "b")
        assert main(["analyze", "--run", str(a), "--compare", str(b)]) == 0
        text = (Path(a) / "summary.txt").read_text()
        assert "U=" in text and "p=" in text

    def test_malformed_compared_run_writes_nothing(self, tmp_path,
                                                   personas_file, capsys):
        a = simulate(tmp_path, personas_file, "a")
        b = simulate(tmp_path, personas_file, "b")
        actions = b / "actions.jsonl"
        actions.write_text(reshare_twice(actions.read_text()))
        before = sorted(a.iterdir())
        out = tmp_path / "analysis"
        assert main(["analyze", "--run", str(a), "--compare", str(b),
                     "--out", str(out)]) == 1
        assert f"{actions} line " in capsys.readouterr().err
        assert not out.exists()
        assert main(["analyze", "--run", str(a), "--compare", str(b)]) == 1
        assert sorted(a.iterdir()) == before

    def test_follow_only_agents_are_left_out(self, tmp_path, personas_file,
                                             capsys):
        run = simulate(tmp_path, personas_file)
        records = [json.loads(line) for line in
                   (run / "actions.jsonl").read_text().splitlines()]
        agents = sorted({r["agent"] for r in records})
        # The log stays replayable only if the follower created no content.
        follower = next(a for a in agents if not any(
            r["agent"] == a and r["kind"] in ("post", "reshare")
            for r in records))
        followee = next(a for a in agents if a != follower)
        for r in records:
            if r["agent"] == follower:
                r.update(kind="follow", target=followee, payload=None,
                         order="not_applicable")
        (run / "actions.jsonl").write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        assert main(["analyze", "--run", str(run)]) == 0
        summary = (run / "summary.txt").read_text().splitlines()
        assert "follow-only agents left out of clustering: 1" in summary
        assert any(line.startswith("clustering: k=") for line in summary)
        clustered = [row[0] for row in read_csv(run / "clusters.csv")[1:]]
        assert clustered == [a for a in agents if a != follower]

    @pytest.mark.parametrize("name, corrupt, line", [
        ("actions.jsonl", lambda text: text[:-20], "last"),
        ("actions.jsonl",
         lambda text: text.replace('"not_applicable"', '"sideways"', 1),
         "first-na"),
        ("actions.jsonl", edit_first_record("like", target=10 ** 6), "edited"),
        ("actions.jsonl", reshare_twice, "edited"),
        ("agents.jsonl", lambda text: text + "{oops\n", "last"),
        ("agents.jsonl", lambda text: text.replace('"agent_id"', '"id"', 1),
         1),
        ("actions.jsonl", edit_first_record(None, agent=5), "edited"),
        ("actions.jsonl", edit_first_record(None, iteration="3"), "edited"),
        ("actions.jsonl", edit_first_record(None, iteration=True), "edited"),
        ("actions.jsonl", edit_first_record("like", target="x"), "edited"),
        ("actions.jsonl", edit_first_record("like", target=True), "edited"),
        ("actions.jsonl", edit_first_record("post", payload=None), "edited"),
        ("actions.jsonl", edit_first_record("like", payload="x"), "edited"),
        ("actions.jsonl", edit_first_record(None, kind="shout"), "edited"),
        ("actions.jsonl", edit_first_record(None, kind=["post"]), "edited"),
        ("actions.jsonl", edit_first_record(None, order={"first": 1}),
         "edited"),
        ("actions.jsonl", drop_first_key("reason"), 1),
        ("actions.jsonl", edit_first_record(None, reason=5), "edited"),
        ("actions.jsonl", edit_first_record(None, agent="ghost"), "edited"),
        ("actions.jsonl", edit_first_record(
            None, kind="follow", target="ghost", payload=None,
            order="not_applicable"), "edited"),
        ("actions.jsonl",
         lambda text: text.replace('"first_order"', '"second_order"', 1),
         "edited"),
        ("agents.jsonl", edit_first_record(None, topic=["m"]), 1),
        ("actions.jsonl", lambda text: text.rsplit("\n", 2)[0] + "\n",
         "last"),
        ("actions.jsonl", swap_first_lines, 1),
        ("actions.jsonl", edit_first_record(None, iteration=2), "edited"),
        ("agents.jsonl", edit_first_record(None, trait=["PC"]), 1),
        ("agents.jsonl", edit_first_record(None, agent_id=["p000"]), 1),
        ("agents.jsonl", lambda text: text + text.splitlines(True)[0], "last"),
        ("actions.jsonl", reshare_own_post, "edited"),
    ], ids=["actions-truncated", "actions-bad-order",
            "replay-unknown-content", "replay-second-reshare",
            "agents-broken-json", "agents-missing-key",
            "actions-int-agent", "actions-str-iteration",
            "actions-bool-iteration", "actions-like-str-target",
            "actions-like-bool-target", "actions-post-null-payload",
            "actions-like-with-payload",
            "actions-unknown-kind", "actions-list-kind",
            "actions-object-order",
            "actions-missing-reason", "actions-int-reason",
            "replay-unknown-agent",
            "replay-follow-unknown-agent",
            "replay-contradicted-order", "agents-list-topic",
            "actions-last-line-dropped", "actions-lines-swapped",
            "actions-iteration-skipped", "agents-list-trait",
            "agents-list-agent-id", "agents-repeated-agent-id",
            "replay-own-reshare"])
    def test_malformed_run_file_is_cited(self, tmp_path, personas_file, capsys,
                                         name, corrupt, line):
        run = simulate(tmp_path, personas_file)
        text = (run / name).read_text()
        lines = corrupt(text).splitlines()
        if line == "last":
            line = len(lines)
        elif line == "first-na":
            line = next(n for n, l in enumerate(lines, 1) if "sideways" in l)
        elif line == "edited":
            line = next(n for n, (old, new) in enumerate(
                zip(text.splitlines(), lines), 1) if old != new)
        (run / name).write_text(corrupt(text))
        assert main(["analyze", "--run", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{run / name} line {line}:" in err

    def test_malformed_manifest_is_named(self, tmp_path, personas_file,
                                         capsys):
        run = simulate(tmp_path, personas_file)
        (run / "manifest.json").write_text('{"schema_version": ')
        assert main(["analyze", "--run", str(run)]) == 1
        err = capsys.readouterr().err
        assert f"malformed manifest {run / 'manifest.json'}" in err

    def test_missing_content_file_is_named(self, tmp_path, personas_file,
                                           capsys):
        """agents.jsonl is read; content.jsonl is output only."""
        run = simulate(tmp_path, personas_file)
        (run / "content.jsonl").unlink()
        assert main(["analyze", "--run", str(run)]) == 0
        (run / "agents.jsonl").unlink()
        assert main(["analyze", "--run", str(run)]) == 1
        assert f"not found: {run / 'agents.jsonl'}" in capsys.readouterr().err

    def test_same_directory_compare_parses_the_run_once(
            self, tmp_path, personas_file, monkeypatch):
        run = simulate(tmp_path, personas_file)
        calls = {"load_run": 0, "trace_chains": 0}
        for name in calls:
            real = getattr(cli, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        assert main(["analyze", "--run", str(run), "--compare",
                     str(tmp_path / "." / "run")]) == 0
        assert calls == {"load_run": 1, "trace_chains": 1}
        assert "U=" in (run / "summary.txt").read_text()

    @pytest.mark.parametrize("which, compare, traced", [
        ("rq1", False, 0), ("rq3", False, 0), ("rq2", False, 1),
        ("all", False, 1), ("rq1", True, 1), ("rq3", True, 1)])
    def test_chains_are_traced_only_when_read(
            self, tmp_path, personas_file, monkeypatch, which, compare,
            traced):
        """rq2 and ``--compare`` read the chains; rq1 and rq3 do not."""
        run = simulate(tmp_path, personas_file)
        calls = []
        real = cli.trace_chains
        monkeypatch.setattr(cli, "trace_chains",
                            lambda *args: calls.append(1) or real(*args))
        extra = ["--compare", str(run)] if compare else []
        assert main(["analyze", "--run", str(run), "--which", which,
                     *extra]) == 0
        assert len(calls) == traced

    def test_other_directory_compare_reads_only_its_content(
            self, tmp_path, personas_file, monkeypatch):
        a = simulate(tmp_path, personas_file, "a")
        b = simulate(tmp_path, personas_file, "b",
                     extra=["--configuration", "RandomRecommendation"])
        read = []
        real_read_text = Path.read_text

        def spy(path, *args, **kwargs):
            read.append(Path(path))
            return real_read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", spy)
        assert main(["analyze", "--run", str(a), "--compare", str(b)]) == 0
        # the compared run is loaded as the analyzed run is: its store is
        # replayed from the log, never read from content.jsonl
        assert sorted(p.name for p in read if p.parent == b) == [
            "actions.jsonl", "agents.jsonl", "manifest.json"]
        assert "U=" in (a / "summary.txt").read_text()

    def test_empty_k_range_is_an_error(self, tmp_path, personas_file, capsys):
        run = simulate(tmp_path, personas_file)
        assert main(["analyze", "--run", str(run), "--k-min", "5",
                     "--k-max", "3"]) == 1
        assert "k_min=5 > k_max=3" in capsys.readouterr().err

    def test_k_min_below_one_is_an_error(self, tmp_path, personas_file,
                                         capsys):
        run = simulate(tmp_path, personas_file)
        assert main(["analyze", "--run", str(run), "--k-min", "-3"]) == 1
        assert capsys.readouterr().err == (
            "error: cannot cluster: k_min must be >= 1, got -3\n")

    def test_missing_run_directory(self, tmp_path, capsys):
        assert main(["analyze", "--run", str(tmp_path / "ghost")]) == 1
        assert "not an artifact directory" in capsys.readouterr().err

    def test_incompatible_schema_version(self, tmp_path, personas_file,
                                         capsys):
        run = simulate(tmp_path, personas_file)
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["schema_version"] = 99
        (run / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", "--run", str(run)]) == 1
        assert "schema_version" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["file", "file/analysis"])
    def test_out_that_cannot_be_a_directory_fails_before_the_load(
            self, tmp_path, personas_file, blocking_file, monkeypatch, capsys,
            out):
        run = simulate(tmp_path, personas_file)
        monkeypatch.setattr(cli, "load_run", must_not_run)
        out = tmp_path / out
        assert main(["analyze", "--run", str(run), "--out", str(out)]) == 1
        assert capsys.readouterr().err == NOT_A_DIRECTORY.format(
            out=out, file=blocking_file)
        assert blocking_file.read_text() == "kept\n"

    def test_out_that_is_a_dangling_symlink_fails_before_the_load(
            self, tmp_path, personas_file, monkeypatch, capsys):
        run = simulate(tmp_path, personas_file)
        monkeypatch.setattr(cli, "load_run", must_not_run)
        out = tmp_path / "link"
        out.symlink_to(tmp_path / "missing")
        assert main(["analyze", "--run", str(run), "--out", str(out)]) == 1
        assert capsys.readouterr().err == NOT_A_DIRECTORY.format(
            out=out, file=out)
        assert out.is_symlink() and not out.exists()

    @pytest.mark.parametrize("keep", [7, 9])
    def test_log_must_hold_the_manifests_iterations(
            self, tmp_path, personas_file, capsys, keep):
        """A log cut (or grown) at an iteration boundary replays cleanly,
        so only the manifest's count can tell that iterations are missing."""
        run = simulate(tmp_path, personas_file)  # 8 iterations of 28 agents
        actions = run / "actions.jsonl"
        lines = actions.read_text().splitlines(True)
        lines = (lines * 2)[:keep * 28]
        if keep > 8:  # iteration 9 replays the records of iteration 1
            lines[8 * 28:] = [json.dumps({**json.loads(line), "iteration": 9},
                                         sort_keys=True) + "\n"
                              for line in lines[8 * 28:]]
        actions.write_text("".join(lines))
        assert main(["analyze", "--run", str(run)]) == 1
        assert capsys.readouterr().err == (
            f"error: malformed record in {actions} line {keep * 28}: "
            f"ValueError: the log holds {keep} iterations, but manifest.json "
            f"says completed_iterations 8\n")

    def test_manifest_without_completed_iterations_loads_any_length(
            self, tmp_path, personas_file, capsys):
        run = simulate(tmp_path, personas_file)
        manifest = json.loads((run / "manifest.json").read_text())
        del manifest["completed_iterations"]
        (run / "manifest.json").write_text(json.dumps(manifest))
        actions = run / "actions.jsonl"
        actions.write_text("".join(
            actions.read_text().splitlines(True)[:7 * 28]))
        assert main(["analyze", "--run", str(run)]) == 0
        assert "actions: 196" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["8", 8.0, True, -1])
    def test_completed_iterations_must_be_a_count(
            self, tmp_path, personas_file, capsys, value):
        run = simulate(tmp_path, personas_file)
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["completed_iterations"] = value
        (run / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", "--run", str(run)]) == 1
        assert capsys.readouterr().err == (
            f"error: malformed manifest {run / 'manifest.json'}: "
            f"completed_iterations must be an integer >= 0, got "
            f"{json.dumps(value)}\n")


class TestAnalyzeCollector:
    """``analyze`` runs with the cyclic garbage collector paused, which is
    sound only because it makes no reference cycles."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_is_paused_and_left_as_found(
            self, tmp_path, personas_file, monkeypatch, collector, enabled):
        run = simulate(tmp_path, personas_file)
        seen = []
        real = cli.load_run
        monkeypatch.setattr(cli, "load_run", lambda run_dir: seen.append(
            gc.isenabled()) or real(run_dir))
        (gc.enable if enabled else gc.disable)()
        assert main(["analyze", "--run", str(run)]) == 0
        assert gc.isenabled() is enabled
        actions = run / "actions.jsonl"
        actions.write_text(actions.read_text() + "{oops\n")
        assert main(["analyze", "--run", str(run)]) == 1  # a CliError
        assert gc.isenabled() is enabled
        assert seen == [False, False]

    def test_analyze_leaves_no_cyclic_garbage(self, tmp_path, personas_file,
                                              collector):
        a = simulate(tmp_path, personas_file, "a")
        b = simulate(tmp_path, personas_file, "b",
                     extra=["--configuration", "RandomRecommendation"])
        args = cli.build_parser().parse_args([
            "analyze", "--run", str(a), "--compare", str(b),
            "--out", str(tmp_path / "analysis")])
        assert cli.cmd_analyze(args) == 0  # imports and caches fill once
        gc.disable()
        gc.collect()
        assert cli.cmd_analyze(args) == 0
        assert gc.collect() == 0


class TestAnalyzeGoldenDigests:
    """Digests of every analyze output for one fixed run, recorded from the
    per-agent log scans, the dense silhouette and the double parse of
    ``--compare``. Any change to what analyze writes for this run fails
    here."""

    GOLDEN = {
        "clusters.csv": "acbbd598bd49c051962d2e477b624e4224ac1ec37230de3a1ea81174e33b97b6",
        "chains.csv": "e47280023de1cb104d6de9bfb75d1fcb836ee7b4de88de61ef34b470ce5e648a",
        "chain_table.csv": "5cbee4e11f64db189b652fb4ca9ee8a10559e4430ead8ede1b6659724e2c4be5",
        "order_dynamics.csv": "7693df9f8ba3fcc13e3425b6991fb4b715c4d9d7b1cbac743174065441cee256",
        "content_mix.csv": "6d4e364c2a486190aa055552cd71e44e8c1e739a6491b6a976747d9792a80ffa",
        "centrality_resharing.csv": "8b8053631ac64970e731074704ef67f813aa0c0dd817a33813ba519523e6e487",
        "centrality_interaction.csv": "6e619513168bcd1e49fa463be9f0b73eaddba84fb766151f47bba90f1d3ef343",
        "summary.txt": "9659b4874a4b8876cd74160b78f2c28ac16e71596a13928a4831e94d4a95bfad",
    }

    def test_outputs_match_recorded_digests(self, tmp_path, personas_file,
                                            monkeypatch):
        simulate(tmp_path, personas_file)  # 28 agents, 8 iterations, seed 5
        monkeypatch.chdir(tmp_path)  # summary.txt names the run as given
        assert main(["analyze", "--run", "run", "--compare", "run",
                     "--out", "analysis"]) == 0
        digests = {name: hashlib.sha256(
                       (tmp_path / "analysis" / name).read_bytes()).hexdigest()
                   for name in self.GOLDEN}
        assert digests == self.GOLDEN


DAY = 86400


def ground_records(tmp_path):
    """Hand-built 4-user community over 10 days: hub posts daily, sharer
    re-shares hub on half the days, reactor likes hub most days, lurker
    engages once (so it joins the graph) and is otherwise silent."""
    lines = []
    for d in range(10):
        lines.append({"user": "hub", "kind": "post", "timestamp": d * DAY + 50,
                      "text": f"post on day {d}"})
    for d in range(0, 10, 2):
        lines.append({"user": "sharer", "kind": "reshare",
                      "timestamp": d * DAY + 60, "target_user": "hub"})
    for d in range(8):
        lines.append({"user": "reactor", "kind": "like",
                      "timestamp": d * DAY + 70, "target_user": "hub"})
    lines.append({"user": "lurker", "kind": "like", "timestamp": 80,
                  "target_user": "hub"})
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    return path


class TestGround:
    def test_pipeline_outputs(self, tmp_path):
        records = ground_records(tmp_path)
        out = tmp_path / "bundle"
        assert main(["ground", "--records", str(records),
                     "--out", str(out)]) == 0
        rows = read_csv(out / "assignments.csv")
        by_user = {r[0]: r for r in rows[1:]}
        assert by_user["hub"][5] == "PC"  # posts every day
        assert by_user["sharer"][5] == "OS"  # (0, .5, 0, .5)
        assert by_user["reactor"][5] == "OE"  # (0, 0, .8, .2)
        assert by_user["lurker"][5] == "SO"  # one like in ten days
        personas = [json.loads(l) for l in
                    (out / "personas.jsonl").read_text().splitlines()]
        assert all(p["identity_text"] for p in personas)
        assert {p["id"] for p in personas} == {"hub", "sharer", "reactor",
                                               "lurker"}

    def test_follow_edges_filtered_to_community(self, tmp_path):
        records = ground_records(tmp_path)
        follows = tmp_path / "follows.csv"
        follows.write_text("follower,followee\nsharer,hub\nstranger,hub\n")
        out = tmp_path / "bundle"
        assert main(["ground", "--records", str(records),
                     "--follows", str(follows), "--out", str(out)]) == 0
        rows = read_csv(out / "follows.csv")
        assert rows == [["follower", "followee"], ["sharer", "hub"]]

    def test_short_follows_row_is_cited(self, tmp_path, capsys):
        records = ground_records(tmp_path)
        follows = tmp_path / "follows.csv"
        follows.write_text("follower,followee\nsharer\n")
        assert main(["ground", "--records", str(records),
                     "--follows", str(follows),
                     "--out", str(tmp_path / "x")]) == 1
        assert (f"malformed record in {follows} line 2: ValueError: expected "
                f"follower,followee, got ['sharer']"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    def test_malformed_record_line_is_cited(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        good = json.dumps({"user": "u", "kind": "post", "timestamp": 0,
                           "text": "x"})
        records.write_text("\n".join([good] * 11 + ["{oops"]) + "\n")
        assert main(["ground", "--records", str(records),
                     "--out", str(tmp_path / "x")]) == 1
        assert "line 12" in capsys.readouterr().err

    def test_empty_records_file(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text("\n")
        assert main(["ground", "--records", str(records),
                     "--out", str(tmp_path / "x")]) == 1
        assert "empty" in capsys.readouterr().err

    def test_cap_below_one_is_an_error(self, tmp_path, capsys):
        records = ground_records(tmp_path)
        assert main(["ground", "--records", str(records), "--cap", "0",
                     "--out", str(tmp_path / "x")]) == 1
        assert "cap must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("url", MALFORMED_ENDPOINTS)
    def test_malformed_endpoint_is_named_and_writes_nothing(
            self, tmp_path, capsys, url):
        records = ground_records(tmp_path)
        out = tmp_path / "x"
        assert main(["ground", "--records", str(records), "--endpoint", url,
                     "--model", "m", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid 'backend.endpoint': endpoint "
                              "must be an http")
        assert not out.exists()

    @pytest.mark.parametrize("out, flags, error", [
        ("file", [], NOT_A_DIRECTORY),
        ("file/bundle", [], NOT_A_DIRECTORY),
        ("bundle", ["--endpoint", "not-a-url", "--model", "m"],
         "error: invalid 'backend.endpoint': endpoint must be an http")],
        ids=["out-is-a-file", "out-under-a-file", "malformed-endpoint"])
    def test_invalid_argument_fails_before_the_pipeline(
            self, tmp_path, blocking_file, monkeypatch, capsys, out, flags,
            error):
        records = ground_records(tmp_path)
        monkeypatch.setattr(cli, "parse_records", must_not_run)
        monkeypatch.setattr(cli, "ground", must_not_run)
        out = tmp_path / out
        assert main(["ground", "--records", str(records), *flags,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            error.format(out=out, file=blocking_file))
        assert blocking_file.read_text() == "kept\n"
        assert not (tmp_path / "bundle").exists()

    # The bundle of ``ground_records`` and a three-edge follows file with
    # placeholder identities, byte for byte.
    PLACEHOLDER_BUNDLE = {
        "assignments.csv":
            "05dea5621c35d80897bc1fedb4d38b5ec489e7a99c7f1fa39500eef9361cc085",
        "personas.jsonl":
            "4662e20e2ed44b000f1bc0c5096ea2d331b2efcb6fe1e544c485561cb6eb3b0f",
        "follows.csv":
            "95d3db54a2c8b37f14408be6a8a4b90c7d08c00943e5310647317e07576fbfae",
        "ego_edges.csv":
            "ca2f18e3fe5fe7046222638d1d195e0bc6a57be227ca06ed443225a4755c2298",
    }

    def test_no_endpoint_settings_write_placeholder_identities(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "LLMBackend", must_not_run)
        records = ground_records(tmp_path)
        follows = tmp_path / "follows.csv"
        follows.write_text("follower,followee\nsharer,hub\nreactor,hub\n"
                           "reactor,sharer\n")
        out = tmp_path / "bundle"
        assert main(["ground", "--records", str(records), "--follows",
                     str(follows), "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"ground bundle written to {out}: 4 users, 3 follow edges, "
            f"placeholder identities\n")
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in self.PLACEHOLDER_BUNDLE} == self.PLACEHOLDER_BUNDLE

    @pytest.mark.parametrize("flags, temperature", [
        ((), EndpointConfig.temperature), (("--temperature", "0.2"), 0.2)])
    def test_identity_backend_takes_endpoint_defaults(
            self, tmp_path, monkeypatch, capsys, flags, temperature):
        endpoints = []

        def infer(posts, backend):
            endpoints.append(backend.endpoint)
            return "inferred"

        monkeypatch.setattr(cli, "infer_identity", infer)
        records = ground_records(tmp_path)
        assert main(["ground", "--records", str(records), "--endpoint",
                     "http://localhost:1/v1", "--model", "m", *flags,
                     "--out", str(tmp_path / "x")]) == 0
        assert endpoints and all(
            e == EndpointConfig("http://localhost:1/v1", "m",
                                temperature=temperature)
            for e in endpoints)
        assert capsys.readouterr().out.endswith(
            "identities inferred by m at http://localhost:1/v1\n")

    def test_endpoint_settings_build_one_endpoint_config(
            self, tmp_path, monkeypatch, personas_file):
        """The same settings as ``simulate`` flags, in a ``simulate`` config
        file and as ``ground`` flags build equal endpoints."""
        built = []

        class Recorder(StubBackend):
            def __init__(self, endpoint):
                built.append(endpoint)

            def map(self, fn, items):
                return [fn(item) for item in items]

            def close(self):
                pass

        monkeypatch.setattr(cli, "LLMBackend", Recorder)
        monkeypatch.setattr(cli, "infer_identity", lambda posts, b: "inferred")
        settings = {"endpoint": "http://localhost:1/v1", "model": "m",
                    "temperature": 0.2, "concurrency": 3}
        flags = [arg for key, value in settings.items()
                 for arg in (f"--{key}", str(value))]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"personas": str(personas_file),
                                   "iterations": 1,
                                   "backend": settings}))
        assert main(["simulate", "--personas", str(personas_file),
                     "--iterations", "1", *flags,
                     "--out", str(tmp_path / "by-flags")]) == 0
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "by-config")]) == 0
        assert main(["ground", "--records", str(ground_records(tmp_path)),
                     *flags, "--out", str(tmp_path / "bundle")]) == 0
        assert built == [EndpointConfig(**settings)] * 3


def identity_records(tmp_path, users=12):
    """A hub and ``users`` users who each post twice and like the hub."""
    lines = [{"user": "hub", "kind": "post", "timestamp": 10,
              "text": "hub says hello"}]
    for i in range(users):
        user = f"u{i:02d}"
        lines += [{"user": user, "kind": "post", "timestamp": 20 + i,
                   "text": f"{user} writes about topic {i % 3}"},
                  {"user": user, "kind": "post", "timestamp": DAY + i,
                   "text": "and once more"},
                  {"user": user, "kind": "like", "timestamp": 2 * DAY + i,
                   "target_user": "hub"}]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(l) + "\n" for l in lines))
    return path


def profile_answer(system, user, attempt):
    """The profile of the user whose posts ``user`` lists, after a short
    delay that varies with the request."""
    time.sleep(len(user) % 4 / 1000)
    return "profile of " + user.split("\n")[1].split()[1]


class TestGroundIdentityInference:
    def test_personas_identical_at_any_concurrency(self, tmp_path):
        records = identity_records(tmp_path)
        texts = []
        for concurrency in ("1", "4"):
            out = tmp_path / f"bundle-{concurrency}"
            with chat_server(profile_answer) as (url, seen):
                assert main(["ground", "--records", str(records), "--endpoint",
                             url, "--model", "m", "--concurrency", concurrency,
                             "--out", str(out)]) == 0
            assert len(seen) == 13  # every user with posts, hub included
            assert pool_threads() == []
            texts.append((out / "personas.jsonl").read_text())
        assert texts[0] == texts[1]
        profiles = {p["id"]: p["identity_text"]
                    for p in map(json.loads, texts[1].splitlines())}
        assert list(profiles) == sorted(profiles)
        assert profiles == {"hub": "profile of hub", **{
            f"u{i:02d}": f"profile of u{i:02d}" for i in range(12)}}

    @pytest.mark.parametrize("failure", ["refused", "http-503"])
    def test_transport_error_is_named_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, failure):
        monkeypatch.setattr(reasoning, "_sleep", lambda s: None)
        records = identity_records(tmp_path, users=3)
        out = tmp_path / "bundle"

        def ground(url):
            return main(["ground", "--records", str(records), "--endpoint",
                         url, "--model", "m", "--out", str(out)])

        if failure == "refused":
            with socket.socket() as sock:  # a port nothing listens on
                sock.bind(("127.0.0.1", 0))
                url = f"http://127.0.0.1:{sock.getsockname()[1]}/v1"
            code = ground(url)
        else:
            with chat_server(lambda *a: (503, "busy")) as (url, seen):
                code = ground(url)
            assert len(seen) >= reasoning.TRANSPORT_RETRIES + 1
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: identity inference failed at " + url)
        assert not out.exists()
        assert pool_threads() == []


class TestGroundToSimulate:
    def test_bundle_simulates_as_its_population(self, tmp_path):
        records = ground_records(tmp_path)
        follows = tmp_path / "follows.csv"
        follows.write_text("follower,followee\nsharer,hub\nreactor,hub\n"
                           "reactor,sharer\n")
        bundle = tmp_path / "bundle"
        assert main(["ground", "--records", str(records),
                     "--follows", str(follows), "--out", str(bundle)]) == 0
        run = tmp_path / "run"
        assert main(["simulate", "--personas", str(bundle / "personas.jsonl"),
                     "--follows", str(bundle / "follows.csv"),
                     "--iterations", "4", "--seed", "3",
                     "--out", str(run)]) == 0

        agents = {a["agent_id"]: a for a in map(
            json.loads, (run / "agents.jsonl").read_text().splitlines())}
        assigned = {r[0]: r[5] for r in read_csv(bundle / "assignments.csv")[1:]}
        assert len(agents) == len(assigned) == 4
        assert {a: agents[a]["trait"] for a in agents} == assigned
        edges = read_csv(bundle / "follows.csv")[1:]
        assert len(edges) == 3
        following = {a: set() for a in assigned}
        for follower, followee in edges:
            following[follower].add(followee)
        for record in map(json.loads,
                          (run / "actions.jsonl").read_text().splitlines()):
            if record["kind"] == "follow":  # follows made during the run
                following[record["agent"]].add(record["target"])
        assert {a: set(agents[a]["following"]) for a in agents} == following
        inputs = json.loads((run / "manifest.json").read_text())["inputs"]
        assert set(inputs) == {str(bundle / "personas.jsonl"),
                               str(bundle / "follows.csv")}
        assert all(len(digest) == 64 for digest in inputs.values())

        assert main(["analyze", "--run", str(run)]) == 0
        assert "clustering skipped: 4 agents" in (run / "summary.txt").read_text()


DEEP = "[" * 100_000  # nested past the recursion limit


@pytest.mark.parametrize("name", ["personas", "config", "actions",
                                  "manifest", "records"])
def test_input_nested_too_deep_is_malformed(tmp_path, personas_file, capsys,
                                            name):
    """A line or a document nested past the recursion limit is a malformed
    input, named on one error line (with the line, for a line-delimited
    file), and not a traceback."""
    good = {"personas": json.dumps(make_personas(1)[0]),
            "records": json.dumps({"user": "u", "kind": "post",
                                   "timestamp": 0, "text": "x"})}
    if name in ("actions", "manifest"):
        run = simulate(tmp_path, personas_file)
        path = run / ("actions.jsonl" if name == "actions" else
                      "manifest.json")
        argv = ["analyze", "--run", str(run)]
    else:
        path = tmp_path / f"{name}.json"
        argv = {"personas": ["simulate", "--personas", str(path)],
                "config": ["simulate", "--personas", str(personas_file),
                           "--config", str(path)],
                "records": ["ground", "--records", str(path)],
                }[name] + ["--out", str(tmp_path / "x")]
    if name == "config" or name == "manifest":
        path.write_text(DEEP)
        cited = f"malformed {name} {path}: RecursionError: "
    else:
        lines = (path.read_text().splitlines() if name == "actions"
                 else [good[name]] * 3)
        lines[2] = DEEP
        path.write_text("\n".join(lines) + "\n")
        cited = f"malformed record in {path} line 3: RecursionError: "
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cited}") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


class TestDemoData:
    def test_shipped_personas_are_loadable(self, tmp_path):
        demo = Path(__file__).resolve().parent.parent / "data" / "personas_demo.jsonl"
        out = tmp_path / "run"
        assert main(["simulate", "--personas", str(demo), "--iterations", "2",
                     "--seed", "1", "--out", str(out)]) == 0
        agents = (out / "agents.jsonl").read_text().splitlines()
        assert len(agents) == 14 * 7


def test_no_command_imports_requests():
    """The cli and everything it imports load without ``requests`` or
    ``urllib3``, which would add about 0.15 s to every command."""
    src = str(Path(traitsim.__file__).parents[1])
    code = ("import sys, traitsim.cli; "
            "print(sorted({'requests', 'urllib3'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


@pytest.fixture(scope="module", params=["FullModel", "RandomRecommendation"])
def stub_simulate_output(request, tmp_path_factory):
    """The stdout lines of one subprocess per configuration, which both
    tests below read. It prints which of numpy, ``http.client``,
    ``concurrent.futures`` and ``argparse`` are loaded after importing
    ``cli``, then after a stub ``run_simulation``, then with the exit code
    of a stub ``simulate`` through ``cli.main``; last, that exit code and
    whether ``numpy.random`` is loaded."""
    configuration, tmp_path = request.param, tmp_path_factory.mktemp("sim")
    personas = tmp_path / "personas.jsonl"
    personas.write_text("".join(json.dumps(p) + "\n"
                                for p in make_personas(2)))
    src = str(Path(traitsim.__file__).parents[1])
    code = ("import json, pathlib, sys, traitsim.cli; "
            "from traitsim import engine; "
            "loaded = lambda: sorted({'numpy', 'http.client', "
            "'concurrent.futures', 'argparse'} & set(sys.modules)); "
            "print(loaded()); "
            "engine.run_simulation(engine.SimulationConfig("
            "configuration=sys.argv[1], iterations=2), "
            "[json.loads(line) for line in "
            "pathlib.Path(sys.argv[2]).read_text().splitlines()]); "
            "print(loaded()); "
            "code = traitsim.cli.main(sys.argv[3:]); "
            "print(code, loaded()); "
            "print(code, 'numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", code, configuration, str(personas),
         "simulate", "--personas", str(personas), "--iterations", "2",
         "--configuration", configuration, "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    return result.stdout.splitlines()


def test_simulate_never_imports_numpy_random(stub_simulate_output):
    """``simulate`` draws from ``engine.PCG64Stream`` and loads no part of
    ``numpy.random``, under the preference and the random feed."""
    assert stub_simulate_output[-1] == "0 False"


def test_cli_and_a_stub_simulate_load_neither_numpy_nor_http_client(
        stub_simulate_output):
    """Importing ``cli`` and a stub ``run_simulation`` load no numpy (only
    ``analyze``'s clustering imports it), no ``http.client`` and no
    ``concurrent.futures`` (only ``LLMBackend`` imports them) and no
    ``argparse`` (only ``cli.build_parser`` imports it); a stub ``simulate``
    through ``cli.main`` then loads none but ``argparse``."""
    lines = stub_simulate_output
    assert (lines[:2], lines[-2]) == (["[]", "[]"], "0 ['argparse']")


def test_grounding_and_networks_never_import_numpy():
    """Neither ``grounding`` nor the ``networks`` it builds its graph with
    loads numpy."""
    src = str(Path(traitsim.__file__).parents[1])
    code = ("import sys, traitsim.grounding, traitsim.networks; "
            "print('numpy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"
