"""``engine.collector_paused``: a simulation, a load and every CLI command
run with Python's cyclic garbage collector paused. That is sound only
because they make no reference cycles, which these tests pin; they also
check that no collection starts while a simulation runs, that the collector
is left as it was found on every way out, and that no other code in ``src``
changes the collector."""

import ast
import gc
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

import traitsim
from traitsim import engine, reasoning
from traitsim.cli import build_parser, cmd_ground, cmd_simulate, main
from traitsim.engine import (
    CONFIGURATIONS,
    SimulationConfig,
    collector_paused,
    init_population,
    load_run,
    run_simulation,
    write_artifacts,
)
from traitsim.memory import MemoryParams
from traitsim.reasoning import EndpointConfig, LLMBackend, TransportError

from conftest import chat_server, make_personas
from test_concurrency import model_answer

ITERATIONS = MemoryParams().eval_period  # through one LTM evaluation


def follow_world(configuration, iterations=ITERATIONS, n=6):
    """A config and a world of ``n`` personas in which every agent follows
    three others."""
    cfg = SimulationConfig(configuration=configuration,
                           iterations=iterations, master_seed=4)
    personas = make_personas(n)
    order = init_population(personas, cfg).agent_order()
    edges = [(a, order[(i + step) % len(order)])
             for i, a in enumerate(order) for step in (1, 5, 11)]
    return cfg, personas, init_population(personas, cfg, follow_edges=edges)


def refused_first(system, user):
    """Whether ``flaky_answer`` answers the first attempt of this prompt
    with a 503: about one prompt in six."""
    return hashlib.sha256(f"{system}\0{user}".encode()).digest()[0] % 6 == 0


def flaky_answer(system, user, attempt):
    """``model_answer`` (a quarter of first answers invalid, one agent
    always invalid), after a 503 for the first attempt of some prompts."""
    if refused_first(system, user):
        if attempt == 0:
            return 503, "busy"
        attempt -= 1
    return model_answer(system, user, attempt)


def garbage_after(call):
    """The cyclic garbage ``call()`` leaves, as a Counter of (module, type
    name): a collection before it, and what the one after it finds."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        return Counter((type(o).__module__, type(o).__name__)
                       for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def llm_run(url, **kwargs):
    """A 42-agent LLM-path run at concurrency 4 against ``url``."""
    cfg, personas, world = follow_world("FullModel", **kwargs)
    backend = LLMBackend(EndpointConfig(url, "m", concurrency=4))
    try:
        run_simulation(cfg, personas, backend, initial_world=world)
    finally:
        backend.close()
    return world


def personas_file(tmp_path, n=4):
    path = tmp_path / f"personas-{n}.jsonl"
    path.write_text("".join(json.dumps(p) + "\n" for p in make_personas(n)))
    return path


def records_file(tmp_path):
    """A hub that posts every day and three users who like or re-share it."""
    lines = []
    for day in range(6):
        lines.append({"user": "hub", "kind": "post",
                      "timestamp": day * 86400, "text": f"day {day}"})
        for n, kind in enumerate(("like", "reshare", "like")):
            lines.append({"user": f"u{n}", "kind": kind,
                          "timestamp": day * 86400 + n + 1,
                          "target_user": "hub"})
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return path


def simulate_argv(tmp_path, out="run", personas=4):
    return ["simulate", "--personas", str(personas_file(tmp_path, personas)),
            "--iterations", str(ITERATIONS), "--out", str(tmp_path / out)]


def ground_argv(tmp_path, out="bundle"):
    return ["ground", "--records", str(records_file(tmp_path)),
            "--out", str(tmp_path / out)]


@pytest.fixture
def patched_sleep(monkeypatch):
    monkeypatch.setattr(reasoning, "_sleep", lambda s: None)


class TestNoCyclicGarbage:
    """Pausing the collector can only defer reclaiming reference cycles, so
    it costs nothing as long as these make none."""

    @pytest.mark.parametrize("configuration", CONFIGURATIONS)
    def test_stub_run(self, configuration, collector):
        cfg, personas, world = follow_world(configuration)
        run_simulation(cfg, personas, initial_world=world)  # caches fill
        cfg, personas, world = follow_world(configuration)
        assert garbage_after(lambda: run_simulation(
            cfg, personas, initial_world=world)) == {}
        assert world.iteration == ITERATIONS
        assert any(a.memory.ltm for a in world.agents.values())

    def test_llm_run_with_retries_reprompts_and_fallbacks(
            self, collector, patched_sleep):
        with chat_server(flaky_answer) as (url, seen):
            llm_run(url, iterations=1)  # imports and caches fill
            worlds = []
            assert garbage_after(lambda: worlds.append(llm_run(url))) == {}
        assert any(refused_first(*prompt) for prompt in seen)
        assert len(seen) > len(set(seen))  # requests were re-sent
        assert any(r.reason_text == reasoning.FALLBACK_REASON
                   for r in worlds[0].log)

    def test_ground_command(self, tmp_path, collector):
        args = build_parser().parse_args(ground_argv(tmp_path))
        assert cmd_ground(args) == 0
        assert garbage_after(lambda: cmd_ground(args)) == {}

    def test_simulate_command_leaves_only_the_manifest_encoder(
            self, tmp_path, collector):
        """``write_manifest``'s indented ``json.dumps`` builds json's pure
        Python encoder, whose closures refer to each other: the only
        cycle, of constant size, that ``simulate`` makes."""
        args = build_parser().parse_args(simulate_argv(tmp_path))
        assert cmd_simulate(args) == 0
        encoder = garbage_after(lambda: json.dumps({"a": [1]}, indent=2))
        assert garbage_after(lambda: cmd_simulate(args)) == encoder

    def test_main_defers_a_constant_that_holds_no_world(self, tmp_path,
                                                        collector):
        """Through ``main``, a command also leaves argparse's parser, which
        refers to itself: about as much garbage for a world four times
        larger (argparse's share varies by an object with the arguments),
        and none of it a ``traitsim`` object."""
        def main_garbage(argv):
            return garbage_after(lambda: main(argv))

        assert main(simulate_argv(tmp_path, "warm")) == 0
        small = main_garbage(simulate_argv(tmp_path, "small", personas=2))
        large = main_garbage(simulate_argv(tmp_path, "large", personas=8))
        assert (tmp_path / "large" / "manifest.json").exists()
        assert abs(large.total() - small.total()) <= 2
        ground = main_garbage(ground_argv(tmp_path))
        assert (tmp_path / "bundle" / "personas.jsonl").exists()
        assert not [key for key in small + large + ground
                    if key[0].startswith("traitsim")]

    def test_simulate_after_a_transport_error_holds_no_world(
            self, tmp_path, collector, patched_sleep):
        """A ``TransportError`` ends the run and is reported, and neither
        ``LLMBackend.map`` nor ``cmd_simulate`` keeps it, or the future
        that holds it, in a frame its traceback holds: no ``traitsim``
        object is left in a cycle."""
        codes = []
        with chat_server(lambda *a: (500, "down")) as (url, _):
            def failing(out):
                codes.append(main([*simulate_argv(tmp_path, out),
                                   "--endpoint", url,
                                   "--model", "m"]))

            failing("warm")
            garbage = garbage_after(lambda: failing("failed"))
        assert codes == [1, 1]
        assert (tmp_path / "failed" / "manifest.json").exists()
        assert not [key for key in garbage if key[0].startswith("traitsim")]


def collections_in_iterations(monkeypatch, call):
    """The generations of the collections that start inside an
    ``engine.run_iteration`` during ``call()``, with the collector enabled
    and its allocation count reset on entry."""
    started, inside, real = [], [False], engine.run_iteration

    def iteration(*args):
        inside[0] = True
        try:
            return real(*args)
        finally:
            inside[0] = False

    def hook(phase, info):
        if phase == "start" and inside[0]:
            started.append(info["generation"])

    monkeypatch.setattr(engine, "run_iteration", iteration)
    gc.collect()
    gc.enable()
    gc.callbacks.append(hook)
    try:
        call()
    finally:
        gc.callbacks.remove(hook)
    return started


class TestNoCollectionDuringARun:
    def test_stub_run(self, collector, monkeypatch):
        cfg, personas, world = follow_world("FullModel")
        unpaused = collections_in_iterations(monkeypatch, lambda: [
            engine.run_iteration(world, cfg, reasoning.StubBackend())
            for _ in range(cfg.iterations)])
        assert unpaused  # the same iterations collect when not paused
        cfg, personas, world = follow_world("FullModel")
        assert collections_in_iterations(monkeypatch, lambda: run_simulation(
            cfg, personas, initial_world=world)) == []
        assert world.iteration == cfg.iterations
        assert gc.isenabled()

    def test_llm_run(self, collector, monkeypatch, patched_sleep):
        with chat_server(flaky_answer) as (url, _):
            worlds = []
            assert collections_in_iterations(
                monkeypatch, lambda: worlds.append(llm_run(url))) == []
        assert worlds[0].iteration == ITERATIONS
        assert gc.isenabled()


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def start(request, collector):
    """The collector's state on entry: enabled, then disabled."""
    (gc.enable if request.param else gc.disable)()
    return request.param


def paused_inside(monkeypatch, module, name):
    """Record ``gc.isenabled()`` in each call of ``module.name``."""
    seen, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


class TestLeftAsFound:
    def test_nested_helper(self, start):
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is start

    def test_run_simulation_returns(self, start, monkeypatch):
        seen = paused_inside(monkeypatch, engine, "run_iteration")
        run_simulation(SimulationConfig(iterations=2), make_personas(2))
        assert seen == [False, False]
        assert gc.isenabled() is start

    def test_run_simulation_raises_a_transport_error(self, start,
                                                     patched_sleep):
        with chat_server(lambda *a: (500, "down")) as (url, _):
            backend = LLMBackend(EndpointConfig(url, "m", concurrency=4))
            try:
                with pytest.raises(TransportError):
                    run_simulation(SimulationConfig(iterations=2),
                                   make_personas(2), backend)
            finally:
                backend.close()
        assert gc.isenabled() is start

    def test_load_run_returns_and_raises(self, start, tmp_path, monkeypatch):
        write_artifacts(run_simulation(SimulationConfig(iterations=2),
                                       make_personas(2)), tmp_path)
        seen = paused_inside(monkeypatch, engine, "apply_record")
        load_run(tmp_path)
        assert seen and not any(seen)
        assert gc.isenabled() is start
        actions = tmp_path / "actions.jsonl"
        actions.write_text(actions.read_text() + "{oops\n")
        with pytest.raises(ValueError, match="malformed record"):
            load_run(tmp_path)
        assert gc.isenabled() is start

    # ``TestAnalyzeCollector`` in test_cli.py checks ``analyze`` the same way.
    @pytest.mark.parametrize("command", ["simulate", "ground"])
    def test_main_succeeds_and_fails(self, start, tmp_path, monkeypatch,
                                     command):
        missing = str(tmp_path / "missing")
        if command == "simulate":
            argv = simulate_argv(tmp_path)
            bad = ["simulate", "--personas", missing, "--out", missing]
            # called outside ``run_simulation``, which pauses by itself
            seen = paused_inside(monkeypatch, traitsim.cli, "init_population")
        else:
            argv = ground_argv(tmp_path)
            bad = ["ground", "--records", missing, "--out", missing]
            seen = paused_inside(monkeypatch, traitsim.cli, "ground")
        assert main(argv) == 0
        assert gc.isenabled() is start
        assert main(bad) == 1  # a CliError
        assert gc.isenabled() is start
        assert seen == [False]


SRC = Path(traitsim.__file__).parent


def gc_calls(tree):
    """(enclosing function name, attribute) for every ``gc.<attr>(...)``
    call in ``tree``."""
    calls = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "gc"):
            calls.append((function, node.func.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return calls


def test_only_the_helper_changes_the_collector():
    """One place pauses the collector, and ``src`` never collects, freezes
    or retunes it."""
    calls, imports = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        calls += [(path.name, *call) for call in gc_calls(tree)]
        imports += [path.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "gc"
                    or isinstance(node, ast.Import) and any(
                        a.name == "gc" and a.asname for a in node.names)]
    assert imports == []  # so every use is spelled ``gc.<name>``
    assert {(f, a) for f, _, a in calls if a in ("enable", "disable")} == {
        ("engine.py", "enable"), ("engine.py", "disable")}
    assert {fn for _, fn, a in calls if a in ("enable", "disable")} == {
        "collector_paused"}
    assert not [c for c in calls
                if c[2] in ("collect", "freeze", "set_threshold")]
