"""Concurrent decisions on the LLM path: ``LLMBackend.map`` runs an
iteration's decision steps on the backend's thread pool, and the run's
output does not depend on how many are in flight."""

import copy
import hashlib
import json
import random
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from traitsim import engine
from traitsim.cli import main
from traitsim.core import TRAIT_PROMPTS, Trait
from traitsim.engine import (
    SimulationConfig,
    init_population,
    run_iteration,
    run_simulation,
    write_artifacts,
)
from traitsim.reasoning import (
    FALLBACK_REASON,
    EndpointConfig,
    LLMBackend,
    StubBackend,
    TransportError,
)

from conftest import Shuffled, chat_server, make_personas, pool_threads

_FEED_RE = re.compile(r"^\[(\d+)\] by (\S+?)(?: \(re-share\))?: ", re.M)
WEIGHTS = {"post": 3, "reshare": 2, "like": 3, "dislike": 1, "comment": 1,
           "follow": 1, "inactive": 2}
# The agent whose every answer breaks the protocol, so it falls back.
ALWAYS_INVALID = ("Persona 2,", TRAIT_PROMPTS[Trait.CA])


def model_answer(system, user, attempt):
    """A pure function of (prompt, attempt), as a model at temperature 0
    would be: a quarter of the prompts get a protocol violation first, and
    one agent gets nothing else. A short delay, also a function of the
    prompt, shuffles the order in which concurrent answers complete."""
    key = hashlib.sha256(f"{system}\0{user}".encode()).hexdigest()
    time.sleep(int(key[:2], 16) % 4 / 1000)
    if (all(part in system for part in ALWAYS_INVALID)
            or (attempt == 0 and int(key[2:4], 16) < 64)):
        return "CHOICE: like\nREASON: x\nCONTENT: 987654321"
    rng = random.Random(f"{key}:{attempt}")
    feed = _FEED_RE.findall(user)
    lines = user.splitlines()
    offered = lines[lines.index("## Available actions") + 1].split(", ")
    kinds = [k for k in offered if feed or k != "follow"]
    kind = rng.choices(kinds, weights=[WEIGHTS[k] for k in kinds])[0]
    content = ""
    if kind == "post":
        content = f"take {rng.randint(1, 999)}"
    elif kind == "comment":
        content = f"{rng.choice(feed)[0]}: agreed"
    elif kind == "follow":
        content = rng.choice(feed)[1]
    elif kind != "inactive":
        content = rng.choice(feed)[0]
    return f"CHOICE: {kind}\nREASON: hashed\nCONTENT: {content}"


def follow_world(cfg):
    """42 agents, each following three others."""
    personas = make_personas(6)
    order = init_population(personas, cfg).agent_order()
    edges = [(a, order[(i + step) % len(order)])
             for i, a in enumerate(order) for step in (1, 5, 11)]
    return personas, init_population(personas, cfg, follow_edges=edges)


class SerialBackend:
    """An ``LLMBackend``'s answers without its ``map``: every decision step
    runs in the calling thread."""

    def __init__(self, backend):
        self.complete = backend.complete


def run_digests(tmp_path, concurrency):
    """Artifact digests and the digest of every prompt sent (as a sorted
    multiset) of a 42-agent, 6-iteration FullModel run with a follow graph,
    and the run's fallback count. ``concurrency`` None decides serially."""
    cfg = SimulationConfig(iterations=6, master_seed=3)
    personas, world = follow_world(cfg)
    with chat_server(model_answer) as (url, seen):
        backend = LLMBackend(EndpointConfig(url, "m",
                                            concurrency=concurrency or 1))
        try:
            run_simulation(cfg, personas,
                           backend if concurrency else SerialBackend(backend),
                           initial_world=world)
        finally:
            backend.close()
    out = tmp_path / f"run-{concurrency}"
    write_artifacts(world, out)
    prompts = hashlib.sha256(b"".join(sorted(
        hashlib.sha256(f"{s}\0{u}".encode()).digest() for s, u in seen)))
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in engine.OUTPUTS}
    fallbacks = sum(r.reason_text == FALLBACK_REASON for r in world.log)
    return digests, prompts.hexdigest(), len(seen), fallbacks


class TestOutputDoesNotDependOnConcurrency:
    def test_artifacts_and_prompts_identical_at_1_and_8(self, tmp_path):
        serial = run_digests(tmp_path, None)
        one = run_digests(tmp_path, 1)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # thread switches between bytecodes
        try:
            eight = run_digests(tmp_path, 8)
        finally:
            sys.setswitchinterval(switch)
        assert serial == one == eight
        _, _, requests, fallbacks = eight
        decisions = 42 * 6
        assert requests > decisions  # re-prompts happened
        assert fallbacks >= 6  # the always-invalid agent, every iteration


class TestTransportErrorUnderConcurrency:
    def test_completed_iterations_stay_and_no_step_runs(self, monkeypatch):
        """Two agents' requests fail in iteration 3 with distinct errors. The
        earliest failing agent in decision order is the one reported; the
        log, the store and the follow graph hold iterations 1 and 2; and no
        decision step is running once ``run_iteration`` raises."""
        failing = {"Persona 1,": False, "Persona 4,": False}
        cfg = SimulationConfig(iterations=3)
        _, world = follow_world(cfg)

        def answer(system, user, attempt):
            for identity, failed in failing.items():
                if failed and identity in system:
                    return 400, f"refused {identity}"
            return model_answer(system, user, attempt)

        running, peak, lock = [0], [0], threading.Lock()
        real_decide = engine.decide

        def tracked_decide(*args):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                time.sleep(0.002)
                return real_decide(*args)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(engine, "decide", tracked_decide)
        with chat_server(answer) as (url, _):
            backend = LLMBackend(EndpointConfig(url, "m", concurrency=8))
            try:
                for _ in range(2):
                    run_iteration(world, cfg, backend)
                snapshot = copy.deepcopy((world.log, world.content, {
                    a: s.profile.following for a, s in world.agents.items()}))
                failing.update(dict.fromkeys(failing, True))
                for start, first in ((lambda order: None, "Persona 1,"),
                                     (list.reverse, "Persona 4,")):
                    with pytest.raises(TransportError,
                                       match=f"refused {first}"):
                        run_iteration(world, cfg, Shuffled(backend, start))
                    assert running[0] == 0
                    assert world.iteration == 2
                    assert (world.log, world.content, {
                        a: s.profile.following
                        for a, s in world.agents.items()}) == snapshot
            finally:
                backend.close()
        assert peak[0] > 1  # the steps did overlap


class TestStubPath:
    def test_every_complete_call_is_on_the_calling_thread(self):
        threads = set()

        class RecordingStub(StubBackend):
            def complete(self, prompt, rng):
                threads.add(threading.get_ident())
                return super().complete(prompt, rng)

        before = threading.active_count()
        cfg = SimulationConfig(iterations=3)
        run_simulation(cfg, make_personas(2), RecordingStub())
        assert threads == {threading.get_ident()}
        assert threading.active_count() == before


class PooledStub(StubBackend):
    """The stub's answers, with each iteration's decision steps on eight
    threads, as an ``LLMBackend`` runs them."""

    def map(self, step, agent_ids):
        with ThreadPoolExecutor(8) as pool:
            return list(pool.map(step, agent_ids))


class TestStubOnAThreadPool:
    @pytest.mark.parametrize("configuration",
                             ["FullModel", "RandomRecommendation"])
    def test_artifacts_identical_to_the_serial_stub(self, tmp_path,
                                                    configuration):
        """Unlike ``LLMBackend``, the stub draws from its generator, so a
        generator seeded wrongly on a pool thread changes the output. The
        1,050 agents span five blocks of ``agent_rng``'s seed words."""
        personas = make_personas(150)
        cfg = SimulationConfig(configuration=configuration, iterations=3,
                               master_seed=4099)
        order = init_population(personas, cfg).agent_order()
        assert len(order) > engine._SEED_BLOCK
        edges = [(a, order[(i + step) % len(order)])
                 for i, a in enumerate(order) for step in (1, 5, 11)]
        digests = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # thread switches between bytecodes
        try:
            # The pooled run goes first, so no serial run has memoised its
            # seed words.
            for backend in (PooledStub(), StubBackend()):
                world = init_population(personas, cfg, follow_edges=edges)
                run_simulation(cfg, personas, backend, initial_world=world)
                out = tmp_path / type(backend).__name__
                write_artifacts(world, out)
                digests.append({name: (out / name).read_bytes()
                                for name in engine.OUTPUTS})
        finally:
            sys.setswitchinterval(switch)
        assert digests[0] == digests[1]


class TestCliClosesTheBackend:
    @pytest.mark.parametrize("refuse", [False, True])
    def test_no_pool_thread_alive_after_main(self, tmp_path, refuse):
        personas = tmp_path / "personas.jsonl"
        personas.write_text("".join(json.dumps(p) + "\n"
                                    for p in make_personas(2)))

        def answer(system, user, attempt):
            if refuse:
                return 400, "refused"
            return model_answer(system, user, attempt)

        with chat_server(answer) as (url, seen):
            code = main(["simulate", "--personas", str(personas),
                         "--iterations", "2",
                         "--endpoint", url, "--model", "m",
                         "--concurrency", "4", "--out", str(tmp_path / "run")])
        assert code == (1 if refuse else 0)
        assert seen
        assert pool_threads() == []
