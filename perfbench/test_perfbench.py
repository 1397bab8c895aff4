"""Self-test of the benchmark at toy size.

    python3 -m pytest perfbench

Checks that every metric BENCHMARK.json names is emitted, with its unit, for
each workload; that traced names are restored, also after an exception; and
that the fake endpoint's valid answers pass ``reasoning.validate_decision``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tracing
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from traitsim import engine, reasoning  # noqa: E402
from traitsim.core import AgentProfile, Trait  # noqa: E402
from traitsim.memory import MemoryUnit  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy(name: str):
    return dataclasses.replace(WORKLOADS[name], personas=2, iterations=6,
                               latency_ms=0.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(name, trace):
    attempted, failed, metrics = run.run(ROOT, toy(name), seed=3, seconds=0,
                                         trace=trace)
    assert failed == 0 and attempted > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(metrics) == {m["name"] for m in declared}
    units = run.END_TO_END if not trace else {n: run.layer_unit(n)
                                              for n in metrics}
    assert {m["name"]: m["unit"] for m in declared} == units


def test_workloads_in_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_inputs_repeat_for_a_seed(tmp_path):
    prompts = run.trait_prompts(ROOT)
    a = generate(WORKLOADS["follow-random"], 5, tmp_path / "a", prompts)
    b = generate(WORKLOADS["follow-random"], 5, tmp_path / "b", prompts)
    c = generate(WORKLOADS["follow-random"], 6, tmp_path / "c", prompts)
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes()
    assert a["personas"].read_bytes() != c["personas"].read_bytes()


def test_traced_names_are_restored_after_an_exception():
    tracer = tracing.Tracer()
    patches = tracing.simulate_patches(tracer, reasoning.StubBackend)
    originals = [owner.__dict__[attr] for owner, attr, _ in patches]
    with pytest.raises(RuntimeError):
        with tracing.installed(patches):
            assert engine.recommend_feed is not originals[1]
            raise RuntimeError("boom")
    assert [owner.__dict__[attr] for owner, attr, _ in patches] == originals


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    own = tracer.self_times()
    total = tracer.durations("outer")[0]
    assert own["outer"] + own["inner"] == pytest.approx(total)
    assert 0 < own["outer"] < total


@pytest.fixture
def endpoint(tmp_path):
    """Yields a factory that starts a fake endpoint with the given policy
    and returns a backend connected to it."""
    procs = []

    def start(always_failing=(), first_violation_share=0.0):
        policy = tmp_path / f"policy{len(procs)}.json"
        policy.write_text(json.dumps({
            "seed": 1, "latency_ms": 0.0,
            "first_violation_share": first_violation_share,
            "always_failing": [list(p) for p in always_failing]}))
        proc = subprocess.Popen(
            [sys.executable, str(run.HERE / "fake_endpoint.py"), str(policy)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        procs.append(proc)
        port = int(proc.stdout.readline())
        return reasoning.LLMBackend(reasoning.EndpointConfig(
            f"http://127.0.0.1:{port}/v1/chat/completions", "fake-model"))

    yield start
    for proc in procs:
        proc.stdin.close()
        proc.wait(timeout=10)


def prompts():
    profile = AgentProfile("p000-BP", "Mei (p000), 30, a data scientist.",
                           Trait.BP, "Technology")
    seen = set()  # the endpoint counts attempts per distinct prompt
    for iteration in (1, 2, 3):
        feed = [reasoning.FeedEntry(cid, f"p00{cid % 3}-SO", f"text {cid}",
                                    cid % 2 == 0, "Technology")
                for cid in range(10 * iteration, 10 * iteration + 5)]
        for entries in ((), feed[:1], feed):
            prompt = reasoning.build_prompt(profile, MemoryUnit(), entries,
                                            iteration)
            if prompt.user_text() not in seen:
                seen.add(prompt.user_text())
                yield profile, prompt


def test_valid_answers_pass_validation(endpoint):
    backend = endpoint()
    for _, prompt in prompts():
        for _ in range(5):  # each attempt draws a new answer
            reasoning.validate_decision(backend.complete(prompt, None), prompt)


def test_failing_agents_and_first_answers_violate_the_protocol(endpoint):
    profile, _ = next(prompts())
    trait_text = run.trait_prompts(ROOT)["BP"]
    failing = endpoint(always_failing=[(profile.identity_text, trait_text)])
    flaky = endpoint(first_violation_share=1.0)
    for _, prompt in prompts():
        for _ in range(3):
            with pytest.raises(reasoning.ValidationError):
                reasoning.validate_decision(failing.complete(prompt, None),
                                            prompt)
        with pytest.raises(reasoning.ValidationError):
            reasoning.validate_decision(flaky.complete(prompt, None), prompt)
        reasoning.validate_decision(flaky.complete(prompt, None), prompt)
