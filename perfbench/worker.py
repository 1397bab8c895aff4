"""One simulate or analyze process of a benchmark run.

    python3 perfbench/worker.py simulate ROOT SPEC_JSON LAUNCHED
    python3 perfbench/worker.py analyze ROOT SPEC_JSON LAUNCHED

ROOT is the checkout whose ``src/traitsim`` is measured. SPEC_JSON names the
inputs, output directory and result file (see ``run.py``); LAUNCHED is the
parent's ``time.monotonic()`` just before it started this process. The result, a
JSON object of measurements and check outcomes, goes to the result file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
from calibrate import Clock, reference_s
from fake_endpoint import INVALID_ANSWERS
from workloads import Workload

OUTPUTS = ("actions.jsonl", "content.jsonl", "agents.jsonl")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def restored(patches) -> bool:
    return all(owner.__dict__[attr] is not wrapper
               for owner, attr, wrapper in patches)


def import_traitsim(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import traitsim

    if Path(traitsim.__file__).resolve().parent != (src / "traitsim").resolve():
        raise SystemExit(f"traitsim imported from {traitsim.__file__}, "
                         f"not from {src}")


def simulate(spec: dict) -> dict:
    from traitsim import __version__, engine, reasoning
    from traitsim.cli import read_personas

    workload = Workload(**spec["workload"])
    personas = read_personas(Path(spec["personas"]))
    edges = [tuple(e) for e in json.loads(Path(spec["follows"]).read_text())]
    config = engine.SimulationConfig(configuration=workload.configuration,
                                     iterations=workload.iterations,
                                     master_seed=spec["seed"])
    world = engine.init_population(personas, config, follow_edges=edges)
    if workload.llm:
        backend_cls = reasoning.LLMBackend
        backend = backend_cls(reasoning.EndpointConfig(spec.get("endpoint", ""),
                                                       "fake-model"))
    else:
        backend_cls = reasoning.StubBackend
        backend = backend_cls()
    # Calls are counted on the instance and made through the class
    # attribute, which a traced run wraps.
    calls = [0]

    def counted(prompt, context):
        calls[0] += 1
        return backend_cls.complete(backend, prompt, context)

    backend.complete = counted
    # Setup ends at the first iteration; the clock starts when the parent
    # launched this process (CLOCK_MONOTONIC is system-wide on Linux).
    setup_s = time.monotonic() - spec["launched"]
    setup_reference = reference_s()
    if spec.get("setup_only"):
        return {"setup_s": setup_s, "setup_reference": setup_reference}

    tracer = tracing.Tracer() if spec.get("trace") else None
    patches = tracing.simulate_patches(tracer, backend_cls) if tracer else []
    # Each iteration and the artifact write are timed against the CPU speed
    # reference (calibrate.py), outside any span.
    clock = Clock()
    iteration = next((new for _, attr, new in patches
                      if attr == "run_iteration"), engine.run_iteration)
    patches.append((engine, "run_iteration", clock.wrap(iteration)))
    out = Path(spec["out"])
    error = None

    def write_outputs():
        engine.write_artifacts(world, out)
        manifest = {
            "schema_version": engine.SCHEMA_VERSION,
            "code_version": __version__,
            "master_seed": config.master_seed,
            "config": {"configuration": config.configuration,
                       "iterations": config.iterations,
                       "feed_size": config.feed_size,
                       "backend": {"type": "llm" if workload.llm else "stub"}},
            "inputs": {Path(spec["personas"]).name: hashlib.sha256(
                Path(spec["personas"]).read_bytes()).hexdigest()},
            "outputs": list(OUTPUTS),
        }
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    start = time.perf_counter()
    with tracing.installed(patches):
        try:
            engine.run_simulation(config, personas, backend, initial_world=world)
        except Exception as exc:  # a crash is reported, not raised
            error = f"{type(exc).__name__}: {exc}"
        clock.call(write_outputs)
    sim_s = time.perf_counter() - start - clock.reference_total_s

    try:
        engine.check_integrity(world)
        integrity = None
    except AssertionError as exc:
        integrity = str(exc)
    fallbacks = sum(r.reason_text == reasoning.FALLBACK_REASON
                    for r in world.log)
    result = {
        "setup_s": setup_s,
        "sim_s": sim_s,
        "setup_reference": setup_reference,
        "iterations": clock.samples[:-1],
        "tail": clock.samples[-1],
        "peak_rss_mb": peak_rss_mb(),
        "agents": len(world.agents),
        "decisions": len(world.log),
        "fallbacks": fallbacks,
        "backend_calls": calls[0],
        "error": error,
        "integrity": integrity,
        "digests": {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
                    for n in OUTPUTS},
        "restored": restored(patches),
    }
    if tracer:
        result["layers"] = simulate_layers(tracer)
        result["covered_s"] = tracer.covered_s()
        result["complete_ms"] = [d * 1000.0 for d in
                                 tracer.durations("reasoning.backend_complete")]
        tracer.write(Path(spec["spans"]))
    return result


VALIDATION_RULES = tuple(INVALID_ANSWERS)


def simulate_layers(tracer) -> dict:
    layers = tracer.layer_times()
    counts = tracer.counts
    for name in ("engine.recommend_feed.pool_items",
                 "engine.recommend_feed.feed_items",
                 "engine.write_artifacts.bytes",
                 "memory.stm_observe.evictions", "memory.stm_decay.dropped",
                 "memory.ltm_evaluate.promoted", "reasoning.decide.fallbacks"):
        layers[name] = counts[name]
    validations = layers["reasoning.validate_decision.calls"]
    layers["reasoning.validate_decision.valid_ratio"] = (
        counts["reasoning.validate_decision.valid"] / max(validations, 1))
    for rule in VALIDATION_RULES:
        layers["reasoning.validate_decision.fail." + rule.replace(" ", "_")] = (
            counts["reasoning.validate_decision.fail." + rule])
    iterations = tracer.durations(tracing.ITERATION_SPAN)
    edge = min(5, len(iterations))
    layers["engine.iteration.late_early_ratio"] = (
        sum(iterations[-edge:]) / sum(iterations[:edge]))
    return layers


def analyze(spec: dict) -> dict:
    from traitsim import cli

    run_dir, out = Path(spec["run"]), Path(spec["out"])
    tracer = tracing.Tracer() if spec.get("trace") else None
    patches = tracing.analyze_patches(tracer) if tracer else []
    argv = ["analyze", "--run", str(run_dir), "--which", "all",
            "--compare", str(run_dir), "--out", str(out)]
    clock = Clock()
    statuses = []
    with tracing.installed(patches), contextlib.redirect_stdout(io.StringIO()):
        while (len(statuses) < spec["min_calls"]
               or sum(wall for wall, *_ in clock.samples) < spec["min_seconds"]):
            statuses.append(clock.call(cli.main, argv))

    agents = len((run_dir / "agents.jsonl").read_text().splitlines())
    clusters = (out / "clusters.csv").read_text().splitlines()[1:]
    summary = (out / "summary.txt").read_text().splitlines()
    result = {
        "analyze": clock.samples,
        "peak_rss_mb": peak_rss_mb(),
        "status": max(statuses),
        "agents": agents,
        "cluster_rows": len(clusters),
        "summary_ok": all(any(line.startswith(prefix) for line in summary)
                          for prefix in ("clustering:", "chains:",
                                         "chain-length comparison")),
        "restored": restored(patches),
    }
    if tracer:
        layers = tracer.layer_times()
        for name in ("cli.load_run.bytes_read", "analytics.trace_chains.chains"):
            layers[name] = tracer.counts[name]
        for section, seconds in tracing.section_times(tracer).items():
            layers[f"cli.analyze.{section}_s"] = seconds
        result["layers"] = layers
        result["covered_s"] = tracer.covered_s()
        tracer.write(Path(spec["spans"]))
    return result


def main(argv) -> int:
    command, root, spec_path = argv[1], Path(argv[2]), Path(argv[3])
    spec = json.loads(spec_path.read_text())
    spec["launched"] = float(argv[4])
    import_traitsim(root)
    result = simulate(spec) if command == "simulate" else analyze(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
