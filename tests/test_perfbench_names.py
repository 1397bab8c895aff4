"""perfbench traces names where their callers look them up, and calls
others directly. A renamed or moved name fails here, in tier-1, not only in
a benchmark run."""

import ast
import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from traitsim import cli, core, engine, reasoning
from traitsim.cli import main
from traitsim.memory import MemoryParams

from conftest import make_personas

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("backend_cls", [reasoning.StubBackend,
                                         reasoning.LLMBackend])
def test_simulate_patches_install_and_restore(tracing, backend_cls):
    tracer = tracing.Tracer()
    patches = tracing.simulate_patches(tracer, backend_cls)
    originals = [owner.__dict__[attr] for owner, attr, _ in patches]
    with tracing.installed(patches):
        assert all(owner.__dict__[attr] is wrapper
                   for owner, attr, wrapper in patches)
    assert [owner.__dict__[attr] for owner, attr, _ in patches] == originals


def test_simulate_patches_record_every_name(tracing, tmp_path):
    """A stub run with the random feed over a follow graph, through one LTM
    evaluation and the artifact write, reaches every traced name, and builds
    its two generators per agent-iteration through ``engine.agent_rng``."""
    cfg = engine.SimulationConfig(configuration="RandomRecommendation",
                                  iterations=MemoryParams().eval_period)
    personas = make_personas(3)
    order = engine.init_population(personas, cfg).agent_order()
    edges = [(a, order[(i + 1) % len(order)]) for i, a in enumerate(order)]
    world = engine.init_population(personas, cfg, follow_edges=edges)
    tracer = tracing.Tracer()
    with tracing.installed(tracing.simulate_patches(tracer,
                                                    reasoning.StubBackend)):
        engine.run_simulation(cfg, personas, initial_world=world)
        engine.write_artifacts(world, tmp_path / "run")
    assert all(tracer.durations(name) for name in tracer.names)
    assert (len(tracer.durations("engine.agent_rng"))
            == 2 * len(world.agents) * cfg.iterations)


def test_analyze_patches_install_restore_and_record(tracing, tmp_path):
    personas = tmp_path / "personas.jsonl"
    personas.write_text("".join(json.dumps(p) + "\n"
                                for p in make_personas(2)))
    run = tmp_path / "run"
    assert main(["simulate", "--personas", str(personas), "--iterations",
                 "4", "--out", str(run)]) == 0
    tracer = tracing.Tracer()
    patches = tracing.analyze_patches(tracer)
    originals = [owner.__dict__[attr] for owner, attr, _ in patches]
    with tracing.installed(patches):
        assert cli.load_run is not originals[0]
        assert main(["analyze", "--run", str(run), "--k-max", "2",
                     "--compare", str(run)]) == 0
    assert [owner.__dict__[attr] for owner, attr, _ in patches] == originals
    # every traced name was reached through the name perfbench replaced
    assert all(tracer.durations(name) for name in tracer.names)


def traitsim_names(filename):
    """The dotted traitsim names ``perfbench/filename`` uses: each name it
    imports from a traitsim module, and each attribute it reads from a name
    so imported. Read from the source with ``ast``, importing nothing."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name, alias.name)
                         for alias in node.names
                         if alias.name.split(".")[0] == "traitsim")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "traitsim"):
            bound.update((alias.asname or alias.name,
                          f"{node.module}.{alias.name}")
                         for alias in node.names)
    return set(bound.values()) | {
        f"{bound[node.value.id]}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in bound}


def resolves(dotted):
    """Whether ``dotted`` names a module or an attribute reached from one."""
    parts = dotted.split(".")
    try:
        obj = importlib.import_module(parts[0])
        for n, part in enumerate(parts[1:], start=2):
            obj = (getattr(obj, part) if hasattr(obj, part)
                   else importlib.import_module(".".join(parts[:n])))
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("filename", ["worker.py", "run.py",
                                      "test_perfbench.py"])
def test_perfbench_calls_only_names_that_exist(filename):
    names = traitsim_names(filename)
    assert names
    assert sorted(name for name in names if not resolves(name)) == []


@pytest.mark.parametrize("filename, cls, field", [
    ("worker.py", core.ActionRecord, "reason_text"),  # of each logged record
    ("tracer.py", reasoning.Decision, "reason"),  # of each decision
])
def test_perfbench_reads_only_fields_that_exist(filename, cls, field):
    """perfbench also reads fields of the objects a run hands it, which
    ``traitsim_names`` cannot see: a renamed or removed field fails here."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    assert field in {node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)}
    assert field in {f.name for f in dataclasses.fields(cls)}
