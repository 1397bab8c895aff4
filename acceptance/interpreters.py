"""One seed gives the same bytes on every interpreter: check it.

    python3 acceptance/interpreters.py PYTHON [PYTHON ...]
    python3 acceptance/interpreters.py --compare OTHER/src PYTHON [PYTHON ...]

For each interpreter, a fresh process imports the traitsim under this
checkout's ``src/`` and repeats ``TestGoldenDigests.run`` of
``tests/test_engine.py`` (42 stub agents with a follow graph, 6 iterations,
seed 17) for each configuration it pins. It writes the artifacts, reads
them back with ``engine.load_run`` and writes the loaded log and store
again. The digests of both writes, and of every agent's memory, must equal
the ones that test class pins, which this script reads from its source.

With ``--compare``, each interpreter then times a warm stub
``run_simulation`` at the benchmark's pref-pipeline shape (70 personas x 7
traits, 25 iterations), in ``--rounds`` pairs of fresh processes: this
checkout's ``src/`` against ``OTHER/src``, the two taking turns to run first.
Each process reports its fastest of three runs after one untimed run.

The report is one JSON object on stdout. The exit code is 1 if any digest
differs. No interpreter needs numpy.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
TOPICS = ("Healthcare", "Technology", "Religion", "Music")


def pinned_digests() -> dict:
    """``GOLDEN`` and ``MEMORY`` of ``TestGoldenDigests``, read as literals."""
    tree = ast.parse((ROOT / "tests" / "test_engine.py").read_text())
    body = next(node.body for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "TestGoldenDigests")
    return {node.targets[0].id: ast.literal_eval(node.value) for node in body
            if isinstance(node, ast.Assign)
            and node.targets[0].id in ("GOLDEN", "MEMORY")}


def personas(n: int) -> list:
    """``conftest.make_personas(n)``."""
    return [{"id": f"p{i:03d}", "topic": TOPICS[i % 4],
             "identity_text": f"Persona {i}, a {TOPICS[i % 4]} enthusiast."}
            for i in range(n)]


def child_check(configurations, work: Path) -> dict:
    # traitsim is importable in a child only, from the PYTHONPATH it gets
    from traitsim.engine import (OUTPUTS, SimulationConfig, init_population,
                                 load_run, run_simulation, write_artifacts)
    from traitsim.memory import (COMMENTS, CONTENT_ID, DISLIKES, LAST_TOUCHED,
                                 LIKES, RESHARES, SCORE)

    def digests(out):
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in OUTPUTS}

    result, worlds = {}, {}
    for configuration in configurations:
        cfg = SimulationConfig(configuration=configuration, iterations=6,
                               master_seed=17)
        order = init_population(personas(6), cfg).agent_order()
        edges = [(a, order[(i + step) % len(order)])
                 for i, a in enumerate(order) for step in (1, 5, 11)]
        world = worlds[configuration] = run_simulation(
            cfg, personas(6),
            initial_world=init_population(personas(6), cfg, follow_edges=edges))
        write_artifacts(world, work / configuration)
        log, content, _ = load_run(work / configuration)
        write_artifacts(dataclasses.replace(world, log=log, content=content),
                        work / f"{configuration}-loaded")
        result[configuration] = {
            "simulate": digests(work / configuration),
            "load_run": digests(work / f"{configuration}-loaded")}
    memory, world = hashlib.sha256(), worlds["FullModel"]
    for agent_id in world.agent_order():
        agent_memory = world.agents[agent_id].memory
        memory.update(json.dumps([
            agent_id,
            sorted((e[CONTENT_ID], e[RESHARES], e[LIKES], e[DISLIKES],
                    e[COMMENTS], e[SCORE], e[LAST_TOUCHED])
                   for e in agent_memory.stm.values()),
            sorted(agent_memory.ltm.items()),
            [(it, kind.value, target)
             for it, kind, target in agent_memory.am.recent],
            sorted((kind.value, it)
                   for kind, it in agent_memory.am.last_performed.items()),
        ]).encode() + b"\n")
    result["MEMORY"] = memory.hexdigest()
    return result


def child_time() -> float:
    from traitsim.engine import SimulationConfig, run_simulation

    cfg = SimulationConfig(configuration="FullModel", iterations=25,
                           master_seed=7)
    times = []
    for _ in range(4):
        start = time.perf_counter()
        run_simulation(cfg, personas(70))
        times.append(time.perf_counter() - start)
    return min(times[1:])


def run_child(python: str, src: Path, *args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([python, __file__, "--child", *args], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("pythons", nargs="*", metavar="PYTHON")
    parser.add_argument("--compare", type=Path, metavar="OTHER_SRC")
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        mode, *rest = args.child
        print(json.dumps(child_time() if mode == "time" else
                         child_check(rest[1:], Path(rest[0]))))
        return 0

    pinned = pinned_digests()
    report, equal = {"checked": {}}, True
    for python in args.pythons:
        with tempfile.TemporaryDirectory() as work:
            got = run_child(python, ROOT / "src", "check", work,
                            *pinned["GOLDEN"])
        version = subprocess.run(
            [python, "-c", "import platform; print(platform.python_version())"],
            capture_output=True, text=True, check=True).stdout.strip()
        same = got["MEMORY"] == pinned["MEMORY"] and all(
            got[name]["simulate"] == got[name]["load_run"] == golden
            for name, golden in pinned["GOLDEN"].items())
        report["checked"][version] = "equal" if same else got
        equal &= same
        if args.compare:
            pairs, trees = [], (ROOT / "src", args.compare)
            for round_ in range(args.rounds):
                step = -1 if round_ % 2 else 1  # odd rounds: OTHER/src first
                times = [run_child(python, src, "time")
                         for src in trees[::step]]
                pairs.append(tuple(times[::step]))
            report.setdefault("run_simulation_s", {})[version] = {
                "this": [this for this, _ in pairs],
                "other": [other for _, other in pairs],
                "median_gain": median(other / this - 1 for this, other in pairs)}
    print(json.dumps(report, indent=2))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
