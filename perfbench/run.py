"""traitsim benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload pref-pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the traitsim under ``src/`` is measured.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``. The exit code is 0 only when every
output check passed. See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from calibrate import REFERENCE_S, normalized_s
from workloads import WORKLOADS, Workload, generate

HERE = Path(__file__).resolve().parent
MIN_REPS = 3  # measured repetitions per run, however short --seconds is
# An untraced analyze process calls analyze at least this often and for at
# least this long: one short call's calibrated time scatters by ~30%.
ANALYZE_CALLS, ANALYZE_SECONDS = 3, 2.5
PROCESS_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "agent_iter_per_s": "agent-iter/s",
              "peak_rss_mb": "MB", "decision_valid_frac": "ratio",
              "analyze_s": "s", "analyze_peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("bytes", "bytes_read")):
        return "B"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


class CheckFailed(Exception):
    pass


class Runner:
    """Launches the worker and fake-endpoint processes of one run."""

    def __init__(self, root: Path, workload: Workload, seed: int, work: Path):
        self.root, self.workload, self.seed, self.work = root, workload, seed, work
        prompts = trait_prompts(root)
        self.inputs = generate(workload, seed, work / "inputs", prompts)

    def _worker(self, command: str, tag: str, spec: dict) -> dict:
        rep = self.work / tag
        rep.mkdir(parents=True, exist_ok=True)
        spec = dict(spec, result=str(rep / f"{command}.json"),
                    spans=str(rep / f"{command}-spans.csv"))
        spec_path = rep / f"{command}-spec.json"
        spec_path.write_text(json.dumps(spec))
        with open(rep / f"{command}.log", "w") as log:
            launched = time.monotonic()
            try:
                status = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), command,
                     str(self.root), str(spec_path), repr(launched)],
                    stdout=log, stderr=log, timeout=PROCESS_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                raise CheckFailed(f"{command} worker ran past "
                                  f"{PROCESS_TIMEOUT_S} s")
        if status != 0:
            tail = (rep / f"{command}.log").read_text()[-2000:]
            raise CheckFailed(f"{command} worker exited {status}:\n{tail}")
        return json.loads(Path(spec["result"]).read_text())

    def simulate(self, tag: str, trace=False, setup_only=False) -> dict:
        spec = {"workload": dataclasses.asdict(self.workload), "seed": self.seed,
                "personas": str(self.inputs["personas"]),
                "follows": str(self.inputs["follows"]),
                "out": str(self.work / tag / "run"), "trace": trace,
                "setup_only": setup_only}
        if not self.workload.llm or setup_only:
            return self._worker("simulate", tag, spec)
        endpoint = subprocess.Popen(
            [sys.executable, str(HERE / "fake_endpoint.py"),
             str(self.inputs["policy"])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            port = endpoint.stdout.readline().strip()
            if not port.isdigit():
                raise CheckFailed("the fake endpoint did not start")
            spec["endpoint"] = f"http://127.0.0.1:{port}/v1/chat/completions"
            result = self._worker("simulate", tag, spec)
            endpoint.stdin.close()
            result["endpoint"] = json.loads(endpoint.stdout.readline())
            endpoint.wait(timeout=10)
        finally:
            if endpoint.poll() is None:
                endpoint.kill()
                endpoint.wait()
        return result

    def analyze(self, tag: str, trace=False) -> dict:
        return self._worker("analyze", tag, {
            "run": str(self.work / tag / "run"),
            "out": str(self.work / tag / "analysis"), "trace": trace,
            "min_calls": 1 if trace else ANALYZE_CALLS,
            "min_seconds": 0.0 if trace else ANALYZE_SECONDS})

    def check(self, sims: list, analyses: list) -> None:
        w = self.workload
        digests = {json.dumps(s["digests"], sort_keys=True) for s in sims}
        for s in sims:
            if s["error"]:
                raise CheckFailed(f"simulation raised {s['error']}")
            if s["integrity"]:
                raise CheckFailed(f"check_integrity failed: {s['integrity']}")
            if s["agents"] != w.agents or s["decisions"] != w.agents * w.iterations:
                raise CheckFailed(f"{s['decisions']} log records for "
                                  f"{s['agents']} agents x {w.iterations}")
            if not s["restored"]:
                raise CheckFailed("a traced name was not restored")
            if w.llm and s["endpoint"]["requests"] != s["backend_calls"]:
                raise CheckFailed(f"endpoint saw {s['endpoint']['requests']} "
                                  f"requests for {s['backend_calls']} calls")
        if len(digests) != 1:
            raise CheckFailed(f"artifact digests differ across repetitions: "
                              f"{sorted(digests)}")
        for a in analyses:
            if not a["restored"]:
                raise CheckFailed("a traced name was not restored")
            if a["status"] != 0 or a["cluster_rows"] != a["agents"]:
                raise CheckFailed(f"analyze exited {a['status']} with "
                                  f"{a['cluster_rows']} cluster rows for "
                                  f"{a['agents']} agents")
            if not a["summary_ok"]:
                raise CheckFailed("summary.txt lacks a clustering, chains or "
                                  "comparison line")

    def discard(self, tag: str) -> None:
        shutil.rmtree(self.work / tag, ignore_errors=True)


def trait_prompts(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    from traitsim.core import TRAIT_PROMPTS

    return {trait.name: text for trait, text in TRAIT_PROMPTS.items()}


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def calibrated_sim_s(sims: list) -> float:
    """Simulate time: for each iteration, and for the artifact write, the
    median calibrated time across repetitions with identical outputs."""
    per_iteration = zip(*(s["iterations"] for s in sims))
    return (sum(median(map(normalized_s, samples)) for samples in per_iteration)
            + median(normalized_s(s["tail"]) for s in sims))


def setup_s(result: dict) -> float:
    return result["setup_s"] * REFERENCE_S / result["setup_reference"]


def measure_end_to_end(runner: Runner, seconds: float) -> tuple:
    w = runner.workload
    sims, analyses, setups = [], [], []
    start = time.monotonic()
    while len(sims) < MIN_REPS or time.monotonic() - start < seconds:
        tag = f"rep{len(sims)}"
        sims.append(runner.simulate(tag))
        analyses.append(runner.analyze(tag))
        runner.check(sims, analyses)
        runner.discard(tag)
        # Setup samples are spread over the run, not taken in one burst.
        setups.append(setup_s(runner.simulate("setup", setup_only=True)))
    setups += [setup_s(s) for s in sims]
    print("raw median analyze "
          f"{median(c[0] for a in analyses for c in a['analyze']):.3f} s")
    agent_iters = w.agents * w.iterations
    metrics = {
        "setup_s": median(setups),
        "agent_iter_per_s": agent_iters / calibrated_sim_s(sims),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in sims),
        "decision_valid_frac": median((s["decisions"] - s["fallbacks"])
                                      / agent_iters for s in sims),
        "analyze_s": median(normalized_s(call) for a in analyses
                            for call in a["analyze"]),
        "analyze_peak_rss_mb": median(a["peak_rss_mb"] for a in analyses),
    }
    return sims, metrics


def measure_layers(runner: Runner, seconds: float) -> tuple:
    """Alternate untraced and traced simulations; trace each analyze."""
    w = runner.workload
    plain, traced, analyses = [], [], []
    start = time.monotonic()
    while len(traced) < 2 or time.monotonic() - start < seconds:
        tag = f"rep{len(traced)}"
        plain.append(runner.simulate(tag + "-plain"))
        traced.append(runner.simulate(tag, trace=True))
        analyses.append(runner.analyze(tag, trace=True))
        runner.check(plain + traced, analyses)
        runner.discard(tag + "-plain")
        if len(traced) > 1:
            runner.discard(f"rep{len(traced) - 2}")  # keep the last spans
    metrics = {}
    for name in traced[0]["layers"]:
        metrics[name] = median(s["layers"][name] for s in traced)
    for name in analyses[0]["layers"]:
        metrics[name] = median(a["layers"][name] for a in analyses)
    complete_ms = [ms for s in traced for ms in s["complete_ms"]]
    metrics["reasoning.backend_complete.p50_ms"] = percentile(complete_ms, 0.50)
    metrics["reasoning.backend_complete.p99_ms"] = percentile(complete_ms, 0.99)
    metrics["reasoning.client_overhead_ms"] = (
        metrics["reasoning.backend_complete.p50_ms"] - w.latency_ms)
    for key in ("requests", "request_bytes", "response_bytes", "connections",
                "busy_s"):
        metrics[f"fake_endpoint.{key}"] = median(
            s["endpoint"][key] if w.llm else 0 for s in traced)
    metrics["trace.overhead_frac"] = (
        1.0 - calibrated_sim_s(plain) / calibrated_sim_s(traced))
    wall = (sum(s["sim_s"] for s in traced)
            + sum(c[0] for a in analyses for c in a["analyze"]))
    covered = sum(r["covered_s"] for r in traced + analyses)
    metrics["trace.unattributed_frac"] = 1.0 - covered / wall
    print(f"backend_complete samples: {len(complete_ms)}")
    return plain + traced, metrics


def run(root: Path, workload: Workload, seed: int, seconds: float,
        trace: bool) -> tuple:
    """Measure one workload; returns (attempted, failed, metrics).

    Raises CheckFailed when an output check fails.
    """
    work = root / ".perfbench-work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(root, workload, seed, work)
    # Untimed: compiles bytecode and fills the page cache once per checkout.
    runner.simulate("warmup", setup_only=True)
    measure = measure_layers if trace else measure_end_to_end
    sims, metrics = measure(runner, seconds)
    attempted = len(sims) * workload.agents * workload.iterations
    failed = sum(workload.agents * workload.iterations - s["decisions"]
                 for s in sims)
    digests = sims[0]["digests"]
    print(f"workload {workload.name} seed {seed}: {len(sims)} simulations, "
          f"{sum(s['fallbacks'] for s in sims)} fallback decisions, "
          f"raw median simulate {median(s['sim_s'] for s in sims):.3f} s")
    print("digests " + " ".join(f"{k}={v}" for k, v in sorted(digests.items())))
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "traitsim" / "__init__.py").is_file():
        print(f"error: no traitsim sources under {root / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    correct = True
    try:
        attempted, failed, metrics = run(root, workload, args.seed,
                                         args.seconds, bool(args.trace))
    except CheckFailed as err:
        print(f"output check failed: {err}", file=sys.stderr)
        correct, attempted, failed = False, 1, 1
        metrics = {}
    units = END_TO_END if not args.trace else {n: layer_unit(n) for n in metrics}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
