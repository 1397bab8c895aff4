"""Workload definitions and the seeded input generator.

The program under test receives only what ``generate`` writes: a personas
file, a follow-edge file and, for the LLM workload, the fake endpoint's
response policy. The same seed always yields byte-identical inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# The four topics of the demo personas.
TOPICS = ("Healthcare", "Technology", "Religion", "Music")
TRAITS_PER_PERSONA = 7

_NAMES = ("Rivka", "Dayo", "Tomas", "Mei", "Arjun", "Lena", "Kofi", "Ines",
          "Bram", "Yuki", "Omar", "Sade", "Nils", "Priya", "Mateo", "Hana")
_ROLES = {
    "Healthcare": ("an ER nurse", "a rural GP", "a hospital pharmacist",
                   "a paramedic"),
    "Technology": ("a backend engineer", "a hardware hobbyist",
                   "a data scientist", "an open-source maintainer"),
    "Religion": ("a parish deacon", "a theology student", "a youth pastor",
                 "an interfaith organizer"),
    "Music": ("a session drummer", "a choir director", "a record collector",
              "a conservatory violinist"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    configuration: str
    personas: int
    iterations: int
    followees: int = 0  # follow edges per agent; 0 means no follow graph
    llm: bool = False
    latency_ms: float = 0.0  # fake endpoint's injected latency
    first_violation_share: float = 0.0  # prompts whose first answer is invalid
    always_failing_agents: int = 0  # agents whose every answer is invalid

    @property
    def agents(self) -> int:
        return self.personas * TRAITS_PER_PERSONA


WORKLOADS = {w.name: w for w in (
    # The paper's default configuration; per-agent work (STM, RNG, prompt
    # build) dominates and recommend_feed is small. The only workload whose
    # analyze step has a population large enough to matter.
    Workload("pref-pipeline", "FullModel", personas=70, iterations=25),
    # Random feed over a follow graph: both full-pool scans in
    # recommend_feed run on every agent-iteration.
    Workload("follow-random", "RandomRecommendation", personas=35,
             iterations=25, followees=10),
    # LLM backend against a localhost fake endpoint: backend wait dominates,
    # and prompt rendering, HTTP transport, re-prompts and fallbacks run.
    Workload("llm-fake", "FullModel", personas=7, iterations=10, llm=True,
             latency_ms=10.0, first_violation_share=0.1,
             always_failing_agents=2),
)}


def generate(workload: Workload, seed: int, out_dir: Path,
             trait_prompts: dict) -> dict:
    """Write the seeded inputs for ``workload`` into ``out_dir``.

    ``trait_prompts`` maps trait code to prompt text; the fake endpoint
    recognizes an always-failing agent by its identity text and trait prompt.
    Returns the paths written.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    # Topics in equal shares, so the work per run varies little by seed.
    topics = [TOPICS[i % len(TOPICS)] for i in range(workload.personas)]
    rng.shuffle(topics)
    personas = []
    for i, topic in enumerate(topics):
        personas.append({
            "id": f"p{i:03d}",
            "identity_text": (f"{rng.choice(_NAMES)} (p{i:03d}), "
                              f"{rng.randint(19, 78)}, "
                              f"{rng.choice(_ROLES[topic])} who posts about "
                              f"{topic.lower()}."),
            "topic": topic,
        })
    paths = {"personas": out_dir / "personas.jsonl",
             "follows": out_dir / "follows.json",
             "policy": out_dir / "policy.json"}
    paths["personas"].write_text(
        "".join(json.dumps(p, sort_keys=True) + "\n" for p in personas))

    codes = sorted(trait_prompts)
    agent_ids = sorted(f"{p['id']}-{code}" for p in personas for code in codes)
    edges = []
    if workload.followees:
        for follower in agent_ids:
            others = [a for a in agent_ids if a != follower]
            edges += [[follower, f]
                      for f in sorted(rng.sample(others, workload.followees))]
    paths["follows"].write_text(json.dumps(edges))

    failing = rng.sample([(p, c) for p in personas for c in codes],
                         workload.always_failing_agents)
    paths["policy"].write_text(json.dumps({
        "seed": seed,
        "latency_ms": workload.latency_ms,
        "first_violation_share": workload.first_violation_share,
        "always_failing": [[p["identity_text"], trait_prompts[c]]
                           for p, c in failing],
    }, sort_keys=True))
    return paths
