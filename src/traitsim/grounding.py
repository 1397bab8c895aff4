"""Empirical grounding pipeline.

Ingests platform-export engagement records, builds the engagement graph,
extracts a capped two-hop ego network around the highest-degree user,
measures each user's empirical action distribution over discrete time slots
(day granularity by default; empty slots count as inactivity), assigns the
nearest behavioral archetype by Euclidean distance, and optionally infers an
identity description from the user's original posts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional, Sequence

from .core import (
    ActionDistribution,
    ActionKind,
    CATEGORIES,
    CATEGORY,
    ENGAGEMENT_KINDS,
    Trait,
    archetype_table,
)
from .jsonl import read_jsonl, string
from .networks import WeightedDigraph

SECONDS_PER_DAY = 86400

# A record's kind is the value of the action kind it stands for. Tuples, so
# that a kind of any JSON type is tested by equality and reported as unknown.
ENGAGEMENT_RECORD_KINDS = tuple(sorted(k.value for k in ENGAGEMENT_KINDS))
RECORD_KINDS = ("post",) + ENGAGEMENT_RECORD_KINDS

PLACEHOLDER_IDENTITY = (
    "A general-interest social media user with no original posts on record."
)


@dataclass
class PlatformRecord:
    user: str
    kind: str  # post | reshare | like | dislike | comment
    timestamp: float  # epoch seconds
    target_user: Optional[str] = None
    text: Optional[str] = None

    def __post_init__(self):
        if self.kind not in RECORD_KINDS:
            raise ValueError(f"unknown record kind {self.kind!r}")
        if self.kind in ENGAGEMENT_RECORD_KINDS and not self.target_user:
            raise ValueError(f"{self.kind} record requires target_user")
        if self.kind == "post" and not self.text:
            raise ValueError("post record requires text")


def _parse_timestamp(value) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    dt = datetime.fromisoformat(str(value))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _platform_record(obj) -> PlatformRecord:
    obj = {"target_user": None, **obj}
    return PlatformRecord(
        user=string(obj, "user"),
        kind=obj["kind"],
        timestamp=_parse_timestamp(obj["timestamp"]),
        target_user=string(obj, "target_user", nullable=True),
        text=obj.get("text"),
    )


def parse_records(path) -> list:
    """The platform records of a line-delimited JSON file; a ValueError
    names a missing file or the malformed line."""
    return read_jsonl(path, _platform_record)


def build_engagement_graph(records: Sequence[PlatformRecord]) -> WeightedDigraph:
    """Edge (u_i -> u_j) weight = number of u_i's engagements on u_j's
    content. Posts create nodes but no edges."""
    graph = WeightedDigraph()
    for record in records:
        graph.nodes.add(record.user)
        if record.kind in ENGAGEMENT_RECORD_KINDS:
            graph.add_edge(record.user, record.target_user)
    return graph


def extract_ego_network(graph: WeightedDigraph, cap: int = 1000) -> WeightedDigraph:
    """Capped two-hop ego network around the max-degree node.

    The ego is the node with the highest total (in+out) weighted degree;
    neighbors are gathered by BFS over the undirected adjacency to depth 2;
    if they exceed the cap, the cap highest-degree neighbors are kept (ties
    broken by lowest id). The result is the induced subgraph.
    """
    if not graph.nodes:
        raise ValueError("empty graph")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    degree = {node: 0.0 for node in graph.nodes}
    adjacency = {node: set() for node in graph.nodes}
    for (src, dst), weight in graph.edges.items():
        degree[src] += weight
        degree[dst] += weight
        adjacency[src].add(dst)
        adjacency[dst].add(src)
    ego = min(graph.nodes, key=lambda n: (-degree[n], n))

    hop1 = adjacency[ego] - {ego}
    hop2 = set()
    for node in hop1:
        hop2 |= adjacency[node]
    neighbors = (hop1 | hop2) - {ego}
    if len(neighbors) > cap:
        neighbors = set(sorted(neighbors, key=lambda n: (-degree[n], n))[:cap])
    keep = neighbors | {ego}

    sub = WeightedDigraph(nodes=set(keep))
    for (src, dst), weight in graph.edges.items():
        if src in keep and dst in keep:
            sub.edges[(src, dst)] = weight
    return sub


def empirical_action_vector(user_records: Sequence[PlatformRecord],
                            observation_slots: int,
                            slot_seconds: int = SECONDS_PER_DAY,
                            origin: Optional[float] = None) -> ActionDistribution:
    """Slot the user's records into discrete time windows and normalize.

    Each slot contributes one choice: its dominant category (ties broken in
    post > reshare > interact order), or inactivity when the slot is empty.
    """
    if observation_slots < 1:
        raise ValueError("need at least one observation slot")
    if origin is None:
        origin = min((r.timestamp for r in user_records), default=0.0)
    slots = {}
    for record in user_records:
        index = int(math.floor((record.timestamp - origin) / slot_seconds))
        if index < 0 or index >= observation_slots:
            raise ValueError(f"record at {record.timestamp} outside the "
                             f"{observation_slots}-slot observation window")
        counts = slots.setdefault(index, [0] * len(CATEGORIES))
        counts[CATEGORY[ActionKind(record.kind)]] += 1
    totals = [0] * len(CATEGORIES)
    for counts in slots.values():
        totals[counts.index(max(counts))] += 1  # the first maximum
    totals[CATEGORY[ActionKind.INACTIVE]] = observation_slots - len(slots)
    return ActionDistribution.from_counts(totals)


@dataclass
class TraitAssignment:
    user: str
    empirical_vector: ActionDistribution
    assigned: Trait
    distance: float


def assign_trait(vector: ActionDistribution, archetypes: Optional[dict] = None,
                 user: str = "") -> TraitAssignment:
    """Nearest archetype by Euclidean distance; ties break in Trait enum
    order (SO < OS < OE < BP < CA < PC < IE)."""
    archetypes = archetypes or archetype_table()
    v = vector.as_tuple()
    best_trait, best_distance = None, None
    for trait in Trait:  # enum order is the documented tie-break
        row = archetypes[trait].as_tuple()
        distance = math.sqrt(sum((a - b) ** 2 for a, b in zip(v, row)))
        if best_distance is None or distance < best_distance - 1e-12:
            best_trait, best_distance = trait, distance
    return TraitAssignment(user, vector, best_trait, best_distance)


def infer_identity(user_posts: Sequence[str], backend,
                   budget_chars: int = 4000) -> str:
    """One profiling call over the user's concatenated original posts,
    truncated to the character budget. No posts -> placeholder profile."""
    posts = [p for p in user_posts if p]
    if not posts:
        return PLACEHOLDER_IDENTITY
    joined = "\n".join(f"- {p}" for p in posts)[:budget_chars]
    system = ("You profile social media users. Given a user's original posts, "
              "write a concise third-person description of their personality, "
              "background cues, and topical interests.")
    user = f"Original posts:\n{joined}\n\nDescribe this user in 2-4 sentences."
    return backend.chat(system, user)
