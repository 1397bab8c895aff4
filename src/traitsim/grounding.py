"""Empirical grounding pipeline.

``ground`` builds the engagement graph of platform-export records, extracts
a capped two-hop ego network around the highest-degree user, measures each
member's empirical action distribution over day slots (empty slots count as
inactivity), and assigns the nearest behavioral archetype by Euclidean
distance. ``infer_identity`` describes a user from their original posts.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional, Sequence

from .core import (
    ARCHETYPES,
    ActionDistribution,
    ActionKind,
    CATEGORIES,
    CATEGORY,
    ENGAGEMENT_KINDS,
    Trait,
)
from .jsonl import read_jsonl, string
from .networks import WeightedDigraph

SECONDS_PER_DAY = 86400
IDENTITY_BUDGET_CHARS = 4000  # of joined posts in one profiling call

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
    """Epoch seconds from a finite JSON number or an ISO 8601 string."""
    if type(value) in (int, float):
        if not abs(value) <= sys.float_info.max:  # NaN, inf, too large
            raise ValueError(f"timestamp must be finite, "
                             f"got {json.dumps(value)}")
        return float(value)
    if type(value) is not str:
        raise TypeError(f"timestamp must be a number or an ISO 8601 string, "
                        f"got {json.dumps(value)}")
    dt = datetime.fromisoformat(value)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _platform_record(obj) -> PlatformRecord:
    obj = {"target_user": None, "text": None, **obj}
    return PlatformRecord(
        user=string(obj, "user"),
        kind=obj["kind"],
        timestamp=_parse_timestamp(obj["timestamp"]),
        target_user=string(obj, "target_user", nullable=True),
        text=string(obj, "text", nullable=True),
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


def extract_ego_network(graph: WeightedDigraph, cap: int) -> WeightedDigraph:
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
                            origin: float) -> ActionDistribution:
    """Slot the user's records into days from ``origin`` and normalize.

    Each slot contributes one choice: its dominant category (ties broken in
    post > reshare > interact order), or inactivity when the slot is empty.
    """
    if observation_slots < 1:
        raise ValueError("need at least one observation slot")
    slots = {}
    for record in user_records:
        index = int(math.floor((record.timestamp - origin) / SECONDS_PER_DAY))
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
    empirical_vector: ActionDistribution
    assigned: Trait
    distance: float


def assign_trait(vector: ActionDistribution) -> TraitAssignment:
    """Nearest archetype in ``ARCHETYPES`` by Euclidean distance; ties break
    in Trait enum order (SO < OS < OE < BP < CA < PC < IE)."""
    v = vector.as_tuple()
    best_trait, best_distance = None, None
    for trait in Trait:  # enum order is the documented tie-break
        row = ARCHETYPES[trait].as_tuple()
        distance = math.sqrt(sum((a - b) ** 2 for a, b in zip(v, row)))
        if best_distance is None or distance < best_distance - 1e-12:
            best_trait, best_distance = trait, distance
    return TraitAssignment(vector, best_trait, best_distance)


@dataclass
class Bundle:
    """The ego network; each member's assignment and post texts, in sorted
    user order; and the follow edges with both ends among the members."""
    ego: WeightedDigraph
    assignments: dict  # user -> TraitAssignment
    posts: dict  # user -> [text]
    follows: list  # (follower, followee)


def ground(records: Sequence[PlatformRecord], follow_edges, cap: int) -> Bundle:
    """The ego network of the records' engagement graph, and each member's
    nearest archetype to its action vector over the day slots that run from
    the earliest record of all users to the latest."""
    ego = extract_ego_network(build_engagement_graph(records), cap)
    origin = min(r.timestamp for r in records)
    slots = int((max(r.timestamp for r in records) - origin)
                // SECONDS_PER_DAY) + 1
    by_user = {user: [] for user in sorted(ego.nodes)}
    for record in records:  # a non-member's records go to a throwaway list
        by_user.get(record.user, []).append(record)
    return Bundle(
        ego,
        {user: assign_trait(empirical_action_vector(own, slots, origin))
         for user, own in by_user.items()},
        {user: [r.text for r in own if r.kind == "post"]
         for user, own in by_user.items()},
        [(a, b) for a, b in follow_edges if a in ego.nodes and b in ego.nodes])


def infer_identity(user_posts: Sequence[str], backend) -> str:
    """One profiling call over the user's concatenated original posts,
    truncated to ``IDENTITY_BUDGET_CHARS``. No posts -> placeholder profile."""
    posts = [p for p in user_posts if p]
    if not posts:
        return PLACEHOLDER_IDENTITY
    joined = "\n".join(f"- {p}" for p in posts)[:IDENTITY_BUDGET_CHARS]
    system = ("You profile social media users. Given a user's original posts, "
              "write a concise third-person description of their personality, "
              "background cues, and topical interests.")
    user = f"Original posts:\n{joined}\n\nDescribe this user in 2-4 sentences."
    return backend.chat(system, user)
