"""Directed weighted engagement networks and degree centrality.

The re-sharing network draws an edge from the re-sharing agent to the author
of the item it re-shared (the immediate item's author, not the root's, so
re-shares of re-shares credit the re-sharer). The interaction network does
the same for likes, dislikes, and comments. Centrality is the incident
weight sum normalized by (population - 1). Its median per trait is
``statistics.median``'s, ``np.median``'s bit for bit without loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import CATEGORIES, CATEGORY


def _kinds_in(category: str) -> frozenset:
    """The action kinds counted in one column of the behavioral space."""
    column = CATEGORIES.index(category)
    return frozenset(kind for kind, col in CATEGORY.items() if col == column)


@dataclass
class WeightedDigraph:
    nodes: set = field(default_factory=set)
    edges: dict = field(default_factory=dict)  # (src, dst) -> positive weight

    def add_edge(self, src, dst, weight: int = 1) -> None:
        if weight <= 0:
            raise ValueError("edge weights must be positive")
        self.nodes.add(src)
        self.nodes.add(dst)
        self.edges[(src, dst)] = self.edges.get((src, dst), 0) + weight


def build_network(log, content_store: dict, kinds) -> WeightedDigraph:
    """Edge (actor -> author of the target item) for each record whose kind
    is in ``kinds``, weight = frequency."""
    graph = WeightedDigraph()
    for record in log:
        if record.kind in kinds:
            target = content_store[record.target]
            graph.add_edge(record.agent, target.author)
    return graph


def build_resharing_network(log, content_store: dict) -> WeightedDigraph:
    """Edge (actor -> author of the re-shared item), weight = frequency."""
    return build_network(log, content_store, _kinds_in("reshare"))


def build_interaction_network(log, content_store: dict) -> WeightedDigraph:
    """Edge (actor -> author of the liked/disliked/commented item)."""
    return build_network(log, content_store, _kinds_in("interact"))


def degree_centrality(graph: WeightedDigraph, direction: str,
                      n_population: int) -> dict:
    """Weighted in- or out-degree divided by (n_population - 1).

    Agents with no incident edges score 0; callers should seed the result
    with the full population if zero-degree agents matter (see
    ``centrality_by_trait``).
    """
    if n_population < 2:
        raise ValueError("population must contain at least 2 agents")
    if direction not in ("in", "out"):
        raise ValueError("direction must be 'in' or 'out'")
    centrality = {node: 0.0 for node in graph.nodes}
    for (src, dst), weight in graph.edges.items():
        node = dst if direction == "in" else src
        centrality[node] += weight / (n_population - 1)
    return centrality


def centrality_by_trait(centrality_map: dict, profiles: dict) -> dict:
    """Group centralities by trait label: trait -> (median, n).

    ``profiles`` maps agent id to a trait label; agents missing from the
    centrality map count as zero-degree. A centrality entry without a profile
    is an error.
    """
    # Imported here: it loads decimal and fractions (0.4 MB of peak RSS),
    # which a run that only simulates does not need.
    import statistics

    missing = set(centrality_map) - set(profiles)
    if missing:
        raise KeyError(f"no profile for agents: {sorted(missing)[:5]}")
    groups = {}
    for agent_id, label in profiles.items():
        groups.setdefault(label, []).append(centrality_map.get(agent_id, 0.0))
    return {label: (statistics.median(values), len(values))
            for label, values in groups.items()}
