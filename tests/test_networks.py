import pytest

from traitsim.core import (
    CATEGORIES,
    CATEGORY,
    ENGAGEMENT_KINDS,
    ActionKind,
    ActionRecord,
    ContentItem,
    Order,
)
from traitsim.networks import (
    WeightedDigraph,
    build_interaction_network,
    build_resharing_network,
    centrality_by_trait,
    degree_centrality,
)


def rec(agent, kind, target, iteration=2):
    order = Order.FIRST if kind in (ActionKind.RESHARE, ActionKind.LIKE,
                                    ActionKind.DISLIKE, ActionKind.COMMENT) \
        else Order.NA
    payload = "c" if kind is ActionKind.COMMENT else None
    return ActionRecord(iteration, agent, kind, target, payload, order)


def fixture_world():
    """a posts; b re-shares a's post; c re-shares b's re-share; d likes and
    comments on a's post and dislikes b's re-share."""
    content = {
        1: ContentItem(1, "a", 1, "t", "Music"),
        2: ContentItem(2, "b", 2, "t", "Music", parent=1, root=1),
        3: ContentItem(3, "c", 3, "t", "Music", parent=2, root=1),
    }
    log = [
        rec("b", ActionKind.RESHARE, 1),
        rec("c", ActionKind.RESHARE, 2, iteration=3),
        rec("d", ActionKind.LIKE, 1),
        rec("d", ActionKind.COMMENT, 1, iteration=3),
        rec("d", ActionKind.DISLIKE, 2, iteration=3),
    ]
    return log, content


class TestGraphConstruction:
    def test_reshare_edges_credit_the_immediate_author(self):
        log, content = fixture_world()
        graph = build_resharing_network(log, content)
        assert graph.edges == {("b", "a"): 1, ("c", "b"): 1}

    def test_interaction_edges_aggregate_weights(self):
        log, content = fixture_world()
        graph = build_interaction_network(log, content)
        assert graph.edges == {("d", "a"): 2, ("d", "b"): 1}

    def test_total_weight_equals_event_count(self):
        log, content = fixture_world()
        reshares = build_resharing_network(log, content)
        interactions = build_interaction_network(log, content)
        n_reshares = sum(r.kind is ActionKind.RESHARE for r in log)
        n_inter = sum(r.kind in (ActionKind.LIKE, ActionKind.DISLIKE,
                                 ActionKind.COMMENT) for r in log)
        assert sum(reshares.edges.values()) == n_reshares
        assert sum(interactions.edges.values()) == n_inter

    @pytest.mark.parametrize("kind", sorted(ENGAGEMENT_KINDS,
                                            key=lambda k: k.value))
    def test_each_engagement_lands_in_its_category_network(self, kind):
        """A network counts exactly the kinds ``core.CATEGORY`` puts in its
        column, so a copy of a category here cannot drift from ``core``."""
        content = {1: ContentItem(1, "a", 1, "t", "Music")}
        log = [rec("b", kind, 1)]
        category = CATEGORIES[CATEGORY[kind]]
        assert (bool(build_resharing_network(log, content).edges)
                == (category == "reshare"))
        assert (bool(build_interaction_network(log, content).edges)
                == (category == "interact"))

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError):
            WeightedDigraph().add_edge("a", "b", 0)


class TestDegreeCentrality:
    def test_normalized_by_population(self):
        log, content = fixture_world()
        graph = build_interaction_network(log, content)
        out = degree_centrality(graph, "out", n_population=4)
        inn = degree_centrality(graph, "in", n_population=4)
        assert out["d"] == pytest.approx(3 / 3)
        assert out["a"] == 0.0
        assert inn["a"] == pytest.approx(2 / 3)

    def test_conservation_in_equals_out(self):
        log, content = fixture_world()
        for graph in (build_resharing_network(log, content),
                      build_interaction_network(log, content)):
            out = degree_centrality(graph, "out", 4)
            inn = degree_centrality(graph, "in", 4)
            assert sum(out.values()) == pytest.approx(sum(inn.values()))
            assert sum(out.values()) * 3 == pytest.approx(
                sum(graph.edges.values()))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            degree_centrality(WeightedDigraph(), "out", 1)
        with pytest.raises(ValueError):
            degree_centrality(WeightedDigraph(), "sideways", 4)


class TestCentralityByTrait:
    def test_quartiles_and_zero_fill(self):
        centrality = {"a1": 0.4, "a2": 0.2}
        profiles = {"a1": "CA", "a2": "CA", "a3": "CA", "b1": "SO"}
        stats = centrality_by_trait(centrality, profiles)
        median, n = stats["CA"]
        assert n == 3
        assert median == pytest.approx(0.2)  # a3 counted as zero-degree
        assert stats["SO"] == (0.0, 1)

    def test_missing_profile_is_an_error(self):
        with pytest.raises(KeyError):
            centrality_by_trait({"mystery": 1.0}, {"a1": "CA"})
