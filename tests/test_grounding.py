import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from traitsim import grounding
from traitsim.core import ARCHETYPES, ActionDistribution, Trait
from traitsim.grounding import (
    PLACEHOLDER_IDENTITY,
    PlatformRecord,
    SECONDS_PER_DAY,
    assign_trait,
    build_engagement_graph,
    empirical_action_vector,
    extract_ego_network,
    ground,
    infer_identity,
    parse_records,
)
from traitsim.networks import WeightedDigraph

DAY = SECONDS_PER_DAY


def record(user, kind, day, target=None, text=None):
    return PlatformRecord(user, kind, day * DAY + 100, target_user=target,
                          text=text or ("hello" if kind == "post" else None))


def write_records(tmp_path, lines):
    """A platform-records file holding ``lines``: JSON text, or objects
    written as JSON."""
    path = tmp_path / "records.jsonl"
    path.write_text("".join((line if isinstance(line, str)
                             else json.dumps(line)) + "\n" for line in lines))
    return path


class TestParseRecords:
    def test_happy_path_with_iso_timestamps(self, tmp_path):
        path = write_records(tmp_path, [
            {"user": "u1", "kind": "post", "timestamp": "2024-05-01T10:00:00+00:00",
             "text": "hi"},
            {"user": "u2", "kind": "like", "timestamp": 1714557600,
             "target_user": "u1"},
        ])
        records = parse_records(path)
        assert [r.user for r in records] == ["u1", "u2"]
        assert records[0].timestamp == pytest.approx(1714557600.0)

    def test_blank_lines_skipped(self, tmp_path):
        assert parse_records(write_records(tmp_path, ["", "  ", ""])) == []

    def test_error_carries_line_number(self, tmp_path):
        path = write_records(tmp_path, [""] * 11 + ["{not json"])
        with pytest.raises(ValueError) as err:
            parse_records(path)
        assert str(err.value).startswith(
            f"malformed record in {path} line 12: JSONDecodeError: ")

    def test_engagement_requires_target_user(self, tmp_path):
        path = write_records(tmp_path, [{"user": "u1", "kind": "like",
                                         "timestamp": 0}])
        with pytest.raises(ValueError, match="line 1: ValueError: like "
                           "record requires target_user"):
            parse_records(path)

    def test_post_requires_text(self, tmp_path):
        path = write_records(tmp_path, [{"user": "u1", "kind": "post",
                                         "timestamp": 0}])
        with pytest.raises(ValueError, match="post record requires text"):
            parse_records(path)

    @pytest.mark.parametrize("fields, key", [
        ({"user": 5, "kind": "post", "text": "x"}, "user"),
        ({"user": ["x"], "kind": "post", "text": "x"}, "user"),
        ({"user": None, "kind": "post", "text": "x"}, "user"),
        ({"user": "u1", "kind": "like", "target_user": 5}, "target_user"),
        ({"user": "u1", "kind": "like", "target_user": ["u2"]},
         "target_user"),
    ], ids=["int-user", "list-user", "null-user", "int-target",
            "list-target"])
    def test_users_must_be_strings(self, tmp_path, fields, key):
        good = {"user": "u0", "kind": "post", "timestamp": 0, "text": "x"}
        path = write_records(tmp_path, [good, {"timestamp": 0, **fields}])
        with pytest.raises(ValueError) as err:
            parse_records(path)
        assert (f"{path} line 2: TypeError: {key} must be a string"
                in str(err.value))

    def test_unknown_kind_rejected(self, tmp_path):
        path = write_records(tmp_path, [{"user": "u1", "kind": "poke",
                                         "timestamp": 0, "target_user": "u2"}])
        with pytest.raises(ValueError, match="poke"):
            parse_records(path)

    @pytest.mark.parametrize("timestamp, cause", [
        ("NaN", "ValueError: timestamp must be finite, got NaN"),
        ("Infinity", "ValueError: timestamp must be finite, got Infinity"),
        ("-Infinity", "ValueError: timestamp must be finite, got -Infinity"),
        ("1" + "0" * 400, "ValueError: timestamp must be finite, got 1"
                          + "0" * 400),
        ("true", "TypeError: timestamp must be a number or an ISO 8601 "
                 "string, got true"),
        ("null", "TypeError: timestamp must be a number or an ISO 8601 "
                 "string, got null"),
        ("[0]", "TypeError: timestamp must be a number or an ISO 8601 "
                "string, got [0]"),
    ], ids=["nan", "infinity", "minus-infinity", "too-large", "bool", "null",
            "list"])
    def test_timestamp_must_be_a_finite_number_or_a_string(
            self, tmp_path, timestamp, cause):
        path = write_records(tmp_path, [
            '{"user": "u1", "kind": "post", "text": "x", "timestamp": %s}'
            % timestamp])
        with pytest.raises(ValueError) as err:
            parse_records(path)
        assert str(err.value) == f"malformed record in {path} line 1: {cause}"

    @pytest.mark.parametrize("text", [["x"], 5, {"x": 1}],
                             ids=["list", "int", "object"])
    def test_text_must_be_a_string_or_null(self, tmp_path, text):
        path = write_records(tmp_path, [
            {"user": "u1", "kind": "like", "timestamp": 0,
             "target_user": "u2", "text": None},
            {"user": "u1", "kind": "post", "timestamp": 0, "text": text}])
        with pytest.raises(ValueError) as err:
            parse_records(path)
        assert str(err.value) == (
            f"malformed record in {path} line 2: TypeError: text must be a "
            f"string or null, got {json.dumps(text)}")


class TestEngagementGraph:
    def test_edges_weighted_by_frequency(self):
        records = [record("a", "like", 0, target="b"),
                   record("a", "comment", 1, target="b"),
                   record("b", "reshare", 1, target="a"),
                   record("c", "post", 0)]
        graph = build_engagement_graph(records)
        assert graph.edges == {("a", "b"): 2, ("b", "a"): 1}
        assert graph.nodes == {"a", "b", "c"}  # posts create nodes only


def star_graph(n_leaves, hub="hub"):
    graph = WeightedDigraph()
    for i in range(n_leaves):
        graph.add_edge(f"leaf{i:05d}", hub)
    return graph


class TestEgoNetwork:
    def test_ego_is_max_total_degree(self):
        graph = WeightedDigraph()
        graph.add_edge("a", "b", 5)
        graph.add_edge("c", "b", 2)
        graph.add_edge("c", "d", 1)
        ego = extract_ego_network(graph, cap=1000)
        # b has total degree 7; two-hop reach covers everyone here
        assert ego.nodes == {"a", "b", "c", "d"}

    def test_two_hop_limit(self):
        graph = WeightedDigraph()
        # path a - hub - c - d - e with hub the highest-degree node
        graph.add_edge("a", "hub", 3)
        graph.add_edge("hub", "c", 3)
        graph.add_edge("c", "d", 1)
        graph.add_edge("d", "e", 1)
        ego = extract_ego_network(graph, cap=1000)
        assert ego.nodes == {"a", "hub", "c", "d"}  # e is three hops out
        assert ("d", "e") not in ego.edges

    def test_cap_keeps_highest_degree_neighbors(self):
        graph = star_graph(10)
        for i in range(3):  # boost three leaves (hub stays the ego)
            graph.add_edge(f"leaf{i:05d}", "other", 2)
        ego = extract_ego_network(graph, cap=3)
        # "other" (degree 6) and the two lowest-id boosted leaves (degree 3)
        assert ego.nodes == {"hub", "other", "leaf00000", "leaf00001"}

    def test_cap_tie_breaks_by_lowest_id(self):
        ego = extract_ego_network(star_graph(10), cap=4)
        assert ego.nodes == {"hub"} | {f"leaf{i:05d}" for i in range(4)}

    def test_induced_subgraph_keeps_internal_edges_only(self):
        graph = star_graph(5)
        graph.add_edge("leaf00000", "leaf00001", 2)
        ego = extract_ego_network(graph, cap=2)
        assert ego.edges == {("leaf00000", "hub"): 1, ("leaf00001", "hub"): 1,
                             ("leaf00000", "leaf00001"): 2}

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            extract_ego_network(WeightedDigraph(), cap=1000)


def _reference_empirical_action_vector(user_records, observation_slots,
                                       origin):
    """``empirical_action_vector`` before it counted through
    ``core.CATEGORY``: category names written out, dominant category by
    ``max`` over them."""
    slots = {}
    for record in user_records:
        index = int(math.floor((record.timestamp - origin) / DAY))
        counts = slots.setdefault(index, {"post": 0, "reshare": 0, "interact": 0})
        if record.kind == "post":
            counts["post"] += 1
        elif record.kind == "reshare":
            counts["reshare"] += 1
        else:
            counts["interact"] += 1
    totals = {"post": 0, "reshare": 0, "interact": 0, "inactive": 0}
    for counts in slots.values():
        dominant = max(("post", "reshare", "interact"), key=lambda c: counts[c])
        totals[dominant] += 1
    totals["inactive"] = observation_slots - len(slots)
    return ActionDistribution(*(totals[c] / observation_slots
                                for c in ("post", "reshare", "interact", "inactive")))


class TestEmpiricalVector:
    def test_reshare_half_of_days(self):
        records = [record("u", "reshare", d, target="x") for d in range(5)]
        v = empirical_action_vector(records, observation_slots=10,
                                    origin=0.0)
        assert v.as_tuple() == (0.0, 0.5, 0.0, 0.5)

    def test_no_records_is_fully_inactive(self):
        v = empirical_action_vector([], observation_slots=10, origin=0.0)
        assert v.as_tuple() == (0.0, 0.0, 0.0, 1.0)

    def test_dominant_category_per_slot(self):
        records = [record("u", "like", 0, target="x"),
                   record("u", "like", 0, target="x"),
                   record("u", "post", 0)]
        v = empirical_action_vector(records, observation_slots=1, origin=0.0)
        assert v.as_tuple() == (0.0, 0.0, 1.0, 0.0)

    def test_slot_tie_prefers_post_then_reshare(self):
        records = [record("u", "post", 0), record("u", "like", 0, target="x")]
        v = empirical_action_vector(records, observation_slots=1, origin=0.0)
        assert v.p_post == 1.0
        records = [record("u", "reshare", 0, target="x"),
                   record("u", "like", 0, target="x")]
        v = empirical_action_vector(records, observation_slots=1, origin=0.0)
        assert v.p_reshare == 1.0

    def test_dislike_and_comment_count_as_interact(self):
        records = [record("u", "dislike", 0, target="x"),
                   record("u", "comment", 1, target="x", text="hm"),
                   record("u", "comment", 1, target="x", text="hm"),
                   record("u", "post", 1)]
        v = empirical_action_vector(records, observation_slots=4, origin=0.0)
        assert v.as_tuple() == (0.0, 0.0, 0.5, 0.5)

    @given(st.lists(st.tuples(st.integers(0, 5),
                              st.sampled_from(["post", "reshare", "like",
                                               "dislike", "comment"])),
                    max_size=40),
           st.integers(6, 9))
    @settings(max_examples=300, deadline=None)
    def test_same_as_reference(self, choices, slots):
        # Few days and few kinds, so that many slots tie, post with reshare
        # among them.
        records = [record("u", kind, day, target="x") for day, kind in choices]
        first = min((r.timestamp for r in records), default=0.0)
        for origin in (first, 0.0):
            assert empirical_action_vector(records, slots, origin=origin) == \
                _reference_empirical_action_vector(records, slots,
                                                   origin=origin)

    def test_origin_anchors_the_window(self):
        records = [record("u", "post", 3)]
        v = empirical_action_vector(records, observation_slots=5, origin=0.0)
        assert v.as_tuple() == (0.2, 0.0, 0.0, 0.8)

    def test_out_of_window_record_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            empirical_action_vector([record("u", "post", 9)],
                                    observation_slots=3, origin=0.0)


class TestAssignTrait:
    def test_exact_archetypes_recover_themselves(self):
        for trait, row in ARCHETYPES.items():
            assignment = assign_trait(row)
            assert assignment.assigned is trait
            assert assignment.distance == pytest.approx(0.0)

    def test_fully_inactive_is_silent_observer(self):
        assignment = assign_trait(ActionDistribution(0, 0, 0, 1))
        assert assignment.assigned is Trait.SO

    def test_tie_breaks_in_enum_order(self):
        # custom table where the midpoint is exactly tied between SO and PC;
        # SO wins because it comes first in the enum
        archetypes = {t: ActionDistribution(0, 1, 0, 0) for t in Trait}
        archetypes[Trait.SO] = ActionDistribution(0, 0, 0, 1)
        archetypes[Trait.PC] = ActionDistribution(1, 0, 0, 0)
        with mock.patch.dict(grounding.ARCHETYPES, archetypes):
            assignment = assign_trait(
                ActionDistribution(0.5, 0.0, 0.0, 0.5))
        assert assignment.assigned is Trait.SO


class TestGround:
    def test_slots_run_from_the_earliest_record_of_all_users(self):
        """b's likes fall one day apart from a's post, so they take two
        slots, though they lie within a day of each other."""
        records = [PlatformRecord("a", "post", 100, text="hi"),
                   PlatformRecord("b", "like", DAY + 50, target_user="a"),
                   PlatformRecord("b", "like", 2 * DAY, target_user="a")]
        assignments = ground(records, [], cap=1000).assignments
        assert assignments["a"].empirical_vector.as_tuple() == (0.5, 0, 0, 0.5)
        assert assignments["b"].empirical_vector.as_tuple() == (0, 0, 1, 0)

    def test_bundle_holds_the_members_in_sorted_order(self):
        records = [record("hub", "post", 0, text="hello"),
                   record("zed", "like", 0, target="hub"),
                   record("amy", "comment", 1, target="hub", text="nice"),
                   record("amy", "post", 1, text="mine"),
                   record("amy", "like", 1, target="ghost")]
        bundle = ground(records, [("amy", "hub"), ("hub", "stranger"),
                                  ("zed", "amy")], cap=1000)
        assert bundle.ego.nodes == {"amy", "ghost", "hub", "zed"}
        assert list(bundle.assignments) == ["amy", "ghost", "hub", "zed"]
        assert bundle.posts == {"amy": ["mine"], "ghost": [],
                                "hub": ["hello"], "zed": []}
        assert bundle.assignments["ghost"].assigned is Trait.SO
        assert bundle.follows == [("amy", "hub"), ("zed", "amy")]

    def test_cap_bounds_the_members(self):
        records = [record(f"u{i}", "like", 0, target="hub") for i in range(5)]
        bundle = ground(records, [("u0", "hub"), ("u4", "hub")], cap=2)
        assert list(bundle.assignments) == ["hub", "u0", "u1"]
        assert bundle.follows == [("u0", "hub")]

    def test_no_records_rejected(self):
        with pytest.raises(ValueError, match="empty graph"):
            ground([], [], cap=1000)


class _EchoBackend:
    def __init__(self):
        self.calls = []

    def chat(self, system_text, user_text):
        self.calls.append((system_text, user_text))
        return "A concise description."


class TestInferIdentity:
    def test_no_posts_returns_placeholder(self):
        backend = _EchoBackend()
        assert infer_identity([], backend) == PLACEHOLDER_IDENTITY
        assert backend.calls == []

    def test_single_profiling_call_with_posts(self):
        backend = _EchoBackend()
        result = infer_identity(["I love jazz", "New vinyl day"], backend)
        assert result == "A concise description."
        assert len(backend.calls) == 1
        assert "I love jazz" in backend.calls[0][1]

    def test_character_budget_truncates(self, monkeypatch):
        monkeypatch.setattr(grounding, "IDENTITY_BUDGET_CHARS", 100)
        backend = _EchoBackend()
        infer_identity(["x" * 10_000], backend)
        assert len(backend.calls[0][1]) < 400
