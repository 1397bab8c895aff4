import copy
import dataclasses
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from traitsim.core import (
    ActionKind,
    ActionRecord,
    AgentProfile,
    ContentItem,
    ENGAGEMENT_KINDS,
    OCEAN_VARIANTS,
    Order,
    Trait,
)
import traitsim
from traitsim import engine, jsonl
from traitsim.engine import (
    CONFIGURATIONS,
    SimulationConfig,
    WorldState,
    agent_rng,
    apply_action,
    apply_record,
    check_integrity,
    content_line,
    init_population,
    load_run,
    profile_line,
    recommend_feed,
    record_from_dict,
    record_line,
    run_iteration,
    run_simulation,
    write_artifacts,
)
from traitsim.cli import main
from traitsim.memory import MemoryParams, MemoryUnit, am_summary, stm_observe
from traitsim.reasoning import (
    FALLBACK_REASON,
    MAX_RETRIES,
    Decision,
    StubBackend,
    TransportError,
    ValidationError,
    build_prompt,
    parse_response,
    permitted_actions,
    validate_decision,
)

from conftest import TOPICS, Shuffled, make_personas


def config(**kwargs):
    kwargs.setdefault("iterations", 5)
    return SimulationConfig(**kwargs)


def grounded_personas():
    """Two users as a ``ground`` bundle lists them: each pins its trait."""
    return [
        {"id": "u2", "identity_text": "desc two", "topic": None, "trait": "PC"},
        {"id": "u1", "identity_text": "desc one", "topic": None, "trait": "SO"},
    ]


def add_post(world, author, iteration, topic="Music", text="t"):
    return world.add_content(author, iteration, text, topic)


def add_reshare(world, author, iteration, parent):
    return world.add_content(author, iteration, parent.text, parent.topic,
                             parent)


# The dicts a run line renders, as ``json.dumps(d, sort_keys=True)`` writes
# them: the reference for ``record_line``, ``content_line`` and
# ``profile_line``.


def record_to_dict(record):
    return {
        "iteration": record.iteration,
        "agent": record.agent,
        "kind": record.kind.value,
        "target": record.target,
        "payload": record.payload,
        "order": record.order.value,
        "reason": record.reason_text,
    }


def content_to_dict(item, comment_texts, cascade_reshares):
    return {
        "content_id": item.content_id,
        "author": item.author,
        "iteration_created": item.iteration_created,
        "parent": item.parent,
        "root": item.root,
        "topic": item.topic,
        "text": item.text,
        "counters": {
            "reshares": item.reshares,
            "likes": item.likes,
            "dislikes": item.dislikes,
            "comments": item.comments,
        },
        "cascade_reshares": cascade_reshares,
        "comment_texts": [list(pair) for pair in comment_texts],
    }


def columns_from_log(log, content, cid):
    """The comment texts and the cascade of content ``cid``, derived from
    the log: its comments, and the re-shares of any item under it."""
    return ([(r.agent, r.payload) for r in log
             if r.kind is ActionKind.COMMENT and r.target == cid],
            sum(r.kind is ActionKind.RESHARE and content[r.target].root == cid
                for r in log))


def written_row(world, cid, out_dir):
    """Content ``cid``'s row of the content.jsonl ``world`` writes."""
    write_artifacts(world, out_dir)
    lines = (out_dir / "content.jsonl").read_text().splitlines()
    return json.loads(lines[cid - 1])


def profile_to_dict(profile):
    return {
        "agent_id": profile.agent_id,
        "trait": None if profile.trait is None else profile.trait.code,
        "topic": profile.topic,
        "following": sorted(profile.following),
    }


def _reference_recommend_feed(agent, world, strategy, k, rng,
                              max_iteration=None):
    """The full-scan recommender that the indexed one replaced: every call
    filters the whole content store. Kept as the oracle for
    ``recommend_feed``."""
    if max_iteration is None:
        max_iteration = world.iteration

    def eligible(item):
        return (item.author != agent.profile.agent_id
                and item.content_id not in agent.reshared_ids
                and item.iteration_created <= max_iteration)

    following = agent.profile.following
    forced = []
    if following:
        forced = [item for item in world.content.values()
                  if eligible(item) and item.is_reshare
                  and item.author in following]
        forced.sort(key=lambda it: (-it.iteration_created, -it.content_id))
    forced_ids = {item.content_id for item in forced}

    if strategy == "preference":
        matches, others = [], []
        for item in reversed(world.content.values()):
            if len(matches) >= k and len(others) >= k:
                break
            if not eligible(item) or item.content_id in forced_ids:
                continue
            if item.topic == agent.profile.topic:
                if len(matches) < k:
                    matches.append(item)
            elif len(others) < k:
                others.append(item)
        chosen = (forced + matches + others)[:k]
    else:
        rest = [item for item in world.content.values()
                if eligible(item) and item.content_id not in forced_ids]
        take = min(k - len(forced[:k]), len(rest))
        sampled = []
        if take > 0:
            order = sorted(rest, key=lambda it: it.content_id)
            picks = rng.choice(len(order), size=take, replace=False)
            sampled = [order[i] for i in sorted(picks)]
        chosen = (forced[:k] + sampled)[:k]
    return [item.content_id for item in chosen]


class TestConfig:
    def test_rejects_unknown_configuration(self):
        with pytest.raises(ValueError):
            SimulationConfig(configuration="TotalChaos")

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError):
            SimulationConfig(iterations=0)
        with pytest.raises(ValueError):
            SimulationConfig(feed_size=0)

    def test_recommender_strategy(self):
        assert config().recommender_strategy == "preference"
        assert config(configuration="RandomRecommendation"
                      ).recommender_strategy == "random"


class TestInitPopulation:
    def test_trait_cross_product(self, personas_small):
        world = init_population(personas_small, config())
        assert len(world.agents) == 6 * 7
        suffixes = {a.rsplit("-", 1)[1] for a in world.agents}
        assert suffixes == {t.name for t in Trait}

    def test_pinned_trait_yields_one_agent(self):
        for configuration in ("FullModel", "RandomRecommendation"):
            world = init_population(grounded_personas() + make_personas(1),
                                    config(configuration=configuration),
                                    follow_edges=[("u1", "u2")])
            assert world.agent_order() == sorted(
                [f"p000-{t.name}" for t in Trait] + ["u1", "u2"])
            u1 = world.agents["u1"]
            assert u1.profile.trait is Trait.SO
            assert u1.profile.identity_text == "desc one"
            assert world.agents["u2"].profile.trait is Trait.PC
            assert u1.profile.following == {"u2"}
            assert u1.index == 7

    def test_identity_only_is_one_per_persona(self, personas_small):
        for personas in (personas_small, grounded_personas()):
            world = init_population(personas,
                                    config(configuration="IdentityOnly"))
            assert sorted(world.agents) == sorted(p["id"] for p in personas)
            assert all(s.profile.trait is None for s in world.agents.values())

    def test_psychometric_variants(self, personas_small):
        world = init_population(personas_small,
                                config(configuration="PsychometricTraits"))
        assert len(world.agents) == 60
        world = init_population(grounded_personas(),
                                config(configuration="PsychometricTraits"))
        assert len(world.agents) == 20  # the pinned trait is ignored

    def test_indices_follow_sorted_order(self, personas_small):
        for personas in (personas_small, grounded_personas()):
            world = init_population(personas, config())
            for i, agent_id in enumerate(world.agent_order()):
                assert world.agents[agent_id].index == i

    def test_duplicate_persona_rejected(self):
        personas = make_personas(2) + make_personas(1)
        with pytest.raises(ValueError, match="duplicate"):
            init_population(personas, config())
        pinned = {"id": "p000-SO", "identity_text": "x", "trait": "PC"}
        with pytest.raises(ValueError, match="duplicate agent id 'p000-SO'"):
            init_population(make_personas(1) + [pinned], config())

    def test_empty_persona_set_rejected(self):
        with pytest.raises(ValueError):
            init_population([], config())

    def test_follow_edges_preloaded(self, personas_small):
        world = init_population(personas_small,
                                config(configuration="IdentityOnly"),
                                follow_edges=[("p000", "p001")])
        assert "p001" in world.agents["p000"].profile.following

    def test_unknown_follow_edge_rejected(self, personas_small):
        with pytest.raises(ValueError, match="unknown agent"):
            init_population(personas_small, config(),
                            follow_edges=[("ghost", "p000-SO")])


class TestRecommendFeed:
    def setup_method(self):
        self.world = init_population(make_personas(3),
                                     config(configuration="IdentityOnly"))
        self.agent = self.world.agents["p000"]  # topic Healthcare
        self.rng = np.random.default_rng(0)

    def test_topic_matches_rank_before_recency(self):
        for i in range(3):
            add_post(self.world, "p001", i + 1, topic="Healthcare")
        for i in range(5):
            add_post(self.world, "p002", i + 1, topic="Music")
        self.world.iteration = 5
        feed = recommend_feed(self.agent, self.world, "preference", 5, self.rng)
        assert [e.topic for e in feed] == ["Healthcare"] * 3 + ["Music"] * 2
        # within each group newest first
        assert feed[0].content_id > feed[1].content_id > feed[2].content_id
        assert feed[3].content_id > feed[4].content_id

    def test_excludes_own_and_already_reshared(self):
        own = add_post(self.world, "p000", 1)
        done = add_post(self.world, "p001", 1)
        fresh = add_post(self.world, "p002", 1)
        self.agent.reshared_ids.add(done.content_id)
        self.world.iteration = 1
        feed = recommend_feed(self.agent, self.world, "preference", 5, self.rng)
        assert [e.content_id for e in feed] == [fresh.content_id]
        assert own.content_id not in {e.content_id for e in feed}

    def test_followee_reshares_force_included(self):
        self.world.follow("p000", "p001")
        original = add_post(self.world, "p002", 1, topic="Healthcare")
        reshare = add_reshare(self.world, "p001", 2, original)
        for i in range(5):
            add_post(self.world, "p002", i + 2, topic="Healthcare")
        self.world.iteration = 7
        feed = recommend_feed(self.agent, self.world, "preference", 5, self.rng)
        assert feed[0].content_id == reshare.content_id
        assert feed[0].is_reshare

    def test_matches_naive_ranking_oracle(self):
        rng = np.random.default_rng(42)
        topics = ["Healthcare", "Music", "Religion", None]
        iterations = sorted(int(rng.integers(1, 9)) for _ in range(60))
        for i, it in enumerate(iterations):  # ids stay chronological, as in runs
            add_post(self.world, "p001" if i % 2 else "p002", it,
                     topic=topics[int(rng.integers(4))])
        self.world.iteration = 8
        feed = recommend_feed(self.agent, self.world, "preference", 5,
                              np.random.default_rng(0))
        pool = [it for it in self.world.content.values()
                if it.author != "p000"]
        pool.sort(key=lambda it: (it.topic != self.agent.profile.topic,
                                  -it.iteration_created, -it.content_id))
        assert [e.content_id for e in feed] == [it.content_id for it in pool[:5]]

    def test_random_strategy_is_seeded_and_bounded(self):
        for i in range(20):
            add_post(self.world, "p001", 1)
        self.world.iteration = 1
        pick = lambda seed: [e.content_id for e in recommend_feed(
            self.agent, self.world, "random", 5, np.random.default_rng(seed))]
        assert pick(1) == pick(1)
        assert len(pick(2)) == 5
        assert any(pick(1) != pick(s) for s in range(2, 8))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            recommend_feed(self.agent, self.world, "astrology", 5, self.rng)


@st.composite
def chronological_worlds(draw):
    """A world of 4 agents whose content ids follow creation order: posts
    and re-shares (of earlier items) by any agent, the agent under test
    included, plus candidate re-shared ids (``reshareable`` keeps those it
    can have), follows (possibly itself) and the recommender arguments."""
    world = init_population(make_personas(4),
                            config(configuration="IdentityOnly"))
    authors = world.agent_order()
    items = draw(st.lists(st.tuples(
        st.sampled_from(authors), st.integers(0, 1),
        st.sampled_from(TOPICS + (None,)), st.one_of(st.none(), st.integers(0))),
        max_size=40))
    agent = world.agents[authors[0]]
    for followee in draw(st.lists(st.sampled_from(authors))):
        world.follow(authors[0], followee)
    return (world, agent, items,
            draw(st.lists(st.integers(1, len(items) + 2), max_size=6)),
            draw(st.integers(1, 8)), draw(st.sampled_from(["preference", "random"])),
            draw(st.integers(0, 2**32 - 1)))


def fill(world, items):
    """Add ``chronological_worlds`` items to the store in creation order."""
    iteration = 1
    for author, step, topic, parent in items:
        iteration += step
        if parent is None or not world.content:
            add_post(world, author, iteration, topic=topic)
        else:
            add_reshare(world, author, iteration,
                        world.content[1 + parent % len(world.content)])
    world.iteration = iteration


def reshareable(world, agent, ids):
    """The ``ids`` that ``agent`` can have re-shared: items in the store
    that another agent authored (``apply_record`` rejects the rest)."""
    return {cid for cid in ids if cid in world.content
            and world.content[cid].author != agent.profile.agent_id}


class TestRecommendFeedMatchesReference:
    @given(chronological_worlds())
    @settings(max_examples=200, deadline=None)
    def test_same_feed_and_same_draws(self, case):
        world, agent, items, reshared, k, strategy, seed = case
        fill(world, items)
        agent.reshared_ids = reshareable(world, agent, reshared)
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        feed = recommend_feed(agent, world, strategy, k, rng)
        expected = _reference_recommend_feed(agent, world, strategy, k, ref_rng)
        assert [e.content_id for e in feed] == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(chronological_worlds())
    @settings(max_examples=100, deadline=None)
    def test_feed_writes_nothing_shared(self, case):
        """A decision runs ``recommend_feed`` while other agents decide, so
        it must leave the store (whose size gives the next id) and the
        authorship record as it found them."""
        world, agent, items, reshared, k, _, seed = case
        fill(world, items)
        agent.reshared_ids = reshared = reshareable(world, agent, reshared)
        before = copy.deepcopy(world)
        for strategy in ("preference", "random"):
            recommend_feed(agent, world, strategy, k,
                           np.random.default_rng(seed))
        assert world.content == before.content
        assert world.authored == before.authored
        assert world.by_topic == before.by_topic
        assert world.followers == before.followers
        assert ([a.inbox for a in world.agents.values()]
                == [a.inbox for a in before.agents.values()])
        assert agent.reshared_ids == reshared


def rebuilt_inbox(world, agent_id):
    """An agent's inbox rebuilt from its ``following`` set: the ascending
    ids of the re-shares authored by its followees other than itself."""
    following = world.agents[agent_id].profile.following - {agent_id}
    return sorted(cid for cid, item in world.content.items()
                  if item.author in following and item.parent is not None)


@st.composite
def follows_and_reshares(draw):
    """Follow edges for ``init_population`` over 4 agents, then posts,
    re-shares and FOLLOW records in any order, repeated and self-follows
    included, plus the recommender arguments. A re-share's target is
    drawn as an index into the items the agent may re-share."""
    agents = st.integers(0, 3)
    edges = draw(st.lists(st.tuples(agents, agents), max_size=8))
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just(ActionKind.POST), agents, st.none()),
        st.tuples(st.just(ActionKind.RESHARE), agents, st.integers(0, 99)),
        st.tuples(st.just(ActionKind.FOLLOW), agents, agents)), max_size=30))
    return edges, steps, draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1))


class TestInbox:
    @given(follows_and_reshares())
    @settings(max_examples=150, deadline=None)
    def test_every_inbox_is_its_rebuild_after_every_step(self, case):
        """Edges enter through ``init_population`` and FOLLOW records,
        re-shares through RESHARE records, in any order; after each step
        every inbox is its rebuild, the store passes ``check_integrity``
        and every agent's feed, under both strategies, is the reference's."""
        edges, steps, k, seed = case
        ids = [f"p00{i}" for i in range(4)]
        world = init_population(
            make_personas(4), config(configuration="IdentityOnly"),
            follow_edges=[(ids[a], ids[b]) for a, b in edges])

        def check():
            check_integrity(world)
            for agent_id, agent in world.agents.items():
                assert agent.inbox == rebuilt_inbox(world, agent_id)
                for strategy in ("preference", "random"):
                    rng, ref_rng = (np.random.default_rng(seed)
                                    for _ in range(2))
                    feed = recommend_feed(agent, world, strategy, k, rng)
                    assert [e.content_id for e in feed] == (
                        _reference_recommend_feed(agent, world, strategy, k,
                                                  ref_rng))

        check()
        for iteration, (kind, a, target) in enumerate(steps, 1):
            agent = world.agents[ids[a]]
            if kind is ActionKind.RESHARE:
                allowed = [cid for cid, item in world.content.items()
                           if item.author != ids[a]
                           and cid not in agent.reshared_ids]
                if not allowed:
                    continue
                target = allowed[target % len(allowed)]
            elif kind is ActionKind.FOLLOW:
                target = ids[target]
            apply_action(world, agent, Decision(
                kind, "r", target, "t" if kind is ActionKind.POST else None),
                iteration)
            world.iteration = iteration
            check()


def topic_index(content):
    """``WorldState.by_topic`` rebuilt from a content store."""
    index = {}
    for cid, item in content.items():
        index.setdefault(item.topic, []).append(cid)
    return index


def python_calls(fn, *args):
    """The number of Python function calls (``sys.setprofile``'s ``call``
    events, ``fn``'s own included) that ``fn(*args)`` makes, and its
    result. Calls into C functions are not counted."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return calls, result


class CountingStore(dict):
    """A content store (or another of the world's dicts) that counts the
    entries read through it and records their keys; a walk over its
    values, forward or reversed, counts each one it yields."""

    reads = 0

    def __init__(self, entries):
        super().__init__(entries)
        self.keys_read = set()

    def _read(self, key):
        self.reads += 1
        self.keys_read.add(key)

    def __getitem__(self, cid):
        self._read(cid)
        return super().__getitem__(cid)

    def __contains__(self, cid):
        self._read(cid)
        return super().__contains__(cid)

    def get(self, cid, default=None):
        self._read(cid)
        return super().get(cid, default)

    def values(self):
        return CountingValues(self)


class CountingValues:
    """``CountingStore.values()``: counts each item as a walk yields it."""

    def __init__(self, store):
        self.store = store

    def __len__(self):
        return len(self.store)

    def __iter__(self):
        return self._counted(dict.values(self.store))

    def __reversed__(self):
        return self._counted(reversed(dict.values(self.store)))

    def _counted(self, items):
        for item in items:
            self.store.reads += 1
            yield item


class TestRecommendFeedCost:
    @pytest.mark.parametrize("strategy", ["preference", "random"])
    def test_forced_reshares_read_k_items_however_many_are_older(
            self, strategy):
        world = init_population(make_personas(3),
                                config(configuration="IdentityOnly"))
        agent = world.agents["p000"]
        world.follow("p000", "p001")
        for iteration in range(1, 10_001):
            original = add_post(world, "p002", iteration)
            add_reshare(world, "p001", iteration, original)
        world.iteration = 10_000
        newest = list(world.authored["p001"])[::-1]  # all re-shares
        agent.reshared_ids = {newest[0], newest[2]}
        world.content = CountingStore(world.content)
        rng, ref_rng = (np.random.default_rng(1) for _ in range(2))
        feed = recommend_feed(agent, world, strategy, 5, rng)
        assert world.content.reads <= 5
        # a re-shared item's slot goes to the next-newest re-share
        assert [item.content_id for item in feed] == _reference_recommend_feed(
            agent, world, strategy, 5, ref_rng) == [newest[1], *newest[3:7]]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert all(item is world.content[item.content_id] for item in feed)

    @pytest.mark.parametrize("strategy", ["preference", "random"])
    def test_forced_reshares_read_no_followee_list(self, strategy):
        """1,000 followees, each with re-shares: the feed walks the agent's
        inbox, reads no followee's ``authored`` entry (only the agent's own)
        and reads only the k items it returns."""
        personas = make_personas(1_002)
        followees = [p["id"] for p in personas[1:1_001]]
        world = init_population(personas, config(configuration="IdentityOnly"),
                                follow_edges=[("p000", f) for f in followees])
        agent = world.agents["p000"]
        for iteration in range(1, 4):
            for followee in followees:
                original = add_post(world, "p1001", iteration)
                add_reshare(world, followee, iteration, original)
        world.iteration = 3
        newest = agent.inbox[::-1]
        assert len(newest) == 3_000
        agent.reshared_ids = {newest[0], newest[2]}
        world.content = CountingStore(world.content)
        world.authored = CountingStore(world.authored)
        rng, ref_rng = (np.random.default_rng(1) for _ in range(2))
        feed = recommend_feed(agent, world, strategy, 5, rng)
        assert world.authored.keys_read <= {"p000"}
        assert world.content.reads <= 5
        assert [item.content_id for item in feed] == _reference_recommend_feed(
            agent, world, strategy, 5, ref_rng) == [newest[1], *newest[3:7]]
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_scarce_topic_reads_k_plus_skipped_items(self):
        world = init_population(make_personas(3),
                                config(configuration="IdentityOnly"))
        agent = world.agents["p000"]  # topic Healthcare
        eligible = [add_post(world, "p001", 1, topic="Healthcare")
                    for _ in range(2)]
        add_post(world, "p000", 1, topic="Healthcare")  # own: skipped
        for i in range(10_000):
            add_post(world, "p001" if i % 2 else "p002", 2 + i // 100,
                     topic=("Music", "Religion", None)[i % 3])
        newest = add_post(world, "p000", 101, topic="Music")  # own: skipped
        world.iteration = 101
        agent.reshared_ids = {newest.content_id - 1, newest.content_id - 3}
        world.content = CountingStore(world.content)
        feed = recommend_feed(agent, world, "preference", 5, None)
        # 2 topic matches, then 3 others past 3 skipped items (the own Music
        # post, the two re-shared ids); the own Healthcare post is skipped
        # by id, without a read
        assert world.content.reads <= 5 + 3
        assert [item.content_id for item in feed] == _reference_recommend_feed(
            agent, world, "preference", 5, None)
        assert feed[:2] == eligible[::-1]
        assert [item.content_id for item in feed[2:]] == [
            newest.content_id - 2, newest.content_id - 4,
            newest.content_id - 5]
        assert all(item is world.content[item.content_id] for item in feed)

    def test_topicless_world_reads_k_plus_skipped_items(self):
        world = init_population(grounded_personas(), config())
        agent = world.agents["u1"]  # topic None, as in a ground bundle
        for iteration in range(1, 10_001):
            add_post(world, "u2", iteration, topic=None)
        own = [add_post(world, "u1", 10_000, topic=None) for _ in range(2)]
        world.iteration = 10_000
        agent.reshared_ids = {own[0].content_id - 2}
        world.content = CountingStore(world.content)
        feed = recommend_feed(agent, world, "preference", 5, None)
        # the own and re-shared ids are skipped by id, without a read
        assert world.content.reads <= 5
        assert [item.content_id for item in feed] == _reference_recommend_feed(
            agent, world, "preference", 5, None)
        assert all(item is world.content[item.content_id] for item in feed)

    def test_newer_own_items_are_skipped_without_a_read(self):
        world = init_population(make_personas(2),
                                config(configuration="IdentityOnly"))
        agent = world.agents["p000"]  # topic Healthcare
        older = add_post(world, "p001", 1, topic="Music")
        for iteration in range(1, 10_001):
            add_post(world, "p000", iteration, topic="Healthcare")
        world.iteration = 10_000
        world.content = CountingStore(world.content)
        feed = recommend_feed(agent, world, "preference", 5, None)
        assert world.content.reads == 1
        assert [item.content_id for item in feed] == _reference_recommend_feed(
            agent, world, "preference", 5, None) == [older.content_id]

    def test_preference_with_nothing_eligible_reads_no_item(self):
        world = init_population(make_personas(1),
                                config(configuration="IdentityOnly"))
        agent = world.agents["p000"]
        for i in range(10_002):
            add_post(world, "p000", 1 + i // 1000,
                     topic=("Healthcare", "Music")[i % 2])
        world.iteration = 11
        world.content = CountingStore(world.content)
        assert recommend_feed(agent, world, "preference", 5, None) == []
        assert world.content.reads == 0
        assert _reference_recommend_feed(agent, world, "preference", 5,
                                         None) == []

    def test_random_with_nothing_eligible_reads_no_item(self):
        world = init_population(make_personas(2),
                                config(configuration="IdentityOnly"))
        agent = world.agents["p000"]
        for iteration in range(1, 1_001):
            original = add_post(world, "p001", iteration)
            add_reshare(world, "p000", iteration, original)
            agent.reshared_ids.add(original.content_id)
            add_post(world, "p000", iteration, topic="Healthcare")
        world.iteration = 1_000
        world.content = CountingStore(world.content)
        rng, ref_rng = (np.random.default_rng(1) for _ in range(2))
        assert recommend_feed(agent, world, "random", 5, rng) == []
        assert world.content.reads == 0
        assert _reference_recommend_feed(agent, world, "random", 5,
                                         ref_rng) == []
        assert rng.bit_generator.state == ref_rng.bit_generator.state


    def test_skipped_items_make_no_python_calls(self):
        """A preference feed that skips 10,000 of the agent's own items
        makes as many Python function calls as one that skips none: its
        walks test own, re-shared and forced ids inline."""
        calls = []
        for own_items in (0, 10_000):
            world = init_population(make_personas(3),
                                    config(configuration="IdentityOnly"))
            agent = world.agents["p000"]  # topic Healthcare
            world.follow("p000", "p001")
            original = add_post(world, "p002", 1)
            add_reshare(world, "p001", 1, original)  # forced
            for topic in ("Healthcare", "Music", "Healthcare", "Music"):
                add_post(world, "p002", 1, topic=topic)
            agent.reshared_ids = {add_post(world, "p001", 1).content_id}
            for i in range(own_items):
                add_post(world, "p000", 2, topic=("Healthcare", "Music")[i % 2])
            world.iteration = 2
            count, feed = python_calls(recommend_feed, agent, world,
                                       "preference", 5, None)
            assert [item.content_id for item in feed] == (
                _reference_recommend_feed(agent, world, "preference", 5,
                                          None)) == [2, 5, 3, 6, 4]
            calls.append(count)
        assert calls[0] == calls[1], calls


class TestOwnContentWalk:
    """The decision step observes an agent's own items within
    ``decay_horizon`` from a newest-first walk of ``world.authored`` that
    stops at the first older item, however many older items there are."""

    def setup_method(self):
        # One agent, so every feed is empty and nothing else is observed.
        self.world = init_population(make_personas(1),
                                     config(configuration="IdentityOnly"))
        for i in range(10_000):
            add_post(self.world, "p000", 1 + i // 1000, topic="Healthcare")
        self.recent = [add_post(self.world, "p000", iteration,
                                topic="Healthcare").content_id
                       for iteration in (18, 19)]
        self.world.iteration = 19  # iteration 20 decides; horizon 3

    def test_reads_the_recent_items_and_one_older(self, monkeypatch):
        world = self.world
        feed_reads = []

        def uncounted(agent, seen, *args):
            before = seen.content.reads
            feed = recommend_feed(agent, seen, *args)
            feed_reads.append(seen.content.reads - before)
            return feed

        monkeypatch.setattr(engine, "recommend_feed", uncounted)
        world.content = CountingStore(world.content)
        run_iteration(world, config(), StubBackend())
        assert len(feed_reads) == 1
        assert world.content.reads - feed_reads[0] <= len(self.recent) + 1

    def test_stm_holds_the_recent_items_observed_newest_first(
            self, monkeypatch):
        observed = []

        def spy(memory, item, now, params):
            observed.append(item.content_id)
            return stm_observe(memory, item, now, params)

        monkeypatch.setattr(engine, "stm_observe", spy)
        run_iteration(self.world, config(), StubBackend())
        assert observed == self.recent[::-1]
        assert list(self.world.agents["p000"].memory.stm) == self.recent[::-1]


class TestAddContent:
    def test_allocates_stores_and_records_the_author(self):
        world = WorldState()
        first = add_post(world, "a", 1)
        second = add_reshare(world, "b", 2, first)
        third = add_post(world, "a", 2, topic=None)
        assert [first.content_id, second.content_id, third.content_id] == [1, 2, 3]
        assert world.content == {1: first, 2: second, 3: third}
        assert (second.parent, second.root, second.text) == (1, 1, first.text)
        assert {a: list(ids) for a, ids in world.authored.items()} == {
            "a": [1, 3], "b": [2]}
        assert world.by_topic == {"Music": [1, 2], None: [3]}
        assert world.by_topic == topic_index(world.content)
        assert add_post(world, "b", 3).content_id == 4

    @pytest.mark.parametrize("configuration",
                             ["FullModel", "RandomRecommendation"])
    def test_authorship_matches_the_store_after_a_run(
            self, configuration, tmp_path, monkeypatch):
        personas = make_personas(3)
        cfg = config(configuration=configuration, iterations=6)
        order = init_population(personas, cfg).agent_order()
        edges = [(a, order[(i + 1) % len(order)]) for i, a in enumerate(order)]
        world = run_simulation(cfg, personas, initial_world=init_population(
            personas, cfg, follow_edges=edges))
        authored = {}
        for cid, item in world.content.items():
            authored.setdefault(item.author, []).append(cid)
        assert any(item.is_reshare for item in world.content.values())
        assert {a: list(ids) for a, ids in world.authored.items()} == authored
        assert world.by_topic == topic_index(world.content)
        # load_run's replay rebuilds the index through add_content as well
        write_artifacts(world, tmp_path)
        replayed = []

        class RecordedWorld(WorldState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                replayed.append(self)

        monkeypatch.setattr(engine, "WorldState", RecordedWorld)
        _, content, _ = load_run(tmp_path)
        [rebuilt] = replayed
        assert rebuilt.content is content
        assert rebuilt.by_topic == topic_index(content) == world.by_topic
        assert {a: list(ids) for a, ids in rebuilt.authored.items()} == authored


class TestApplyAction:
    def setup_method(self):
        self.world = init_population(make_personas(3),
                                     config(configuration="IdentityOnly"))
        self.agent = self.world.agents["p000"]

    def test_post_creates_original(self):
        apply_action(self.world, self.agent,
                     Decision(ActionKind.POST, "r", payload="hello"), 1)
        item = self.world.content[1]
        assert (item.author, item.parent, item.root) == ("p000", None, 1)
        assert item.topic == self.agent.profile.topic
        assert self.world.log[-1].order is Order.NA

    def test_reshare_creates_node_and_counts(self, tmp_path):
        original = add_post(self.world, "p001", 1)
        apply_action(self.world, self.agent,
                     Decision(ActionKind.RESHARE, "r", target=original.content_id), 2)
        reshare = self.world.content[original.content_id + 1]
        assert reshare.parent == original.content_id
        assert reshare.root == original.content_id
        assert original.reshares == 1
        assert written_row(self.world, original.content_id,
                           tmp_path)["cascade_reshares"] == 1
        assert original.content_id in self.agent.reshared_ids
        assert self.world.log[-1].order is Order.FIRST

    def test_reshare_of_reshare_keeps_root_and_credits_cascade(self,
                                                                tmp_path):
        original = add_post(self.world, "p001", 1)
        mid = add_reshare(self.world, "p002", 2, original)
        apply_action(self.world, self.agent,
                     Decision(ActionKind.RESHARE, "r", target=mid.content_id), 3)
        leaf = self.world.content[mid.content_id + 1]
        assert leaf.root == original.content_id
        assert mid.reshares == 1
        assert original.reshares == 0  # direct children only
        assert written_row(self.world, original.content_id,
                           tmp_path)["cascade_reshares"] == 2  # mid and leaf
        assert self.world.log[-1].order is Order.SECOND

    def test_reactions_update_counters(self, tmp_path):
        item = add_post(self.world, "p001", 1)
        for kind in (ActionKind.LIKE, ActionKind.DISLIKE):
            apply_action(self.world, self.agent,
                         Decision(kind, "r", target=item.content_id), 2)
        apply_action(self.world, self.agent,
                     Decision(ActionKind.COMMENT, "r", target=item.content_id,
                              payload="neat"), 2)
        assert (item.likes, item.dislikes, item.comments) == (1, 1, 1)
        assert written_row(self.world, item.content_id,
                           tmp_path)["comment_texts"] == [["p000", "neat"]]

    @staticmethod
    def engage(kind, target):
        return Decision(kind, "r", target=target.content_id,
                        payload="c" if kind is ActionKind.COMMENT else None)

    def test_engagement_on_original_is_first_order(self):
        original = add_post(self.world, "p001", 1)
        for kind in sorted(ENGAGEMENT_KINDS, key=lambda k: k.value):
            decision = self.engage(kind, original)
            apply_action(self.world, self.agent, decision, 2)
            assert self.world.log[-1].order is Order.FIRST

    def test_engagement_on_reshare_is_second_order(self):
        original = add_post(self.world, "p001", 1)
        reshare = add_reshare(self.world, "p002", 2, original)
        for kind in sorted(ENGAGEMENT_KINDS, key=lambda k: k.value):
            decision = self.engage(kind, reshare)
            apply_action(self.world, self.agent, decision, 3)
            assert self.world.log[-1].order is Order.SECOND

    def test_follow_is_idempotent(self):
        for _ in range(2):
            apply_action(self.world, self.agent,
                         Decision(ActionKind.FOLLOW, "r", target="p001"), 2)
        assert self.agent.profile.following == {"p001"}
        assert len(self.world.log) == 2

    def test_duplicate_reshare_rejected(self):
        original = add_post(self.world, "p001", 1)
        reshare = Decision(ActionKind.RESHARE, "r", target=original.content_id)
        apply_action(self.world, self.agent, reshare, 2)
        with pytest.raises(ValueError, match="already re-shared"):
            apply_action(self.world, self.agent, reshare, 3)
        assert original.reshares == 1
        assert len(self.world.content) == 2

    def test_reshare_of_own_item_rejected(self):
        """The feed never shows an agent its own items, so a re-share of
        one, original or re-share, cannot have been logged."""
        own = add_post(self.world, "p000", 1)
        own_reshare = add_reshare(self.world, "p000", 1,
                                  add_post(self.world, "p001", 1))
        for target in (own, own_reshare):
            with pytest.raises(ValueError, match="re-shares its own content"):
                apply_action(self.world, self.agent, Decision(
                    ActionKind.RESHARE, "r", target=target.content_id), 2)
        assert len(self.world.content) == 3 and not self.world.log
        assert not self.agent.reshared_ids

    def test_unreplayable_record_changes_nothing(self):
        original = add_post(self.world, "p001", 1)
        for kind, target, order, error in (
                (ActionKind.LIKE, original.content_id + 1, Order.FIRST,
                 KeyError),
                (ActionKind.RESHARE, original.content_id, Order.SECOND,
                 ValueError),
                (ActionKind.FOLLOW, "ghost", Order.NA, ValueError)):
            record = ActionRecord(2, "p000", kind, target, None, order)
            with pytest.raises(error):
                apply_record(self.world, self.agent, record)
        assert len(self.world.content) == 1
        assert (original.reshares, original.likes, original.dislikes,
                original.comments) == (0, 0, 0, 0)
        assert not self.agent.reshared_ids
        assert not self.agent.profile.following

    def test_inactive_logs_only(self):
        apply_action(self.world, self.agent, Decision(ActionKind.INACTIVE, "r"), 1)
        assert not self.world.content
        assert self.world.log[-1].kind is ActionKind.INACTIVE


class TestRunIteration:
    def test_iteration_one_is_posts_or_inactivity(self, personas_small):
        world = init_population(personas_small, config())
        run_iteration(world, config(), StubBackend())
        kinds = {r.kind for r in world.log}
        assert kinds <= {ActionKind.POST, ActionKind.INACTIVE}

    def test_stub_answers_go_through_the_world_check(self, personas_small,
                                                    monkeypatch):
        """Content from iteration 0 fills every feed at iteration 1, where
        only post and inactive are permitted: the stub's engagements are
        refused and re-drawn (or fall back), never applied."""
        world = init_population(personas_small, config())
        for agent_id in world.agent_order()[:3]:
            add_post(world, agent_id, 0, topic=world.agents[agent_id].profile.topic)
        drawn = []

        class RecordingStub(StubBackend):
            def complete(self, prompt, rng):
                assert prompt.feed_section
                decision = super().complete(prompt, rng)
                drawn.append(decision.choice)
                return decision

        run_iteration(world, config(), RecordingStub())
        assert ENGAGEMENT_KINDS & set(drawn)
        logged = [r.kind for r in world.log]
        assert len(logged) == len(world.agents)
        assert set(logged) <= {ActionKind.POST, ActionKind.INACTIVE}

    def test_records_cover_every_agent_every_iteration(self, personas_small):
        cfg = config(iterations=4)
        world = run_simulation(cfg, personas_small)
        assert len(world.log) == 4 * len(world.agents)
        for it in range(1, 5):
            agents = [r.agent for r in world.log if r.iteration == it]
            assert sorted(agents) == world.agent_order()

    def test_integrity_after_a_run(self, personas_small):
        world = run_simulation(config(iterations=6), personas_small)
        check_integrity(world)

    def test_unknown_follow_target_never_reaches_the_graph(self, tmp_path):
        """A backend that follows an id no agent has wherever follow is
        offered: each such decision is re-prompted, then falls back to
        inactivity, and ``agents.jsonl`` lists no such followee."""
        class NobodyBackend:
            calls = 0

            def complete(self, prompt, rng):
                self.calls += 1
                if ActionKind.FOLLOW in prompt.actions_section:
                    return parse_response(
                        "CHOICE: follow\nREASON: x\nCONTENT: nobody-here")
                return parse_response("CHOICE: post\nREASON: x\nCONTENT: hi")

        backend = NobodyBackend()
        world = run_simulation(config(iterations=2), make_personas(2), backend)
        agents = len(world.agents)
        assert backend.calls == agents + agents * MAX_RETRIES
        assert all(r.kind is ActionKind.INACTIVE
                   and r.reason_text == FALLBACK_REASON
                   for r in world.log if r.iteration == 2)
        write_artifacts(world, tmp_path)
        assert all(json.loads(line)["following"] == [] for line in
                   (tmp_path / "agents.jsonl").read_text().splitlines())

    @pytest.mark.parametrize("misshape", [
        lambda cid: Decision(ActionKind.LIKE, "r", float(cid)),
        lambda cid: Decision(ActionKind.LIKE, "r", cid == 1),
        lambda cid: Decision(ActionKind.POST, "r", cid, "hi")],
        ids=["float-target", "bool-target", "post-with-target"])
    def test_a_misshaped_answer_never_reaches_the_log(self, tmp_path,
                                                      misshape):
        """A backend that answers ``Decision`` objects, not text, is held to
        ``check_shape`` as a model is: ``7.0 == 7`` and ``True == 1`` match a
        feed id, but each such answer is re-prompted, then falls back to
        inactivity, and the run's files are written whole."""
        class MisshapedBackend:
            calls = 0
            saw_item_1 = False

            def complete(self, prompt, rng):
                self.calls += 1
                if not prompt.feed_section:
                    return Decision(ActionKind.POST, "r", payload="hi")
                ids = [entry.content_id for entry in prompt.feed_section]
                self.saw_item_1 |= 1 in ids
                return misshape(1 if 1 in ids else ids[0])

        backend = MisshapedBackend()
        world = run_simulation(config(iterations=2, feed_size=100),
                               make_personas(2), backend)
        agents = len(world.agents)
        assert backend.saw_item_1
        assert backend.calls == agents + agents * MAX_RETRIES
        assert all(r.kind is ActionKind.INACTIVE
                   and r.reason_text == FALLBACK_REASON
                   for r in world.log if r.iteration == 2)
        write_artifacts(world, tmp_path)
        assert len((tmp_path / "actions.jsonl").read_text().splitlines()) == (
            2 * agents)

    def test_transport_error_leaves_completed_iterations_in_world(
            self, personas_small):
        class FlakyBackend:
            calls = 0

            def complete(self, prompt, rng):
                self.calls += 1
                if self.calls > 100:
                    raise TransportError("gone")
                return parse_response("CHOICE: inactive\nREASON: x\nCONTENT:")

        cfg = config(iterations=10)
        world = init_population(personas_small, cfg)
        with pytest.raises(TransportError):
            run_simulation(cfg, personas_small, backend=FlakyBackend(),
                           initial_world=world)
        assert world.iteration == 100 // len(world.agents) == 2
        assert len(world.log) == 2 * len(world.agents)
        assert {r.iteration for r in world.log} == {1, 2}

    @pytest.mark.parametrize("configuration",
                             ["FullModel", "RandomRecommendation"])
    def test_feeds_read_a_dense_store_of_completed_iterations(
            self, configuration, monkeypatch):
        """``recommend_feed`` has no snapshot filter and the random strategy
        maps ranks straight to ids; both rely on what this checks on every
        call of a run with a follow graph."""
        personas = make_personas(3)
        cfg = config(configuration=configuration, iterations=6)
        order = init_population(personas, cfg).agent_order()
        edges = [(a, order[(i + step) % len(order)])
                 for i, a in enumerate(order) for step in (1, 5)]
        world = init_population(personas, cfg, follow_edges=edges)
        calls = []

        def checked(agent, seen, *args):
            assert list(seen.content) == list(range(1, len(seen.content) + 1))
            assert all(item.iteration_created <= seen.iteration
                       for item in seen.content.values())
            calls.append(seen.iteration)
            return recommend_feed(agent, seen, *args)

        monkeypatch.setattr(engine, "recommend_feed", checked)
        run_simulation(cfg, personas, initial_world=world)
        assert len(calls) == cfg.iterations * len(world.agents)
        assert world.content and any(item.is_reshare
                                     for item in world.content.values())


def lemire_edge(want) -> int:
    """A bound whose Lemire draw on ``want``'s next 32-bit output lands on
    the rejection threshold, 2**32 mod bound (accepted), or one below it
    (rejected and drawn again); 7 when that output allows neither. For a
    bound ``2**32 - d`` with ``d < 2**31`` the threshold is ``d``, and an
    output ``x`` leaves ``-x * d mod 2**32``."""
    x = int(copy.deepcopy(want).integers(2**32))
    zeros = ((x + 1) & -(x + 1)).bit_length() - 1
    if zeros >= 2:
        return 2**32 - (2**32 >> zeros)  # leaves d
    if x % 2 == 0 and pow(x + 1, -1, 2**32) < 2**31:
        return 2**32 - pow(x + 1, -1, 2**32)  # leaves d - 1
    return 7


def choices(n):
    return st.tuples(st.just("choice"), st.just(n), st.one_of(
        st.just(0), st.just(n), st.integers(0, n // 50),
        st.integers(n // 50, n)))


# Draw calls for ``agent_rng``'s stream: ``choice`` on both of numpy's
# branches (Floyd's algorithm, and a tail shuffle for n > 10000 and size >
# n // 50), ``integers`` at 32-bit bounds with rare and frequent rejections.
DRAWS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("integers"),
              st.sampled_from([1, 2, 7, 2**31 + 5, 2**32])),
    st.tuples(st.just("lemire edge")),
    st.integers(0, 60).flatmap(choices),
    st.integers(10001, 10400).flatmap(choices),
)


class TestDeterminism:
    def test_same_seed_same_log(self, personas_small):
        cfg = config(iterations=6, master_seed=11)
        runs = [run_simulation(cfg, personas_small) for _ in range(2)]
        assert runs[0].log == runs[1].log

    def test_different_seed_different_log(self, personas_small):
        a = run_simulation(config(iterations=6, master_seed=1), personas_small)
        b = run_simulation(config(iterations=6, master_seed=2), personas_small)
        assert a.log != b.log

    def test_permuted_decision_order_is_identical(self, personas_small):
        cfg = config(iterations=6, master_seed=11)
        reference = run_simulation(cfg, personas_small)

        shuffled = Shuffled(StubBackend(), np.random.default_rng(99).shuffle)
        world = run_simulation(cfg, personas_small, shuffled)

        assert world.log == reference.log

    @settings(max_examples=150, deadline=None)
    @given(master_seed=st.one_of(st.integers(0, 2**32 - 1),
                                 st.integers(2**32, 2**64 - 1),
                                 st.integers(2**64, 2**96)),
           iteration=st.integers(0, 2**33),
           agent_index=st.one_of(
               st.integers(0, 3 * engine._SEED_BLOCK),
               st.builds(lambda block, side: block * engine._SEED_BLOCK - side,
                         st.integers(1, 2**40), st.sampled_from([0, 1]))),
           stream=st.sampled_from([0, 1]),
           draws=st.lists(DRAWS, max_size=5))
    @example(master_seed=0, iteration=1, agent_index=0, stream=0,
             draws=[("random",), ("integers", 7), ("choice", 30, 5)])
    @example(master_seed=7, iteration=25, agent_index=engine._SEED_BLOCK - 1,
             stream=1, draws=[("integers", 2), ("random",), ("integers", 2)])
    @example(master_seed=7, iteration=25, agent_index=engine._SEED_BLOCK,
             stream=1, draws=[("choice", 10001, 10001), ("integers", 1)])
    @example(master_seed=2**32, iteration=3, agent_index=2**32 - 1, stream=0,
             draws=[("integers", 2**31 + 5), ("choice", 12000, 0),
                    ("lemire edge",)])
    @example(master_seed=2**64, iteration=3, agent_index=2**32, stream=1,
             draws=[("choice", 10400, 300), ("integers", 2**32)])
    def test_agent_rng_is_default_rng(self, master_seed, iteration,
                                      agent_index, stream, draws):
        """Every draw, and the state each leaves, is that of
        ``default_rng(key)``: the last two draws follow the sequence."""
        key = [master_seed, iteration, agent_index, stream]
        got, want = agent_rng(*key), np.random.default_rng(key)
        for kind, *args in draws + [("integers", 2**32), ("random",)]:
            if kind == "random":
                assert got.random() == want.random()
            elif kind == "choice":
                n, size = args
                assert (got.choice(n, size=size, replace=False)
                        == want.choice(n, size=size, replace=False).tolist())
            else:
                high = args[0] if args else lemire_edge(want)
                assert got.integers(high) == want.integers(high)

    @settings(max_examples=40, deadline=None)
    @given(master_seed=st.one_of(st.integers(0, 2**32 - 1),
                                 st.integers(2**32, 2**96)),
           iteration=st.one_of(st.integers(0, 2**32 - 1),
                               st.integers(2**32, 2**70)),
           stream=st.sampled_from([0, 1]),
           block=st.one_of(st.integers(0, 8),
                           st.integers(2**32 // engine._SEED_BLOCK - 2,
                                       2**40)))
    @example(master_seed=0, iteration=0, stream=0, block=0)
    @example(master_seed=2**64 - 1, iteration=2**32, stream=1,
             block=2**32 // engine._SEED_BLOCK - 1)
    @example(master_seed=5, iteration=25, stream=0,
             block=2**32 // engine._SEED_BLOCK)
    def test_seed_block_rows_are_seed_sequence_states(self, master_seed,
                                                      iteration, stream,
                                                      block):
        """Row ``j`` holds the seed words numpy derives for agent index
        ``block * _SEED_BLOCK + j``, as a tuple of four ints, also where a
        key word takes two or more uint32 words."""
        rows = engine._seed_block.__wrapped__(master_seed, iteration, stream,
                                              block)
        assert type(rows) is tuple and len(rows) == engine._SEED_BLOCK
        first = block * engine._SEED_BLOCK
        for j, row in enumerate(rows):
            want = np.random.SeedSequence(
                [master_seed, iteration, first + j, stream]).generate_state(
                    4, np.uint64)
            assert type(row) is tuple
            assert all(type(word) is int for word in row)
            assert row == tuple(want.tolist())

    def test_seed_blocks_are_derived_once_per_block_stream_and_iteration(
            self):
        """Under the random feed, 980 agents draw from both streams; each
        block of seed words is derived once, so the four-block cache does
        not thrash as the agents alternate between the streams."""
        iterations = 2
        engine._seed_block.cache_clear()
        world = run_simulation(
            config(configuration="RandomRecommendation",
                   iterations=iterations), make_personas(140))
        assert len(world.agents) == 980
        blocks = -(-980 // engine._SEED_BLOCK)
        assert (engine._seed_block.cache_info().misses
                == blocks * 2 * iterations)

    @pytest.mark.parametrize("position", range(4))
    def test_agent_rng_rejects_a_negative_key_word(self, position):
        key = [5, 2, 1, 1]
        key[position] = -1
        with pytest.raises(ValueError, match="non-negative"):
            agent_rng(*key)

    @pytest.mark.parametrize("call", [
        lambda rng: rng.integers(0),
        lambda rng: rng.integers(-3),
        lambda rng: rng.integers(2**32 + 1),
        lambda rng: rng.choice(5, size=2),
        lambda rng: rng.choice(5, size=2, replace=True),
        lambda rng: rng.choice(5, size=-1, replace=False),
        lambda rng: rng.choice(5, size=6, replace=False),
        lambda rng: rng.choice(2**32 + 1, size=1, replace=False),
    ], ids=["integers-0", "integers-negative", "integers-above-2**32",
            "choice-replacing-by-default", "choice-replacing",
            "choice-negative-size", "choice-size-above-n",
            "choice-n-above-2**32"])
    def test_agent_rng_refuses_what_it_cannot_draw_exactly(self, call):
        with pytest.raises(ValueError):
            call(agent_rng(5, 2, 1, 1))

    def test_agent_rng_streams_are_independent(self):
        def draws(*key):
            rng = agent_rng(*key)
            return [rng.random() for _ in range(4)]

        a, b, c = draws(0, 1, 0, 0), draws(0, 1, 0, 1), draws(0, 1, 1, 0)
        assert a != b and a != c
        assert a == draws(0, 1, 0, 0)


class TestSerialization:
    def test_record_roundtrip(self):
        record = run_simulation(config(iterations=3), make_personas(2)).log[5]
        assert record_from_dict(json.loads(record_line(record))) == record

    def test_artifacts_on_disk(self, personas_small, tmp_path):
        world = run_simulation(config(iterations=4, master_seed=3),
                               personas_small)
        write_artifacts(world, tmp_path)
        actions = (tmp_path / "actions.jsonl").read_text().splitlines()
        assert len(actions) == len(world.log)
        assert all(json.loads(line) for line in actions)
        agents = [json.loads(l) for l in
                  (tmp_path / "agents.jsonl").read_text().splitlines()]
        assert [a["agent_id"] for a in agents] == world.agent_order()
        assert {a["trait"] for a in agents} == {t.name for t in Trait}

    @pytest.mark.parametrize("configuration", CONFIGURATIONS)
    def test_load_run_inverts_write_artifacts(self, configuration, tmp_path):
        personas = make_personas(4)
        cfg = config(configuration=configuration, iterations=6, master_seed=5)
        order = init_population(personas, cfg).agent_order()
        edges = [(a, order[(i + 3) % len(order)]) for i, a in enumerate(order)]
        world = run_simulation(cfg, personas, initial_world=init_population(
            personas, cfg, follow_edges=edges))
        write_artifacts(world, tmp_path)
        log, content, traits = load_run(tmp_path)
        assert log == world.log
        assert content == world.content
        assert traits == {
            agent_id: None if agent.profile.trait is None
            else agent.profile.trait.code
            for agent_id, agent in world.agents.items()}

    @pytest.mark.parametrize("run", [*CONFIGURATIONS, "llm-path"])
    def test_replay_agrees_with_the_content_file(self, run, tmp_path):
        """``load_run`` rebuilds the store from the log: it equals what
        ``write_artifacts`` wrote to content.jsonl, with the comment texts and
        cascades the log gives, and analyze writes the same bytes once that
        file is gone. The LLM-path run comments."""
        if run == "llm-path":
            world = llm_path_run(MemoryParams())[1]
        else:
            world = run_simulation(config(configuration=run, iterations=6,
                                          master_seed=5), make_personas(4))
        run_dir = tmp_path / "run"
        write_artifacts(world, run_dir)
        log, content, _ = load_run(run_dir)
        assert (run_dir / "content.jsonl").read_text().splitlines() == [
            json.dumps(content_to_dict(content[cid], *columns_from_log(
                log, content, cid)), sort_keys=True)
            for cid in sorted(content)]
        assert run != "llm-path" or any(
            r.kind is ActionKind.COMMENT for r in log)
        outputs = []
        for out in (tmp_path / "with", tmp_path / "without"):
            assert main(["analyze", "--run", str(run_dir), "--compare",
                         str(run_dir), "--out", str(out)]) == 0
            (run_dir / "content.jsonl").unlink(missing_ok=True)
            outputs.append({path.name: path.read_bytes()
                            for path in out.iterdir()})
        assert outputs[0] == outputs[1]

    def test_check_integrity_catches_corruption(self):
        world = WorldState()
        original = add_post(world, "a", 1)
        add_reshare(world, "b", 2, original)
        with pytest.raises(AssertionError, match="reshare counter"):
            check_integrity(world)  # counter was never incremented


# Each way an action can lack what its kind needs: (kind, the CONTENT of a
# text answer, the target and payload of a run-file record that carries the
# same fields, the rule both break).
SHAPE_VIOLATIONS = [
    ("post", "", None, None, "missing payload"),
    ("post", "", None, "", "missing payload"),
    ("reshare", "that one", None, None, "missing target"),
    ("like", "that one", None, None, "missing target"),
    ("dislike", "that one", None, None, "missing target"),
    ("comment", "that one: nice", None, "nice", "missing target"),
    ("comment", "3:", 3, "", "missing payload"),
    ("comment", "3:", 3, None, "missing payload"),
    ("follow", "", "", None, "missing target"),
    ("follow", "", None, None, "missing target"),
]


@pytest.mark.parametrize("kind, content, target, payload, rule",
                         SHAPE_VIOLATIONS)
def test_text_and_run_file_break_the_same_shape_rule(
        tmp_path, kind, content, target, payload, rule):
    """A model's answer and a run file's record are held to one shape rule:
    ``validate_decision`` and ``record_from_dict`` raise ``ValidationError``
    naming it, and ``load_run`` cites the line."""
    decision = parse_response(f"CHOICE: {kind}\nREASON: r\nCONTENT: {content}")
    prompt = build_prompt(AgentProfile("p000", "id", None, None), MemoryUnit(),
                          (), 2)
    with pytest.raises(ValidationError) as text_error:
        validate_decision(decision, prompt)
    order = ("first_order" if ActionKind(kind) in ENGAGEMENT_KINDS
             else "not_applicable")
    line = {"iteration": 1, "agent": "p000", "kind": kind, "target": target,
            "payload": payload, "order": order, "reason": "r"}
    with pytest.raises(ValidationError) as file_error:
        record_from_dict(line)
    assert text_error.value.rule == file_error.value.rule == rule

    write_artifacts(run_simulation(config(iterations=2), make_personas(1)),
                    tmp_path)
    actions = tmp_path / "actions.jsonl"
    lines = actions.read_text().splitlines(keepends=True)
    lines[2] = json.dumps({**json.loads(lines[2]), "kind": kind,
                           "target": target, "payload": payload,
                           "order": order}) + "\n"
    actions.write_text("".join(lines))
    with pytest.raises(ValueError, match=re.escape(
            f"{actions} line 3: ValidationError: {rule}")):
        load_run(tmp_path)


class TestCheckIntegrity:
    """``check_integrity`` holds on a store built by the log and fails when
    any item or counter ``content.jsonl`` holds disagrees with it."""

    @staticmethod
    def world():
        """Item 1 is a post, 2 a re-share of it and 3 a re-share of 2; each
        has a like, a dislike or two comments. p000 follows p001 before its
        re-share, p002 follows it after, and p001 follows itself."""
        world = init_population(make_personas(3),
                                config(configuration="IdentityOnly"))
        a, b, c = (world.agents[f"p00{i}"] for i in range(3))
        for agent, kind, target, payload in [
                (a, ActionKind.FOLLOW, "p001", None),
                (a, ActionKind.POST, None, "hi"),
                (b, ActionKind.RESHARE, 1, None),
                (c, ActionKind.RESHARE, 2, None),
                (c, ActionKind.FOLLOW, "p001", None),
                (b, ActionKind.FOLLOW, "p001", None),
                (b, ActionKind.LIKE, 1, None),
                (c, ActionKind.DISLIKE, 2, None),
                (b, ActionKind.COMMENT, 3, "one"),
                (a, ActionKind.COMMENT, 3, "two")]:
            apply_action(world, agent, Decision(kind, "r", target, payload), 1)
        return world

    @pytest.mark.parametrize("run", ["built", "FullModel",
                                     "RandomRecommendation", "llm-path"])
    def test_holds_on_a_store_the_log_built(self, run):
        """Each of these runs comments; the stub gives a trait-less or
        psychometric agent no comment."""
        if run == "built":
            world = self.world()
        elif run == "llm-path":
            world = llm_path_run(MemoryParams())[1]
        else:
            world = run_simulation(config(configuration=run, iterations=6),
                                   make_personas(3))
        assert any(item.comments for item in world.content.values())
        check_integrity(world)

    def test_a_like_that_is_not_counted(self):
        world = self.world()
        world.content[1].likes -= 1
        with pytest.raises(AssertionError, match="like counter .* on 1"):
            check_integrity(world)

    def test_a_dislike_counted_twice(self):
        world = self.world()
        world.content[2].dislikes += 1
        with pytest.raises(AssertionError, match="dislike counter .* on 2"):
            check_integrity(world)

    def test_a_comment_without_its_text(self):
        world = self.world()
        world.content[2].comments += 1
        with pytest.raises(AssertionError, match="comment counter .* on 2"):
            check_integrity(world)

    def test_a_reshare_counted_at_the_parent_but_not_at_the_root(self):
        world = self.world()
        parent = world.content[3]
        add_reshare(world, "p000", 2, parent)
        parent.reshares += 1
        with pytest.raises(AssertionError,
                           match="the log creates 3 items, the store holds 4"):
            check_integrity(world)

    def test_an_item_whose_author_was_changed(self):
        world = self.world()
        world.content[2].author = "p002"
        with pytest.raises(AssertionError, match="item 2 is not the log's "
                           "reshare by p001 in iteration 1"):
            check_integrity(world)

    def test_a_post_stored_without_a_record(self):
        world = self.world()
        add_post(world, "p000", 1)
        with pytest.raises(AssertionError,
                           match="the log creates 3 items, the store holds 4"):
            check_integrity(world)

    @pytest.mark.parametrize("content_id, name, value", [
        (1, "text", "tampered"), (1, "topic", "Nowhere"),
        (3, "text", "tampered"), (3, "topic", "Nowhere")],
        ids=["post-text", "post-topic", "reshare-text", "reshare-topic"])
    def test_an_item_whose_text_or_topic_is_not_the_logs(self, content_id,
                                                         name, value):
        """A post's text is its record's payload and its topic its author's;
        a re-share's text and topic are its parent's."""
        world = self.world()
        setattr(world.content[content_id], name, value)
        with pytest.raises(AssertionError,
                           match=f"{name} mismatch on {content_id}"):
            check_integrity(world)

    @pytest.mark.parametrize("name, tamper", [
        ("authored", lambda world: world.authored["p001"].pop(2)),
        ("by_topic", lambda world: world.by_topic.setdefault(
            "Nowhere", []).append(world.by_topic["Healthcare"].pop()))],
        ids=["authored", "by_topic"])
    def test_a_store_index_that_is_not_the_stores(self, name, tamper):
        world = self.world()
        tamper(world)
        with pytest.raises(AssertionError,
                           match=f"the {name} index disagrees with the store"):
            check_integrity(world)

    def test_an_edge_added_outside_follow(self):
        """p000 has re-shared nothing, so only the followers index shows
        the edge."""
        world = self.world()
        world.agents["p002"].profile.following.add("p000")
        with pytest.raises(AssertionError, match="the followers index "
                           "disagrees with the follow graph"):
            check_integrity(world)

    @pytest.mark.parametrize("agent_id", ["p000", "p002"])
    def test_an_inbox_missing_a_followees_reshare(self, agent_id):
        """p000's inbox got item 2 when p001 re-shared it, p002's when it
        followed p001."""
        world = self.world()
        world.agents[agent_id].inbox.remove(2)
        with pytest.raises(AssertionError, match=f"the inbox of {agent_id} "
                           "disagrees with its followees' re-shares"):
            check_integrity(world)

    @pytest.mark.parametrize("tamper", [
        lambda ids: ids.remove(1), lambda ids: ids.add(99)],
        ids=["missing", "bogus"])
    def test_reshared_ids_that_are_not_the_reshares_parents(self, tamper):
        """p001 re-shared item 1 in the built world."""
        world = self.world()
        tamper(world.agents["p001"].reshared_ids)
        with pytest.raises(AssertionError, match="the reshared_ids of p001 "
                           "disagree with its re-shares"):
            check_integrity(world)

    def test_a_reaction_to_unknown_content(self):
        world = self.world()
        world.log.append(ActionRecord(2, "p000", ActionKind.LIKE, 9, None,
                                      Order.FIRST))
        with pytest.raises(AssertionError, match="unknown content 9"):
            check_integrity(world)


# Text that JSON must escape or that ``str.splitlines`` breaks at, beside
# any code point, lone surrogates included.
texts = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1c\x1f\x7f\x85\u2028\u2029\xe9\U0001f600'
                    '\ud800\udfff\n\r\t'),
    st.characters(exclude_categories=())))
optional_texts = st.none() | texts
counts = st.integers(0, 2**70)


@st.composite
def records(draw):
    kind = draw(st.sampled_from(ActionKind))
    order = (draw(st.sampled_from([Order.FIRST, Order.SECOND]))
             if kind in ENGAGEMENT_KINDS else Order.NA)
    return ActionRecord(
        draw(st.integers(-1, 2**70)), draw(texts), kind,
        draw(st.none() | st.integers() | texts), draw(optional_texts),
        order, draw(texts))


@st.composite
def content_items(draw):
    """An item, its comment texts and its cascade."""
    content_id = draw(st.integers(1, 2**40))
    parent = draw(st.none() | st.integers(1, 2**40))
    item = ContentItem(
        content_id, draw(texts), draw(counts), draw(texts),
        draw(optional_texts), parent,
        None if parent is None else draw(st.integers(1, 2**40)),
        *(draw(counts) for _ in range(4)))
    comment_texts = draw(st.lists(st.tuples(texts, texts), max_size=6))
    return item, comment_texts, draw(counts)


profiles = st.builds(
    AgentProfile, texts, texts,
    st.none() | st.sampled_from(Trait) | st.sampled_from(OCEAN_VARIANTS),
    optional_texts, st.sets(texts, max_size=8))


class TestLineRenderers:
    """Each renderer writes the line ``json.dumps`` writes for the
    reference dict, and ``read_jsonl`` reads it back on its fast path."""

    CASES = [(record_line, record_to_dict, records()),
             (lambda row: content_line(*row),
              lambda row: content_to_dict(*row), content_items()),
             (profile_line, profile_to_dict, profiles)]

    @pytest.mark.parametrize("render, reference, rows", CASES,
                             ids=["record", "content", "profile"])
    def test_same_line_as_json_dumps(self, render, reference, rows):
        @settings(max_examples=150, deadline=None)
        @given(rows)
        def check(row):
            line = render(row)
            assert line == json.dumps(reference(row), sort_keys=True) + "\n"
            assert line.splitlines() == [line[:-1]]
            assert jsonl._raw_decode(line[:-1])[1] == len(line) - 1

        check()

    @pytest.mark.parametrize("target", [True, 1.0, b"7", ("a",)])
    def test_an_undeclared_value_is_a_type_error(self, target):
        record = ActionRecord(1, "a", ActionKind.LIKE, target, None,
                              Order.FIRST)
        with pytest.raises(TypeError):
            record_line(record)

    def test_an_undeclared_field_type_is_a_type_error(self):
        item = ContentItem(1, "a", 1, "t", None)
        item.likes = False
        with pytest.raises(TypeError):
            content_line(item, [], 0)
        with pytest.raises(TypeError):
            profile_line(AgentProfile(5, ""))

    # Every field a renderer writes inline, and a value of another type
    # than its usual one that ``json.dumps`` writes: a str for an int
    # field, an int for a str one (a target is usually either).
    INLINE_FIELDS = [
        ("record", "iteration", texts), ("record", "payload", st.integers()),
        ("record", "target", st.integers() | texts),
        *(("content", name, texts) for name in (
            "comments", "dislikes", "likes", "reshares", "content_id",
            "iteration_created", "parent", "root", "cascade_reshares")),
        ("content", "topic", st.integers())]
    ROWS = {"record": (records(), record_line, record_to_dict),
            "content": (content_items(), lambda row: content_line(*row),
                        lambda row: content_to_dict(*row))}

    @staticmethod
    def with_field(row, name, value):
        """A copy of a record, or of an (item, comment texts, cascade) row,
        whose field ``name`` holds ``value``."""
        if name == "cascade_reshares":
            return (*row[:2], value)
        is_item = isinstance(row, tuple)
        copied = copy.copy(row[0] if is_item else row)
        setattr(copied, name, value)
        return (copied, *row[1:]) if is_item else copied

    @pytest.mark.parametrize("kind, name, other", INLINE_FIELDS,
                             ids=[f"{k}-{n}" for k, n, _ in INLINE_FIELDS])
    def test_another_type_in_an_inline_field(self, kind, name, other):
        """A bool, a float or bytes is a ``TypeError``; a str or int where
        the field usually holds the other type is written as
        ``json.dumps`` writes it."""
        rows, render, reference = self.ROWS[kind]

        @settings(max_examples=40, deadline=None)
        @given(rows, st.booleans() | st.floats() | st.binary(), other)
        def check(row, undeclared, value):
            with pytest.raises(TypeError):
                render(self.with_field(row, name, undeclared))
            row = self.with_field(row, name, value)
            assert render(row) == json.dumps(reference(row),
                                             sort_keys=True) + "\n"

        check()

    def test_usual_fields_make_no_python_calls(self):
        """Rendering N rows whose fields hold their usual int, str or None
        values makes N Python calls, the renderers' own: no field goes
        through ``_value``."""
        log = [ActionRecord(i, "a", kind, target, payload, order, "r")
                    for i, (kind, target, payload, order) in enumerate([
                        (ActionKind.POST, None, "text", Order.NA),
                        (ActionKind.LIKE, 3, None, Order.FIRST),
                        (ActionKind.COMMENT, 4, "c", Order.SECOND),
                        (ActionKind.FOLLOW, "b", None, Order.NA),
                        (ActionKind.INACTIVE, None, None, Order.NA)] * 20)]
        items = [ContentItem(i, "a", 1, "t", ("Music", None)[i % 2],
                             *((None, None), (1, 1))[i % 2], 2, 3, 4, 5)
                 for i in range(1, 101)]
        assert python_calls(list, map(record_line, log))[0] == 100
        assert python_calls(list, map(content_line, items, repeat(()),
                                      repeat(7)))[0] == 100


class TestGoldenDigests:
    """Artifact digests of two seeded runs with a follow graph, recorded from
    the full-scan recommender. Any change to what the engine writes for a
    given seed, the feed order or the random draws included, fails here."""

    GOLDEN = {
        "FullModel": {
            "actions.jsonl": "28b01489d2dd9ac8ba42864f8d319146f167c8caee1030ee2a9b7269059e767c",
            "content.jsonl": "15b7a2844ee4c1cdaa463570927a4d2e92697a187fb476f4d19508b412b9574c",
            "agents.jsonl": "456de018b83316cfef6dede5699cc02b812a2b12b73cdd755a4d7c71917d37ab",
        },
        "RandomRecommendation": {
            "actions.jsonl": "c50238ecd88079913fd0fde49a6d05f2bbdacf41079e59fb4085d37a245b4cd5",
            "content.jsonl": "8bb1e811f9c961a9aa7131e354cab5b67683cae7ae5547ddd6b46112793ad4a5",
            "agents.jsonl": "456de018b83316cfef6dede5699cc02b812a2b12b73cdd755a4d7c71917d37ab",
        },
    }

    # Every agent's final STM, LTM and AM after the FullModel run, recorded
    # before STM entries carried their eviction key, with each LTM then
    # filtered to the agent's own ids, the only ones it now keeps. Stub
    # artifacts cannot see memory, so this is the stub path's one whole-run
    # memory check.
    MEMORY = "0a2b629202b75a06fd016c5a16d259a695200fc68c8e5c88f9f5528b34c01d57"

    @staticmethod
    def run(configuration):
        personas = make_personas(6)  # 42 agents
        cfg = config(configuration=configuration, iterations=6, master_seed=17)
        order = init_population(personas, cfg).agent_order()
        edges = [(a, order[(i + step) % len(order)])
                 for i, a in enumerate(order) for step in (1, 5, 11)]
        return run_simulation(cfg, personas, initial_world=init_population(
            personas, cfg, follow_edges=edges))

    @pytest.mark.parametrize("configuration", sorted(GOLDEN))
    def test_artifacts_match_recorded_digests(self, configuration, tmp_path):
        world = self.run(configuration)
        write_artifacts(world, tmp_path)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.GOLDEN[configuration]}
        assert digests == self.GOLDEN[configuration]

    def test_memories_match_recorded_digest(self):
        world = self.run("FullModel")
        digest = hashlib.sha256()
        for agent_id in world.agent_order():
            memory = world.agents[agent_id].memory
            digest.update(json.dumps([
                agent_id,
                sorted((e.content_id, e.reshares, e.likes, e.dislikes,
                        e.comments, e.score, e.last_touched)
                       for e in memory.stm.values()),
                sorted(memory.ltm.items()),
                [(it, kind.value, target)
                 for it, kind, target in memory.am.recent],
                sorted((kind.value, it)
                       for kind, it in memory.am.last_performed.items()),
            ]).encode() + b"\n")
        assert digest.hexdigest() == self.MEMORY

    def test_ltm_keeps_only_own_items(self):
        world = self.run("FullModel")
        ltms = {agent_id: world.agents[agent_id].memory.ltm
                for agent_id in world.agent_order()}
        assert any(ltms.values())
        for agent_id, ltm in ltms.items():
            assert ltm.keys() <= world.authored.get(agent_id, {}).keys()


class PromptHashBackend:
    """Answers each prompt as a pure function of its text, as the perfbench
    fake endpoint does, and keeps a running sha256 over every prompt's
    ``system_text + user_text()`` in call order."""

    WEIGHTS = {ActionKind.POST: 3, ActionKind.RESHARE: 2, ActionKind.LIKE: 3,
               ActionKind.DISLIKE: 1, ActionKind.COMMENT: 1,
               ActionKind.FOLLOW: 1, ActionKind.INACTIVE: 2}

    def __init__(self, seed):
        self.seed = seed
        self.prompts = hashlib.sha256()
        self.calls = 0

    def complete(self, prompt, rng):
        text = prompt.system_text + prompt.user_text()
        self.prompts.update(hashlib.sha256(text.encode()).digest())
        self.calls += 1
        rng = random.Random(hashlib.sha256(
            f"{self.seed}\0{prompt.system_text}\0{prompt.user_text()}".encode()
        ).hexdigest())
        feed = prompt.feed_section
        kinds = [k for k in prompt.actions_section
                 if feed or k is not ActionKind.FOLLOW]
        kind = rng.choices(kinds, weights=[self.WEIGHTS[k] for k in kinds])[0]
        content = ""
        if kind is ActionKind.POST:
            content = f"take {rng.randint(1, 999)}"
        elif kind is ActionKind.COMMENT:
            content = f"{rng.choice(feed).content_id}: agreed"
        elif kind is ActionKind.FOLLOW:
            content = rng.choice(feed).author
        elif kind is not ActionKind.INACTIVE:
            content = str(rng.choice(feed).content_id)
        return parse_response(
            f"CHOICE: {kind.value}\nREASON: hashed\nCONTENT: {content}")


class TestLLMPathGoldenDigests:
    """Prompt and artifact digests of a FullModel run with a follow graph
    whose backend reads every rendered prompt, recorded before authorship
    moved into ``WorldState.add_content``. The stub never reads the
    feedback or activity sections, so only a run like this one pins what
    the agents' memories hold: observing an agent's own content oldest
    first instead of newest first changes these digests."""

    PROMPTS = "ab38ab06f4fa96f075437bba6a4728c7985e39946090a323397d82538493bcfe"
    GOLDEN = {
        "actions.jsonl": "04e21b9139e253f1e8ff7c72adcf0f1b94cfad9a64f49d35cb62a4d90e719a34",
        "content.jsonl": "ca550bc06ca4de5733959f93c4e1c0f266dc69b1470678e74da63b5de8e302c4",
        "agents.jsonl": "ced45621fe62b858867da3f23729fe6e25038b1379e163fce6ea56fe26184142",
    }

    def test_prompts_and_artifacts_match_recorded_digests(self, tmp_path):
        backend, world = llm_path_run(MemoryParams())
        write_artifacts(world, tmp_path)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.GOLDEN}
        assert backend.calls == world.iteration * len(world.agents)
        assert backend.prompts.hexdigest() == self.PROMPTS
        assert digests == self.GOLDEN


class TestHashSeedIndependence:
    """The golden LLM-path run gives its recorded prompt and artifact digests
    under two string-hash seeds, so no set of strings orders anything an LLM
    backend reads or the log holds. The enums hash by identity, which the
    hash seed does not change; their safety rests on no output iterating a
    set of enums."""

    CODE = ("import sys; from test_engine import llm_path_run, write_artifacts; "
            "from traitsim.memory import MemoryParams; "
            "backend, world = llm_path_run(MemoryParams()); "
            "write_artifacts(world, sys.argv[1]); "
            "print(backend.prompts.hexdigest())")

    def test_recorded_digests_under_two_hash_seeds(self, tmp_path):
        path = os.pathsep.join([str(Path(traitsim.__file__).parents[1]),
                                str(Path(__file__).parent)])
        golden = TestLLMPathGoldenDigests
        for seed in ("0", "1"):
            run = subprocess.run(
                [sys.executable, "-c", self.CODE, str(tmp_path / seed)],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                capture_output=True, text=True, check=True, timeout=120)
            assert run.stdout == golden.PROMPTS + "\n"
            assert {name: hashlib.sha256(
                (tmp_path / seed / name).read_bytes()).hexdigest()
                for name in golden.GOLDEN} == golden.GOLDEN


def llm_path_run(memory: MemoryParams):
    """The golden LLM-path run (42 agents, 8 iterations, a follow graph,
    ``PromptHashBackend(seed=10)``) under ``memory``: (backend, world)."""
    personas = make_personas(6)  # 42 agents
    cfg = config(configuration="FullModel", iterations=8, memory=memory)
    order = init_population(personas, cfg).agent_order()
    edges = [(a, order[(i + step) % len(order)])
             for i, a in enumerate(order) for step in (1, 5, 11)]
    backend = PromptHashBackend(seed=10)
    world = run_simulation(cfg, personas, backend,
                           initial_world=init_population(
                               personas, cfg, follow_edges=edges))
    return backend, world


class TestMemoryKnobsReachThePrompt:
    """Each ``MemoryParams`` field, set away from its default, changes what
    an LLM backend reads in the golden LLM-path run: a knob that reaches no
    prompt is a dead option. A new field needs a value in ``KNOBS``."""

    KNOBS = {"stm_capacity": 3, "decay_horizon": 1, "eval_period": 2,
             "promotion_quantile": 0.9, "am_window": 2, "w_reshare": 7.0,
             "w_like": 3.0, "w_dislike": 5.0}

    @pytest.mark.parametrize(
        "knob", [f.name for f in dataclasses.fields(MemoryParams)])
    def test_knob_changes_the_prompt_digest(self, knob):
        value = self.KNOBS[knob]
        assert value != getattr(MemoryParams(), knob)
        backend, _ = llm_path_run(MemoryParams(**{knob: value}))
        assert (backend.prompts.hexdigest()
                != TestLLMPathGoldenDigests.PROMPTS)


def _eager_prompt_text(profile, memory, feed, iteration, authored):
    """``system_text + user_text()`` as ``build_prompt`` rendered every
    section when it built the prompt."""
    system_parts = [profile.identity_text]
    if profile.trait is not None:
        system_parts.append(profile.trait.prompt_text)
    feedback_lines = []
    for cid in sorted(memory.stm.keys() & authored):
        entry = memory.stm[cid]
        feedback_lines.append(
            f"Your content [{cid}]: {entry.reshares} re-shares, "
            f"{entry.likes} likes, {entry.dislikes} dislikes, "
            f"{entry.comments} comments.")
    for cid, score in sorted(memory.ltm.items()):
        if cid in authored and not memory.stm.get(cid):
            feedback_lines.append(
                f"Your content [{cid}] had lasting impact "
                f"(engagement score {score:g}).")
    lines = ["## Feedback on your content",
             "\n".join(feedback_lines) or "No feedback on your content yet.",
             "", "## Your recent activity", am_summary(memory.am, iteration),
             "", "## Recommended feed"]
    for e in feed:
        tag = " (re-share)" if e.is_reshare else ""
        lines.append(f"[{e.content_id}] by {e.author}{tag}: {e.text}")
    if not feed:
        lines.append("(no content available yet)")
    lines += ["", "## Available actions", ", ".join(
        k.value for k in permitted_actions(feed, iteration))]
    lines += [
        "",
        "Answer with exactly three lines:",
        "CHOICE: one of the available actions",
        "REASON: a short rationale",
        "CONTENT: post text for post; a feed content id for reshare/like/"
        "dislike; '<content id>: <your comment>' for comment; an agent id "
        "for follow; leave empty for inactive.",
    ]
    return "\n\n".join(system_parts) + "\n".join(lines)


class EagerCheckBackend(StubBackend):
    """Answers as the stub does. ``build`` renders each prompt eagerly from
    the arguments ``build_prompt`` got, when it got them; ``complete`` reads
    the lazy prompt's text twice and compares both readings with that."""

    def __init__(self):
        self.eager = None  # (prompt, eager text) of the decision under way
        self.texts = []

    def build(self, profile, memory, feed, iteration, authored=frozenset()):
        prompt = build_prompt(profile, memory, feed, iteration, authored)
        self.eager = (prompt, _eager_prompt_text(
            profile, memory, feed, iteration, authored))
        return prompt

    def complete(self, prompt, rng):
        built, eager = self.eager
        assert built is prompt
        text = prompt.system_text + prompt.user_text()
        assert text == eager
        assert prompt.system_text + prompt.user_text() == text
        self.texts.append(text)
        return super().complete(prompt, rng)


class TestLazyPrompt:
    """The prompt sections render when a backend reads them, from the same
    memory ``build_prompt`` saw: the text equals the eager rendering."""

    @pytest.mark.parametrize("configuration",
                             ("FullModel", "RandomRecommendation"))
    def test_lazy_text_equals_eager_text(self, configuration, monkeypatch):
        personas = make_personas(6)  # 42 agents
        cfg = config(configuration=configuration, iterations=12,
                     master_seed=17)
        order = init_population(personas, cfg).agent_order()
        edges = [(a, order[(i + step) % len(order)])
                 for i, a in enumerate(order) for step in (1, 5, 11)]
        backend = EagerCheckBackend()
        monkeypatch.setattr(engine, "build_prompt", backend.build)
        world = run_simulation(cfg, personas, backend,
                               initial_world=init_population(
                                   personas, cfg, follow_edges=edges))
        assert len(backend.texts) == cfg.iterations * len(world.agents)
        # The run reaches every kind of section line.
        for line in (" re-shares, ", "had lasting impact",
                     "No feedback on your content yet.", "iterations ago",
                     "(re-share)", "(no content available yet)"):
            assert any(line in text for text in backend.texts), line


class TestAgentRngCalls:
    """One generator per agent-iteration for the backend, and one more only
    where the random recommender draws from it."""

    @pytest.mark.parametrize("configuration", CONFIGURATIONS)
    def test_feed_stream_built_only_for_the_random_strategy(
            self, configuration, monkeypatch):
        streams, feed_rngs = [], []

        def spy_rng(master_seed, iteration, agent_index, stream):
            streams.append(stream)
            return agent_rng(master_seed, iteration, agent_index, stream)

        def spy_feed(agent, world, strategy, k, rng):
            feed_rngs.append(rng)
            return recommend_feed(agent, world, strategy, k, rng)

        monkeypatch.setattr(engine, "agent_rng", spy_rng)
        monkeypatch.setattr(engine, "recommend_feed", spy_feed)
        cfg = config(configuration=configuration, iterations=4)
        world = init_population(make_personas(3), cfg)
        for _ in range(cfg.iterations):
            run_iteration(world, cfg, StubBackend())
        decisions = cfg.iterations * len(world.agents)
        preference = cfg.recommender_strategy == "preference"
        assert len(streams) == (1 if preference else 2) * decisions
        assert streams.count(1) == decisions
        assert len(feed_rngs) == decisions
        assert all((rng is None) == preference for rng in feed_rngs)
