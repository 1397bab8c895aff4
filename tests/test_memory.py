import math
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from traitsim.core import (ActionKind, ActionRecord, ContentItem,
                           ENGAGEMENT_KINDS, Order)
from traitsim.memory import (
    COMMENTS,
    CONTENT_ID,
    DISLIKES,
    LAST_TOUCHED,
    LIKES,
    RESHARES,
    SCORE,
    ActivityMemory,
    MemoryParams,
    MemoryUnit,
    am_record,
    am_summary,
    ltm_evaluate,
    stm_decay,
    stm_observe,
)


def make_item(cid, reshares=0, likes=0, dislikes=0, comments=()):
    return ContentItem(cid, f"author{cid}", 1, f"text {cid}", "Music",
                       reshares=reshares, likes=likes, dislikes=dislikes,
                       comments=len(comments))


def record(kind, now, target=None, payload=None):
    """Agent "a"'s record of a ``kind`` action in iteration ``now``."""
    order = Order.FIRST if kind in ENGAGEMENT_KINDS else Order.NA
    return ActionRecord(now, "a", kind, target, payload, order)


class TestMemoryParams:
    @pytest.mark.parametrize("key, value", [
        ("stm_capacity", -1), ("am_window", -1), ("eval_period", 0),
        ("decay_horizon", -2), ("promotion_quantile", 1.5),
        ("promotion_quantile", float("nan")), ("w_like", float("nan")),
        ("w_reshare", float("inf")), ("w_dislike", float("-inf")),
    ])
    def test_out_of_range_setting_is_named(self, key, value):
        with pytest.raises(ValueError) as err:
            MemoryParams(**{key: value})
        assert str(err.value).startswith(f"{key} must be ")
        assert str(err.value).endswith(f", got {value}")

    def test_edges_of_the_range_are_accepted(self):
        params = MemoryParams(stm_capacity=0, am_window=0, eval_period=1,
                              decay_horizon=0, promotion_quantile=1.0,
                              w_reshare=-2.0, w_like=0.0, w_dislike=1e300)
        assert params.decay_horizon == 0


def entry(cid, score=0.0, last_touched=0):
    """An STM entry as a test puts it into the buffer by hand: ``seq`` is the
    content id, so ids inserted in ascending order keep the buffer's
    entry order."""
    return (score, last_touched, cid, cid, 0, 0, 0, 0)


class TestEngagementScore:
    """The score is defined once, in ``stm_observe``."""

    def test_weighted_combination(self):
        memory = MemoryUnit()
        stm_observe(memory, make_item(1, reshares=3, likes=2, dislikes=1),
                    now=1)
        assert memory.stm[1][SCORE] == pytest.approx(2 * 3 + 2 - 1)

    def test_comments_do_not_enter_the_score(self):
        memory = MemoryUnit()
        stm_observe(memory, make_item(1, comments=["a", "b", "c", "d"]), now=1)
        assert memory.stm[1][COMMENTS] == 4
        assert memory.stm[1][SCORE] == 0.0
        memory = MemoryUnit()
        stm_observe(memory, make_item(1, likes=1, comments=["awful", "great"]),
                    now=1)
        assert memory.stm[1][COMMENTS] == 2
        assert memory.stm[1][SCORE] == 1.0

    def test_custom_weights(self):
        memory = MemoryUnit()
        params = MemoryParams(w_reshare=5.0, w_like=0.5, w_dislike=0.25)
        stm_observe(memory, make_item(1, reshares=1, likes=1, dislikes=2),
                    now=1, params=params)
        assert memory.stm[1][SCORE] == pytest.approx(5.0)


class TestShortTermMemory:
    def test_observe_inserts_snapshot(self):
        memory = MemoryUnit()
        stm_observe(memory, make_item(1, reshares=1, likes=2), now=3)
        entry = memory.stm[1]
        assert entry[LIKES] == 2
        assert entry[SCORE] == pytest.approx(2 * 1 + 2)
        assert entry[LAST_TOUCHED] == 3

    def test_score_is_fixed_when_observed(self):
        memory = MemoryUnit()
        item = make_item(1, likes=2)
        stm_observe(memory, item, now=1)
        item.likes = 7
        item.comments += 1
        assert memory.stm[1][SCORE] == 2.0

    def test_reobserve_refreshes_counters_and_recency(self):
        memory = MemoryUnit()
        item = make_item(1)
        stm_observe(memory, item, now=1)
        item.likes = 5
        stm_observe(memory, item, now=4)
        assert memory.stm[1][LIKES] == 5
        assert memory.stm[1][LAST_TOUCHED] == 4
        assert len(memory.stm) == 1

    def test_capacity_evicts_lowest_score(self):
        params = MemoryParams(stm_capacity=3)
        memory = MemoryUnit()
        for cid, likes in ((1, 5), (2, 1), (3, 9)):
            stm_observe(memory, make_item(cid, likes=likes), now=1, params=params)
        stm_observe(memory, make_item(4, likes=3), now=2, params=params)
        assert set(memory.stm) == {1, 3, 4}

    def test_eviction_tie_breaks_toward_older(self):
        params = MemoryParams(stm_capacity=2)
        memory = MemoryUnit()
        stm_observe(memory, make_item(1), now=1, params=params)
        stm_observe(memory, make_item(2), now=2, params=params)
        stm_observe(memory, make_item(3), now=3, params=params)
        assert set(memory.stm) == {2, 3}

    def test_decay_drops_entries_past_horizon(self):
        memory = MemoryUnit()
        for cid, touched in ((1, 1), (2, 4), (3, 5)):
            memory.stm[cid] = entry(cid, last_touched=touched)
        stm_decay(memory, now=8)
        assert set(memory.stm) == {3}

    def test_decay_keeps_everything_within_horizon(self):
        memory = MemoryUnit()
        memory.stm[1] = entry(1, last_touched=5)
        stm_decay(memory, now=8)
        assert set(memory.stm) == {1}

    def test_decay_on_empty_memory(self):
        stm_decay(MemoryUnit(), now=10)

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_capacity_invariant(self, likes_list):
        params = MemoryParams(stm_capacity=5)
        memory = MemoryUnit()
        for cid, likes in enumerate(likes_list):
            stm_observe(memory, make_item(cid, likes=likes), now=1, params=params)
        assert len(memory.stm) <= params.stm_capacity
        # a max-likes entry always survives eviction
        assert max(e[LIKES] for e in memory.stm.values()) == max(likes_list)

    def test_stored_score_decides_eviction_and_ltm(self):
        params = MemoryParams(stm_capacity=2)
        memory = MemoryUnit()
        items = {cid: make_item(cid, likes=likes, dislikes=dislikes)
                 for cid, likes, dislikes in ((1, 3, 1), (2, 1, 1), (3, 1, 0))}
        for cid, item in items.items():
            stm_observe(memory, item, now=cid, params=params)
        # with equal scores the oldest, 1, would go
        assert set(memory.stm) == {1, 3}
        assert (memory.stm[1][SCORE], memory.stm[3][SCORE]) == (2.0, 1.0)
        items[3].likes = 9  # after the observe: not in the score
        ltm_evaluate(memory, items, params=params)
        assert set(memory.ltm) == {1}
        assert memory.ltm[1] == 2.0


class TestLongTermMemory:
    def test_promotes_top_quantile(self):
        memory = MemoryUnit()
        for cid in range(10):
            memory.stm[cid] = entry(cid, score=float(cid))
        ltm_evaluate(memory, range(10))
        assert set(memory.ltm) == {9}
        assert memory.ltm[9] == pytest.approx(9.0)

    def test_at_least_one_promoted(self):
        memory = MemoryUnit()
        memory.stm[1] = entry(1)
        ltm_evaluate(memory, {1})
        assert set(memory.ltm) == {1}

    def test_cutoff_ties_all_promoted(self):
        memory = MemoryUnit()
        for cid in range(10):
            memory.stm[cid] = entry(cid, score=7.0)
        ltm_evaluate(memory, range(10))
        assert set(memory.ltm) == set(range(10))

    def test_empty_stm_is_a_noop(self):
        memory = MemoryUnit()
        ltm_evaluate(memory, {1})
        assert not memory.ltm

    def test_never_evicts_and_updates_scores(self):
        memory = MemoryUnit()
        memory.stm[1] = entry(1, score=3.0)
        ltm_evaluate(memory, {1, 2})
        del memory.stm[1]
        memory.stm[2] = entry(2, score=8.0)
        memory.stm[1] = entry(1, score=9.0)
        ltm_evaluate(memory, {1, 2})
        assert 1 in memory.ltm and memory.ltm[1] == 9.0

    def test_a_foreign_entry_counts_toward_the_cutoff_but_is_not_kept(self):
        memory = MemoryUnit()
        for cid in range(10):
            memory.stm[cid] = entry(cid, score=float(cid))
        ltm_evaluate(memory, {8})
        assert not memory.ltm  # 9 alone is in the top tenth, and not own
        ltm_evaluate(memory, {8, 9})
        assert memory.ltm == {9: 9.0}

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=40), st.data())
    @settings(max_examples=50, deadline=None)
    def test_ltm_is_the_all_own_ltm_restricted_to_own(self, likes_list, data):
        own = data.draw(st.sets(st.sampled_from(range(len(likes_list)))))
        every, mine = MemoryUnit(), MemoryUnit()
        for cid, likes in enumerate(likes_list):
            every.stm[cid] = mine.stm[cid] = entry(cid, score=float(likes))
        ltm_evaluate(every, range(len(likes_list)))
        ltm_evaluate(mine, own)
        assert mine.ltm == {cid: score for cid, score in every.ltm.items()
                            if cid in own}

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_promoted_scores_dominate_the_rest(self, likes_list):
        memory = MemoryUnit()
        for cid, likes in enumerate(likes_list):
            memory.stm[cid] = entry(cid, score=float(likes))
        ltm_evaluate(memory, range(len(likes_list)))
        promoted = {likes_list[cid] for cid in memory.ltm}
        rest = [likes_list[cid] for cid in memory.stm if cid not in memory.ltm]
        assert memory.ltm
        assert not rest or min(promoted) > max(rest)


class TestActivityMemory:
    def test_record_stamps_last_performed(self):
        am = ActivityMemory()
        am_record(am, record(ActionKind.POST, 3, payload="x"))
        assert am.last_performed[ActionKind.POST] == 3
        assert list(am.recent) == [(3, ActionKind.POST, None)]

    def test_window_is_fifo(self):
        params = MemoryParams(am_window=3)
        am = ActivityMemory()
        for it in range(1, 6):
            am_record(am, record(ActionKind.INACTIVE, it), params=params)
        assert [it for it, _, _ in am.recent] == [3, 4, 5]

    def test_summary_empty(self):
        assert am_summary(ActivityMemory(), now=1) == "No recent activity recorded."

    def test_summary_mentions_gaps_and_never(self):
        am = ActivityMemory()
        am_record(am, record(ActionKind.POST, 2, payload="x"))
        text = am_summary(am, now=7)
        assert "posted 5 iterations ago" in text
        assert "never re-shared" in text

    def test_summary_deterministic(self):
        am = ActivityMemory()
        am_record(am, record(ActionKind.LIKE, 1, target=4))
        am_record(am, record(ActionKind.INACTIVE, 2))
        assert am_summary(am, now=3) == am_summary(am, now=3)


class ReferenceMemory:
    """STM, LTM and AM as the code stated them before entries led with their
    eviction key: the STM dict keeps insertion order (a refresh keeps an
    id's slot), eviction takes the first entry with the least (score, last
    touched) in that order, decay is a full pass and promotion a sort that
    stores only the ids in ``own``."""

    def __init__(self):
        # id -> (reshares, likes, dislikes, comments, score, last touched)
        self.stm = {}
        self.ltm, self.recent, self.last = {}, deque(), {}

    def observe(self, item, now, p):
        self.stm[item.content_id] = (
            item.reshares, item.likes, item.dislikes, item.comments,
            p.w_reshare * item.reshares + p.w_like * item.likes
            - p.w_dislike * item.dislikes, now)
        while len(self.stm) > p.stm_capacity:
            del self.stm[min(self.stm, key=lambda cid: self.stm[cid][4:])]

    def decay(self, now, p):
        for cid in [cid for cid, e in self.stm.items()
                    if now - e[5] > p.decay_horizon]:
            del self.stm[cid]

    def evaluate(self, own, p):
        ranked = sorted(self.stm.items(), key=lambda kv: kv[1][4],
                        reverse=True)
        if ranked:
            take = max(1, math.ceil(p.promotion_quantile * len(ranked)))
            for cid, e in ranked:
                if e[4] < ranked[take - 1][1][4]:
                    break
                if cid in own:
                    self.ltm[cid] = e[4]

    def record(self, action, now, p):
        self.recent.append((now, action.kind, action.target))
        while len(self.recent) > p.am_window:
            self.recent.popleft()
        self.last[action.kind] = now


WEIGHTS = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
# (operation, id, reshares, likes, dislikes, comments). Most operations
# observe one of a few ids with small counters, so refreshes and equal
# scores, where the eviction tie rule decides, are common. A tick advances
# the time by 1 + reshares; a record logs action kind number id + comments.
OPERATIONS = st.lists(st.tuples(
    st.sampled_from(("observe",) * 6 + ("tick", "decay", "evaluate", "record")),
    st.integers(0, 4), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
    st.integers(0, 2)), min_size=10, max_size=120)
OBSERVED = range(5)  # every id an operation observes counts as own


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(params=st.builds(
        MemoryParams, stm_capacity=st.integers(0, 4),
        decay_horizon=st.integers(0, 4), am_window=st.integers(0, 4),
        promotion_quantile=st.floats(0, 1), w_reshare=WEIGHTS,
        w_like=WEIGHTS, w_dislike=WEIGHTS), operations=OPERATIONS)
    # 1 entered before 2 and keeps that place when refreshed, so 3 evicts it
    @example(params=MemoryParams(stm_capacity=2), operations=[
        ("observe", cid, 0, 0, 0, 0) for cid in (1, 2, 1, 3)])
    def test_every_operation_leaves_the_reference_state(self, params,
                                                        operations):
        memory, ref, now = MemoryUnit(), ReferenceMemory(), 1
        for op, cid, reshares, likes, dislikes, comments in operations:
            if op == "observe":
                item = make_item(cid, reshares, likes, dislikes,
                                 ["c"] * comments)
                stm_observe(memory, item, now, params)
                ref.observe(item, now, params)
            elif op == "tick":
                now += 1 + reshares
            elif op == "decay":
                stm_decay(memory, now, params)
                ref.decay(now, params)
            elif op == "evaluate":
                ltm_evaluate(memory, OBSERVED, params)
                ref.evaluate(OBSERVED, params)
            else:
                action = record(list(ActionKind)[cid + comments], now)
                am_record(memory.am, action, params)
                ref.record(action, now, params)
            assert {cid: (e[RESHARES], e[LIKES], e[DISLIKES], e[COMMENTS],
                          e[SCORE], e[LAST_TOUCHED])
                    for cid, e in memory.stm.items()} == ref.stm
            assert all(cid == e[CONTENT_ID] for cid, e in memory.stm.items())
            touched = [e[LAST_TOUCHED] for e in memory.stm.values()]
            assert touched == sorted(touched)  # the dict is in touch order
            assert memory.ltm == ref.ltm
            assert list(memory.am.recent) == list(ref.recent)
            assert memory.am.last_performed == ref.last
