import math
import random
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from traitsim import analytics
from traitsim.analytics import (
    Chain,
    action_probability_vector,
    chain_length_table,
    cluster_agents,
    content_mix,
    mann_whitney_u,
    order_dynamics,
    per_topic_chain_stats,
    project_onto_centroids,
    silhouette_score,
    trace_chains,
)
from traitsim.core import (
    ActionDistribution,
    ActionKind,
    ActionRecord,
    ContentItem,
    ENGAGEMENT_KINDS,
    Order,
)


def rec(agent, kind, iteration=1, target=None, payload=None, order=Order.NA):
    return ActionRecord(iteration, agent, kind, target, payload, order)


# The category of each action kind, written out here and not taken from
# ``core.CATEGORY``, so that the reference below stays independent of it.
_REFERENCE_CATEGORIES = ("post", "reshare", "interact", "inactive")
_REFERENCE_CATEGORY = {
    ActionKind.POST: "post",
    ActionKind.RESHARE: "reshare",
    ActionKind.LIKE: "interact",
    ActionKind.DISLIKE: "interact",
    ActionKind.COMMENT: "interact",
    ActionKind.INACTIVE: "inactive",
}


def _reference_action_probability_vector(agent_id, log):
    """The per-agent scan the one-pass count replaced: one full pass over the
    log for one agent."""
    counts = dict.fromkeys(_REFERENCE_CATEGORIES, 0)
    for record in log:
        if record.agent != agent_id:
            continue
        category = _REFERENCE_CATEGORY.get(record.kind)
        if category is not None:
            counts[category] += 1
    total = sum(counts.values())
    if total == 0:
        raise ValueError(f"agent {agent_id!r} absent from log")
    return ActionDistribution(*(counts[c] / total
                                for c in _REFERENCE_CATEGORIES))


class TestActionProbabilityVector:
    def test_all_inactive(self):
        log = [rec("a", ActionKind.INACTIVE, it) for it in range(1, 26)]
        assert action_probability_vector(log)["a"].as_tuple() == (0, 0, 0, 1)

    def test_mixed_counts(self):
        log = ([rec("a", ActionKind.POST, payload="x")] * 13
               + [rec("a", ActionKind.RESHARE, target=1, order=Order.FIRST)] * 12)
        v = action_probability_vector(log)["a"]
        assert v.as_tuple() == pytest.approx((0.52, 0.48, 0.0, 0.0))

    def test_follow_is_excluded(self):
        log = [rec("a", ActionKind.POST, payload="x"),
               rec("a", ActionKind.FOLLOW, target="b")]
        assert action_probability_vector(log)["a"].p_post == 1.0

    def test_reactions_pool_into_interact(self):
        log = [rec("a", k, target=1, order=Order.FIRST)
               for k in (ActionKind.LIKE, ActionKind.DISLIKE, ActionKind.COMMENT)]
        log[-1].payload = "c"
        assert action_probability_vector(log)["a"].p_interact == 1.0

    def test_absent_agent_rejected(self):
        with pytest.raises(KeyError):
            action_probability_vector([])["ghost"]

    def test_follow_only_agent_has_no_vector(self):
        log = [rec("a", ActionKind.POST, payload="x"),
               rec("f", ActionKind.FOLLOW, target="a"),
               rec("f", ActionKind.FOLLOW, target="a", iteration=2)]
        assert sorted(action_probability_vector(log)) == ["a"]

    @given(st.lists(st.tuples(st.sampled_from("abcde"),
                              st.sampled_from(list(ActionKind))),
                    max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_one_pass_equals_per_agent_scan(self, choices):
        shape = {ActionKind.POST: dict(payload="x"),
                 ActionKind.FOLLOW: dict(target="b"),
                 ActionKind.INACTIVE: {}}
        log = [rec(agent, kind, **shape.get(kind, dict(
                   target=1, payload="c", order=Order.FIRST)))
               for agent, kind in choices]
        expected = {}
        for agent in sorted({agent for agent, _ in choices}):
            try:
                expected[agent] = _reference_action_probability_vector(agent,
                                                                       log)
            except ValueError:
                pass  # follow-only: no vector
        assert action_probability_vector(log) == expected


def corner_vectors(per_corner=5, jitter=0.02, seed=0):
    rng = np.random.default_rng(seed)
    corners = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    vectors = {}
    for ci, corner in enumerate(corners):
        for j in range(per_corner):
            noise = rng.uniform(0, jitter, 4)
            raw = np.clip(np.array(corner, dtype=float) + noise, 0, 1)
            raw /= raw.sum()
            vectors[f"c{ci}-{j}"] = ActionDistribution(*raw)
    return vectors


class TestClustering:
    def test_recovers_four_corners(self):
        vectors = corner_vectors()
        clustering = cluster_agents(vectors, 2, 6, seed=0)
        assert clustering.k == 4
        groups = {}
        for agent_id, label in clustering.assignments.items():
            groups.setdefault(agent_id.split("-")[0], set()).add(label)
        assert all(len(labels) == 1 for labels in groups.values())
        assert len(set().union(*groups.values())) == 4

    def test_inertia_curve_covers_the_range(self):
        clustering = cluster_agents(corner_vectors(), 2, 6, seed=0)
        assert sorted(clustering.inertia_curve) == [2, 3, 4, 5, 6]
        # inertia is non-increasing in k for the best restart
        curve = [clustering.inertia_curve[k] for k in (2, 3, 4, 5, 6)]
        assert all(a >= b - 1e-9 for a, b in zip(curve, curve[1:]))

    def test_identical_vectors_force_k1_with_warning(self):
        vectors = {f"a{i}": ActionDistribution(1, 0, 0, 0) for i in range(10)}
        with pytest.warns(UserWarning, match="identical"):
            clustering = cluster_agents(vectors, 2, 4, seed=0)
        assert clustering.k == 1
        assert clustering.inertia == 0.0

    def test_needs_enough_vectors(self):
        with pytest.raises(ValueError):
            cluster_agents(corner_vectors(per_corner=1), 2, 8, seed=0)

    def test_empty_k_range_rejected(self):
        with pytest.raises(ValueError, match="k_min"):
            cluster_agents(corner_vectors(), 5, 3, seed=0)

    @pytest.mark.parametrize("k_min", [0, -3])
    def test_k_min_below_one_rejected(self, k_min):
        with pytest.raises(ValueError, match=f"k_min must be >= 1, got {k_min}"):
            cluster_agents(corner_vectors(), k_min, 1, seed=0)

    def test_seeded_and_repeatable(self):
        vectors = corner_vectors(jitter=0.3, seed=5)
        a = cluster_agents(vectors, 2, 5, seed=3)
        b = cluster_agents(vectors, 2, 5, seed=3)
        assert a.assignments == b.assignments
        assert a.k == b.k

    def test_centroids_are_distributions(self):
        clustering = cluster_agents(corner_vectors(), 2, 6, seed=0)
        for c in clustering.centroids:
            assert abs(sum(c.as_tuple()) - 1.0) < 1e-9

    def test_memory_is_bounded_by_the_chunk(self):
        import tracemalloc

        n, k_min, k_max = 2000, 7, 8
        rows = np.random.default_rng(2).dirichlet(np.ones(4), n)
        vectors = {f"a{i:04d}": ActionDistribution(*row / row.sum())
                   for i, row in enumerate(rows)}
        scored = mock.Mock(wraps=analytics.silhouette_score)
        tracemalloc.start()
        try:
            with mock.patch.object(analytics, "silhouette_score", scored):
                cluster_agents(vectors, k_min, k_max, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * analytics.SILHOUETTE_CHUNK
        # one silhouette per k: perfbench counts these calls
        assert scored.call_count == k_max - k_min + 1


class TestSilhouette:
    def test_well_separated_near_one(self):
        X = np.array([[0, 0, 0, 0.0], [0, 0, 0, 0.01],
                      [1, 1, 1, 1.0], [1, 1, 1, 0.99]])
        labels = np.array([0, 0, 1, 1])
        assert silhouette_score(X, labels) > 0.95

    def test_single_cluster_scores_zero(self):
        X = np.random.default_rng(0).random((6, 4))
        assert silhouette_score(X, np.zeros(6, dtype=int)) == 0.0


def _reference_kmeans_once(X, k, rng, tol=1e-6, max_iter=300):
    """The k-means restart as first written: the k-means++ d2 recomputed
    over all centers, ``rng.choice`` for the seeds and one mask per cluster
    for the centroid means."""
    centers = [X[rng.integers(len(X))]]
    while len(centers) < k:
        d2 = np.min(((X[:, None, :] - np.array(centers)[None]) ** 2).sum(-1),
                    axis=1)
        total = d2.sum()
        if total == 0:
            centers.append(X[rng.integers(len(X))])
        else:
            centers.append(X[rng.choice(len(X), p=d2 / total)])
    C = np.array(centers)
    for _ in range(max_iter):
        labels = np.argmin(((X[:, None, :] - C[None]) ** 2).sum(-1), axis=1)
        new_C = np.array([
            X[labels == j].mean(axis=0) if np.any(labels == j) else C[j]
            for j in range(k)
        ])
        shift = np.abs(new_C - C).max()
        C = new_C
        if shift < tol:
            break
    labels = np.argmin(((X[:, None, :] - C[None]) ** 2).sum(-1), axis=1)
    inertia = float(((X - C[labels]) ** 2).sum())
    return C, labels, inertia


def _reference_silhouette_score(X, labels):
    """The silhouette as first written: a dense n x n distance matrix and
    fresh cluster masks for every point."""
    D = np.sqrt(((X[:, None, :] - X[None]) ** 2).sum(-1))
    present = sorted(set(labels.tolist()))
    if len(present) < 2:
        return 0.0
    scores = np.zeros(len(X))
    for i in range(len(X)):
        same = labels == labels[i]
        n_same = same.sum() - 1
        if n_same == 0:
            scores[i] = 0.0
            continue
        a = D[i, same].sum() / n_same
        b = min(D[i, labels == j].mean() for j in present if j != labels[i])
        scores[i] = (b - a) / max(a, b)
    return float(scores.mean())


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


_coordinate = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0)),
                        st.floats(0.0, 1.0))
_row = st.tuples(_coordinate, _coordinate, _coordinate, _coordinate)
# Coordinates from a small grid give duplicate rows and exact distance ties;
# all-identical rows give an all-zero k-means++ d2.
matrices = st.one_of(
    st.lists(_row, min_size=1, max_size=40).map(np.array),
    st.builds(lambda row, n: np.array([row] * n), _row, st.integers(1, 20)),
)
# 2-7 distinct rows whose coordinates differ by about 1e-200: every squared
# distance underflows to 0, so k-means++ meets an all-zero d2 at any k.
_tiny_row = st.tuples(*[st.sampled_from((0.0, 1e-200, 3e-200))] * 4)
near_duplicates = st.lists(_tiny_row, min_size=2, max_size=7,
                           unique=True).flatmap(
    lambda rows: st.lists(st.sampled_from(rows), max_size=30).map(
        lambda more: np.array(rows + more)))


class TestKMeansMatchesReference:
    @given(st.one_of(matrices, near_duplicates), st.integers(1, 8),
           st.integers(0, 2**32 - 1), st.sampled_from([1, 1 << 20]))
    @settings(max_examples=300, deadline=None)
    def test_same_centroids_labels_inertia_and_draws(self, X, k, seed, chunk):
        # a chunk of 1 entry puts every restart in a batch of its own
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        runs = [_reference_kmeans_once(X, k, rng_ref)
                for _ in range(analytics.KMEANS_RESTARTS)]
        with mock.patch.object(analytics, "SILHOUETTE_CHUNK", chunk):
            C, labels, inertia = analytics._kmeans(X, k, rng)
        assert len(C) == len(labels) == len(inertia) == len(runs)
        for r, (C_ref, labels_ref, inertia_ref) in enumerate(runs):
            assert C[r].shape == C_ref.shape and _bits(C[r]) == _bits(C_ref)
            assert labels[r].tolist() == labels_ref.tolist()
            assert _bits(inertia[r]) == _bits(inertia_ref)
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @given(st.lists(_row, min_size=8, max_size=60).map(np.array),
           st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_seeding_cdfs_are_the_single_restart_cdfs(self, X, k, seed):
        # A last-bit change in a d2 total almost never moves a draw, so the
        # test above cannot see one: compare each restart's CDF itself with
        # the one rng.choice(n, p=d2 / d2.sum()) builds.
        rng = np.random.default_rng(seed)
        first = rng.integers(len(X), size=5)
        cdfs = []

        def pick(j, cdf):
            if cdf is not None:
                cdfs.append(cdf.copy())
                return rng.integers(len(X), size=len(first))

        Xu, inv = analytics._distinct_rows(X)
        idx = analytics._kmeans_pp(X, Xu, inv, k, first, pick)
        assume(idx is not None)
        for j, cdf in enumerate(cdfs, start=1):
            for r, row in enumerate(cdf):
                d2 = np.min(((X[:, None, :] - X[idx[r, :j]][None]) ** 2)
                            .sum(-1), axis=1)
                expected = (d2 / d2.sum()).cumsum()
                expected /= expected[-1]
                assert _bits(row) == _bits(expected)


def _reference_cluster_agents(vectors, k_min, k_max, seed):
    """``cluster_agents`` as first written, for input that is not all
    identical: one reference restart at a time, the first of equal inertias
    kept, and the reference silhouette."""
    agent_ids = sorted(vectors)
    X = np.array([vectors[a].as_tuple() for a in agent_ids])
    rng = np.random.default_rng(seed)
    best, curve = None, {}
    for k in range(k_min, k_max + 1):
        run_best = None
        for _ in range(analytics.KMEANS_RESTARTS):
            run = _reference_kmeans_once(X, k, rng)
            if run_best is None or run[2] < run_best[2]:
                run_best = run
        C, labels, inertia = run_best
        curve[k] = inertia
        sil = _reference_silhouette_score(X, labels)
        if best is None or sil > best[0]:
            best = (sil, k, C, labels, inertia)
    sil, k, C, labels, inertia = best
    return (k, [analytics._centroid_distribution(c) for c in C],
            {a: int(l) for a, l in zip(agent_ids, labels)}, inertia, sil,
            curve)


# Action vectors as the log gives them: count ratios, so duplicate rows.
_count_vectors = st.lists(
    st.lists(st.integers(0, 4), min_size=4, max_size=4).filter(any),
    min_size=2, max_size=30).map(
    lambda rows: {f"a{i:02d}": ActionDistribution.from_counts(row)
                  for i, row in enumerate(rows)})


class TestClusterAgentsMatchesReference:
    @given(_count_vectors, st.data())
    @settings(max_examples=100, deadline=None)
    def test_same_clustering_bit_for_bit(self, vectors, data):
        X = np.array([v.as_tuple() for v in vectors.values()])
        assume(not np.allclose(X, X[0]))
        k_max = data.draw(st.integers(2, min(8, len(vectors))))
        k_min = data.draw(st.integers(1, k_max))
        seed = data.draw(st.integers(0, 2**32 - 1))
        got = cluster_agents(vectors, k_min, k_max, seed)
        k, centroids, assignments, inertia, sil, curve = (
            _reference_cluster_agents(vectors, k_min, k_max, seed))
        assert got.k == k
        assert [c.as_tuple() for c in got.centroids] == [
            c.as_tuple() for c in centroids]
        assert got.assignments == assignments
        assert _bits(got.inertia) == _bits(inertia)
        assert _bits(got.silhouette) == _bits(sil)
        assert list(got.inertia_curve) == list(curve)
        assert _bits(list(got.inertia_curve.values())) == _bits(
            list(curve.values()))


class TestSilhouetteMatchesReference:
    @given(matrices, st.data(), st.sampled_from([1, 7, 1 << 20]))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_in_any_chunking(self, X, data, chunk):
        # up to 40 points in clusters of one to all of them: singletons,
        # gaps in the label values, one-cluster labelings and clusters long
        # enough for numpy's pairwise summation all occur
        top = data.draw(st.integers(0, 5))
        labels = np.array(data.draw(st.lists(st.integers(0, top),
                                             min_size=len(X),
                                             max_size=len(X))))
        with np.errstate(invalid="ignore"):  # 0/0 where a == b == 0
            expected = _reference_silhouette_score(X, labels)
            with mock.patch.object(analytics, "SILHOUETTE_CHUNK", chunk):
                got = silhouette_score(X, labels)
        assert _bits(got) == _bits(expected)

    def test_memory_is_bounded_by_the_chunk(self):
        import tracemalloc

        n = 2000  # a dense n x n x 4 float tensor would be 128 MB
        X = np.random.default_rng(1).random((n, 4))
        labels = np.arange(n) % 3
        tracemalloc.start()
        try:
            silhouette_score(X, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * analytics.SILHOUETTE_CHUNK


class TestProjection:
    def test_nearest_centroid(self):
        centroids = [ActionDistribution(1, 0, 0, 0), ActionDistribution(0, 0, 0, 1)]
        vectors = {"a": ActionDistribution(0.9, 0.0, 0.0, 0.1),
                   "b": ActionDistribution(0.1, 0.0, 0.0, 0.9)}
        assert project_onto_centroids(vectors, centroids) == {"a": 0, "b": 1}

    def test_tie_goes_to_lowest_index(self):
        centroids = [ActionDistribution(1, 0, 0, 0), ActionDistribution(0, 0, 0, 1)]
        vectors = {"mid": ActionDistribution(0.5, 0.0, 0.0, 0.5)}
        assert project_onto_centroids(vectors, centroids) == {"mid": 0}

    def test_empty_centroids_rejected(self):
        with pytest.raises(ValueError):
            project_onto_centroids({}, [])


def original(cid, author, it=1, topic="Music"):
    return ContentItem(cid, author, it, "t", topic)


def reshare(cid, author, parent_item, it=2):
    return ContentItem(cid, author, it, parent_item.text, parent_item.topic,
                       parent=parent_item.content_id, root=parent_item.root)


def store(*items):
    return {item.content_id: item for item in items}


def brute_force_chains(content_store):
    """Independent oracle: enumerate every root-to-leaf re-share path by
    explicit recursion over the child adjacency."""
    children = {}
    for item in content_store.values():
        if item.parent is not None:
            children.setdefault(item.parent, []).append(item.content_id)

    paths = []

    def walk(cid, path):
        kids = children.get(cid, [])
        if not kids and len(path) > 1:
            paths.append(tuple(path))
        for kid in kids:
            walk(kid, path + [kid])

    for item in content_store.values():
        if item.parent is None:
            walk(item.content_id, [item.content_id])
    return sorted(paths)


def random_forest(rng, max_items=100):
    """Random content store: each item is an original or a re-share of a
    uniformly chosen earlier item."""
    n = rng.randint(1, max_items)
    items = {}
    for cid in range(1, n + 1):
        if cid > 1 and rng.random() < 0.6:
            parent = items[rng.randint(1, cid - 1)]
            items[cid] = reshare(cid, f"u{cid}", parent, it=cid)
        else:
            items[cid] = original(cid, f"u{cid}", it=cid)
    return items


class TestTraceChains:
    def test_single_hop(self):
        a = original(1, "A")
        chains = trace_chains(store(a, reshare(2, "B", a)))
        assert len(chains) == 1
        assert chains[0].length == 2
        assert chains[0].agents == ("A", "B")

    def test_two_hop_path(self):
        a = original(1, "A")
        b = reshare(2, "B", a)
        chains = trace_chains(store(a, b, reshare(3, "C", b, it=3)))
        assert len(chains) == 1
        assert chains[0].length == 3
        assert chains[0].agents == ("A", "B", "C")  # the root first

    def test_branching_yields_one_chain_per_leaf(self):
        a = original(1, "A")
        b = reshare(2, "B", a)
        chains = trace_chains(store(a, b, reshare(3, "C", b, it=3),
                                    reshare(4, "D", a, it=3)))
        assert sorted(c.length for c in chains) == [2, 3]
        assert len(chains) == 2

    def test_unreshared_original_emits_nothing(self):
        assert trace_chains(store(original(1, "A"))) == []

    def test_cycle_detected(self):
        a = ContentItem(1, "A", 1, "t", "Music", parent=2, root=1)
        b = ContentItem(2, "B", 1, "t", "Music", parent=1, root=1)
        leaf = ContentItem(3, "C", 2, "t", "Music", parent=2, root=1)
        with pytest.raises(RuntimeError, match="cycle"):
            trace_chains({1: a, 2: b, 3: leaf})

    def test_matches_brute_force_oracle(self):
        # authors in random_forest are u<content_id>, so the author path is
        # the content-id path
        rng = random.Random(7)
        for _ in range(50):
            content = random_forest(rng)
            got = sorted(tuple(int(author[1:]) for author in c.agents)
                         for c in trace_chains(content))
            assert got == brute_force_chains(content)


def _reference_order_dynamics(log):
    """``order_dynamics`` before it shared a per-iteration split with
    ``content_mix``."""
    first = {}
    second = {}
    max_iter = 0
    for record in log:
        max_iter = max(max_iter, record.iteration)
        if record.kind not in ENGAGEMENT_KINDS:
            continue
        if record.order is Order.FIRST:
            first[record.iteration] = first.get(record.iteration, 0) + 1
        else:
            second[record.iteration] = second.get(record.iteration, 0) + 1
    out = {}
    for it in range(1, max_iter + 1):
        f, s = first.get(it, 0), second.get(it, 0)
        if f + s == 0:
            out[it] = None
        else:
            out[it] = (100.0 * f / (f + s), 100.0 * s / (f + s))
    return out


def _reference_content_mix(log):
    """``content_mix`` before it shared a per-iteration split with
    ``order_dynamics``."""
    posts = {}
    reshares = {}
    max_iter = 0
    for record in log:
        max_iter = max(max_iter, record.iteration)
        if record.kind is ActionKind.POST:
            posts[record.iteration] = posts.get(record.iteration, 0) + 1
        elif record.kind is ActionKind.RESHARE:
            reshares[record.iteration] = reshares.get(record.iteration, 0) + 1
    out = {}
    cum_p = cum_r = 0
    for it in range(1, max_iter + 1):
        cum_p += posts.get(it, 0)
        cum_r += reshares.get(it, 0)
        total = cum_p + cum_r
        out[it] = None if total == 0 else (100.0 * cum_p / total,
                                           100.0 * cum_r / total)
    return out


class TestTemporalDynamics:
    def test_order_dynamics_percentages(self):
        log = [
            rec("a", ActionKind.LIKE, 2, target=1, order=Order.FIRST),
            rec("b", ActionKind.LIKE, 2, target=1, order=Order.FIRST),
            rec("c", ActionKind.RESHARE, 2, target=2, order=Order.SECOND),
            rec("a", ActionKind.POST, 3, payload="x"),
            rec("b", ActionKind.COMMENT, 4, target=2, payload="y",
                order=Order.SECOND),
        ]
        dynamics = order_dynamics(log)
        assert dynamics[2] == pytest.approx((200 / 3, 100 / 3))
        assert dynamics[3] is None
        assert dynamics[4] == (0.0, 100.0)

    def test_content_mix_is_cumulative(self):
        log = [
            rec("a", ActionKind.POST, 1, payload="x"),
            rec("b", ActionKind.POST, 1, payload="y"),
            rec("c", ActionKind.RESHARE, 2, target=1, order=Order.FIRST),
            rec("d", ActionKind.INACTIVE, 3),
        ]
        mix = content_mix(log)
        assert mix[1] == (100.0, 0.0)
        assert mix[2] == pytest.approx((200 / 3, 100 / 3))
        assert mix[3] == mix[2]  # nothing new created

    def test_empty_log(self):
        assert order_dynamics([]) == {}
        assert content_mix([]) == {}

    def test_a_log_out_of_iteration_order(self):
        """The highest iteration, not the last record's, ends the keys, and
        each record counts in its own iteration wherever it stands."""
        log = [rec("a", ActionKind.LIKE, 5, target=1, order=Order.FIRST),
               rec("b", ActionKind.POST, 2, payload="x"),
               rec("c", ActionKind.RESHARE, 7, target=1, order=Order.SECOND),
               rec("d", ActionKind.POST, 1, payload="y"),
               rec("e", ActionKind.COMMENT, 5, target=2, payload="z",
                   order=Order.SECOND),
               rec("f", ActionKind.INACTIVE, 3)]
        dynamics, mix = order_dynamics(log), content_mix(log)
        assert dynamics == _reference_order_dynamics(log)
        assert mix == _reference_content_mix(log)
        assert dynamics == {1: None, 2: None, 3: None, 4: None,
                            5: (50.0, 50.0), 6: None, 7: (0.0, 100.0)}
        assert mix == {**dict.fromkeys(range(1, 7), (100.0, 0.0)),
                       7: (200 / 3, 100 / 3)}
        ordered = sorted(log, key=lambda r: r.iteration)
        assert (order_dynamics(ordered), content_mix(ordered)) == (dynamics,
                                                                   mix)

    @given(st.lists(st.tuples(st.integers(1, 12),
                              st.sampled_from(list(ActionKind)),
                              st.sampled_from([Order.FIRST, Order.SECOND])),
                    max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_same_as_reference(self, choices):
        shape = {ActionKind.POST: dict(payload="x"),
                 ActionKind.FOLLOW: dict(target="b"),
                 ActionKind.INACTIVE: {}}
        log = [rec("a", kind, it, **shape.get(kind, dict(
                   target=1, payload="c", order=order)))
               for it, kind, order in choices]
        assert order_dynamics(log) == _reference_order_dynamics(log)
        assert content_mix(log) == _reference_content_mix(log)


class TestChainTables:
    def chains(self, lengths, topic="Music"):
        return [Chain(root=i, topic=topic,
                      agents=tuple(f"a{n}" for n in range(l)))
                for i, l in enumerate(lengths)]

    def test_counts_percentages_mean_max(self):
        table = chain_length_table(self.chains([2, 2, 3]))
        assert table.counts == {2: 2, 3: 1}
        assert table.percentages[2] == pytest.approx(200 / 3)
        assert table.mean == pytest.approx(7 / 3)
        assert table.max == 3
        assert table.total == 3

    def test_empty(self):
        table = chain_length_table([])
        assert (table.total, table.mean, table.max) == (0, 0.0, 0)

    def test_per_topic_stats(self):
        chains = (self.chains([2, 4], topic="Music")
                  + self.chains([3], topic="Religion"))
        stats = per_topic_chain_stats(chains)
        assert stats["Music"] == (3.0, pytest.approx(200 / 3))
        assert stats["Religion"] == (3.0, pytest.approx(100 / 3))

    @given(st.lists(st.integers(2, 12), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_percentages_sum_to_100(self, lengths):
        table = chain_length_table(self.chains(lengths))
        assert sum(table.percentages.values()) == pytest.approx(100.0)


def mw_oracle(sample_a, sample_b):
    """Independent Mann-Whitney oracle: U by direct pair counting, p by
    enumerating all assignments of the combined values to group A."""
    u_of = lambda a, b: sum(
        1.0 if x > y else 0.5 if x == y else 0.0 for x in a for y in b)
    u_a = u_of(sample_a, sample_b)
    combined = list(sample_a) + list(sample_b)
    n_a = len(sample_a)
    us = []
    for idx in combinations(range(len(combined)), n_a):
        group_a = [combined[i] for i in idx]
        group_b = [combined[i] for i in range(len(combined)) if i not in idx]
        us.append(u_of(group_a, group_b))
    le = sum(u <= u_a + 1e-12 for u in us) / len(us)
    ge = sum(u >= u_a - 1e-12 for u in us) / len(us)
    return u_a, min(1.0, 2.0 * min(le, ge))


def _reference_mann_whitney_u(sample_a, sample_b):
    """``mann_whitney_u`` before it ranked the combined sample once: every
    enumerated split ranks it again."""
    def u_statistic(combined, idx_a):
        ranks = analytics._rank(combined)
        n_a = len(idx_a)
        r_a = sum(ranks[i] for i in idx_a)
        return r_a - n_a * (n_a + 1) / 2

    n_a, n_b = len(sample_a), len(sample_b)
    combined = list(sample_a) + list(sample_b)
    u_a = u_statistic(combined, range(n_a))
    if n_a + n_b <= analytics.EXACT_LIMIT:
        le = ge = total = 0
        for idx in combinations(range(n_a + n_b), n_a):
            u = u_statistic(combined, idx)
            total += 1
            if u <= u_a + 1e-12:
                le += 1
            if u >= u_a - 1e-12:
                ge += 1
        return u_a, min(1.0, 2.0 * min(le / total, ge / total))
    n = n_a + n_b
    tie_counts = {}
    for v in combined:
        tie_counts[v] = tie_counts.get(v, 0) + 1
    tie_term = sum(t ** 3 - t for t in tie_counts.values())
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var == 0:
        return u_a, 1.0
    z = max((abs(u_a - n_a * n_b / 2.0) - 0.5) / math.sqrt(var), 0.0)
    return u_a, min(1.0, math.erfc(z / math.sqrt(2)))


class TestMannWhitney:
    def test_textbook_example(self):
        u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert u == 0.0
        assert p == pytest.approx(0.1)

    def test_symmetric_in_sample_order(self):
        a, b = [1.0, 5.0, 7.0], [2.0, 2.0, 9.0, 4.0]
        u_ab, p_ab = mann_whitney_u(a, b)
        u_ba, p_ba = mann_whitney_u(b, a)
        assert u_ab + u_ba == pytest.approx(len(a) * len(b))
        assert p_ab == pytest.approx(p_ba)

    def test_identical_samples(self):
        u, p = mann_whitney_u([3, 3, 3], [3, 3, 3])
        assert p == 1.0

    def test_matches_pair_counting_oracle(self):
        rng = random.Random(3)
        for _ in range(25):
            n_a = rng.randint(1, 5)
            n_b = rng.randint(1, 5)
            a = [rng.randint(0, 6) for _ in range(n_a)]
            b = [rng.randint(0, 6) for _ in range(n_b)]
            u, p = mann_whitney_u(a, b)
            u_expect, p_expect = mw_oracle(a, b)
            assert u == pytest.approx(u_expect)
            assert p == pytest.approx(p_expect)

    def test_large_sample_normal_approximation(self):
        rng = random.Random(4)
        a = [rng.gauss(0, 1) for _ in range(30)]
        b = [rng.gauss(2, 1) for _ in range(30)]
        u, p = mann_whitney_u(a, b)
        assert p < 0.001
        same = [1.0] * 15 + [2.0] * 15
        _, p_same = mann_whitney_u(same, list(same))
        assert p_same > 0.9

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_as_reference(self, data):
        # Exact enumeration up to 12 values (924 splits at most, so the
        # reference stays fast), and the normal approximation above 20.
        values = st.one_of(st.integers(0, 5),
                           st.floats(-1e3, 1e3, allow_nan=False))
        if data.draw(st.booleans()):  # exact
            n_a = data.draw(st.integers(1, 11))
            n_b = data.draw(st.integers(1, 12 - n_a))
        else:
            n_a = data.draw(st.integers(1, 30))
            n_b = data.draw(st.integers(max(1, 21 - n_a), 30))
        a = data.draw(st.lists(values, min_size=n_a, max_size=n_a))
        b = data.draw(st.lists(values, min_size=n_b, max_size=n_b))
        assert mann_whitney_u(a, b) == _reference_mann_whitney_u(a, b)
