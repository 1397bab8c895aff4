"""Post-hoc analysis over action logs and content stores.

Covers behavioral action-probability vectors (counted for all agents in one
pass over the log) and their k-means clustering, propagation chain tracing
(one chain per root-to-leaf re-share path),
first/second-order temporal dynamics, chain length and per-topic statistics,
and a Mann-Whitney U test (exact enumeration for small samples, tie-corrected
normal approximation otherwise).

The clustering is bit-reproducible for a seed: it equals running one
k-means++ restart at a time, ``KMEANS_RESTARTS`` per k, and scoring each k's
best restart with a dense silhouette. It computes differently. All restarts
of a k run as one array computation; their draws are taken first, in the
order the single restarts take them (per restart one ``rng.integers(n)``,
then ``k - 1`` ``rng.random()``), and a k in which some restart's k-means++
d2 sums to 0 is seeded again one restart at a time from the generator state
before that k. Distances are computed only from the distinct rows (action
vectors are count ratios, so agents share them) and expanded to every row;
sums that reach the output still run over every row in index order. Restart
batches and silhouette row chunks each hold about ``SILHOUETTE_CHUNK``
distance entries, so memory stays linear in the number of agents.

Only the clustering uses numpy, and its functions import it where they run:
``cli`` imports this module for every command, and a ``simulate`` then loads
no numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from .core import (ActionDistribution, ActionKind, CATEGORIES, CATEGORY,
                   ENGAGEMENT_KINDS)


def action_probability_vector(log) -> dict:
    """Per-agent category frequencies over each agent's non-follow choices,
    counted in one pass over the log: ``{agent_id: ActionDistribution}``.

    An agent whose every record is a FOLLOW has no behavioral vector and is
    left out.
    """
    counts = {}
    for record in log:
        try:
            i = CATEGORY[record.kind]
        except KeyError:
            continue  # a follow has no column
        row = counts.get(record.agent)
        if row is None:
            row = counts[record.agent] = [0] * len(CATEGORIES)
        row[i] += 1
    return {agent_id: ActionDistribution.from_counts(row)
            for agent_id, row in counts.items()}


# ---------------------------------------------------------------------------
# Clustering


@dataclass
class Clustering:
    k: int
    centroids: list  # of ActionDistribution
    assignments: dict  # agent_id -> cluster index
    inertia: float
    silhouette: float
    inertia_curve: dict = field(default_factory=dict)  # k -> inertia


def _sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of A and of B, shape
    (len(A), len(B)).

    The squares are summed coordinate by coordinate, in order, which is the
    order ``((A[:, None] - B[None]) ** 2).sum(-1)`` sums them in, so the
    results are bit-identical to that expression (and, as a square does not
    see the sign of the difference, to its transpose with A and B swapped)
    without its (len(A), len(B), dims) temporary.
    """
    import numpy as np

    out = np.zeros((len(A), len(B)))
    for a, b in zip(A.T, B.T):
        d = np.subtract.outer(a, b)
        d *= d
        out += d
    return out


SILHOUETTE_CHUNK = 1 << 20  # distance entries held in memory at once
KMEANS_RESTARTS = 50  # seeded k-means runs per k; the lowest inertia wins


def _distinct_rows(X: np.ndarray):
    """The distinct rows of X and, for each row of X, the index of its
    distinct row."""
    import numpy as np

    Xu, inv = np.unique(X, axis=0, return_inverse=True)
    return Xu, inv.reshape(-1)


def _kmeans_pp(X: np.ndarray, Xu: np.ndarray, inv: np.ndarray, k: int,
               first, pick):
    """k-means++ seeds of ``len(first)`` restarts at once, as row indices of
    X, shape (restarts, k); ``first`` holds each restart's first index.

    Each step updates every restart's d2 (its squared distance to the
    nearest center so far) on the distinct rows, expands it to all rows and
    sums it per restart in index order. ``pick(j, cdf)`` returns the j-th
    indices from the (restarts, n) CDFs, or is given ``cdf=None`` when some
    restart's d2 sums to 0; seeding stops with None if it returns None.
    """
    import numpy as np

    idx = np.empty((len(first), k), dtype=np.intp)
    idx[:, 0] = first
    d2u = np.full((len(first), len(Xu)), np.inf)
    for j in range(1, k):
        d2u = np.minimum(d2u, _sq_distances(X[idx[:, j - 1]], Xu))
        # take() keeps d2 C-ordered (``d2u[:, inv]`` would not), so that
        # each row is summed pairwise as a 1-D array is
        d2 = d2u.take(inv, axis=1)
        total = d2.sum(axis=1)
        cdf = None
        if total.all():
            # numpy's own algorithm for rng.choice(n, p=d2 / total)
            cdf = (d2 / total[:, None]).cumsum(axis=1)
            cdf /= cdf[:, -1:]
        picked = pick(j, cdf)
        if picked is None:
            return None
        idx[:, j] = picked
    return idx


def _nearest(C: np.ndarray, Xu: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Each row's nearest center (lowest index on ties) for each restart's
    (k, dims) centers, shape (restarts, n)."""
    R, k, dims = C.shape
    d = _sq_distances(C.reshape(R * k, dims), Xu).reshape(R, k, len(Xu))
    return d.argmin(axis=1).take(inv, axis=1)


def _lloyd(X: np.ndarray, Xu: np.ndarray, inv: np.ndarray, C: np.ndarray,
           tol: float = 1e-6, max_iter: int = 300):
    """Lloyd iterations from each restart's (k, dims) seeds in C; a restart
    stops once no center moves by ``tol`` or more. Returns centers, labels
    and inertia per restart."""
    import numpy as np

    R, k, dims = C.shape
    n = len(X)
    columns = [np.tile(X[:, d], R) for d in range(dims)]
    active = np.arange(R)
    for _ in range(max_iter):
        A = len(active)
        cluster = (_nearest(C[active], Xu, inv)
                   + np.arange(A)[:, None] * k).ravel()
        counts = np.bincount(cluster, minlength=A * k).reshape(A, k, 1)
        # per coordinate, one bincount over the (restart, cluster) bins; it
        # adds each bin's rows in index order, as mean() does
        sums = np.stack([np.bincount(cluster, weights=column[:A * n],
                                     minlength=A * k) for column in columns],
                        axis=1).reshape(A, k, dims)
        old = C[active]
        new = np.where(counts > 0, sums / np.maximum(counts, 1), old)
        shift = np.abs(new - old).max(axis=(1, 2))
        C[active] = new
        active = active[~(shift < tol)]
        if not len(active):
            break
    labels = _nearest(C, Xu, inv)
    residuals = X - C[np.arange(R)[:, None], labels]
    residuals *= residuals
    return C, labels, residuals.reshape(R, n * dims).sum(axis=1)


def _kmeans(X: np.ndarray, k: int, rng: np.random.Generator):
    """``KMEANS_RESTARTS`` seeded k-means runs of one k, bit-identical to
    that many single k-means++ restarts run one after another on ``rng``
    (the module docstring gives the draw order and the fallback): centers
    (restarts, k, dims), labels (restarts, n) and inertia (restarts,)."""
    import numpy as np

    n, dims = X.shape
    Xu, inv = _distinct_rows(X)
    state = rng.bit_generator.state
    first, u = zip(*[(rng.integers(n), rng.random(k - 1))
                     for _ in range(KMEANS_RESTARTS)])
    first, u = np.array(first), np.array(u)
    batch = max(1, SILHOUETTE_CHUNK // (n * max(k, dims)))
    batches = [slice(b, b + batch) for b in range(0, KMEANS_RESTARTS, batch)]
    seeds = []
    for rows in batches:
        seeds.append(_kmeans_pp(
            X, Xu, inv, k, first[rows], lambda j, cdf: None if cdf is None
            else (cdf <= u[rows, j - 1, None]).sum(axis=1)))
        if seeds[-1] is None:
            rng.bit_generator.state = state
            seeds = [_kmeans_pp(X, Xu, inv, k, [rng.integers(n)],
                                lambda j, cdf: rng.integers(n) if cdf is None
                                else (cdf <= rng.random()).sum())
                     for _ in range(KMEANS_RESTARTS)]
            break
    seeds = np.concatenate(seeds)
    runs = [_lloyd(X, Xu, inv, X[seeds[rows]]) for rows in batches]
    return tuple(np.concatenate(part) for part in zip(*runs))


def silhouette_score(X: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over all points (0 for singleton-cluster points).

    Distances are computed from the distinct rows of X only, to every point,
    one chunk of about ``SILHOUETTE_CHUNK`` entries at a time, so memory is
    O(n + chunk) and not O(n^2), and time O(distinct x n). The columns are
    ordered by cluster, so a row's distances to one cluster are one
    contiguous slice, summed for the whole chunk by one row-wise ``sum`` in
    index order: the score is bit-identical to summing ``D[i, labels == j]``
    for every point i.
    """
    import numpy as np

    present, position = np.unique(labels, return_inverse=True)
    if len(present) < 2:
        return 0.0
    order = np.argsort(labels, kind="stable")
    by_cluster = X[order]
    ends = np.searchsorted(labels[order], present, side="right")
    bounds = list(zip([0, *ends[:-1].tolist()], ends.tolist()))
    sizes = np.diff(ends, prepend=0)
    Xu, inv = _distinct_rows(X)
    sums = np.empty((len(Xu), len(present)))
    step = max(1, SILHOUETTE_CHUNK // len(X))
    for first in range(0, len(Xu), step):
        D = _sq_distances(Xu[first:first + step], by_cluster)
        np.sqrt(D, out=D)
        for j, (start, end) in enumerate(bounds):
            sums[first:first + step, j] = D[:, start:end].sum(axis=1)
    sums = sums[inv]
    points = np.arange(len(X))
    n_same = sizes[position] - 1
    a = sums[points, position] / np.maximum(n_same, 1)
    means = sums / sizes
    means[points, position] = np.inf
    b = means.min(axis=1)
    scores = np.zeros(len(X))
    live = n_same > 0  # a singleton's score is 0
    scores[live] = (b - a)[live] / np.maximum(a, b)[live]
    return float(scores.mean())


def cluster_agents(vectors: dict, k_min: int, k_max: int,
                   seed: int) -> Clustering:
    """Seeded k-means (k-means++ init, ``KMEANS_RESTARTS`` restarts) for
    each k in range; the k maximizing the silhouette wins; the inertia curve
    is kept for elbow inspection. Degenerate all-identical input forces k=1
    with a warning.

    Each k's restarts run together (``_kmeans``), in batches of about
    ``SILHOUETTE_CHUNK`` distance entries, with distances from the distinct
    vectors only; the result is bit-identical to running them one at a time
    (see the module docstring for the draw order and the fallback when a
    k-means++ d2 sums to 0). The restart of lowest inertia, the first of
    equal ones, is scored by one ``silhouette_score`` call per k."""
    import numpy as np

    if k_min < 1:
        raise ValueError(f"k_min must be >= 1, got {k_min}")
    if k_min > k_max:
        raise ValueError(f"empty k range: k_min={k_min} > k_max={k_max}")
    agent_ids = sorted(vectors)
    if len(agent_ids) < k_max:
        raise ValueError("need at least k_max vectors")
    X = np.array([vectors[a].as_tuple() for a in agent_ids])

    if np.allclose(X, X[0]):
        warnings.warn("all vectors identical; forcing k=1")
        centroid = ActionDistribution(*np.clip(X[0], 0, 1))
        return Clustering(1, [centroid], {a: 0 for a in agent_ids}, 0.0, 0.0,
                          {1: 0.0})

    rng = np.random.default_rng(seed)
    best = None
    curve = {}
    for k in range(k_min, k_max + 1):
        C, labels, inertia = _kmeans(X, k, rng)
        run = int(np.argmin(inertia))  # the first of equal inertias
        C, labels, inertia = C[run], labels[run], float(inertia[run])
        curve[k] = inertia
        sil = silhouette_score(X, labels)
        if best is None or sil > best[0]:
            best = (sil, k, C, labels, inertia)
    sil, k, C, labels, inertia = best
    centroids = [_centroid_distribution(c) for c in C]
    assignments = {a: int(l) for a, l in zip(agent_ids, labels)}
    return Clustering(k, centroids, assignments, inertia, sil, curve)


def _centroid_distribution(center: np.ndarray) -> ActionDistribution:
    import numpy as np

    c = np.clip(center, 0.0, 1.0)
    total = c.sum()
    c = c / total if total > 0 else np.array([0.0, 0.0, 0.0, 1.0])
    return ActionDistribution(*c)


def project_onto_centroids(vectors: dict, centroids: Sequence[ActionDistribution]) -> dict:
    """Nearest-centroid (Euclidean) assignment; ties go to the lowest index."""
    import numpy as np

    if not centroids:
        raise ValueError("empty centroid list")
    C = np.array([c.as_tuple() for c in centroids])
    assignments = {}
    for agent_id, vec in vectors.items():
        d = ((C - np.array(vec.as_tuple())) ** 2).sum(axis=1)
        assignments[agent_id] = int(np.argmin(d))  # argmin takes lowest index on ties
    return assignments


# ---------------------------------------------------------------------------
# Propagation chains


@dataclass
class Chain:
    root: int
    topic: Optional[str]
    agents: tuple  # the authors along the path, root first

    @property
    def length(self) -> int:
        return len(self.agents)


def trace_chains(content_store: dict) -> list:
    """Emit one chain per root-to-leaf re-share path.

    Leaves are re-shares with no child re-share; originals that were never
    re-shared emit nothing. Length counts the posting plus re-sharing events
    on the path, so every chain has length >= 2.
    """
    children = {}
    for item in content_store.values():
        if item.parent is not None:
            children.setdefault(item.parent, []).append(item.content_id)

    chains = []
    for item in content_store.values():
        if item.parent is None or item.content_id in children:
            continue  # not a leaf re-share
        path = []
        node = item
        seen = set()
        while node is not None:
            if node.content_id in seen:
                raise RuntimeError(f"cycle detected at content {node.content_id}")
            seen.add(node.content_id)
            path.append(node)
            node = content_store[node.parent] if node.parent is not None else None
        root = path[-1]
        chains.append(Chain(root.content_id, root.topic,
                            tuple(it.author for it in reversed(path))))
    chains.sort(key=lambda c: (c.root, c.agents))
    return chains


def _percentages(counts: dict, max_iter: int, cumulative: bool) -> dict:
    """Per-iteration (pct side 0, pct side 1) of ``counts``, iteration ->
    [records on side 0, on side 1], counted in each iteration alone or, if
    ``cumulative``, in it and every earlier one. Iterations 1 ...
    ``max_iter``, the highest in the log, are keyed; those with nothing
    counted map to None. Its callers count in one loop over the log that
    reads the record's fields and the running highest iteration inline,
    calling no Python function per record, in any order of the log."""
    out = {}
    a = b = 0
    for it in range(1, max_iter + 1):
        n_a, n_b = counts.get(it, (0, 0))
        a, b = (a + n_a, b + n_b) if cumulative else (n_a, n_b)
        total = a + b
        out[it] = None if total == 0 else (100.0 * a / total,
                                           100.0 * b / total)
    return out


_CREATION_SIDE = {ActionKind.POST: 0, ActionKind.RESHARE: 1}


def order_dynamics(log, content_store: dict) -> dict:
    """Per-iteration (pct first-order, pct second-order) over engagements;
    iterations with no engagements map to None. An engagement is
    first-order iff its target in ``content_store`` is an original."""
    counts = {}
    max_iter = 0
    for record in log:
        it = record.iteration
        if it > max_iter:
            max_iter = it
        if record.kind in ENGAGEMENT_KINDS:
            # side 1 (True) iff the target is a re-share
            counts.setdefault(it, [0, 0])[
                content_store[record.target].parent is not None] += 1
    return _percentages(counts, max_iter, cumulative=False)


def content_mix(log) -> dict:
    """Per-iteration cumulative (pct original, pct re-shared) creations."""
    counts = {}
    max_iter = 0
    for record in log:
        it = record.iteration
        if it > max_iter:
            max_iter = it
        i = _CREATION_SIDE.get(record.kind)
        if i is not None:
            counts.setdefault(it, [0, 0])[i] += 1
    return _percentages(counts, max_iter, cumulative=True)


@dataclass
class ChainLengthTable:
    counts: dict  # length -> count
    percentages: dict  # length -> pct
    mean: float
    max: int
    total: int


def chain_length_table(chains: Sequence[Chain]) -> ChainLengthTable:
    counts = {}
    for chain in chains:
        counts[chain.length] = counts.get(chain.length, 0) + 1
    total = sum(counts.values())
    if total == 0:
        return ChainLengthTable({}, {}, 0.0, 0, 0)
    percentages = {l: 100.0 * c / total for l, c in counts.items()}
    mean = sum(l * c for l, c in counts.items()) / total
    return ChainLengthTable(counts, percentages, mean, max(counts), total)


def per_topic_chain_stats(chains: Sequence[Chain]) -> dict:
    """topic -> (mean chain length, percentage share of all chains)."""
    by_topic = {}
    for chain in chains:
        by_topic.setdefault(chain.topic, []).append(chain.length)
    total = sum(len(v) for v in by_topic.values())
    return {
        topic: (sum(lengths) / len(lengths), 100.0 * len(lengths) / total)
        for topic, lengths in by_topic.items()
    }


# ---------------------------------------------------------------------------
# Mann-Whitney U

EXACT_LIMIT = 20  # combined size above which the normal approximation is used


def _rank(values: Sequence[float]) -> list:
    """Fractional ranks (ties get the mean rank)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for idx in order[i:j + 1]:
            ranks[idx] = mean_rank
        i = j + 1
    return ranks


def _u_statistic(ranks: Sequence[float], idx_a: Sequence[int]) -> float:
    """U of the sample at positions ``idx_a`` of the ranked combined sample."""
    n_a = len(idx_a)
    r_a = sum(ranks[i] for i in idx_a)
    return r_a - n_a * (n_a + 1) / 2


def mann_whitney_u(sample_a: Sequence[float], sample_b: Sequence[float]):
    """Two-sided Mann-Whitney U; returns (U of sample_a, p).

    Exact rank-split enumeration when n_a + n_b <= 20, tie-corrected normal
    approximation (with continuity correction) otherwise.
    """
    if not sample_a or not sample_b:
        raise ValueError("both samples must be non-empty")
    n_a, n_b = len(sample_a), len(sample_b)
    combined = list(sample_a) + list(sample_b)
    ranks = _rank(combined)
    u_a = _u_statistic(ranks, range(n_a))

    if n_a + n_b <= EXACT_LIMIT:
        n = n_a + n_b
        le = ge = total = 0
        for idx in combinations(range(n), n_a):
            u = _u_statistic(ranks, idx)
            total += 1
            if u <= u_a + 1e-12:
                le += 1
            if u >= u_a - 1e-12:
                ge += 1
        p = min(1.0, 2.0 * min(le / total, ge / total))
        return u_a, p

    # Normal approximation with tie correction.
    n = n_a + n_b
    tie_counts = {}
    for v in combined:
        tie_counts[v] = tie_counts.get(v, 0) + 1
    tie_term = sum(t ** 3 - t for t in tie_counts.values())
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var == 0:
        return u_a, 1.0
    mean = n_a * n_b / 2.0
    z = (abs(u_a - mean) - 0.5) / math.sqrt(var)
    z = max(z, 0.0)
    p = min(1.0, math.erfc(z / math.sqrt(2)))
    return u_a, p
