"""Three-phase simulation engine.

Initialization builds the population (identity x trait cross product for
trait configurations, one agent for a persona that pins its trait); each
iteration then lets every agent decide and applies all decisions in a fixed
agent order only after the last agent has decided. The store the decision
phase reads is therefore the snapshot left by the previous iteration, with no
filter: decisions never see same-iteration actions, so the decision phase is
order-independent and the whole run is bit-reproducible from the master seed
under the stub backend: every agent draws from its own RNG stream keyed by
(master seed, iteration, agent index). ``agent_rng`` returns a
``PCG64Stream``, whose draws are those of ``np.random.default_rng`` on the
same key, computed without numpy: the module does not import it. Its seed
words are derived for a block of agent indices at once and memoised, so an
iteration runs numpy's ``SeedSequence`` hashing, in Python integers with one
lane per agent index, once per block and stream rather than once per agent;
and it derives its state at its first draw, so a stream nobody draws from
costs one small object. A decision writes
only its own agent's memory; the world changes only in the apply phase. That
is what lets an ``LLMBackend`` compute an iteration's decisions concurrently,
on its thread pool, with artifacts byte-identical at any concurrency.

Re-shares propagate: a re-share is a new content node pointing at its parent
and is itself recommendable, so followers (and everyone else through the
recommender pool) can engage with it, forming propagation chains.

The log is the run. ``apply_action`` turns a decision into an
``ActionRecord`` and hands it to ``apply_record``, the one function that
changes the content store and the follow graph; the store is therefore a
function of the log and the agents' topics, and ``check_integrity`` checks
every item and counter of the store against the log. ``write_artifacts``
streams each file line by line from ``record_line``, ``content_line`` and
``profile_line``, which write the bytes ``json.dumps(row, sort_keys=True)``
writes for each row's dict without building it. It still writes
``content.jsonl``, deriving the comment texts and cascades the store does
not keep, for readers of the run directory, but ``load_run`` never reads it:
it replays ``actions.jsonl`` through ``apply_record`` onto the agents of
``agents.jsonl``, so every record must pass ``core.check_shape`` and replay
cleanly.

``run_simulation`` and ``load_run`` build a world, and run with the cyclic
garbage collector paused (``collector_paused``): a world is hundreds of
thousands of tracked objects and holds no reference cycle, so a collection
would walk it and reclaim nothing.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import operator
import struct
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .core import (
    ActionKind,
    ActionRecord,
    AgentProfile,
    ContentItem,
    OCEAN_VARIANTS,
    Order,
    Trait,
    ENGAGEMENT_KINDS,
    check_shape,
)
from .jsonl import read_json, read_jsonl, string
from .memory import (
    MemoryParams,
    MemoryUnit,
    am_record,
    ltm_evaluate,
    stm_decay,
    stm_observe,
)
from .reasoning import (
    Decision,
    StubBackend,
    build_prompt,
    decide,
)

SCHEMA_VERSION = 1
OUTPUTS = ("actions.jsonl", "content.jsonl", "agents.jsonl")  # write_artifacts
MANIFEST = "manifest.json"  # write_manifest, beside them

CONFIGURATIONS = ("FullModel", "IdentityOnly", "RandomRecommendation",
                  "PsychometricTraits")


@dataclass
class SimulationConfig:
    configuration: str = "FullModel"
    iterations: int = 25
    feed_size: int = 5
    memory: MemoryParams = field(default_factory=MemoryParams)
    master_seed: int = 0

    def __post_init__(self):
        if self.configuration not in CONFIGURATIONS:
            raise ValueError(f"unknown configuration {self.configuration!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 1 <= self.feed_size <= sys.maxsize:
            raise ValueError(f"feed size must be in [1, {sys.maxsize}]")
        if self.master_seed < 0:
            raise ValueError("master seed must be >= 0")

    @property
    def recommender_strategy(self) -> str:
        return "random" if self.configuration == "RandomRecommendation" else "preference"


@dataclass
class AgentState:
    profile: AgentProfile
    memory: MemoryUnit = field(default_factory=MemoryUnit)
    index: int = 0  # stable position in the sorted agent-id order
    reshared_ids: set = field(default_factory=set)
    inbox: list = field(default_factory=list)  # followees' re-shares, ascending


@dataclass
class WorldState:
    """Agents, content store and action log of one run. Content enters only
    through ``add_content``, which records its author; the store's ids are
    dense (``1 ... len(content)``) and chronological. A follow edge enters
    only through ``follow``. The two keep every agent's ``inbox``, the
    ascending ids of the re-shares its followees authored: a re-share costs
    one list append per follower of its author, a follow walks the
    followee's ``authored`` ids once, and a feed finds its forced re-shares
    in O(k + skipped) however many agents it follows, reading no followee's
    list."""

    agents: dict = field(default_factory=dict)  # agent_id -> AgentState
    content: dict = field(default_factory=dict)  # content_id -> ContentItem
    log: list = field(default_factory=list)  # ActionRecord, append-only
    iteration: int = 0
    authored: dict = field(default_factory=dict)  # author -> {id: None}, ascending
    # topic (None included) -> ascending ids: the preference feed's matches
    by_topic: dict = field(default_factory=dict)
    followers: dict = field(default_factory=dict)  # followee -> [follower ids]

    def agent_order(self) -> list:
        return sorted(self.agents)

    def add_content(self, author: str, iteration: int, text: str,
                    topic: Optional[str],
                    parent: Optional[ContentItem] = None) -> ContentItem:
        """Store a new original, or a re-share of ``parent``, under the next
        content id and record its author and topic."""
        cid = len(self.content) + 1
        if parent is None:
            item = ContentItem(cid, author, iteration, text, topic)
        else:
            item = ContentItem(cid, author, iteration, text, topic,
                               parent.content_id, parent.root)
            for follower in self.followers.get(author, ()):
                self.agents[follower].inbox.append(cid)
        self.content[cid] = item
        # ``setdefault`` would build an empty dict or list on every call.
        if (own := self.authored.get(author)) is None:
            self.authored[author] = {cid: None}
        else:
            own[cid] = None
        if (ids := self.by_topic.get(topic)) is None:
            self.by_topic[topic] = [cid]
        else:
            ids.append(cid)
        return item

    def follow(self, follower: str, followee: str) -> None:
        """Add the edge ``follower -> followee`` and merge the followee's
        re-shares, the items in its ``authored`` entry that have a parent,
        into the follower's inbox; a repeated edge changes nothing. A
        self-edge is kept in ``following`` but feeds nothing: an agent's own
        items never enter its feed."""
        agent = self.agents[follower]
        if followee in agent.profile.following:
            return
        agent.profile.following.add(followee)
        if followee != follower:
            self.followers.setdefault(followee, []).append(follower)
            ids = [cid for cid in self.authored.get(followee, ())
                   if self.content[cid].parent is not None]
            if ids:  # two ascending runs, which sort merges in linear time
                agent.inbox += ids
                agent.inbox.sort()


def _trait_variants(persona: dict, configuration: str) -> list:
    """The (agent id, trait) pairs one persona yields under a configuration."""
    pid = persona["id"]
    if configuration == "IdentityOnly":
        return [(pid, None)]
    if configuration == "PsychometricTraits":
        variants = OCEAN_VARIANTS
    elif persona.get("trait") is not None:
        return [(pid, Trait[persona["trait"]])]
    else:
        variants = tuple(Trait)
    return [(f"{pid}-{variant.code}", variant) for variant in variants]


def init_population(personas: Sequence[dict], config: SimulationConfig,
                    follow_edges: Optional[Sequence[tuple]] = None) -> WorldState:
    """Build the initial world from persona records
    {id, identity_text, topic, trait?}.

    Under FullModel and RandomRecommendation a persona that names a ``trait``
    (a ``Trait`` name such as "PC", as a ``ground`` bundle does) yields one
    agent with the persona id and that trait; any other persona is crossed
    with the 7 behavioral traits (``<id>-SO`` ... ``<id>-IE``).
    PsychometricTraits crosses every persona with the 10 psychometric
    variants and IdentityOnly keeps one trait-less agent per persona; both
    ignore ``trait``. Memories start empty; the follow graph holds exactly
    ``follow_edges``. Raises ``ValueError`` for an empty persona set, a
    repeated agent id, or an edge naming an unknown agent.
    """
    if not personas:
        raise ValueError("empty persona set")
    world = WorldState()
    for p in personas:
        for agent_id, trait in _trait_variants(p, config.configuration):
            if agent_id in world.agents:
                raise ValueError(f"duplicate agent id {agent_id!r}")
            world.agents[agent_id] = AgentState(profile=AgentProfile(
                agent_id, p["identity_text"], trait, p.get("topic")))
    for i, agent_id in enumerate(world.agent_order()):
        world.agents[agent_id].index = i
    if follow_edges:
        for follower, followee in follow_edges:
            if follower not in world.agents or followee not in world.agents:
                raise ValueError(f"follow edge references unknown agent: "
                                 f"{follower!r} -> {followee!r}")
            world.follow(follower, followee)
    return world


def recommend_feed(agent: AgentState, world: WorldState, strategy: str, k: int,
                   rng: Optional[PCG64Stream]) -> list:
    """Build one agent's feed from the content pool: the chosen
    ``ContentItem``s of the store, in feed order.

    Pool: everything (originals and re-shares) not authored by the agent and
    not already re-shared by it. Re-shares authored by followees are
    force-included, newest first, ahead of the ranked remainder; preference
    ranking puts topic matches first, then recency; random sampling is
    seeded. Only the random strategy draws from ``rng``; ``run_iteration``
    passes ``None`` under the preference strategy.

    No item needs hiding as too new: ``run_iteration`` applies actions only
    after every agent has decided, so the store is the previous iteration's.

    Reads the world and writes nothing to it. Content ids are chronological,
    so every walk below is newest first and stops as soon as it has what the
    feed needs: O(k + skipped) for both strategies, however long the run.
    The forced re-shares are the first ``k`` ids the agent has not
    re-shared in a newest-first walk of its ``inbox``, which
    ``WorldState.add_content`` and ``WorldState.follow`` keep: O(k +
    skipped) however many agents it follows. When they fill the feed
    nothing else is read. Otherwise every forced re-share was
    found, and the remaining slots are filled as follows. The random
    strategy excludes the agent's own content (``world.authored``), the
    forced re-shares and its re-shared ids, in O(excluded items + k) up to a
    log factor; sampled ranks map straight to the dense ids. The preference
    ranking takes the topic matches from the agent's ``world.by_topic``
    list, and only when the topic runs short the other topics' items from a
    walk of the store's ids; both skip own (``world.authored``), re-shared
    and forced ids before reading the item, so the walk reads only eligible
    items. A scarce topic, or a topicless world (a ``ground`` bundle), costs
    no more than a plentiful one. Every walk is a plain loop that tests the
    ids inline and stops at ``k`` items: a call makes no Python function
    call per item, however many items it skips.
    """
    me = agent.profile.agent_id
    reshared, content = agent.reshared_ids, world.content

    forced_ids, forced = [], []
    inbox = agent.inbox  # empty without a re-sharing followee: no walk
    if inbox:
        for cid in reversed(inbox):
            if cid not in reshared:
                forced_ids.append(cid)
                forced.append(content[cid])
                if len(forced) == k:
                    break

    if strategy == "preference":
        # The newest eligible topic matches rank first; the newest eligible
        # items of other topics fill what they leave, and no older item can
        # enter the feed.
        if len(forced) == k:
            return forced
        own, topic = world.authored.get(me, ()), agent.profile.topic
        feed = forced
        for cid in reversed(world.by_topic.get(topic, ())):
            if cid in own or cid in reshared or cid in forced_ids:
                continue
            feed.append(content[cid])
            if len(feed) == k:
                return feed
        for cid in reversed(content):
            if cid in own or cid in reshared or cid in forced_ids:
                continue
            item = content[cid]
            if item.topic != topic:
                feed.append(item)
                if len(feed) == k:
                    break
        return feed
    if strategy != "random":
        raise ValueError(f"unknown recommender strategy {strategy!r}")
    need = k - len(forced)
    if need == 0:
        return forced
    # The draw depends only on (pool size, take), so sample ranks in the
    # dense id order 1 ... len(world.content) minus the excluded ids,
    # without building the pool. The excluded ids are disjoint, because
    # ``apply_record`` rejects a re-share of one's own item.
    excluded = sorted((*world.authored.get(me, ()), *agent.reshared_ids,
                       *forced_ids))
    pool_size = len(world.content) - len(excluded)
    take = min(need, pool_size)
    sampled = []
    if take > 0:
        picks = rng.choice(pool_size, size=take, replace=False)
        passed = 0
        for rank in sorted(picks):
            cid = rank + 1
            while passed < len(excluded) and excluded[passed] <= cid + passed:
                passed += 1
            sampled.append(world.content[cid + passed])
    return forced + sampled


# Globals for the per-record path: reading an Enum member off its class costs
# about 0.1 µs, a global about a tenth of that.
_POST, _RESHARE = ActionKind.POST, ActionKind.RESHARE
_LIKE, _DISLIKE, _COMMENT = (ActionKind.LIKE, ActionKind.DISLIKE,
                             ActionKind.COMMENT)
_FOLLOW = ActionKind.FOLLOW
_NA, _FIRST, _SECOND = Order.NA, Order.FIRST, Order.SECOND


def apply_action(world: WorldState, agent: AgentState, decision: Decision,
                 iteration: int) -> None:
    """Apply one validated decision to the world (serialized phase)."""
    order = _NA
    if decision.choice in ENGAGEMENT_KINDS:  # first-order iff on an original
        order = (_FIRST if world.content[decision.target].parent is None
                 else _SECOND)
    record = ActionRecord(iteration, agent.profile.agent_id, decision.choice,
                          decision.target, decision.payload, order,
                          decision.reason)
    apply_record(world, agent, record)
    world.log.append(record)


def apply_record(world: WorldState, agent: AgentState,
                 record: ActionRecord) -> None:
    """Update the content store and the follow graph for ``agent``'s
    ``record``; one that ``apply_action`` cannot have logged is an error."""
    profile, kind = agent.profile, record.kind

    if kind is _POST:
        world.add_content(profile.agent_id, record.iteration, record.payload,
                          profile.topic)
    elif kind in ENGAGEMENT_KINDS:
        target = world.content[record.target]
        if (record.order is _FIRST) != (target.parent is None):
            raise ValueError(f"{kind.value} of content {record.target} is "
                             f"not {record.order.value}")
        if kind is _RESHARE:
            if target.author == profile.agent_id:
                raise ValueError(f"{profile.agent_id} re-shares its own "
                                 f"content {target.content_id}")
            if target.content_id in agent.reshared_ids:
                raise ValueError(f"{profile.agent_id} already re-shared "
                                 f"{target.content_id}")
            world.add_content(profile.agent_id, record.iteration, target.text,
                              target.topic, target)
            agent.reshared_ids.add(target.content_id)
            target.reshares += 1
        elif kind is _LIKE:
            target.likes += 1
        elif kind is _DISLIKE:
            target.dislikes += 1
        else:
            target.comments += 1
    elif kind is _FOLLOW:
        if record.target not in world.agents:
            raise ValueError(f"follow of unknown agent {record.target!r}")
        world.follow(profile.agent_id, record.target)
    # INACTIVE: log only


# numpy's SeedSequence: a pool of 4 uint32 words, mixed with these constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MIX_NEG_R = -_MIX_MULT_R & _MASK32
# Agent indices per derivation. It divides 2**32, so the indices of one block
# differ only in their lowest uint32 word. A block is derived whole, and the
# packed derivation below costs about 1-1.3 µs per index at any block size
# (numpy's vectorised one cost about 0.3 µs), so a population pays for the
# unused rest of its last block: at 256 that waste stays small.
_SEED_BLOCK = 256
# A packed word is one int with a 64-bit lane per agent index of a block:
# bits 64j to 64j + 63 hold the uint32 word of index j, in their low half.
_LANES = sum(1 << 64 * j for j in range(_SEED_BLOCK))  # 1 in every lane
_LOW32 = _MASK32 * _LANES  # the low half of every lane
_LANE_INDEX = sum(j << 64 * j for j in range(_SEED_BLOCK))  # j in lane j
_ROW_WORDS = struct.Struct(f"<{_SEED_BLOCK}Q")


def _uint32_words(n: int) -> list:
    """The uint32 words SeedSequence reads from a non-negative integer: its
    base-2**32 digits, least significant first, and [0] for 0."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


@functools.lru_cache(maxsize=4)
def _seed_block(master_seed: int, iteration: int, stream: int,
                block: int) -> tuple:
    """Row ``j`` of this tuple is the tuple of four ints that
    ``SeedSequence([master_seed, iteration, block * _SEED_BLOCK + j,
    stream]).generate_state(4, np.uint64)`` holds: numpy's algorithm, run
    on packed words. Each multiplier is a scalar below 2**32, so a lane's
    product fits its 64 bits, and every step masks each lane to its low 32
    bits, as uint32 arithmetic wraps."""
    head = _uint32_words(master_seed) + _uint32_words(iteration)
    low, *high = _uint32_words(block * _SEED_BLOCK)
    entropy = [word * _LANES
               for word in head + [low] + high + _uint32_words(stream)]
    entropy[len(head)] += _LANE_INDEX

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const * _LANES
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _LOW32
        return value ^ value >> 16 & _LOW32

    def mix(x, y):
        # L*x - R*y as L*x + (2**32 - R)*y. Each product is masked first, so
        # their sum stays below 2**33 and carries into no other lane.
        result = ((_MIX_MULT_L * x & _LOW32)
                  + (_MIX_NEG_R * y & _LOW32)) & _LOW32
        return result ^ result >> 16 & _LOW32

    # Every key has at least _POOL_SIZE words: one per integer.
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const * _LANES
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _LOW32
        state.append(value ^ value >> 16 & _LOW32)
    # Seed word k of a row is the uint32 pair (2k, 2k + 1), low word first,
    # as numpy reads the state as little-endian uint64s.
    columns = [_ROW_WORDS.unpack(int.to_bytes(
        state[k] | state[k + 1] << 32, _ROW_WORDS.size, "little"))
        for k in range(0, 2 * _POOL_SIZE, 2)]
    return tuple(zip(*columns))


# numpy's PCG64: a 128-bit LCG with this multiplier and the XSL-RR output.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


class PCG64Stream:
    """The draws of ``np.random.Generator(np.random.PCG64(seed words))`` for
    the three calls traitsim makes, ``random()``, ``integers(high)`` and
    ``choice(n, size, replace=False)``, in integer arithmetic.

    It holds one row of a ``_seed_block``, a tuple of four 64-bit seed
    words, and derives the 128-bit state only at its first draw, so a stream
    nobody draws from costs one small object.
    A 32-bit draw takes the low half of a 64-bit output and keeps the high
    half for the next 32-bit draw, as numpy's PCG64 does; ``random()`` never
    reads it. Bounded integers are Lemire's, as ``Generator.integers`` draws
    them. What numpy would draw another way is refused by ``ValueError``.
    """

    __slots__ = ("_words", "_state", "_inc", "_half")

    def __init__(self, words: tuple):
        self._words = words
        self._state = None
        self._half = None

    def _next64(self) -> int:
        state = self._state
        if state is None:  # numpy's pcg64_set_seed(words[:2], words[2:])
            w0, w1, w2, w3 = self._words
            self._inc = inc = (w2 << 65 | w3 << 1 | 1) & _MASK128
            state = (inc + (w0 << 64 | w1)) * _PCG_MULT + inc
        self._state = state = (state * _PCG_MULT + self._inc) & _MASK128
        rot, x = state >> 122, (state >> 64 ^ state) & _MASK64
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def _bounded(self, r: int) -> int:
        """Uniform on [0, r] for r < 2**32, by Lemire's method, as numpy
        draws it: no draw for r = 0 and one 32-bit draw for r = 2**32 - 1."""
        if r == 0:
            return 0
        if r == _MASK32:
            return self._next32()
        m = self._next32() * (r + 1)
        if m & _MASK32 <= r:
            threshold = (_MASK32 - r) % (r + 1)
            while m & _MASK32 < threshold:
                m = self._next32() * (r + 1)
        return m >> 32

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0 ** -53

    def integers(self, high: int) -> int:
        if not 0 < high <= 1 << 32:
            raise ValueError(f"integers(high) draws for 0 < high <= 2**32, "
                             f"not {high}")
        return self._bounded(high - 1)

    def choice(self, n: int, size: int, replace: bool = True) -> list:
        """``size`` distinct indices below ``n``, as numpy orders them."""
        if replace or not 0 <= size <= n <= 1 << 32:
            raise ValueError(f"choice draws without replacement for 0 <= size"
                             f" <= n <= 2**32, not ({n}, {size}, {replace})")
        if n > 10000 and size > n // 50:
            # The last ``size`` places of a Fisher-Yates shuffle of range(n)
            # that stops there; ``moved`` holds the places it changed.
            moved = {}
            for i in range(n - 1, max(n - size, 1) - 1, -1):
                j = self._bounded(i)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            return [moved.get(i, i) for i in range(n - size, n)]
        # Floyd's algorithm, then a shuffle of the picks.
        picks, taken = [], set()
        for j in range(n - size, n):
            v = self._bounded(j)
            if v in taken:
                v = j
            taken.add(v)
            picks.append(v)
        for i in range(size - 1, 0, -1):
            j = self._bounded(i)
            picks[i], picks[j] = picks[j], picks[i]
        return picks


def agent_rng(master_seed: int, iteration: int, agent_index: int,
              stream: int) -> PCG64Stream:
    """Independent per-(agent, iteration) stream; stream 0 feeds the random
    recommender (and is built only for it), stream 1 the decision backend.

    Its draws are those of ``np.random.default_rng([master_seed, iteration,
    agent_index, stream])`` for the calls ``PCG64Stream`` offers. Its seed
    words come from ``_seed_block``, which runs numpy's ``SeedSequence``
    algorithm in Python integers for a block of ``_SEED_BLOCK`` agent indices
    at once and keeps the last four blocks, so an iteration derives them once
    per stream and block of agents, not once per agent. Concurrent decision
    steps need no lock: ``lru_cache`` is thread-safe, and two steps that miss
    on the same block each derive the same words. The arguments are
    non-negative integers.
    """
    block, offset = divmod(agent_index, _SEED_BLOCK)
    return PCG64Stream(_seed_block(master_seed, iteration, stream,
                                   block)[offset])


@contextmanager
def collector_paused():
    """Pause Python's cyclic garbage collector for the ``with`` block (or
    each call of the function it decorates), and leave it as it was found:
    on exit, also on an exception, it is enabled again only if it was
    enabled on entry, so nested pauses and callers that disabled it are left
    alone. The pause is process-wide, and this is the one place in
    ``traitsim`` that pauses.

    A world is hundreds of thousands of tracked objects (records, content
    items, memory entries), and each full collection walks all of them
    again, so the collector costs about a tenth of a simulation and more at
    larger populations. Building, loading and analysing a world make no
    reference cycles, so those collections would reclaim nothing: the pause
    only defers reclaiming cycles, here an embedding program's own, to the
    end of the block, and the world is freed by reference counting.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_iteration(world: WorldState, config: SimulationConfig,
                  backend) -> WorldState:
    """One snapshot-decide / serialized-apply cycle.

    Each agent's decision step (STM decay, feed, STM observes, prompt,
    ``decide``) reads the world and writes only that agent's memory, so the
    steps may run in any order or at once. They go through
    ``backend.map(step, order)`` when the backend has a ``map`` (an
    ``LLMBackend`` runs up to its ``concurrency`` of them on its thread
    pool), otherwise through the builtin ``map``, one after another in the
    calling thread. Application, activity recording and LTM evaluation
    happen afterwards in the calling thread, in sorted agent order, so the
    world and the artifacts are the same at any concurrency and in any order
    in which a ``map`` starts the steps.

    An exception from a step, such as a backend ``TransportError``,
    propagates only once no step is still running, and before anything is
    applied: the log, the store and the follow graph then hold the previous
    iterations, while the agents' memories may hold this iteration's decay
    and observations.
    """
    iteration = world.iteration + 1
    order = world.agent_order()
    params, seed = config.memory, config.master_seed
    strategy, k = config.recommender_strategy, config.feed_size
    random_feed = strategy == "random"
    oldest = iteration - params.decay_horizon  # own items before it are stale
    # The decision phase adds no agent or item: these dicts stay the world's.
    agents, content, authored = world.agents, world.content, world.authored

    def decision_step(agent_id: str) -> Decision:
        agent = agents[agent_id]
        memory, index = agent.memory, agent.index
        stm_decay(memory, iteration, params)
        feed_rng = agent_rng(seed, iteration, index, 0) if random_feed else None
        feed = recommend_feed(agent, world, strategy, k, feed_rng)
        for item in feed:
            stm_observe(memory, item, iteration, params)
        own = authored.get(agent_id, ())
        for cid in reversed(own):  # newest first, up to the first stale item
            item = content[cid]
            if item.iteration_created < oldest:
                break
            stm_observe(memory, item, iteration, params)
        prompt = build_prompt(agent.profile, memory, feed, iteration, own)
        return decide(prompt, backend, agent_rng(seed, iteration, index, 1))

    decisions = list(getattr(backend, "map", map)(decision_step, order))

    for agent_id, decision in zip(order, decisions):
        agent = agents[agent_id]
        apply_action(world, agent, decision, iteration)
        am_record(agent.memory.am, world.log[-1], params)

    if iteration % params.eval_period == 0:
        for agent_id in order:
            ltm_evaluate(agents[agent_id].memory, authored.get(agent_id, ()),
                         params)
    world.iteration = iteration
    return world


def run_simulation(config: SimulationConfig, personas: Sequence[dict],
                   backend=None,
                   initial_world: Optional[WorldState] = None) -> WorldState:
    """Run the configured number of iterations and return the final world.

    Does no file I/O. A backend ``TransportError`` propagates from the
    decision phase once no decision step is still running, before that
    iteration applies anything to the log, the content store or the follow
    graph (see ``run_iteration``), so the world a caller passed as
    ``initial_world`` then holds exactly the ``world.iteration`` completed
    iterations (agent memories may hold the failed iteration's decay and
    observations) and can be written with ``write_artifacts``. The backend
    stays open; closing it is the caller's part.

    Runs with the cyclic garbage collector paused (``collector_paused``)
    and leaves it as it was found, also when it raises.
    """
    backend = backend or StubBackend()
    with collector_paused():
        world = initial_world if initial_world is not None else (
            init_population(personas, config))
        for _ in range(config.iterations):
            run_iteration(world, config, backend)
    return world


# ---------------------------------------------------------------------------
# The run directory (schema_version = 1): write_artifacts, write_manifest
# and load_run


_KINDS = {kind.value: kind for kind in ActionKind}
_ORDERS = {order.value: order for order in Order}


def _member(members: dict, value, name: str):
    """The enum member whose value is ``value``; any other value, hashable
    or not, is a ``ValueError``."""
    try:
        return members[value]
    except (KeyError, TypeError):
        raise ValueError(f"unknown {name} {json.dumps(value)}") from None


def record_from_dict(d: dict) -> ActionRecord:
    """The record whose ``record_line`` parses to ``d``; a missing key is a
    ``KeyError``, a wrongly typed agent, iteration or reason a
    ``TypeError``, an unknown kind or order a ``ValueError``, and a misshaped
    action ``check_shape``'s ``ValidationError``, as for a model's answer."""
    agent, iteration = string(d, "agent"), d["iteration"]
    if type(iteration) is not int:  # a JSON true/false is not
        raise TypeError(f"iteration must be an integer, got "
                        f"{json.dumps(iteration)}")
    kind = _member(_KINDS, d["kind"], "kind")
    target, payload = d["target"], d["payload"]
    check_shape(kind, target, payload)
    return ActionRecord(iteration, agent, kind, target, payload,
                        _member(_ORDERS, d["order"], "order"),
                        string(d, "reason"))


# Each renderer returns the line ``json.dumps(row, sort_keys=True) + "\n"``
# gives for the row's dict, byte for byte, without building the dict or a
# JSON encoder per row: the keys are literal text in sorted order.
_quote = json.encoder.encode_basestring_ascii  # json.dumps' ensure_ascii
_KIND_JSON = {kind: _quote(kind.value) for kind in ActionKind}
_ORDER_JSON = {order: _quote(order.value) for order in Order}


def _value(value) -> str:
    """A string, an integer or None as ``json.dumps`` writes it; any other
    value, a bool or a float included, is a ``TypeError``. ``record_line``
    and ``content_line`` call it only for a field not of its usual type."""
    cls = type(value)
    if cls is str:
        return _quote(value)
    if cls is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    raise TypeError(f"no JSON rendering for {cls.__name__} {value!r}")


def record_line(record: ActionRecord) -> str:
    """The ``actions.jsonl`` line of ``record``. A field of its usual type
    (an int iteration, a str or None payload, an int, str or None target) is
    written inline; ``_value`` writes or refuses a value of any other type,
    so a line of usual fields calls no Python function."""
    it, payload, target = record.iteration, record.payload, record.target
    payload = ("null" if payload is None else _quote(payload)
               if type(payload) is str else _value(payload))
    target = ("null" if target is None else target if type(target) is int
              else _quote(target) if type(target) is str else _value(target))
    return (f'{{"agent": {_quote(record.agent)}, '
            f'"iteration": {it if type(it) is int else _value(it)}, '
            f'"kind": {_KIND_JSON[record.kind]}, '
            f'"order": {_ORDER_JSON[record.order]}, '
            f'"payload": {payload}, '
            f'"reason": {_quote(record.reason_text)}, '
            f'"target": {target}}}\n')


def content_line(item: ContentItem, comment_texts,
                 cascade_reshares: int) -> str:
    """The ``content.jsonl`` line of ``item``, with its comments'
    ``(agent, text)`` pairs and the count of re-share nodes in its cascade.
    As in ``record_line``, a field of its usual type (an int id, iteration,
    counter or cascade count, an int or None parent and root, a str or None
    topic) is written inline and ``_value`` writes or refuses any other, so
    the line of an uncommented item calls no Python function."""
    texts = ", ".join([f"[{_quote(agent)}, {_quote(text)}]"
                       for agent, text in comment_texts]
                      ) if comment_texts else ""
    cid, it, cascade = (item.content_id, item.iteration_created,
                        cascade_reshares)
    comments, dislikes = item.comments, item.dislikes
    likes, reshares = item.likes, item.reshares
    parent, root, topic = item.parent, item.root, item.topic
    parent = ("null" if parent is None else parent if type(parent) is int
              else _value(parent))
    root = ("null" if root is None else root if type(root) is int
            else _value(root))
    topic = ("null" if topic is None else _quote(topic) if type(topic) is str
             else _value(topic))
    return (f'{{"author": {_quote(item.author)}, '
            f'"cascade_reshares": '
            f'{cascade if type(cascade) is int else _value(cascade)}, '
            f'"comment_texts": [{texts}], '
            f'"content_id": {cid if type(cid) is int else _value(cid)}, '
            f'"counters": {{"comments": '
            f'{comments if type(comments) is int else _value(comments)}, '
            f'"dislikes": '
            f'{dislikes if type(dislikes) is int else _value(dislikes)}, '
            f'"likes": {likes if type(likes) is int else _value(likes)}, '
            f'"reshares": '
            f'{reshares if type(reshares) is int else _value(reshares)}}}, '
            f'"iteration_created": {it if type(it) is int else _value(it)}, '
            f'"parent": {parent}, '
            f'"root": {root}, '
            f'"text": {_quote(item.text)}, '
            f'"topic": {topic}}}\n')


def profile_line(profile: AgentProfile) -> str:
    """The ``agents.jsonl`` line of ``profile``."""
    trait = profile.trait
    following = ", ".join(map(_quote, sorted(profile.following)))
    return (f'{{"agent_id": {_quote(profile.agent_id)}, '
            f'"following": [{following}], '
            f'"topic": {_value(profile.topic)}, '
            f'"trait": {_value(None if trait is None else trait.code)}}}\n')


def write_artifacts(world: WorldState, out_dir) -> None:
    """Write the run's ``OUTPUTS`` into ``out_dir``, one line at a time.
    The store's ids are dense and chronological, so its values are in
    ascending id order. Each item's comment texts are the log's comments on
    it, in log order, and its cascade the re-share nodes with it as root."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    comments = {}
    for record in world.log:
        if record.kind is _COMMENT:
            comments.setdefault(record.target, []).append(
                (record.agent, record.payload))
    cascade = Counter(item.root for item in world.content.values()
                      if item.parent is not None)
    lines = (
        map(record_line, world.log),
        map(content_line, world.content.values(),
            map(comments.get, world.content, repeat(())),
            map(cascade.get, world.content, repeat(0))),
        (profile_line(world.agents[agent_id].profile)
         for agent_id in world.agent_order()),
    )
    for name, file_lines in zip(OUTPUTS, lines):
        with open(out / name, "w") as fh:
            fh.writelines(file_lines)


def write_manifest(world: WorldState, config: SimulationConfig, out_dir,
                   backend: dict, inputs: Sequence[Path]) -> None:
    """Write ``MANIFEST`` into ``out_dir``: the schema and code versions, the
    run's configuration (``backend`` as given), the iterations ``world``
    completed, the sha256 of each input file and the ``OUTPUTS``."""
    settings = asdict(config)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "code_version": __version__,
        "master_seed": settings.pop("master_seed"),
        "completed_iterations": world.iteration,
        "config": {**settings, "backend": dict(backend)},
        "inputs": {str(path): hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in inputs},
        "outputs": list(OUTPUTS),
    }
    (Path(out_dir) / MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


@collector_paused()
def load_run(run_dir):
    """A run's action log, content store and agent traits; the inverse of
    ``write_artifacts``. The store is rebuilt by replaying ``actions.jsonl``
    onto the agents of ``agents.jsonl``; ``content.jsonl`` is not read. A
    record that cannot be replayed, or out of the log's shape (one per agent
    per iteration, in ``agents.jsonl`` order, for as many iterations as the
    manifest's ``completed_iterations`` if it names them), is a malformed
    line. Runs with the cyclic garbage collector paused
    (``collector_paused``) and leaves it as it was found, also when it
    raises."""
    run_dir = Path(run_dir)
    actions_path, _, agents_path = (run_dir / name for name in OUTPUTS)
    if not run_dir.is_dir():
        raise ValueError(f"not an artifact directory: {run_dir}")
    manifest_path = run_dir / MANIFEST
    completed = None
    if manifest_path.exists():
        manifest = read_json(manifest_path, "manifest")
        if (not isinstance(manifest, dict)
                or manifest.get("schema_version") != SCHEMA_VERSION):
            raise ValueError(f"incompatible artifact schema_version in "
                             f"{run_dir} (expected {SCHEMA_VERSION})")
        completed = manifest.get("completed_iterations")
        if not (completed is None
                or type(completed) is int and completed >= 0):
            raise ValueError(f"malformed manifest {manifest_path}: "
                             f"completed_iterations must be an integer >= 0, "
                             f"got {json.dumps(completed)}")
    world, traits = WorldState(), {}

    def add_agent(obj):
        agent_id = string(obj, "agent_id")
        if agent_id in world.agents:
            raise ValueError(f"agent {agent_id!r} is listed twice")
        traits[agent_id] = string(obj, "trait", nullable=True)
        world.agents[agent_id] = AgentState(AgentProfile(
            agent_id, "", None, string(obj, "topic", nullable=True)))

    read_jsonl(agents_path, add_agent)
    order = list(world.agents)

    def replay(obj):
        record = record_from_dict(obj)
        agent = world.agents[record.agent]  # so ``order`` is not empty
        iteration, at = divmod(len(world.log), len(order))
        if (record.iteration, record.agent) != (iteration + 1, order[at]):
            raise ValueError(f"expected the record of {order[at]!r} in "
                             f"iteration {iteration + 1}")
        apply_record(world, agent, record)
        world.log.append(record)

    def finish():
        if order and len(world.log) % len(order):
            raise ValueError(f"the log ends inside iteration "
                             f"{world.log[-1].iteration}")
        # Without agents there is no record, so ``order`` is not empty here.
        if completed is not None and len(world.log) != completed * len(order):
            raise ValueError(f"the log holds {len(world.log) // len(order)} "
                             f"iterations, but {MANIFEST} says "
                             f"completed_iterations {completed}")

    read_jsonl(actions_path, replay, finish)
    return world.log, world.content, traits


def check_integrity(world: WorldState) -> None:
    """Assert content-store invariants: parents and roots resolve and roots
    are originals; each item's reshare counter equals its child count, and
    its likes, dislikes and comments are those ``world.log`` records for it;
    and the items are those the log's posts and re-shares create, in order,
    each with the record's author, iteration and target as parent: a post
    with the record's payload as text and its author's topic, a re-share
    with its parent's text and topic. The feed's indexes hold what they are
    rebuilt to from their sources: ``authored`` and ``by_topic`` from the
    store, ``followers`` and every agent's ``inbox`` from the agents'
    ``following`` sets (self-edges left out) and the store's re-shares by
    author, and every agent's ``reshared_ids`` from the parents of its
    re-shares."""
    children = Counter()
    for item in world.content.values():
        if item.parent is not None:
            if item.parent not in world.content:
                raise AssertionError(f"dangling parent for {item.content_id}")
            children[item.parent] += 1
        root = world.content.get(item.root)
        if root is None or root.parent is not None:
            raise AssertionError(f"bad root for {item.content_id}")
    likes, dislikes, comments, created = Counter(), Counter(), Counter(), []
    for record in world.log:
        kind, target = record.kind, record.target
        if kind is _LIKE:
            likes[target] += 1
        elif kind is _DISLIKE:
            dislikes[target] += 1
        elif kind is _COMMENT:
            comments[target] += 1
        elif kind is _POST or kind is _RESHARE:
            created.append(record)
    for target in likes.keys() | dislikes.keys() | comments.keys():
        if target not in world.content:
            raise AssertionError(f"the log reacts to unknown content {target}")
    for cid, item in world.content.items():
        if item.reshares != children[cid]:
            raise AssertionError(f"reshare counter mismatch on {cid}")
        if item.likes != likes[cid]:
            raise AssertionError(f"like counter mismatch on {cid}")
        if item.dislikes != dislikes[cid]:
            raise AssertionError(f"dislike counter mismatch on {cid}")
        if item.comments != comments[cid]:
            raise AssertionError(f"comment counter mismatch on {cid}")
    for item, record in zip(world.content.values(), created):
        if ((item.author, item.iteration_created, item.parent)
                != (record.agent, record.iteration, record.target)):
            raise AssertionError(
                f"item {item.content_id} is not the log's {record.kind.value} "
                f"by {record.agent} in iteration {record.iteration}")
        if item.parent is None:
            text = record.payload
            topic = world.agents[item.author].profile.topic
        else:
            parent = world.content[item.parent]
            text, topic = parent.text, parent.topic
        if item.text != text:
            raise AssertionError(f"text mismatch on {item.content_id}")
        if item.topic != topic:
            raise AssertionError(f"topic mismatch on {item.content_id}")
    if len(created) != len(world.content):
        raise AssertionError(f"the log creates {len(created)} items, the "
                             f"store holds {len(world.content)}")
    authored, reshares, by_topic = {}, {}, {}
    for cid, item in world.content.items():
        authored.setdefault(item.author, []).append(cid)
        by_topic.setdefault(item.topic, []).append(cid)
        if item.parent is not None:
            reshares.setdefault(item.author, []).append(cid)
    for name, index, rebuilt in (
            ("authored", {author: list(ids) for author, ids
                          in world.authored.items()}, authored),
            ("by_topic", world.by_topic, by_topic)):
        if index != rebuilt:
            raise AssertionError(f"the {name} index disagrees with the store")
    followers = {}
    for agent_id, agent in world.agents.items():
        inbox = []
        for followee in agent.profile.following - {agent_id}:
            followers.setdefault(followee, []).append(agent_id)
            inbox += reshares.get(followee, ())
        if agent.inbox != sorted(inbox):
            raise AssertionError(f"the inbox of {agent_id} disagrees with "
                                 f"its followees' re-shares")
        if agent.reshared_ids != {world.content[cid].parent
                                  for cid in reshares.get(agent_id, ())}:
            raise AssertionError(f"the reshared_ids of {agent_id} disagree "
                                 f"with its re-shares")
    if ({followee: sorted(ids) for followee, ids in world.followers.items()}
            != {followee: sorted(ids) for followee, ids in followers.items()}):
        raise AssertionError("the followers index disagrees with the follow "
                             "graph")
