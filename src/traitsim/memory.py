"""Per-agent three-part memory.

Short-term memory (STM) is a capacity-bounded buffer of recently encountered
content with a recency decay; long-term memory (LTM) receives the agent's
own items among the top-engagement STM entries at periodic evaluations;
activity memory (AM) is a bounded FIFO over the agent's own recent actions
plus per-kind "last done" timestamps, rendered into a deterministic textual
summary for the decision prompt.

An item's engagement score, which decides both STM eviction and LTM
promotion, is

    w_reshare * reshares + w_like * likes - w_dislike * dislikes

over the item's counters when ``stm_observe`` sees it. Comments are counted
in the entry (the feedback section shows them) but do not enter the score.

The STM dict is kept in touch order: an observe pops the item's entry and
inserts the new one last. Observes come with a non-decreasing ``now``, so
the entries' ``last_touched`` never decreases along the dict, and the stale
entries ``stm_decay`` drops are a prefix of it; decay reads those entries
and the first fresh one, O(1) when nothing is stale. Eviction removes the
entry with the lowest score, then the least recently touched, then the
lowest ``seq``: the order in which the ids entered the buffer, which a
refresh keeps.

An STM entry is a plain tuple ``(score, last_touched, seq, content_id,
reshares, likes, dislikes, comments)``, and the position constants below
(``SCORE`` through ``COMMENTS``) are the one statement of that order. It
leads with the eviction key, so ``min`` compares entries as tuples. It is
not a named tuple: a tuple display is built in C, and the interpreter's
specialised tuple indexing serves only exact tuples, so a named tuple's
construction and field reads cost the hottest call of a run more.

All three components start empty. LTM never evicts within a run. It keeps
only the agent's own items: the prompt's feedback section, its one reader,
looks up only those, and a run's other promotions would grow with its length
while no output reads them.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Collection

from .core import ActionKind, ActionRecord, ContentItem


@dataclass
class MemoryParams:
    stm_capacity: int = 20  # C
    decay_horizon: int = 3  # D
    eval_period: int = 5  # E
    promotion_quantile: float = 0.1  # q
    am_window: int = 10  # M
    w_reshare: float = 2.0
    w_like: float = 1.0
    w_dislike: float = 1.0

    def __post_init__(self):
        for name, low in (("stm_capacity", 0), ("am_window", 0),
                          ("decay_horizon", 0), ("eval_period", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got "
                                 f"{getattr(self, name)}")
        if not 0 <= self.promotion_quantile <= 1:
            raise ValueError(f"promotion_quantile must be in [0, 1], got "
                             f"{self.promotion_quantile}")
        # A NaN score would make eviction and promotion depend on order.
        for name in ("w_reshare", "w_like", "w_dislike"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)}")


# Positions in an STM entry. ``score`` is the engagement score, fixed when
# the entry is observed; ``seq`` is when the id entered the buffer, and a
# refresh keeps it; the four counters are the item's at that observe.
(SCORE, LAST_TOUCHED, SEQ, CONTENT_ID,
 RESHARES, LIKES, DISLIKES, COMMENTS) = range(8)


@dataclass
class ActivityMemory:
    recent: deque = field(default_factory=deque)  # (iteration, kind, target)
    last_performed: dict = field(default_factory=dict)  # ActionKind -> iteration


@dataclass
class MemoryUnit:
    stm: dict = field(default_factory=dict)  # id -> entry tuple, touch order
    ltm: dict = field(default_factory=dict)  # own content_id -> engagement score
    am: ActivityMemory = field(default_factory=ActivityMemory)
    seq: int = 0  # the last entry seq handed out


def stm_observe(memory: MemoryUnit, content: ContentItem, now: int,
                params: MemoryParams = MemoryParams()) -> MemoryUnit:
    """Insert or refresh the STM entry for ``content`` with current counters,
    as the newest entry in touch order.

    The entry's engagement score is computed here, once, from the counters
    the item has now. When the buffer would exceed capacity, the lowest
    entry by (score, last touched, seq) is evicted. ``now`` must not be
    below that of an earlier observe.
    """
    cid = content.content_id
    stm = memory.stm
    old = stm.pop(cid, None)
    if old is None:
        memory.seq = seq = memory.seq + 1
    else:
        seq = old[SEQ]
    stm[cid] = (
        params.w_reshare * content.reshares + params.w_like * content.likes
        - params.w_dislike * content.dislikes, now, seq, cid,
        content.reshares, content.likes, content.dislikes, content.comments)
    while len(stm) > params.stm_capacity:
        del stm[min(stm.values())[CONTENT_ID]]
    return memory


def stm_decay(memory: MemoryUnit, now: int,
              params: MemoryParams = MemoryParams()) -> MemoryUnit:
    """Drop every STM entry older than the decay horizon: the prefix of the
    touch order touched before ``now - decay_horizon``."""
    stm = memory.stm
    oldest = now - params.decay_horizon
    stale = []
    for cid, entry in stm.items():
        if entry[LAST_TOUCHED] >= oldest:
            break
        stale.append(cid)
    for cid in stale:
        del stm[cid]
    return memory


def ltm_evaluate(memory: MemoryUnit, own: Collection[int],
                 params: MemoryParams = MemoryParams()) -> MemoryUnit:
    """Copy the entries of ``own`` (the agent's content ids) among the
    top-q quantile of STM entries, by the engagement score stored when each
    was observed, into LTM, which maps each promoted content id to the score
    of its latest promotion.

    The cutoff is taken over every STM entry, own or not: at least one entry
    is in the quantile when the STM is non-empty, and entries tied with the
    cutoff all are. Only own entries are stored, as the prompt reads no
    other. Originals stay in STM until they decay.
    """
    stm = memory.stm
    if not stm:
        return memory
    scores = sorted([entry[SCORE] for entry in stm.values()], reverse=True)
    cutoff = scores[max(1, math.ceil(params.promotion_quantile
                                     * len(scores))) - 1]
    for entry in stm.values():
        if entry[SCORE] >= cutoff and entry[CONTENT_ID] in own:
            memory.ltm[entry[CONTENT_ID]] = entry[SCORE]
    return memory


def am_record(am: ActivityMemory, record: ActionRecord,
              params: MemoryParams = MemoryParams()) -> ActivityMemory:
    """Append the record to the bounded FIFO and stamp last_performed for
    its kind with its iteration.

    Inactive is tracked like any other kind, so passive agents can see how
    long they have remained passive.
    """
    am.recent.append((record.iteration, record.kind, record.target))
    while len(am.recent) > params.am_window:
        am.recent.popleft()
    am.last_performed[record.kind] = record.iteration
    return am


_VERBS = {
    ActionKind.POST: "posted",
    ActionKind.RESHARE: "re-shared",
    ActionKind.LIKE: "liked",
    ActionKind.DISLIKE: "disliked",
    ActionKind.COMMENT: "commented",
    ActionKind.FOLLOW: "followed someone",
    ActionKind.INACTIVE: "stayed inactive",
}


def am_summary(am: ActivityMemory, now: int) -> str:
    """Deterministic textual summary of recent actions and per-kind gaps."""
    if not am.recent and not am.last_performed:
        return "No recent activity recorded."
    lines = ["Recent actions (oldest first):"]
    for iteration, kind, target in am.recent:
        suffix = f" (target {target})" if target is not None else ""
        lines.append(f"- iteration {iteration}: {_VERBS[kind]}{suffix}")
    lines.append("Time since each action type:")
    for kind in ActionKind:
        verb = _VERBS[kind]
        last = am.last_performed.get(kind)
        if last is None:
            lines.append(f"- never {verb}")
        else:
            gap = now - last
            lines.append(f"- {verb} {gap} iterations ago")
    return "\n".join(lines)
