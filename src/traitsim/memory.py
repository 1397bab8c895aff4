"""Per-agent three-part memory.

Short-term memory (STM) is a capacity-bounded buffer of recently encountered
content with a recency decay; long-term memory (LTM) receives the
top-engagement STM entries at periodic evaluations; activity memory (AM) is a
bounded FIFO over the agent's own recent actions plus per-kind "last done"
timestamps, rendered into a deterministic textual summary for the decision
prompt.

An item's engagement score, which decides both STM eviction and LTM
promotion, is

    w_reshare * reshares + w_like * likes - w_dislike * dislikes

over the item's counters when it is observed. Comments are counted in the
entry (the feedback section shows them) but do not enter the score.

All three components start empty. LTM never evicts within a run.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

from .core import Action, ActionKind, ContentItem


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


@dataclass(slots=True)
class StmEntry:
    content_id: int
    reshares: int = 0
    likes: int = 0
    dislikes: int = 0
    comments: int = 0
    score: float = 0.0  # engagement score, fixed when the entry is observed
    last_touched: int = 0


@dataclass
class ActivityMemory:
    recent: deque = field(default_factory=deque)  # (iteration, kind, target)
    last_performed: dict = field(default_factory=dict)  # ActionKind -> iteration


@dataclass
class MemoryUnit:
    stm: dict = field(default_factory=dict)  # content_id -> StmEntry
    ltm: dict = field(default_factory=dict)  # content_id -> engagement score
    am: ActivityMemory = field(default_factory=ActivityMemory)


def engagement_score(entry, params: MemoryParams = MemoryParams()) -> float:
    """w_reshare*reshares + w_like*likes - w_dislike*dislikes, over any
    object with those three counters (an ``StmEntry``, a ``Counters``)."""
    return (params.w_reshare * entry.reshares + params.w_like * entry.likes
            - params.w_dislike * entry.dislikes)


# Lowest score first, then least recently touched; on equal keys ``min``
# keeps the first entry in the buffer's insertion order.
_EVICTION_KEY = attrgetter("score", "last_touched")
_SCORE = attrgetter("score")


def stm_observe(memory: MemoryUnit, content: ContentItem, now: int,
                params: MemoryParams = MemoryParams()) -> MemoryUnit:
    """Insert or refresh the STM entry for ``content`` with current counters.

    The entry's engagement score is computed here, once, from the counters
    the item has now. When the buffer would exceed capacity, the lowest-score
    entry is evicted (the least recently touched on a tie).
    """
    c = content.counters
    memory.stm[content.content_id] = StmEntry(
        content.content_id, c.reshares, c.likes, c.dislikes, c.comments,
        engagement_score(c, params), now)
    while len(memory.stm) > params.stm_capacity:
        victim = min(memory.stm.values(), key=_EVICTION_KEY)
        del memory.stm[victim.content_id]
    return memory


def stm_decay(memory: MemoryUnit, now: int,
              params: MemoryParams = MemoryParams()) -> MemoryUnit:
    """Drop every STM entry older than the decay horizon."""
    stale = [cid for cid, e in memory.stm.items()
             if now - e.last_touched > params.decay_horizon]
    for cid in stale:
        del memory.stm[cid]
    return memory


def ltm_evaluate(memory: MemoryUnit,
                 params: MemoryParams = MemoryParams()) -> MemoryUnit:
    """Copy the top-q quantile of STM entries (by the engagement score stored
    when each was observed) into LTM, which maps each promoted content id to
    the score of its latest promotion.

    At least one entry is promoted when the STM is non-empty; entries tied
    with the quantile cutoff are all promoted. Originals stay in STM until
    they decay.
    """
    if not memory.stm:
        return memory
    ranked = sorted(memory.stm.values(), key=_SCORE, reverse=True)
    take = max(1, math.ceil(params.promotion_quantile * len(ranked)))
    cutoff = ranked[take - 1].score
    for entry in ranked:
        if entry.score < cutoff:
            break
        memory.ltm[entry.content_id] = entry.score
    return memory


def am_record(am: ActivityMemory, action: Action, now: int,
              params: MemoryParams = MemoryParams()) -> ActivityMemory:
    """Append to the bounded FIFO and stamp last_performed for the kind.

    Inactive is tracked like any other kind, so passive agents can see how
    long they have remained passive.
    """
    am.recent.append((now, action.kind, action.target))
    while len(am.recent) > params.am_window:
        am.recent.popleft()
    am.last_performed[action.kind] = now
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
