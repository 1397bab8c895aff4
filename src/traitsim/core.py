"""Domain types shared by every module: traits, actions, content, records.

Each ``Trait`` has a prompt in ``TRAIT_PROMPTS`` and an archetypal action
distribution in ``ARCHETYPES``; both tables are constants of this module.

One action is one ``ActionRecord`` and one stored item one ``ContentItem``,
whose counters the engine changes in its serialized apply phase.
``check_shape`` is the one rule of what each kind of action carries, for a
model's answer and a run file's record alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

SUM_TOLERANCE = 1e-9


class Trait(Enum):
    """The seven behavioral archetypes. Enum order is the documented tie-break
    order for nearest-archetype assignment."""

    SO = "Silent Observer"
    OS = "Occasional Sharer"
    OE = "Occasional Engager"
    BP = "Balanced Participant"
    CA = "Content Amplifier"
    PC = "Proactive Contributor"
    IE = "Interactive Enthusiast"

    # ``Enum.__hash__`` hashes the name in Python on every dict or set
    # lookup; the identity hash is as stable, since members are singletons,
    # and no less deterministic, since string hashes vary by process too.
    __hash__ = object.__hash__

    @property
    def code(self) -> str:
        return self.name

    @property
    def prompt_text(self) -> str:
        return TRAIT_PROMPTS[self]


TRAIT_PROMPTS = {
    Trait.BP: (
        "You are a Balanced Participant. In each cycle, mix original tweets, "
        "retweets, and occasional likes or dislikes, or comments. Maintain a "
        "steady, balanced level of engagement. Contribute regularly with your "
        "own posts, amplify others via retweets, and use reactions or comments "
        "when appropriate."
    ),
    Trait.CA: (
        "You are a Content Amplifier. Spend most of your time sharing others' "
        "posts and reacting to them with likes, dislikes or comments. Posting "
        "new content is secondary. Your main task is to retweet frequently and "
        "support others with likes, dislikes or comments."
    ),
    Trait.IE: (
        "You are an Interactive Enthusiast. Your primary mode of participation "
        "is reactive: comment extensively, like or dislike content regularly. "
        "Posting or sharing happens only occasionally. Engage deeply through "
        "comments, likes, and dislikes."
    ),
    Trait.OE: (
        "You are an Occasional Engager. Your engagement is limited to minimal "
        "reactions. Occasionally like, dislike, or comment on posts that catch "
        "your eye. Do not retweet or write original tweets."
    ),
    Trait.OS: (
        "You are an Occasional Sharer. Stay mostly silent and inactive. Only "
        "retweet content that clearly aligns with your interests; refrain from "
        "liking, disliking, commenting, or posting original content."
    ),
    Trait.PC: (
        "You are a Proactive Contributor. Lead the conversation with your own "
        "original tweets. You occasionally engage with others through comments, "
        "likes, or dislikes, but you tend to avoid retweets. Prioritize "
        "expressing your own ideas and perspectives."
    ),
    Trait.SO: (
        "You are a Silent Observer. Do not post, share, like, dislike, or "
        "comment under any normal circumstance. Your only job is to watch and "
        "absorb without leaving any trace. Remain invisible in the "
        "conversation. Avoid all posting, sharing, or reacting unless there is "
        "a strong external trigger."
    ),
}


@dataclass(frozen=True)
class PsychometricVariant:
    """One OCEAN factor instantiated at a high or low level."""

    factor: str  # one of O, C, E, A, N
    level: str  # "High" or "Low"
    prompt_text: str

    @property
    def code(self) -> str:
        return f"{self.factor}{self.level[0]}"


_OCEAN_DESCRIPTIONS = {
    ("O", "High"): "You are highly open to experience: curious, imaginative, and drawn to novel ideas and unconventional viewpoints.",
    ("O", "Low"): "You are low in openness: practical, conventional, and most comfortable with familiar topics and routines.",
    ("C", "High"): "You are highly conscientious: organized, deliberate, and careful; you think before you act and follow through reliably.",
    ("C", "Low"): "You are low in conscientiousness: spontaneous and easygoing; you act on impulse and rarely plan ahead.",
    ("E", "High"): "You are highly extraverted: outgoing, talkative, and energized by social exchange; you seek attention and conversation.",
    ("E", "Low"): "You are low in extraversion: reserved and quiet; you prefer to keep to yourself and rarely initiate conversation.",
    ("A", "High"): "You are highly agreeable: warm, cooperative, and trusting; you avoid conflict and support others readily.",
    ("A", "Low"): "You are low in agreeableness: skeptical and blunt; you challenge others and do not shy away from disagreement.",
    ("N", "High"): "You are high in neuroticism: sensitive and easily stressed; negative feedback affects you strongly and makes you withdraw.",
    ("N", "Low"): "You are low in neuroticism: calm, emotionally stable, and resilient; setbacks rarely change your behavior.",
}

OCEAN_VARIANTS = tuple(
    PsychometricVariant(factor=f, level=lvl, prompt_text=text)
    for (f, lvl), text in _OCEAN_DESCRIPTIONS.items()
)


class ActionKind(Enum):
    POST = "post"
    RESHARE = "reshare"
    LIKE = "like"
    DISLIKE = "dislike"
    COMMENT = "comment"
    FOLLOW = "follow"
    INACTIVE = "inactive"

    __hash__ = object.__hash__  # as for Trait


ENGAGEMENT_KINDS = frozenset(
    {ActionKind.RESHARE, ActionKind.LIKE, ActionKind.DISLIKE, ActionKind.COMMENT}
)

# The behavioral space: the columns of every action-probability vector, and
# each action kind's column. Follow is logged but has no column.
CATEGORIES = ("post", "reshare", "interact", "inactive")
CATEGORY = {ActionKind.POST: 0, ActionKind.RESHARE: 1, ActionKind.LIKE: 2,
            ActionKind.DISLIKE: 2, ActionKind.COMMENT: 2,
            ActionKind.INACTIVE: 3}


class ValidationError(ValueError):
    """An action that breaks the decision protocol; ``rule`` names why."""

    def __init__(self, rule: str, detail: str = ""):
        super().__init__(f"{rule}: {detail}" if detail else rule)
        self.rule = rule


# What each kind carries: the type its target must have (None: no target),
# and whether it carries payload text.
_SHAPES = {ActionKind.POST: (None, True), ActionKind.RESHARE: (int, False),
           ActionKind.LIKE: (int, False), ActionKind.DISLIKE: (int, False),
           ActionKind.COMMENT: (int, True), ActionKind.FOLLOW: (str, False),
           ActionKind.INACTIVE: (None, False)}


def check_shape(kind: ActionKind, target, payload) -> None:
    """Check that an action of ``kind`` carries what the kind needs and
    nothing else: an integer content-id ``target`` for an engagement, an
    agent-id ``target`` for a follow, ``payload`` text for a post or a
    comment. Raises ``ValidationError`` naming the broken rule: ``unknown
    action kind`` for a ``kind`` that is no ``ActionKind``, ``missing
    target``, ``missing payload``, or ``unexpected field`` for a target on a
    post or an inactivity or a payload on any other kind. It is the one
    shape check: ``reasoning.validate_decision`` applies it to every
    backend's answer, and ``engine.record_from_dict`` to every run-file
    record."""
    shape = _SHAPES.get(kind)
    if shape is None:
        raise ValidationError("unknown action kind", repr(kind))
    target_type, carries_text = shape
    if target_type is not None and (type(target) is not target_type  # no bool
                                    or target == ""):
        needs = "a content id" if target_type is int else "an agent id"
        raise ValidationError("missing target",
                              f"{kind.value} requires {needs}")
    if carries_text:
        if not (type(payload) is str and payload):
            raise ValidationError("missing payload",
                                  f"{kind.value} requires text")
    elif payload is not None:
        raise ValidationError("unexpected field",
                              f"{kind.value} carries no payload")
    if target_type is None and target is not None:
        raise ValidationError("unexpected field",
                              f"{kind.value} carries no target")


@dataclass(frozen=True)
class ActionDistribution:
    """4-D probability vector over ``CATEGORIES``."""

    p_post: float
    p_reshare: float
    p_interact: float
    p_inactive: float

    def __post_init__(self):
        comps = self.as_tuple()
        if any(p < 0 or p > 1 for p in comps):
            raise ValueError(f"probabilities out of [0,1]: {comps}")
        if abs(sum(comps) - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"components must sum to 1, got {sum(comps)!r}")

    @classmethod
    def from_counts(cls, counts) -> "ActionDistribution":
        """Frequencies of per-category counts, each divided by their total."""
        total = sum(counts)
        return cls(*(n / total for n in counts))

    def as_tuple(self) -> tuple:
        return (self.p_post, self.p_reshare, self.p_interact, self.p_inactive)


# Each trait's archetypal action distribution, the behaviour its prompt in
# ``TRAIT_PROMPTS`` asks for: the stub backend draws from it and grounding
# assigns the nearest one.
ARCHETYPES = {
    Trait.SO: ActionDistribution(0.0, 0.0, 0.0, 1.0),
    Trait.OS: ActionDistribution(0.0, 0.15, 0.0, 0.85),
    Trait.OE: ActionDistribution(0.0, 0.0, 0.761, 0.239),
    Trait.BP: ActionDistribution(0.5176, 0.4658, 0.0166, 0.0),
    Trait.CA: ActionDistribution(0.016, 0.7696, 0.2143, 0.0001),
    Trait.PC: ActionDistribution(1.0, 0.0, 0.0, 0.0),
    Trait.IE: ActionDistribution(0.02, 0.05, 0.8667, 0.0633),
}


@dataclass
class AgentProfile:
    agent_id: str
    identity_text: str
    trait: Optional[Union[Trait, PsychometricVariant]] = None
    topic: Optional[str] = None
    following: set = field(default_factory=set)


@dataclass(slots=True)
class ContentItem:
    """An original post or a re-share node.

    ``parent is None`` iff the item is an original, in which case
    ``root == content_id``. ``reshares`` counts direct children only.
    """

    content_id: int
    author: str
    iteration_created: int
    text: str
    topic: Optional[str]
    parent: Optional[int] = None
    root: Optional[int] = None
    reshares: int = 0
    likes: int = 0
    dislikes: int = 0
    comments: int = 0

    def __post_init__(self):
        if self.parent is None:
            if self.root is None:
                self.root = self.content_id
            elif self.root != self.content_id:
                raise ValueError("original item must be its own root")
        elif self.root is None:
            raise ValueError("re-share item requires an explicit root")

    @property
    def is_reshare(self) -> bool:
        return self.parent is not None


@dataclass(slots=True)
class ActionRecord:
    """One logged action. Its shape is checked (``check_shape``) where an
    answer or a run file is read. An engagement's order is its target's:
    first-order on an original, second-order on a re-share."""

    iteration: int
    agent: str
    kind: ActionKind
    target: Optional[Union[int, str]] = None
    payload: Optional[str] = None
    reason_text: str = ""
