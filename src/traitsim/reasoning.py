"""Decision prompts, the decision protocol, and backends.

Each iteration an agent receives a prompt with four sections (feedback on its
own content, an activity summary, a recommended feed, and the permitted
actions). Every backend answers ``complete(prompt, rng)`` with a
``Decision``. ``rng`` is the agent's ``engine.PCG64Stream`` for the iteration,
and offers the draws ``random()``, ``integers(high)`` and ``choice(n, size,
replace=False)`` of numpy's ``Generator``; the stub samples from it, and
``LLMBackend`` ignores it. ``decide`` checks each answer, whichever
backend gave it, with ``validate_decision``: first its shape
(``core.check_shape``, which holds a run file's records to the same rule),
then against the prompt (a permitted action, a feed target for an
engagement, and a feed author for a follow). It re-prompts up to
``MAX_RETRIES`` times, then falls back to inactivity.

A model answers in text, a labeled three-field triplet::

    CHOICE: <action>
    REASON: <why>
    CONTENT: <payload>

which ``parse_response`` reads; it also accepts a JSON object with
``choice``/``reason``/``content`` keys. CONTENT carries the post text for
"post", a content id for "reshare"/"like"/"dislike", ``<content id>:
<text>`` for "comment", an agent id for "follow", and is empty for
"inactive". A text that cannot be read raises ``ValidationError`` from the
backend, and ``decide`` re-prompts on it as on a refused decision.

Two backends are provided: an HTTP chat-completion client for local model
servers, which keeps a bounded pool of completions in flight (``map``) and
retries transport failures, and a deterministic stub that samples a
``Decision`` from the archetype table so whole runs are bit-reproducible
from the master seed.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import select
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, Collection, Optional, Sequence
from urllib.parse import urlsplit

from .core import (
    ARCHETYPES,
    ENGAGEMENT_KINDS,
    ActionKind,
    AgentProfile,
    PsychometricVariant,
    ValidationError,
    check_shape,
)
from .memory import COMMENTS, DISLIKES, LIKES, RESHARES, MemoryUnit, am_summary

if TYPE_CHECKING:
    import http.client  # imported where used, as is concurrent.futures

    from .engine import PCG64Stream  # engine imports this module

log = logging.getLogger(__name__)

MAX_RETRIES = 3
FALLBACK_REASON = "fallback: invalid responses"

# Stub constants: how the stub's interact category splits into
# like/dislike/comment, and surrogate rows for agents without a behavioral
# trait (identity-only agents post almost exclusively; psychometric variants
# mostly post, with higher inactivity for low-extraversion/high-neuroticism).
INTERACT_SPLIT = (0.6, 0.1, 0.3)
ALL_POST_SURROGATE = (1.0, 0.0, 0.0, 0.0)
PSYCHOMETRIC_SURROGATE = (0.85, 0.0, 0.0, 0.15)
PSYCHOMETRIC_WITHDRAWN_SURROGATE = (0.5, 0.0, 0.0, 0.5)

# Globals for the per-decision path, as in ``engine``: reading an Enum member
# off its class costs about 0.1 µs, a global about a tenth of that.
_POST, _RESHARE = ActionKind.POST, ActionKind.RESHARE
_LIKE, _DISLIKE, _COMMENT = (ActionKind.LIKE, ActionKind.DISLIKE,
                             ActionKind.COMMENT)
_FOLLOW, _INACTIVE = ActionKind.FOLLOW, ActionKind.INACTIVE
# What ``permitted_actions`` offers, one tuple per answer.
_ALL_ACTIONS = tuple(ActionKind)
_OPENING_ACTIONS = (_POST, _INACTIVE)


class TransportError(RuntimeError):
    """Backend unreachable or returned a non-success HTTP status."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class FeedEntry:
    """The shape of a feed item: any object with these five attributes is
    one. ``recommend_feed`` hands the prompt the store's ``ContentItem``s;
    this class serves feeds built by hand."""

    content_id: int
    author: str
    text: str
    is_reshare: bool
    topic: Optional[str] = None


@dataclass
class DecisionPrompt:
    """The decision prompt of one agent-iteration.

    The feed and the permitted actions are fixed when the prompt is built.
    The system, feedback and activity sections are rendered from the
    agent's profile, memory and authored ids on first read, then cached: the
    stub backend reads none of them. That is sound because a decision's
    memory does not change between ``build_prompt`` and the end of
    ``decide``: ``run_iteration`` applies actions, records activity
    (``am_record``) and evaluates LTM only after every agent has decided, and
    a decision writes no other agent's memory.
    """

    agent: AgentProfile
    memory: MemoryUnit
    authored: Collection[int]  # the agent's own content ids, ascending
    iteration: int
    feed_section: tuple  # feed items: anything shaped like a FeedEntry
    actions_section: tuple  # of ActionKind

    @cached_property
    def system_text(self) -> str:
        """The identity text, then the behavioral (or psychometric) trait
        prompt; identity-only agents get the identity text alone."""
        system_parts = [self.agent.identity_text]
        if self.agent.trait is not None:
            system_parts.append(self.agent.trait.prompt_text)
        return "\n\n".join(system_parts)

    @cached_property
    def feedback_section(self) -> str:
        # own items in STM, then own items only in LTM; each in id order
        stm, ltm = self.memory.stm, self.memory.ltm
        lines, ltm_lines = [], []
        for cid in self.authored:
            if (entry := stm.get(cid)) is not None:
                lines.append(
                    f"Your content [{cid}]: {entry[RESHARES]} re-shares, "
                    f"{entry[LIKES]} likes, {entry[DISLIKES]} dislikes, "
                    f"{entry[COMMENTS]} comments.")
            elif (score := ltm.get(cid)) is not None:
                ltm_lines.append(f"Your content [{cid}] had lasting impact "
                                 f"(engagement score {score:g}).")
        return "\n".join(lines + ltm_lines) or "No feedback on your content yet."

    @cached_property
    def activity_section(self) -> str:
        return am_summary(self.memory.am, self.iteration)

    def user_text(self) -> str:
        lines = ["## Feedback on your content", self.feedback_section, ""]
        lines += ["## Your recent activity", self.activity_section, ""]
        lines.append("## Recommended feed")
        if self.feed_section:
            for e in self.feed_section:
                tag = " (re-share)" if e.is_reshare else ""
                lines.append(f"[{e.content_id}] by {e.author}{tag}: {e.text}")
        else:
            lines.append("(no content available yet)")
        lines += ["", "## Available actions"]
        lines.append(", ".join(k.value for k in self.actions_section))
        lines += [
            "",
            "Answer with exactly three lines:",
            "CHOICE: one of the available actions",
            "REASON: a short rationale",
            "CONTENT: post text for post; a feed content id for reshare/like/"
            "dislike; '<content id>: <your comment>' for comment; an agent id "
            "for follow; leave empty for inactive.",
        ]
        return "\n".join(lines)


@dataclass(slots=True)
class Decision:
    """A backend's answer: what every ``complete`` returns."""

    choice: ActionKind
    reason: str
    target: Optional[object] = None
    payload: Optional[str] = None


def permitted_actions(feed: Sequence[FeedEntry], iteration: int) -> tuple:
    """Action kinds offered this iteration.

    Iteration 1 and any empty-feed iteration offer post and inactive only:
    the engagements target a feed item and follow a feed item's author.
    Every call returns one of two module constants.
    """
    if feed and iteration > 1:
        return _ALL_ACTIONS
    return _OPENING_ACTIONS


def build_prompt(agent: AgentProfile, memory: MemoryUnit,
                 feed: Sequence[FeedEntry], iteration: int,
                 authored: Collection[int] = ()) -> DecisionPrompt:
    """The decision prompt for one agent-iteration; ``authored`` holds the
    agent's own content ids in ascending order, for the feedback section.
    The text sections render lazily (see ``DecisionPrompt``)."""
    return DecisionPrompt(agent, memory, authored, iteration, tuple(feed),
                          permitted_actions(feed, iteration))


_CHOICE_ALIASES = {
    "post": ActionKind.POST,
    "tweet": ActionKind.POST,
    "reshare": ActionKind.RESHARE,
    "re-share": ActionKind.RESHARE,
    "retweet": ActionKind.RESHARE,
    "share": ActionKind.RESHARE,
    "like": ActionKind.LIKE,
    "dislike": ActionKind.DISLIKE,
    "comment": ActionKind.COMMENT,
    "follow": ActionKind.FOLLOW,
    "inactive": ActionKind.INACTIVE,
    "none": ActionKind.INACTIVE,
    "nothing": ActionKind.INACTIVE,
}

_LINE_RE = re.compile(
    r"^\s*\**\s*(choice|reason|content)\s*\**\s*[:=]\s*(.*?)\s*$",
    re.IGNORECASE,
)
_CONTENT_ID_RE = re.compile(r"-?\d+")


def _extract_fields(raw_text: str) -> dict:
    stripped = raw_text.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except (ValueError, RecursionError):
            obj = None
        if isinstance(obj, dict):
            return {str(k).lower(): ("" if v is None else str(v)) for k, v in obj.items()}
    fields = {}
    current = None
    for line in raw_text.splitlines():
        m = _LINE_RE.match(line)
        if m:
            current = m.group(1).lower()
            fields[current] = m.group(2)
        elif current == "content" and line.strip():
            fields[current] += "\n" + line.rstrip()
    return fields


def parse_response(raw_text: str) -> Decision:
    """Read a backend's text answer into a ``Decision``.

    Raises ValidationError naming the broken text rule: ``parse failure`` or
    ``unknown action kind`` (or ``dangling content reference`` for an id of
    more digits than ``int`` converts). Whether the fields the text maps to
    have their kind's shape, and whether the world allows the decision, is
    ``validate_decision``'s part. A JSON answer that does not decode, even
    past a decoder limit, is read as lines of text.
    """
    fields = _extract_fields(raw_text)
    if "choice" not in fields:
        raise ValidationError("parse failure", "no CHOICE field found")
    choice_word = fields["choice"].strip().strip(".").lower()
    kind = _CHOICE_ALIASES.get(choice_word)
    if kind is None:
        raise ValidationError("unknown action kind", fields["choice"])
    content = fields.get("content", "").strip()
    target = payload = None
    if kind is _POST:
        payload = content
    elif kind is _COMMENT:
        head, _, text = content.partition(":")
        target, payload = _parse_content_id(head), text.strip()
    elif kind in ENGAGEMENT_KINDS:
        target = _parse_content_id(content)
    elif kind is _FOLLOW:
        target = content
    return Decision(kind, fields.get("reason", "").strip(), target, payload)


def _parse_content_id(text: str) -> Optional[int]:
    m = _CONTENT_ID_RE.search(text)
    if m is None:
        return None
    try:
        return int(m.group())
    except ValueError:  # more digits than int() converts
        detail = f"a content id of {len(m.group())} digits"
        raise ValidationError("dangling content reference", detail) from None


def validate_decision(decision: Decision, prompt: DecisionPrompt) -> None:
    """Check a decision's shape, then against the world its prompt showed.

    Raises ValidationError naming the broken rule: ``missing target``,
    ``missing payload`` or ``unexpected field`` from ``core.check_shape``,
    which every backend's answer meets here; then ``action not permitted``,
    ``dangling content reference`` for an engagement whose target is not in
    the feed, or ``unknown follow target`` for a follow whose target is not
    the author of a feed item.
    """
    choice, target = decision.choice, decision.target
    check_shape(choice, target, decision.payload)
    if choice not in prompt.actions_section:
        raise ValidationError("action not permitted", choice.value)
    # A feed is a handful of items: a loop finds the target without building
    # a set, and calls no Python function.
    if choice in ENGAGEMENT_KINDS:
        for entry in prompt.feed_section:
            if entry.content_id == target:
                break
        else:
            raise ValidationError("dangling content reference", str(target))
    elif choice is _FOLLOW:
        for entry in prompt.feed_section:
            if entry.author == target:
                break
        else:
            raise ValidationError("unknown follow target", str(target))


def decide(prompt: DecisionPrompt, backend,
           rng: Optional[PCG64Stream]) -> Decision:
    """Return the first valid decision, re-prompting on protocol violations.

    Every answer, the stub's as well as a model's, goes through
    ``validate_decision``. Transport errors propagate; after ``MAX_RETRIES``
    invalid answers the agent falls back to inactivity.
    """
    for attempt in range(MAX_RETRIES):
        try:
            decision = backend.complete(prompt, rng)
            validate_decision(decision, prompt)
            return decision
        except ValidationError as err:
            log.warning(
                "invalid decision from %s (attempt %d/%d): %s",
                prompt.agent.agent_id, attempt + 1, MAX_RETRIES, err,
            )
    log.warning("decision fallback to inactive for %s", prompt.agent.agent_id)
    return Decision(_INACTIVE, FALLBACK_REASON)


# ---------------------------------------------------------------------------
# Deterministic stub


def surrogate_distribution(trait) -> tuple:
    """Archetype row for trait-less or psychometric agents under the stub."""
    if trait is None:
        return ALL_POST_SURROGATE
    if isinstance(trait, PsychometricVariant):
        if (trait.factor, trait.level) in (("E", "Low"), ("N", "High")):
            return PSYCHOMETRIC_WITHDRAWN_SURROGATE
        return PSYCHOMETRIC_SURROGATE
    return ARCHETYPES[trait].as_tuple()


def _choice_cdf(p) -> tuple:
    """The cumulative distribution that ``Generator.choice(len(p), p=p)``
    builds and searches, as a tuple of the same float64 values: the running
    sums, added left to right as ``np.cumsum`` adds, over the last."""
    out = list(accumulate(map(float, p)))
    return tuple([value / out[-1] for value in out])


_INTERACT_CDF = _choice_cdf(INTERACT_SPLIT)


@lru_cache(maxsize=None)
def _category_cdf(trait, has_feed: bool) -> Optional[tuple]:
    """The CDF ``stub_decide`` draws a category from, or ``None`` when no
    category is feasible: the trait's row, with re-share and interact masked
    out for an empty feed, renormalized."""
    post, reshare, interact, inactive = map(float,
                                            surrogate_distribution(trait))
    if not has_feed:
        reshare = interact = 0.0
    # Added left to right, as numpy sums four floats; the builtin ``sum``
    # compensates float sums from Python 3.12 on.
    total = post + reshare + interact + inactive
    if total <= 0:
        return None
    return _choice_cdf([post / total, reshare / total, interact / total,
                        inactive / total])


def stub_decide(agent: AgentProfile, feed: Sequence[FeedEntry],
                rng: PCG64Stream, iteration: int = 0) -> Decision:
    """Sample a decision from the agent's archetype row.

    An empty feed masks re-share and interact out of the row, which is then
    renormalized; a draw the prompt does not permit otherwise (an engagement
    at iteration 1) is refused by ``validate_decision`` and re-drawn. Targets
    are drawn uniformly among topic-matching feed items when any exist, else
    uniformly over the feed.

    The category CDF depends only on the trait and on whether the feed is
    empty, so ``_category_cdf`` builds it once per pair and caches it. Each
    draw, the category's and the interact split's, is numpy's own
    inverse-CDF draw for ``choice`` with ``p``: ``bisect_right(cdf,
    rng.random())`` gives the same index and leaves the same generator
    state as ``rng.choice(len(p), p=p)``, as ``searchsorted(side="right")``
    finds the index, without building an array or making the checks
    ``choice`` makes on ``p``. The stub needs none of them: every archetype
    row passes ``ActionDistribution.__post_init__`` (components in [0, 1]
    that sum to 1) and the surrogates and ``INTERACT_SPLIT`` are constants.
    """
    cdf = _category_cdf(agent.trait, bool(feed))
    if cdf is None:
        return Decision(_INACTIVE, "stub: no feasible active category")
    category = bisect_right(cdf, rng.random())

    if category == 0:
        text = f"Update {iteration} from {agent.agent_id} on {agent.topic or 'life'}"
        return Decision(_POST, "stub: archetype post", payload=text)
    if category == 3:
        return Decision(_INACTIVE, "stub: archetype inactivity")

    matching = [e for e in feed if e.topic == agent.topic]
    pool = matching if matching else feed
    target = pool[rng.integers(len(pool))]
    if category == 1:
        return Decision(_RESHARE, "stub: archetype re-share",
                        target=target.content_id)
    sub = bisect_right(_INTERACT_CDF, rng.random())
    if sub == 0:
        return Decision(_LIKE, "stub: archetype reaction",
                        target=target.content_id)
    if sub == 1:
        return Decision(_DISLIKE, "stub: archetype reaction",
                        target=target.content_id)
    text = f"Comment {iteration} from {agent.agent_id}"
    return Decision(_COMMENT, "stub: archetype reaction",
                    target=target.content_id, payload=text)


class StubBackend:
    """Answers with the decision ``stub_decide`` samples for the prompt's
    agent, from the stream ``decide`` hands it: it calls only ``random()``
    and ``integers(high)``, so a numpy ``Generator`` draws the same."""

    def complete(self, prompt: DecisionPrompt,
                 rng: PCG64Stream) -> Decision:
        return stub_decide(prompt.agent, prompt.feed_section, rng,
                           prompt.iteration)


# ---------------------------------------------------------------------------
# HTTP chat-completion client

TOKEN_ENV_VAR = "TRAITSIM_API_TOKEN"

# A connection error, a timeout, a 429 or a 5xx is sent again up to
# TRANSPORT_RETRIES times, after a backoff that starts at RETRY_BACKOFF_S and
# doubles up to RETRY_BACKOFF_CAP_S. These retries resend one request; the
# protocol re-prompts live in ``decide``.
TRANSPORT_RETRIES = 3
RETRY_BACKOFF_S = 0.5
RETRY_BACKOFF_CAP_S = 8.0
_sleep = time.sleep


@dataclass
class EndpointConfig:
    endpoint: str  # full chat-completions URL, e.g. http://localhost:11434/v1/chat/completions
    model: str
    temperature: float = 0.7
    timeout: float = 60.0
    concurrency: int = 8  # completions in flight at once (LLMBackend.map)

    def __post_init__(self):
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:  # as a socket's
            raise ValueError(f"timeout must be above 0 and at most "
                             f"{threading.TIMEOUT_MAX:g}, got {self.timeout}")
        if not math.isfinite(self.temperature):  # JSON has no NaN
            raise ValueError(f"temperature must be finite, got "
                             f"{self.temperature}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be at least 1, got "
                             f"{self.concurrency}")


class LLMBackend:
    """One chat-completion round trip per answer, parsed into a
    ``Decision``.

    The backend owns a pool of ``endpoint.concurrency`` worker threads for its
    whole life; ``map`` runs work on it, and each thread keeps one keep-alive
    ``http.client`` connection to the endpoint's host, reused across calls.
    ``close`` stops the pool and closes the connections. ``http.client``,
    which loads ``ssl`` and ``email``, and ``concurrent.futures`` are
    imported only by this class, so a stub run loads neither.
    """

    def __init__(self, endpoint: EndpointConfig):
        import http.client
        from concurrent.futures import ThreadPoolExecutor

        self.endpoint = endpoint
        url = urlsplit(endpoint.endpoint)
        self._connection_class = (http.client.HTTPSConnection
                                  if url.scheme == "https"
                                  else http.client.HTTPConnection)
        self._address = (url.hostname, url.port)
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        token = os.environ.get(TOKEN_ENV_VAR)
        self.headers = {"Content-Type": "application/json"}
        if token:
            self.headers["Authorization"] = f"Bearer {token}"
        self._pool = ThreadPoolExecutor(endpoint.concurrency,
                                        thread_name_prefix="traitsim-llm")
        self._local = threading.local()
        self._connections = []
        self._connections_lock = threading.Lock()

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection. One whose idle socket is readable was
        closed by the server (or got bytes it did not ask for), so it is
        closed here and reopens on the next request. Readiness is asked of
        ``select.poll``: ``select.select`` refuses a descriptor numbered
        ``FD_SETSIZE`` (1024) or higher, and a ``selectors`` selector makes
        four system calls, each releasing the interpreter lock."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connection_class(
                *self._address, timeout=self.endpoint.timeout)
            with self._connections_lock:
                self._connections.append(connection)
        elif connection.sock is not None:
            idle = select.poll()
            idle.register(connection.sock, select.POLLIN)
            if idle.poll(0):
                connection.close()
        return connection

    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]``, computed on the pool with up to
        ``endpoint.concurrency`` calls at once; results in ``items`` order.

        If a call raises, the calls not yet started are cancelled and the
        running ones awaited; then the exception of the first failing item
        in ``items`` order is raised. No call is running when this returns
        or raises, and the exception leaves no reference cycle behind.
        """
        from concurrent.futures import FIRST_EXCEPTION, wait

        futures = [self._pool.submit(fn, item) for item in items]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            for future in futures:
                future.cancel()
            wait(futures)
        # The pool starts calls in submission order, so every cancelled call
        # comes after the first failing one.
        error = next(filter(None, (f.exception() for f in futures)), None)
        if error is None:
            return [future.result() for future in futures]
        try:
            raise error
        finally:  # the traceback holds this frame: break the cycle
            del error, futures, future

    def close(self) -> None:
        """Stop the pool (cancelling queued calls, awaiting running ones)
        and close every thread's connection."""
        self._pool.shutdown(wait=True, cancel_futures=True)
        with self._connections_lock:
            for connection in self._connections:
                connection.close()
            self._connections.clear()

    def chat(self, system_text: str, user_text: str) -> str:
        """The model's answer text.

        A connection error, a timeout, a 429 or a 5xx is retried
        ``TRANSPORT_RETRIES`` times with capped exponential backoff. Any other
        status, a malformed body, or the last retryable failure raises
        ``TransportError`` (with the HTTP status, if there was one).
        """
        import http.client

        body = {
            "model": self.endpoint.model,
            "messages": [
                {"role": "system", "content": system_text},
                {"role": "user", "content": user_text},
            ],
            "temperature": self.endpoint.temperature,
            "stream": False,
        }
        payload = json.dumps(body).encode()
        for attempt in range(TRANSPORT_RETRIES + 1):
            if attempt:
                _sleep(min(RETRY_BACKOFF_S * 2 ** (attempt - 1),
                           RETRY_BACKOFF_CAP_S))
            connection = self._connection()
            try:
                connection.request("POST", self._path, payload, self.headers)
                response = connection.getresponse()
                data = response.read()
            except (OSError, http.client.HTTPException) as err:
                connection.close()
                failure, status = f"backend unreachable: {err}", None
                continue
            status = response.status
            if status == 200:
                try:
                    return json.loads(data)["choices"][0]["message"]["content"]
                except (ValueError, RecursionError, KeyError, IndexError,
                        TypeError) as err:
                    raise TransportError(
                        f"malformed completion response: {err}") from err
            failure = (f"backend returned HTTP {status}: "
                       f"{data.decode('utf-8', 'replace')[:200]}")
            if status != 429 and status < 500:
                raise TransportError(failure, status=status)
        raise TransportError(f"{failure} ({attempt + 1} attempts)",
                             status=status)

    def complete(self, prompt: DecisionPrompt, rng) -> Decision:
        """The parsed answer; ``rng`` is unused (sampling is the model's)."""
        return parse_response(self.chat(prompt.system_text, prompt.user_text()))
