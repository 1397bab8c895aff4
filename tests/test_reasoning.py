import itertools
import json
import os
import re
import socket
import threading
import time
from bisect import bisect_right
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from traitsim.core import (
    ARCHETYPES,
    ActionKind,
    AgentProfile,
    OCEAN_VARIANTS,
    Trait,
    TRAIT_PROMPTS,
)
from traitsim.engine import SimulationConfig, run_simulation
from traitsim.memory import MemoryUnit
from traitsim import reasoning
from traitsim.reasoning import (
    Decision,
    EndpointConfig,
    FALLBACK_REASON,
    FeedEntry,
    LLMBackend,
    MAX_RETRIES,
    StubBackend,
    TransportError,
    ValidationError,
    build_prompt,
    decide,
    parse_response,
    permitted_actions,
    stub_decide,
    surrogate_distribution,
    validate_decision,
)

from conftest import chat_server, pool_threads


def agent(trait=Trait.BP, topic="Music", agent_id="a1"):
    return AgentProfile(agent_id, "A musician from Lisbon.", trait, topic)


FEED = (
    FeedEntry(3, "b1", "drum patterns", False, "Music"),
    FeedEntry(5, "c1", "vaccine study", True, "Healthcare"),
)


def prompt_for(feed=FEED, iteration=4, trait=Trait.BP):
    return build_prompt(agent(trait), MemoryUnit(), feed, iteration)


class TestPermittedActions:
    def test_first_iteration_post_or_inactive_only(self):
        assert permitted_actions((), 1) == (ActionKind.POST, ActionKind.INACTIVE)

    def test_empty_feed_blocks_engagements_and_follow(self):
        # a follow names a feed item's author, as an engagement a feed item
        assert permitted_actions((), 5) == (ActionKind.POST,
                                            ActionKind.INACTIVE)

    def test_full_feed_offers_everything(self):
        kinds = permitted_actions(FEED, 5)
        assert set(kinds) == set(ActionKind)

    def test_solo_population_never_offers_follow(self):
        offered = set()

        class Recording(StubBackend):
            def complete(self, prompt, rng):
                offered.update(prompt.actions_section)
                return super().complete(prompt, rng)

        personas = [{"id": "solo", "identity_text": "Alone.", "topic": "Music"}]
        run_simulation(SimulationConfig(configuration="IdentityOnly",
                                        iterations=6), personas, Recording())
        assert offered == {ActionKind.POST, ActionKind.INACTIVE}


class TestBuildPrompt:
    def test_trait_prompt_embedded_verbatim(self):
        p = prompt_for(trait=Trait.SO)
        assert TRAIT_PROMPTS[Trait.SO] in p.system_text
        assert "A musician from Lisbon." in p.system_text

    def test_identity_only_agent_has_no_trait_text(self):
        p = build_prompt(agent(trait=None), MemoryUnit(), FEED, 4)
        assert p.system_text == "A musician from Lisbon."

    def test_psychometric_prompt_embedded(self):
        variant = OCEAN_VARIANTS[0]
        p = build_prompt(agent(trait=variant), MemoryUnit(), FEED, 4)
        assert variant.prompt_text in p.system_text

    def test_feed_rendered_with_ids_and_reshare_tag(self):
        text = prompt_for().user_text()
        assert "[3] by b1: drum patterns" in text
        assert "[5] by c1 (re-share): vaccine study" in text

    def test_empty_state_sections(self):
        p = build_prompt(agent(), MemoryUnit(), (), 1)
        assert p.feedback_section == "No feedback on your content yet."
        assert p.activity_section == "No recent activity recorded."
        assert "(no content available yet)" in p.user_text()

    def test_rendering_is_deterministic(self):
        assert prompt_for().user_text() == prompt_for().user_text()


def accepted(raw):
    """The decision a text answer parses to, checked against ``prompt_for()``."""
    decision = parse_response(raw)
    validate_decision(decision, prompt_for())
    return decision


# The rules ``parse_response`` owns; ``validate_decision`` owns the rest,
# the shape rules of ``core.check_shape`` included.
TEXT_RULES = ("parse failure", "unknown action kind")


class TestValidateDecision:
    def test_post_triplet(self):
        d = accepted("CHOICE: post\nREASON: felt like it\nCONTENT: hello world")
        assert d.choice is ActionKind.POST
        assert d.payload == "hello world"
        assert d.reason == "felt like it"

    def test_json_alternative(self):
        d = accepted(
            json.dumps({"choice": "like", "reason": "nice", "content": "3"}))
        assert d.choice is ActionKind.LIKE
        assert d.target == 3

    def test_choice_aliases(self):
        d = accepted("CHOICE: retweet\nREASON: x\nCONTENT: 5")
        assert d.choice is ActionKind.RESHARE

    def test_comment_payload_format(self):
        d = accepted("CHOICE: comment\nREASON: x\nCONTENT: 3: great rhythm")
        assert (d.target, d.payload) == (3, "great rhythm")

    def test_multiline_post_content(self):
        d = accepted("CHOICE: post\nREASON: x\nCONTENT: line one\nline two")
        assert d.payload == "line one\nline two"

    @pytest.mark.parametrize("raw,rule", [
        ("complete gibberish", "parse failure"),
        ("CHOICE: teleport\nREASON: x\nCONTENT:", "unknown action kind"),
        ("CHOICE: reshare\nREASON: x\nCONTENT: 3", "action not permitted"),
        ("CHOICE: like\nREASON: x\nCONTENT: 99", "dangling content reference"),
        ("CHOICE: post\nREASON: x\nCONTENT:", "missing payload"),
        ("CHOICE: comment\nREASON: x\nCONTENT: 3:", "missing payload"),
        ("CHOICE: like\nREASON: x\nCONTENT: none", "missing target"),
        ("CHOICE: follow\nREASON: x\nCONTENT:", "missing target"),
        ("CHOICE: follow\nREASON: x\nCONTENT: nobody-here",
         "unknown follow target"),
    ])
    def test_violations_name_their_rule(self, raw, rule):
        prompt = (prompt_for(iteration=1, feed=())
                  if rule == "action not permitted" else prompt_for())
        with pytest.raises(ValidationError) as err:
            if rule in TEXT_RULES:
                parse_response(raw)
            else:
                validate_decision(parse_response(raw), prompt)
        assert err.value.rule == rule

    def test_text_rule_reported_before_world_rule(self, caplog):
        # A target-less reshare where no reshare is permitted: the shape
        # rule, checked first, is the one reported.
        raw = "CHOICE: reshare\nREASON: x\nCONTENT:"
        prompt = prompt_for(iteration=1, feed=())
        assert ActionKind.RESHARE not in prompt.actions_section
        decide(prompt, _ScriptedBackend([raw] * MAX_RETRIES), rng())
        assert caplog.text.count("missing target") == MAX_RETRIES
        assert "action not permitted" not in caplog.text


class _ScriptedBackend:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def complete(self, prompt, rng):
        self.calls += 1
        return parse_response(self.responses.pop(0))


def rng(seed=0):
    return np.random.default_rng(seed)


class TestDecide:
    def test_valid_first_answer(self):
        backend = _ScriptedBackend(["CHOICE: like\nREASON: ok\nCONTENT: 3"])
        d = decide(prompt_for(), backend, rng())
        assert d.choice is ActionKind.LIKE
        assert backend.calls == 1

    def test_reprompts_after_invalid_answer(self):
        backend = _ScriptedBackend(
            ["garbage", "CHOICE: post\nREASON: ok\nCONTENT: hi"])
        d = decide(prompt_for(), backend, rng())
        assert d.choice is ActionKind.POST
        assert backend.calls == 2

    def test_follow_names_a_feed_author(self):
        backend = _ScriptedBackend(["CHOICE: follow\nREASON: ok\nCONTENT: c1"])
        d = decide(prompt_for(), backend, rng())
        assert (d.choice, d.target) == (ActionKind.FOLLOW, "c1")

    def test_unknown_follow_target_is_reprompted_then_falls_back(self,
                                                                 caplog):
        backend = _ScriptedBackend(
            ["CHOICE: follow\nREASON: x\nCONTENT: nobody-here"] * MAX_RETRIES)
        d = decide(prompt_for(), backend, rng())
        assert d.choice is ActionKind.INACTIVE
        assert d.reason == FALLBACK_REASON
        assert backend.calls == MAX_RETRIES
        assert caplog.text.count("unknown follow target") == MAX_RETRIES

    def test_falls_back_to_inactive_after_retries(self):
        backend = _ScriptedBackend(["bad"] * 3)
        d = decide(prompt_for(), backend, rng())
        assert d.choice is ActionKind.INACTIVE
        assert d.reason == FALLBACK_REASON
        assert backend.calls == MAX_RETRIES == 3

    @pytest.mark.parametrize("raw, rule", [
        ("CHOICE: like\nREASON: x\nCONTENT: " + "9" * 5000,
         "dangling content reference"),
        (json.dumps({"choice": "like", "reason": "x", "content": "9" * 5000}),
         "dangling content reference"),
        ('{"choice": "like", "reason": "x", "content": ' + "9" * 5000 + "}",
         "parse failure"),
        ('{"choice": "like", "content": ' + "[" * 100_000, "parse failure"),
    ], ids=["text-id-digits", "json-id-digits", "json-number-digits",
            "json-nested-too-deep"])
    def test_answer_past_a_decoder_limit_is_reprompted(self, raw, rule,
                                                       caplog):
        """A content id of more digits than ``int`` converts, or JSON nested
        past the recursion limit, is a protocol violation, not a crash."""
        backend = _ScriptedBackend(
            [raw, "CHOICE: like\nREASON: ok\nCONTENT: 3"])
        d = decide(prompt_for(), backend, rng())
        assert (d.choice, d.target, backend.calls) == (ActionKind.LIKE, 3, 2)
        assert f"): {rule}" in caplog.text

    def test_transport_errors_propagate(self):
        class Boom:
            def complete(self, prompt, rng):
                raise TransportError("down", status=503)

        with pytest.raises(TransportError):
            decide(prompt_for(), Boom(), rng())


class TestStub:
    def test_silent_observer_stays_silent(self):
        rng = np.random.default_rng(1)
        so = agent(Trait.SO)
        kinds = [stub_decide(so, FEED, rng, 4).choice for _ in range(10_000)]
        inactive = sum(k is ActionKind.INACTIVE for k in kinds)
        assert inactive / len(kinds) >= 0.99

    def test_amplifier_reshare_rate_matches_archetype(self):
        rng = np.random.default_rng(2)
        ca = agent(Trait.CA)
        kinds = [stub_decide(ca, FEED, rng, 4).choice for _ in range(10_000)]
        rate = sum(k is ActionKind.RESHARE for k in kinds) / len(kinds)
        assert rate == pytest.approx(ARCHETYPES[Trait.CA].p_reshare,
                                     abs=0.02)

    def test_empty_feed_masks_to_post_or_inactive(self):
        rng = np.random.default_rng(3)
        bp = agent(Trait.BP)
        kinds = {stub_decide(bp, (), rng, 4).choice for _ in range(500)}
        assert kinds <= {ActionKind.POST, ActionKind.INACTIVE}

    def test_masked_frequencies_converge(self):
        # law-of-large-numbers check against the renormalized IE row
        rng = np.random.default_rng(4)
        ie = agent(Trait.IE)
        row = ARCHETYPES[Trait.IE]
        expected_post = row.p_post / (row.p_post + row.p_inactive)
        n = 100_000
        posts = sum(stub_decide(ie, (), rng, 4).choice is ActionKind.POST
                    for _ in range(n))
        assert posts / n == pytest.approx(expected_post, abs=0.01)

    def test_targets_prefer_topic_matches(self):
        rng = np.random.default_rng(5)
        ca = agent(Trait.CA, topic="Music")
        for _ in range(200):
            d = stub_decide(ca, FEED, rng, 4)
            if d.target is not None:
                assert d.target == 3  # the only Music item

    def test_no_topic_match_targets_whole_feed(self):
        rng = np.random.default_rng(6)
        ca = agent(Trait.CA, topic="Religion")
        targets = {stub_decide(ca, FEED, rng, 4).target for _ in range(300)}
        assert {3, 5} <= targets

    def test_surrogates(self):
        assert surrogate_distribution(None) == (1.0, 0.0, 0.0, 0.0)
        by_code = {v.code: v for v in OCEAN_VARIANTS}
        assert surrogate_distribution(by_code["OH"]) == (0.85, 0.0, 0.0, 0.15)
        assert surrogate_distribution(by_code["EL"]) == (0.5, 0.0, 0.0, 0.5)
        assert surrogate_distribution(by_code["NH"]) == (0.5, 0.0, 0.0, 0.5)

    def test_backend_answers_pass_validation(self):
        backend = StubBackend()
        for seed in range(50):
            d = backend.complete(prompt_for(), rng(seed))
            assert d == stub_decide(agent(Trait.BP), FEED, rng(seed), 4)
            validate_decision(d, prompt_for())  # must not raise

    def test_backend_deterministic_per_seed(self):
        backend = StubBackend()
        decisions = [backend.complete(prompt_for(), rng(seed=9))
                     for _ in range(5)]
        # fresh rng per call; same seed, same decision
        assert decisions == decisions[:1] * 5

    @pytest.mark.parametrize("agent_id,topic", [("a1 ", "Tech "),
                                                ("A\n\nB", "Music"),
                                                ("\ta1\n", "\nTech")])
    def test_text_payloads_are_the_stub_strings(self, agent_id, topic):
        # No text parser sits between the stub and the world: edge
        # whitespace and blank lines in an id or topic reach the payload,
        # where the triplet's line parser stripped or dropped them.
        expected = {ActionKind.POST: f"Update 4 from {agent_id} on {topic}",
                    ActionKind.COMMENT: f"Comment 4 from {agent_id}"}
        seen = set()
        for trait, seed in itertools.product((Trait.PC, Trait.OE), range(50)):
            prompt = build_prompt(agent(trait, topic, agent_id), MemoryUnit(),
                                  FEED, 4)
            d = decide(prompt, StubBackend(), rng(seed))
            if d.choice in expected:
                assert d.payload == expected[d.choice]
                assert (parse_response(_reference_triplet(d)).payload
                        != d.payload)
                seen.add(d.choice)
        assert seen == expected.keys()


def _reference_stub_decide(agent, feed, rng, iteration=0):
    """``stub_decide`` as it sampled through ``Generator.choice``."""
    row = np.asarray(surrogate_distribution(agent.trait), dtype=float)
    if not feed:
        row = row * np.array([1.0, 0.0, 0.0, 1.0])
    total = row.sum()
    if total <= 0:
        return Decision(ActionKind.INACTIVE, "stub: no feasible active category")
    category = rng.choice(4, p=row / total)
    if category == 0:
        text = f"Update {iteration} from {agent.agent_id} on {agent.topic or 'life'}"
        return Decision(ActionKind.POST, "stub: archetype post", payload=text)
    if category == 3:
        return Decision(ActionKind.INACTIVE, "stub: archetype inactivity")
    matching = [e for e in feed if e.topic == agent.topic]
    pool = matching if matching else list(feed)
    target = pool[rng.integers(len(pool))]
    if category == 1:
        return Decision(ActionKind.RESHARE, "stub: archetype re-share",
                        target=target.content_id)
    sub = rng.choice(3, p=np.asarray(reasoning.INTERACT_SPLIT, dtype=float))
    if sub == 0:
        return Decision(ActionKind.LIKE, "stub: archetype reaction",
                        target=target.content_id)
    if sub == 1:
        return Decision(ActionKind.DISLIKE, "stub: archetype reaction",
                        target=target.content_id)
    text = f"Comment {iteration} from {agent.agent_id}"
    return Decision(ActionKind.COMMENT, "stub: archetype reaction",
                    target=target.content_id, payload=text)


# Every trait the stub can see: the 7 archetypes, the psychometric variants
# (both surrogate rows) and none (the all-post surrogate).
STUB_TRAITS = (*Trait, *OCEAN_VARIANTS, None)
# Every row the stub draws a category from, and the cumulative distribution
# it searches: the rows as they are and masked for an empty feed, then the
# interact split.
_ROWS = [np.asarray(surrogate_distribution(t), dtype=float) * mask
         for t in STUB_TRAITS for mask in (1.0, np.array([1.0, 0, 0, 1.0]))]
STUB_CDFS = [(row / row.sum(), reasoning._choice_cdf(row / row.sum()))
             for row in _ROWS if row.sum() > 0]
STUB_CDFS.append((np.asarray(reasoning.INTERACT_SPLIT),
                  reasoning._INTERACT_CDF))


class TestInverseCdfDraw:
    @settings(max_examples=300, deadline=None)
    @given(case=st.sampled_from(STUB_CDFS), seed=st.integers(0, 2**64 - 1),
           draws=st.integers(1, 40))
    def test_same_index_and_state_as_choice(self, case, seed, draws):
        """``stub_decide``'s draw, ``bisect_right`` over a cached CDF, gives
        ``choice``'s index and leaves its generator state."""
        p, cdf = case
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            assert bisect_right(cdf, ours.random()) == theirs.choice(len(p),
                                                                     p=p)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_cached_cdf_is_the_rows_cdf_bit_for_bit(self):
        keys = itertools.product(STUB_TRAITS, (True, False))  # _ROWS' order
        for (trait, has_feed), row in zip(keys, _ROWS, strict=True):
            cdf = reasoning._category_cdf(trait, has_feed)
            if row.sum() <= 0:
                assert cdf is None
                continue
            expected = np.cumsum(row / row.sum(), dtype=float)
            expected /= expected[-1]  # as Generator.choice builds it
            assert all(type(value) is float for value in cdf)
            assert np.array(cdf).tobytes() == expected.tobytes()
            assert cdf is reasoning._category_cdf(trait, has_feed)
            with pytest.raises(TypeError):
                cdf[0] = 0.5

    def test_infeasible_row_caches_none(self, monkeypatch):
        no_row = object()  # a trait key no other test uses
        rows = surrogate_distribution
        monkeypatch.setattr(reasoning, "surrogate_distribution", lambda t: (
            (0.0, 0.6, 0.4, 0.0) if t is no_row else rows(t)))
        assert reasoning._category_cdf(no_row, True) is not None
        assert reasoning._category_cdf(no_row, False) is None
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        decision = stub_decide(agent(no_row), (), rng, 2)
        assert decision == Decision(ActionKind.INACTIVE,
                                    "stub: no feasible active category")
        assert rng.bit_generator.state == state

    @settings(max_examples=300, deadline=None)
    @given(trait=st.sampled_from(STUB_TRAITS),
           topic=st.sampled_from(("Music", "Religion")),
           feed=st.sampled_from(((), FEED, FEED[1:])),
           seed=st.integers(0, 2**64 - 1))
    def test_stub_decide_same_as_reference(self, trait, topic, feed, seed):
        profile = agent(trait, topic)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for iteration in range(1, 6):
            assert (stub_decide(profile, feed, ours, iteration)
                    == _reference_stub_decide(profile, feed, theirs, iteration))
        assert ours.bit_generator.state == theirs.bit_generator.state


def _reference_triplet(decision):
    """A decision as the CHOICE/REASON/CONTENT triplet a model writes; the
    stub backend once answered through this text."""
    if decision.choice is ActionKind.POST:
        content = decision.payload
    elif decision.choice is ActionKind.COMMENT:
        content = f"{decision.target}: {decision.payload}"
    elif decision.target is not None:
        content = str(decision.target)
    else:
        content = ""
    return (
        f"CHOICE: {decision.choice.value}\n"
        f"REASON: {decision.reason}\n"
        f"CONTENT: {content}"
    )


def _outcome(check, *args):
    try:
        return check(*args)
    except ValidationError as err:
        return err.rule


def _round_trip_kinds(profile, feed, seed):
    """Check that every stub decision of five iterations, written as a
    triplet and parsed back, is the same decision with the same verdict;
    return the kinds seen."""
    rng = np.random.default_rng(seed)
    kinds = set()
    for iteration in range(1, 6):
        prompt = build_prompt(profile, MemoryUnit(), feed, iteration)
        decision = stub_decide(profile, feed, rng, iteration)
        parsed = parse_response(_reference_triplet(decision))
        assert parsed == decision
        assert (_outcome(validate_decision, parsed, prompt)
                == _outcome(validate_decision, decision, prompt))
        kinds.add(decision.choice)
    return kinds


# Ids and topics without edge whitespace or line breaks, which the
# triplet's line parser would alter.
CLEAN_TEXT = st.from_regex(r"[A-Za-z0-9]([A-Za-z0-9 _.:=*-]{0,12}[A-Za-z0-9])?",
                           fullmatch=True)


class TestTripletRoundTrip:
    """The LLM protocol can express every stub decision: its triplet parses
    back to the same decision, which the world check treats the same."""

    @settings(max_examples=300, deadline=None)
    @given(trait=st.sampled_from(STUB_TRAITS), agent_id=CLEAN_TEXT,
           topic=st.one_of(st.none(), st.sampled_from(("Music", "Healthcare")),
                           CLEAN_TEXT),
           feed=st.sampled_from(((), FEED, FEED[1:])),
           seed=st.integers(0, 2**64 - 1))
    def test_triplet_parses_back_to_the_decision(self, trait, agent_id, topic,
                                                 feed, seed):
        _round_trip_kinds(agent(trait, topic, agent_id), feed, seed)

    def test_every_stub_decision_kind_round_trips(self):
        kinds = set()
        for trait in STUB_TRAITS:
            for feed in ((), FEED):
                for seed in range(20):
                    kinds |= _round_trip_kinds(agent(trait), feed, seed)
        assert kinds == set(ActionKind) - {ActionKind.FOLLOW}


# ---------------------------------------------------------------------------
# HTTP client against a real local server


class _Handler(BaseHTTPRequestHandler):
    """Answers ``script``; the first requests take their status from the
    list ``script["statuses"]``, if there is one. A 200 carries
    ``script["body"]`` if it is given, else a completion of
    ``script["content"]``."""

    script = {"status": 200, "content": "CHOICE: inactive\nREASON: x\nCONTENT:"}
    requests_seen = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(
            {"body": body, "auth": self.headers.get("Authorization"),
             "content_type": self.headers.get("Content-Type"),
             "path": self.path})
        statuses = type(self).script.get("statuses")
        status = statuses.pop(0) if statuses else type(self).script["status"]
        if status != 200:
            self.send_response(status)
            self.end_headers()
            self.wfile.write(b"server exploded")
            return
        payload = type(self).script.get("body") or json.dumps({
            "choices": [{"message": {"content": type(self).script["content"]}}]
        }).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.requests_seen.clear()
    _Handler.script = {"status": 200,
                       "content": "CHOICE: inactive\nREASON: x\nCONTENT:"}
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


ANSWER = "CHOICE: inactive\nREASON: x\nCONTENT:"


@pytest.fixture
def closing_endpoint():
    """A raw-socket HTTP/1.1 server that answers each connection's first
    request with a ``Content-Length`` 200, then closes the socket without
    having sent ``Connection: close``. Yields ``(url, closed)``; ``closed``
    is set each time the server has closed a connection."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    closed, stop = threading.Event(), threading.Event()
    payload = json.dumps({"choices": [{"message": {"content": ANSWER}}]})

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            with conn:
                request = b""
                while b"\r\n\r\n" not in request:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    request += chunk
                head, _, body = request.partition(b"\r\n\r\n")
                length = re.search(rb"(?i)content-length: *(\d+)", head)
                while length and len(body) < int(length.group(1)):
                    body += conn.recv(65536)
                conn.sendall(
                    f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n\r\n{payload}".encode())
            closed.set()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{listener.getsockname()[1]}/v1", closed
    stop.set()
    thread.join()
    listener.close()


@pytest.fixture
def backoffs(monkeypatch):
    """The transport retries' backoff delays, recorded instead of slept."""
    delays = []
    monkeypatch.setattr(reasoning, "_sleep", delays.append)
    return delays


class TestLLMBackend:
    def test_round_trip_and_request_shape(self, http_endpoint):
        backend = LLMBackend(EndpointConfig(http_endpoint + "?api-version=2",
                                            "test-model"))
        d = backend.complete(prompt_for(), None)
        assert d == Decision(ActionKind.INACTIVE, "x")
        request = _Handler.requests_seen[-1]
        assert request["path"] == "/v1/chat/completions?api-version=2"
        assert request["content_type"] == "application/json"
        body = request["body"]
        assert body["model"] == "test-model"
        assert body["temperature"] == 0.7
        assert body["stream"] is False
        assert [m["role"] for m in body["messages"]] == ["system", "user"]
        assert TRAIT_PROMPTS[Trait.BP] in body["messages"][0]["content"]
        assert "## Recommended feed" in body["messages"][1]["content"]

    def test_temperature_override(self, http_endpoint):
        backend = LLMBackend(EndpointConfig(http_endpoint, "m", temperature=0.2))
        backend.chat("s", "u")
        assert _Handler.requests_seen[-1]["body"]["temperature"] == 0.2

    def test_bearer_token_from_environment(self, http_endpoint, monkeypatch):
        monkeypatch.setenv("TRAITSIM_API_TOKEN", "sekrit")
        LLMBackend(EndpointConfig(http_endpoint, "m")).chat("s", "u")
        assert _Handler.requests_seen[-1]["auth"] == "Bearer sekrit"

    def test_token_read_once_at_construction(self, http_endpoint, monkeypatch):
        monkeypatch.setenv("TRAITSIM_API_TOKEN", "first")
        backend = LLMBackend(EndpointConfig(http_endpoint, "m"))
        monkeypatch.setenv("TRAITSIM_API_TOKEN", "second")
        backend.chat("s", "u")
        monkeypatch.delenv("TRAITSIM_API_TOKEN")
        backend.chat("s", "u")
        backend.close()
        assert [r["auth"] for r in _Handler.requests_seen] == ["Bearer first"] * 2

    def test_http_error_raises_transport_error_with_status(self, http_endpoint,
                                                           backoffs):
        _Handler.script = {"status": 500, "content": ""}
        backend = LLMBackend(EndpointConfig(http_endpoint, "m"))
        with pytest.raises(TransportError) as err:
            backend.chat("s", "u")
        assert err.value.status == 500
        attempts = reasoning.TRANSPORT_RETRIES + 1
        assert f"({attempts} attempts)" in str(err.value)
        assert len(_Handler.requests_seen) == attempts

    def test_unreachable_host_raises_transport_error(self, backoffs):
        backend = LLMBackend(EndpointConfig(
            "http://127.0.0.1:1/v1/chat/completions", "m", timeout=0.5))
        with pytest.raises(TransportError) as err:
            backend.chat("s", "u")
        assert err.value.status is None
        assert "unreachable" in str(err.value)
        assert len(backoffs) == reasoning.TRANSPORT_RETRIES


class TestTransportRetries:
    def test_503_then_200_returns_the_answer_after_two_requests(
            self, http_endpoint, backoffs):
        _Handler.script["statuses"] = [503]
        backend = LLMBackend(EndpointConfig(http_endpoint, "m"))
        d = backend.complete(prompt_for(), None)
        assert d == Decision(ActionKind.INACTIVE, "x")
        assert len(_Handler.requests_seen) == 2
        assert backoffs == [reasoning.RETRY_BACKOFF_S]

    def test_429_is_retried(self, http_endpoint, backoffs):
        _Handler.script["statuses"] = [429, 429]
        LLMBackend(EndpointConfig(http_endpoint, "m")).chat("s", "u")
        assert len(_Handler.requests_seen) == 3

    def test_backoff_doubles_up_to_the_cap(self, http_endpoint, backoffs,
                                           monkeypatch):
        monkeypatch.setattr(reasoning, "TRANSPORT_RETRIES", 6)
        _Handler.script = {"status": 502, "content": ""}
        with pytest.raises(TransportError) as err:
            LLMBackend(EndpointConfig(http_endpoint, "m")).chat("s", "u")
        assert err.value.status == 502 and "(7 attempts)" in str(err.value)
        assert backoffs == [0.5, 1.0, 2.0, 4.0, 8.0,
                            reasoning.RETRY_BACKOFF_CAP_S]

    @pytest.mark.parametrize("status", [400, 401, 404])
    def test_other_4xx_is_not_retried(self, http_endpoint, backoffs, status):
        _Handler.script = {"status": status, "content": ""}
        with pytest.raises(TransportError) as err:
            LLMBackend(EndpointConfig(http_endpoint, "m")).chat("s", "u")
        assert err.value.status == status
        assert len(_Handler.requests_seen) == 1 and backoffs == []

    def test_malformed_body_is_not_retried(self, http_endpoint, backoffs):
        _Handler.script["body"] = b'{"choices": []}'
        with pytest.raises(TransportError, match="malformed"):
            LLMBackend(EndpointConfig(http_endpoint, "m")).chat("s", "u")
        assert len(_Handler.requests_seen) == 1 and backoffs == []

    def test_body_that_is_not_json_is_not_retried(self, http_endpoint,
                                                  backoffs):
        _Handler.script["body"] = b"<html>not json</html>"
        with pytest.raises(TransportError, match="malformed"):
            LLMBackend(EndpointConfig(http_endpoint, "m")).chat("s", "u")
        assert len(_Handler.requests_seen) == 1 and backoffs == []

    def test_body_nested_too_deep_is_malformed(self, http_endpoint, backoffs):
        _Handler.script["body"] = b"[" * 100_000
        with pytest.raises(TransportError, match="malformed completion "
                                                 "response: maximum recursion"):
            LLMBackend(EndpointConfig(http_endpoint, "m")).chat("s", "u")
        assert len(_Handler.requests_seen) == 1 and backoffs == []


    def test_connection_the_server_closed_is_not_a_retry(
            self, closing_endpoint, backoffs):
        """A keep-alive connection the server dropped while idle is
        replaced before it is reused, not found broken by a request."""
        url, closed = closing_endpoint
        backend = LLMBackend(EndpointConfig(url, "m"))
        try:
            for _ in range(3):
                closed.clear()
                assert backend.chat("s", "u") == ANSWER
                assert closed.wait(5)
        finally:
            backend.close()
        assert backoffs == []

    def test_a_connection_numbered_past_fd_setsize_is_reused(self):
        """The idle check works on a socket numbered 1024 or higher, where
        ``select.select`` raises ``ValueError``."""
        resource = pytest.importorskip("resource")
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1100:
            pytest.skip("the soft descriptor limit is below 1100")
        held = [os.open(os.devnull, os.O_RDONLY)]
        with chat_server(lambda *_: ANSWER) as (url, seen):
            backend = LLMBackend(EndpointConfig(url, "m"))
            try:
                # os.dup takes the lowest free number, so once it hands out
                # 1023 every lower number is taken
                while held[-1] < 1023:
                    held.append(os.dup(held[0]))
                assert backend.chat("s", "u") == ANSWER
                assert backend._local.connection.sock.fileno() >= 1024
                assert backend.chat("s", "u") == ANSWER
            finally:
                backend.close()
                for fd in held:
                    os.close(fd)
        assert len(seen) == 2


class TestBackendPool:
    def test_concurrency_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="concurrency"):
            EndpointConfig("http://localhost:1/v1", "m", concurrency=0)

    def test_map_keeps_item_order(self):
        backend = LLMBackend(EndpointConfig("http://localhost:1/v1", "m",
                                            concurrency=3))
        try:
            assert backend.map(lambda x: x * x, range(20)) == [
                x * x for x in range(20)]
        finally:
            backend.close()

    def test_map_raises_the_first_failure_once_nothing_runs(self):
        """Item 1 fails first, then item 0, which was running: item 0's error
        is raised, once it has ended, and the queued items never start."""
        backend = LLMBackend(EndpointConfig("http://localhost:1/v1", "m",
                                            concurrency=2))
        started, running = [], []
        one_failed = threading.Event()

        def work(item):
            started.append(item)
            running.append(item)
            try:
                if item == 0:
                    one_failed.wait(5)
                    time.sleep(0.05)
                    raise TransportError("zero")
                if item == 1:
                    one_failed.set()
                    raise TransportError("one")
                time.sleep(0.1)
                return item
            finally:
                running.remove(item)

        try:
            with pytest.raises(TransportError, match="zero"):
                backend.map(work, range(50))
            assert running == []
            assert len(started) < 10
        finally:
            backend.close()

    def test_close_ends_the_pool_threads(self, http_endpoint):
        backend = LLMBackend(EndpointConfig(http_endpoint, "m", concurrency=3))
        backend.map(lambda _: backend.chat("s", "u"), range(6))
        assert pool_threads()
        backend.close()
        assert pool_threads() == []
