"""Localhost fake chat-completions endpoint, run as its own process.

    python3 perfbench/fake_endpoint.py POLICY_JSON

Prints the port it listens on as its first stdout line, serves until its
stdin closes, then prints one JSON line of counters and exits.

Each answer is a pure function of (policy seed, prompt, attempt number), so a
fresh endpoint per run makes the run's artifacts reproducible. A valid
answer is a Choice-Reason-Content triplet built from the actions and feed ids
the prompt offers. The policy sets the share of prompts whose first answer
violates the protocol, and the agents whose every answer does.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_FEED_RE = re.compile(r"^\[(\d+)\] by (\S+?)(?: \(re-share\))?: ", re.M)

# Weights of the valid actions, before masking to the permitted ones.
_VALID_WEIGHTS = {"post": 3, "reshare": 2, "like": 3, "dislike": 1,
                  "comment": 1, "follow": 1, "inactive": 2}


def available_actions(user_text: str) -> list:
    lines = user_text.splitlines()
    return [a.strip() for a in lines[lines.index("## Available actions") + 1]
            .split(",")]


def valid_answer(user_text: str, rng: random.Random) -> str:
    feed = _FEED_RE.findall(user_text)
    # A follow target comes from the feed's authors.
    kinds = [a for a in available_actions(user_text)
             if a in _VALID_WEIGHTS and (feed or a != "follow")]
    kind = rng.choices(kinds, weights=[_VALID_WEIGHTS[k] for k in kinds])[0]
    content = ""
    if kind == "post":
        content = f"Thoughts on today, take {rng.randint(1, 999)}"
    elif kind in ("reshare", "like", "dislike"):
        content = rng.choice(feed)[0]
    elif kind == "comment":
        content = f"{rng.choice(feed)[0]}: agreed, mostly"
    elif kind == "follow":
        content = rng.choice(feed)[1]
    return f"CHOICE: {kind}\nREASON: fake endpoint pick\nCONTENT: {content}"


# One answer per rule of reasoning.validate_decision, keyed by
# ValidationError.rule.
INVALID_ANSWERS = {
    "parse failure": "I would rather just post something nice today.",
    "unknown action kind": "CHOICE: dance\nREASON: why not\nCONTENT:",
    "action not permitted": "CHOICE: like\nREASON: liked it\nCONTENT: 1",
    "dangling content reference":
        "CHOICE: like\nREASON: liked it\nCONTENT: 987654321",
    "missing payload": "CHOICE: post\nREASON: brevity\nCONTENT:",
    "missing target": "CHOICE: like\nREASON: liked it\nCONTENT: that one",
}


def invalid_answer(user_text: str, rng: random.Random) -> str:
    """An answer that breaks one rule. The "like" answers break a target
    rule where like is permitted, and "action not permitted" elsewhere."""
    if "like" in available_actions(user_text):
        excluded = {"action not permitted"}
    else:
        excluded = {"dangling content reference", "missing target"}
    return INVALID_ANSWERS[rng.choice([rule for rule in INVALID_ANSWERS
                                       if rule not in excluded])]


class Policy:
    def __init__(self, spec: dict):
        self.seed = spec["seed"]
        self.latency_s = spec["latency_ms"] / 1000.0
        self.first_violation_share = spec["first_violation_share"]
        self.always_failing = [tuple(pair) for pair in spec["always_failing"]]
        self.attempts = {}
        self.lock = threading.Lock()

    def answer(self, system_text: str, user_text: str) -> str:
        key = hashlib.sha256(
            f"{self.seed}\0{system_text}\0{user_text}".encode()).hexdigest()
        with self.lock:
            attempt = self.attempts.get(key, 0)
            self.attempts[key] = attempt + 1
        rng = random.Random(f"{key}:{attempt}")
        failing = any(identity in system_text and trait in system_text
                      for identity, trait in self.always_failing)
        first_bad = random.Random(key).random() < self.first_violation_share
        if failing or (first_bad and attempt == 0):
            return invalid_answer(user_text, rng)
        return valid_answer(user_text, rng)


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = self.request_bytes = self.response_bytes = 0
        self.connections = 0
        self.busy_s = 0.0


def make_handler(policy: Policy, stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            with stats.lock:
                stats.connections += 1

        def do_POST(self):
            start = time.perf_counter()
            body = self.rfile.read(int(self.headers["Content-Length"]))
            messages = json.loads(body)["messages"]
            text = policy.answer(messages[0]["content"], messages[1]["content"])
            time.sleep(policy.latency_s)
            payload = json.dumps({"choices": [{"message": {
                "role": "assistant", "content": text}}]}).encode()
            # Status line, headers and body leave in a single write: split
            # writes meet Nagle plus delayed ACK and stall each request ~40 ms.
            response = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        b"Content-Length: " + str(len(payload)).encode()
                        + b"\r\n\r\n" + payload)
            # Counted before the write, so a client that has its answer can
            # rely on the counters including it.
            with stats.lock:
                stats.requests += 1
                stats.request_bytes += len(body)
                stats.response_bytes += len(response)
                stats.busy_s += time.perf_counter() - start
            self.wfile.write(response)

        def log_message(self, format, *args):
            pass

    return Handler


def main(argv) -> int:
    with open(argv[1]) as fh:
        policy = Policy(json.load(fh))
    stats = Stats()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(policy, stats))
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    print(server.server_port, flush=True)
    try:
        sys.stdin.read()  # the parent closes stdin to stop the endpoint
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    print(json.dumps({"requests": stats.requests,
                      "request_bytes": stats.request_bytes,
                      "response_bytes": stats.response_bytes,
                      "connections": stats.connections,
                      "busy_s": stats.busy_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
