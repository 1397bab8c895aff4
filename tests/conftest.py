import gc
import json
import threading
from collections import Counter
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

TOPICS = ("Healthcare", "Technology", "Religion", "Music")


def make_personas(n, prefix="p"):
    return [
        {"id": f"{prefix}{i:03d}", "identity_text": f"Persona {i}, a {TOPICS[i % 4]} enthusiast.",
         "topic": TOPICS[i % 4]}
        for i in range(n)
    ]


@pytest.fixture
def personas_small():
    return make_personas(6)


@pytest.fixture
def collector():
    """Leave the cyclic garbage collector as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@contextmanager
def chat_server(answer):
    """A local chat-completions endpoint on a ``ThreadingHTTPServer``.

    ``answer(system_text, user_text, attempt)`` returns the completion text,
    or a ``(status, body)`` pair for an error response; ``attempt`` counts
    the earlier requests with the same messages. Yields ``(url, seen)``,
    where ``seen`` lists every request's ``(system_text, user_text)``.
    """
    seen, attempts, lock = [], Counter(), threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            messages = (body["messages"][0]["content"],
                        body["messages"][1]["content"])
            with lock:
                seen.append(messages)
                attempt = attempts[messages]
                attempts[messages] += 1
            result = answer(*messages, attempt)
            if isinstance(result, str):
                status, payload = 200, json.dumps(
                    {"choices": [{"message": {"content": result}}]})
            else:
                status, payload = result
            payload = payload.encode()
            # One write: a split response meets Nagle plus delayed ACK.
            self.wfile.write(
                f"HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions", seen
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def pool_threads() -> list:
    """The live worker threads of every ``LLMBackend`` pool."""
    return [t for t in threading.enumerate()
            if t.name.startswith("traitsim-llm")]


class Shuffled:
    """``backend``'s answers, with each iteration's decision steps started
    in the order ``shuffle`` leaves them in (on ``backend.map`` when it has
    one) and the results returned in agent order."""

    def __init__(self, backend, shuffle):
        self.complete = backend.complete
        self._map = getattr(backend, "map", map)
        self.shuffle = shuffle

    def map(self, step, agent_ids):
        order = list(agent_ids)
        self.shuffle(order)
        decisions = dict(zip(order, self._map(step, order)))
        return [decisions[agent_id] for agent_id in agent_ids]
