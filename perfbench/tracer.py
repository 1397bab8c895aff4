"""Layer spans recorded from outside the program.

Each traced name is replaced, where its caller looks it up, by a wrapper that
records a span (name, parent, start, end) and a few counters, and is restored
when the ``installed`` block exits, also on an exception. Spans stay in
memory and are written out once the traced work has ended.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

ITERATION_SPAN = "engine.run_iteration"
ARTIFACTS = ("actions.jsonl", "content.jsonl", "agents.jsonl", "manifest.json")


class Tracer:
    def __init__(self):
        self.names = []  # of every wrapped function, in wrapping order
        self.spans = []  # [name, parent span or None, start, end]
        self.counts = Counter()
        self._local = threading.local()

    def wrap(self, name, fn, before=None, after=None, error=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``before(*args, **kwargs)`` returns a state handed to
        ``after(result, state, *args, **kwargs)``; ``error(exc)`` sees any
        exception, which is re-raised.
        """
        self.names.append(name)
        spans, local, clock = self.spans, self._local, time.perf_counter

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            state = before(*args, **kwargs) if before else None
            span = [name, stack[-1] if stack else None, 0.0, 0.0]
            spans.append(span)
            stack.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error:
                    error(exc)
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if after:
                after(result, state, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_times(self) -> dict:
        """``<name>.calls`` and ``<name>.self_s`` for every wrapped name."""
        own = self.self_times()
        layers = {}
        for name in self.names:
            layers[f"{name}.calls"] = len(self.durations(name))
            layers[f"{name}.self_s"] = own[name]
        return layers

    def durations(self, name) -> list:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def self_times(self) -> dict:
        """Per name: summed span time minus the time of direct child spans."""
        child = defaultdict(float)
        for span in self.spans:
            if span[1] is not None:
                child[id(span[1])] += span[3] - span[2]
        out = defaultdict(float)
        for span in self.spans:
            out[span[0]] += span[3] - span[2] - child[id(span)]
        return out

    def covered_s(self) -> float:
        """Time inside layer spans: outermost spans, looking through the
        iteration span, whose own time is loop glue."""
        return sum(s[3] - s[2] for s in self.spans
                   if s[0] != ITERATION_SPAN
                   and (s[1] is None or s[1][0] == ITERATION_SPAN))

    def write(self, path: Path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            fh.write("index,name,parent,start,end\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                p = index[id(parent)] if parent is not None else ""
                fh.write(f"{i},{name},{p},{start:.9f},{end:.9f}\n")


@contextmanager
def installed(patches):
    """Set each (owner, attribute, replacement) and restore the originals."""
    originals = []
    try:
        for owner, attr, replacement in patches:
            originals.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _dir_bytes(path, names=ARTIFACTS) -> int:
    return sum((Path(path) / n).stat().st_size for n in names
               if (Path(path) / n).exists())


def simulate_patches(tracer: Tracer, backend_cls) -> list:
    import traitsim.engine as engine
    import traitsim.reasoning as reasoning

    c = tracer.counts

    def feed_before(agent, world, *a, **k):
        c["engine.recommend_feed.pool_items"] += len(world.content)

    def feed_after(feed, state, *a, **k):
        c["engine.recommend_feed.feed_items"] += len(feed)

    def observe_before(memory, content, *a, **k):
        return len(memory.stm) + (content.content_id not in memory.stm)

    def observe_after(result, size, memory, *a, **k):
        c["memory.stm_observe.evictions"] += size - len(memory.stm)

    def stm_size(memory, *a, **k):
        return len(memory.stm)

    def decay_after(result, size, memory, *a, **k):
        c["memory.stm_decay.dropped"] += size - len(memory.stm)

    def ltm_size(memory, *a, **k):
        return len(memory.ltm)

    def ltm_after(result, size, memory, *a, **k):
        c["memory.ltm_evaluate.promoted"] += len(memory.ltm) - size

    def decide_after(decision, *a, **k):
        c["reasoning.decide.fallbacks"] += (
            decision.reason == reasoning.FALLBACK_REASON)

    def valid_after(*a, **k):
        c["reasoning.validate_decision.valid"] += 1

    def valid_error(exc):
        if isinstance(exc, reasoning.ValidationError):
            c["reasoning.validate_decision.fail." + exc.rule] += 1

    def artifacts_after(result, state, world, out_dir):
        c["engine.write_artifacts.bytes"] += _dir_bytes(out_dir)

    w = tracer.wrap
    return [
        (engine, "run_iteration", w(ITERATION_SPAN, engine.run_iteration)),
        (engine, "recommend_feed", w("engine.recommend_feed",
                                     engine.recommend_feed,
                                     feed_before, feed_after)),
        (engine, "agent_rng", w("engine.agent_rng", engine.agent_rng)),
        (engine, "apply_action", w("engine.apply_action", engine.apply_action)),
        (engine, "write_artifacts", w("engine.write_artifacts",
                                      engine.write_artifacts,
                                      after=artifacts_after)),
        (engine, "stm_observe", w("memory.stm_observe", engine.stm_observe,
                                  observe_before, observe_after)),
        (engine, "stm_decay", w("memory.stm_decay", engine.stm_decay,
                                stm_size, decay_after)),
        (engine, "ltm_evaluate", w("memory.ltm_evaluate", engine.ltm_evaluate,
                                   ltm_size, ltm_after)),
        (engine, "am_record", w("memory.am_record", engine.am_record)),
        (engine, "build_prompt", w("reasoning.build_prompt",
                                   engine.build_prompt)),
        (engine, "decide", w("reasoning.decide", engine.decide,
                             after=decide_after)),
        (reasoning, "validate_decision", w("reasoning.validate_decision",
                                           reasoning.validate_decision,
                                           after=valid_after,
                                           error=valid_error)),
        (backend_cls, "complete", w("reasoning.backend_complete",
                                    backend_cls.complete)),
    ]


# Span names whose time makes up each analyze section.
SECTIONS = {
    "rq1": ("analytics.action_probability_vector", "analytics.cluster_agents"),
    "rq2": ("analytics.order_dynamics", "analytics.content_mix"),
    "rq3": ("networks.build_resharing_network",
            "networks.build_interaction_network", "networks.degree_centrality",
            "networks.centrality_by_trait"),
    "compare": ("analytics.mann_whitney_u",),
}


def analyze_patches(tracer: Tracer) -> list:
    import traitsim.analytics as analytics
    import traitsim.cli as cli

    c = tracer.counts

    def load_after(result, state, run_dir):
        c["cli.load_run.bytes_read"] += _dir_bytes(run_dir)

    def chains_after(chains, *a, **k):
        c["analytics.trace_chains.chains"] += len(chains)

    w = tracer.wrap
    patches = [
        (cli, "load_run", w("cli.load_run", cli.load_run, after=load_after)),
        (cli, "trace_chains", w("analytics.trace_chains", cli.trace_chains,
                                after=chains_after)),
        (analytics, "silhouette_score", w("analytics.silhouette_score",
                                          analytics.silhouette_score)),
    ]
    for names in SECTIONS.values():
        for name in names:
            attr = name.split(".", 1)[1]
            patches.append((cli, attr, w(name, getattr(cli, attr))))
    return patches


def section_times(tracer: Tracer) -> dict:
    """Per analyze section, the summed time of its spans.

    ``cli.analyze`` loads the run and traces chains once for rq1-rq3 and once
    more for the compared run, so the second ``load_run`` and
    ``trace_chains`` spans belong to ``compare`` and the first
    ``trace_chains`` to rq2.
    """
    out = {s: sum(sum(tracer.durations(n)) for n in names)
           for s, names in SECTIONS.items()}
    chains = tracer.durations("analytics.trace_chains")
    loads = tracer.durations("cli.load_run")
    out["rq2"] += chains[0] if chains else 0.0
    out["compare"] += sum(chains[1:]) + sum(loads[1:])
    return out
