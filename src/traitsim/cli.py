"""Operator CLI: simulate, analyze, ground.

``simulate`` runs a configured simulation and writes an artifact directory
(``engine.write_artifacts`` and ``engine.write_manifest``). ``analyze``
turns one artifact directory into plot-ready CSVs and a text summary, with an
optional second run for the Mann-Whitney chain-length comparison. ``ground``
runs the empirical pipeline from platform records to an engine-ready
population bundle.

Config files are JSON. Each ``simulate`` flag sets the config key its
``dest`` names; the other keys come only from ``--config``.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, get_type_hints
from urllib.parse import urlsplit

from .analytics import (
    action_probability_vector,
    chain_length_table,
    cluster_agents,
    content_mix,
    mann_whitney_u,
    order_dynamics,
    per_topic_chain_stats,
    trace_chains,
)
from .core import CATEGORIES, Trait
from .engine import (
    CONFIGURATIONS,
    SimulationConfig,
    check_integrity,
    collector_paused,
    init_population,
    load_run,
    run_simulation,
    write_artifacts,
    write_manifest,
)
from .grounding import (
    ground,
    infer_identity,
    parse_records,
    PLACEHOLDER_IDENTITY,
)
from .jsonl import (
    malformed,
    read_json,
    read_jsonl,
    read_text,
    string,
    write_jsonl,
)
from .memory import MemoryParams
from .networks import (
    build_interaction_network,
    build_resharing_network,
    centrality_by_trait,
    degree_centrality,
)
from .reasoning import EndpointConfig, LLMBackend, StubBackend, TransportError

if TYPE_CHECKING:
    import argparse


class CliError(Exception):
    """User-facing error with a categorized message; exits non-zero."""


# The JSON types a config value may take: (accepted Python types, name).
# A JSON true/false is never accepted, although ``bool`` subclasses ``int``.
_INT = ((int,), "an integer")
_NUMBER = ((int, float), "a number")
_STRING = ((str,), "a string")
_OBJECT = ((dict,), "a JSON object")
_JSON_TYPES = {int: _INT, float: _NUMBER, str: _STRING}


def _keys(settings, **extra) -> dict:
    """The config keys of a settings dataclass, each typed by its field's
    annotation (a nested dataclass is a JSON object), plus ``extra``."""
    hints = get_type_hints(settings)
    return {**{f.name: _OBJECT if is_dataclass(hints[f.name])
               else _JSON_TYPES[hints[f.name]] for f in fields(settings)},
            **extra}


# The only lists of settings: a config file's sections and ``simulate``'s
# flags (each flag's ``dest`` is its key) are these keys.
_CONFIG_KEYS = _keys(SimulationConfig, personas=_STRING, follows=_STRING,
                     backend=_OBJECT)
_BACKEND_KEYS = _keys(EndpointConfig)
_MEMORY_KEYS = _keys(MemoryParams)


def _check_section(section: dict, keys: dict, prefix: str, path: Path) -> None:
    """Reject unknown keys and values of the wrong JSON type in one section."""
    unknown = sorted(prefix + key for key in set(section) - set(keys))
    if unknown:
        raise ValueError(f"unknown config key(s) in {path}: "
                         f"{', '.join(unknown)}")
    for key, value in section.items():
        types, name = keys[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"config key '{prefix}{key}' in {path} must be "
                             f"{name}, got {json.dumps(value)}")


def load_config(path: Path) -> dict:
    """The checked settings of a JSON config file; a ValueError names an
    unreadable or malformed file, an unknown key or a value of the wrong
    type."""
    raw = read_json(path, "config")
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    _check_section(raw, _CONFIG_KEYS, "", path)
    _check_section(raw.get("backend", {}), _BACKEND_KEYS, "backend.", path)
    _check_section(raw.get("memory", {}), _MEMORY_KEYS, "memory.", path)
    return raw


def _persona(obj) -> dict:
    obj = {"topic": None, "trait": None, **obj}
    trait = obj["trait"]  # tested by equality: unhashable values are unknown
    if trait is not None and trait not in [t.code for t in Trait]:
        raise ValueError(f"unknown trait {trait!r}")
    return {"id": string(obj, "id"),
            "identity_text": string(obj, "identity_text"),
            "topic": string(obj, "topic", nullable=True), "trait": trait}


def read_personas(path: Path) -> list:
    """The personas of a line-delimited JSON file; a ValueError names a
    missing file or the malformed line."""
    return read_jsonl(path, _persona)


def read_follows(path: Path) -> list:
    """(follower, followee) pairs from a CSV file whose first row may be the
    header ``follower,followee``; a ValueError names an unreadable file or
    cites a row with fewer than two columns."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    edges = []
    try:
        for row in reader:
            if not row or (reader.line_num == 1
                           and row == ["follower", "followee"]):
                continue
            if len(row) < 2:
                raise ValueError(f"expected follower,followee, got {row!r}")
            edges.append((row[0], row[1]))
    except (csv.Error, ValueError) as err:
        raise malformed(path, reader.line_num, err) from err
    return edges


def _overlay(section: dict, args, keys) -> dict:
    """``section`` with each of ``keys`` that a flag gave in ``args``."""
    given = {key: getattr(args, key) for key in keys
             if getattr(args, key, None) is not None}
    return {**section, **given}


def _endpoint_config(backend_cfg: dict) -> EndpointConfig | None:
    """The checked model endpoint that ``backend_cfg`` describes, or None
    when it gives no setting: the stub decides and ``ground`` writes
    placeholder identities. No connection is made."""
    if not backend_cfg:
        return None
    if not backend_cfg.get("endpoint") or not backend_cfg.get("model"):
        raise CliError("llm backend requires 'endpoint' and 'model'")
    try:
        _check_endpoint_url(backend_cfg["endpoint"])
        return EndpointConfig(**backend_cfg)
    except ValueError as err:  # each message starts with the setting's name
        raise CliError(f"invalid 'backend.{str(err).split()[0]}': {err}")


def _make_backend(endpoint: EndpointConfig | None):
    return StubBackend() if endpoint is None else LLMBackend(endpoint)


def _out_dir(out: str) -> Path:
    """``--out`` as a path, once it is known that the directory can be made
    there: the nearest of it and its parents that exists is a directory.
    A dangling symlink exists here, as ``mkdir`` would find it."""
    path = Path(out)
    existing = next(p for p in (path, *path.parents)
                    if p.is_symlink() or p.exists())
    if not existing.is_dir():
        raise CliError(f"--out {out}: {existing} exists and is not a "
                       f"directory")
    return path


def _check_endpoint_url(url: str) -> None:
    """Raise ValueError unless ``url`` is an http or https URL with a host,
    the only endpoints ``LLMBackend`` can reach."""
    try:
        parts = urlsplit(url)  # .port raises on a malformed port
        reachable = (parts.scheme in ("http", "https") and bool(parts.hostname)
                     and (parts.port is None or parts.port > 0))
    except ValueError:
        reachable = False
    if not reachable:
        raise ValueError(f"endpoint must be an http:// or https:// URL with a "
                         f"host, got {url!r}")


def cmd_simulate(args) -> int:
    try:
        cfg = load_config(Path(args.config)) if args.config else {}
    except ValueError as err:
        raise CliError(str(err))
    cfg = _overlay(cfg, args, _CONFIG_KEYS)
    endpoint = _endpoint_config(
        _overlay(cfg.get("backend", {}), args, _BACKEND_KEYS))

    if "personas" not in cfg:
        raise CliError("no personas file given (config key 'personas' or "
                       "--personas)")
    personas_path = Path(cfg["personas"])
    follows_path = Path(cfg["follows"]) if "follows" in cfg else None
    try:
        personas = read_personas(personas_path)
        follow_edges = read_follows(follows_path) if follows_path else None
    except ValueError as err:
        raise CliError(str(err))

    settings = {key: value for key, value in cfg.items()
                if key in SimulationConfig.__dataclass_fields__}
    try:
        settings["memory"] = MemoryParams(**cfg.get("memory", {}))
    except ValueError as err:
        raise CliError(f"memory.{err}")
    try:
        sim_config = SimulationConfig(**settings)
    except ValueError as err:
        raise CliError(str(err))
    try:
        world = init_population(personas, sim_config, follow_edges)
    except ValueError as err:
        raise CliError(f"cannot build the population: {err}")

    out = _out_dir(args.out)
    backend = _make_backend(endpoint)
    failure = None
    try:
        world = run_simulation(sim_config, personas, backend,
                               initial_world=world)
    except TransportError as err:
        # ``world`` holds the completed iterations; write them. Only the
        # message is kept: ``err``'s traceback holds this frame.
        failure = str(err)
    finally:
        if hasattr(backend, "close"):
            backend.close()
    try:
        check_integrity(world)
    except AssertionError as err:
        raise CliError(f"content store failed its integrity check, no "
                       f"artifacts written: {err}")
    write_artifacts(world, out)
    write_manifest(world, sim_config, out,
                   asdict(endpoint) if endpoint else {},
                   [path for path in (personas_path, follows_path) if path])
    if failure is not None:
        raise CliError(f"backend transport error in iteration "
                       f"{world.iteration + 1}: {failure}; {out} holds the run "
                       f"up to the last completed iteration ({world.iteration})")
    print(f"wrote artifacts to {out}")
    return 0


VECTOR_COLUMNS = [f"p_{category}" for category in CATEGORIES]


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_analyze(args) -> int:
    """Write the analysis of the run in ``args.run`` (and the chain-length
    comparison with ``args.compare``) into ``args.out``, or into the run.
    ``--out`` is checked and both runs are read before anything is written.
    """
    run_dir = Path(args.run)
    other = Path(args.compare) if args.compare else None
    same_run = other is not None and other.resolve() == run_dir.resolve()
    out = _out_dir(args.out) if args.out else run_dir
    try:
        log, content, traits = load_run(run_dir)
        if other is not None and not same_run:
            _, other_content, _ = load_run(other)
    except ValueError as err:
        raise CliError(str(err))
    out.mkdir(parents=True, exist_ok=True)
    which = args.which
    summary = [f"run: {run_dir}", f"actions: {len(log)}",
               f"content items: {len(content)}"]

    chains = (trace_chains(content)
              if which in ("all", "rq2") or other is not None else None)
    if which in ("all", "rq1"):
        vectors = action_probability_vector(log)
        agents = sorted(vectors)
        follow_only = len({r.agent for r in log}) - len(vectors)
        if follow_only:
            summary.append(f"follow-only agents left out of clustering: "
                           f"{follow_only}")
        rows = []
        if vectors and len(vectors) >= args.k_max:
            try:
                clustering = cluster_agents(vectors, args.k_min, args.k_max,
                                            seed=args.cluster_seed)
            except ValueError as err:
                raise CliError(f"cannot cluster: {err}")
            summary.append(f"clustering: k={clustering.k} "
                           f"silhouette={clustering.silhouette:.3f}")
            for agent_id in agents:
                v = vectors[agent_id]
                rows.append([agent_id, traits.get(agent_id), *v.as_tuple(),
                             clustering.assignments[agent_id]])
        else:
            summary.append(f"clustering skipped: {len(vectors)} agents, "
                           f"fewer than k_max={args.k_max}")
        _write_csv(out / "clusters.csv",
                   ["agent", "trait", *VECTOR_COLUMNS, "cluster"], rows)

    if which in ("all", "rq2"):
        _write_csv(out / "chains.csv",
                   ["root", "topic", "length", "path_agents"],
                   [[c.root, c.topic, c.length,
                     "|".join(c.agents)]
                    for c in chains])
        table = chain_length_table(chains)
        _write_csv(out / "chain_table.csv",
                   ["length", "count", "percentage"],
                   [[l, table.counts[l], f"{table.percentages[l]:.2f}"]
                    for l in sorted(table.counts)])
        _write_csv(out / "order_dynamics.csv",
                   ["iteration", "pct_first_order", "pct_second_order"],
                   [[it, *(f"{v:.2f}" for v in pair)] if pair else [it, "", ""]
                    for it, pair in sorted(order_dynamics(log).items())])
        _write_csv(out / "content_mix.csv",
                   ["iteration", "pct_original", "pct_reshared"],
                   [[it, *(f"{v:.2f}" for v in pair)] if pair else [it, "", ""]
                    for it, pair in sorted(content_mix(log).items())])
        summary.append(f"chains: {table.total} mean_length={table.mean:.2f} "
                       f"max_length={table.max}")
        for topic, (mean, share) in sorted(per_topic_chain_stats(chains).items(),
                                           key=lambda kv: str(kv[0])):
            summary.append(f"topic {topic}: mean_length={mean:.2f} "
                           f"share={share:.1f}%")

    if which in ("all", "rq3"):
        n = max(len(traits), 2)
        for name, graph in (
            ("resharing", build_resharing_network(log, content)),
            ("interaction", build_interaction_network(log, content)),
        ):
            cin = degree_centrality(graph, "in", n)
            cout = degree_centrality(graph, "out", n)
            _write_csv(out / f"centrality_{name}.csv",
                       ["agent", "trait", "in_degree", "out_degree"],
                       [[a, traits.get(a), cin.get(a, 0.0), cout.get(a, 0.0)]
                        for a in sorted(traits)])
            for trait, (median, count) in sorted(
                    centrality_by_trait(cout, traits).items(),
                    key=lambda kv: str(kv[0])):
                summary.append(f"{name} out-degree {trait}: "
                               f"median={median:.4f} n={count}")

    if other is not None:
        lengths_a = [c.length for c in chains]
        if same_run:
            lengths_b = lengths_a
        else:
            lengths_b = [c.length for c in trace_chains(other_content)]
        if lengths_a and lengths_b:
            u, p = mann_whitney_u(lengths_a, lengths_b)
            summary.append(f"chain-length comparison vs {args.compare}: "
                           f"U={u:.1f} p={p:.4g}")
        else:
            summary.append("chain-length comparison skipped: a run has no chains")

    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    print("\n".join(summary))
    return 0


def cmd_ground(args) -> int:
    endpoint = _endpoint_config(_overlay({}, args, _BACKEND_KEYS))
    out = _out_dir(args.out)
    records_path = Path(args.records)
    try:
        records = parse_records(records_path)
        follow_edges = read_follows(Path(args.follows)) if args.follows else []
    except ValueError as err:
        raise CliError(str(err))
    if not records:
        raise CliError(f"records file is empty: {records_path}")
    try:
        bundle = ground(records, follow_edges, args.cap)
    except ValueError as err:
        raise CliError(f"cannot extract the ego network: {err}")

    identities = [PLACEHOLDER_IDENTITY] * len(bundle.posts)
    if endpoint is not None:
        # One profiling call per user with posts, on the backend's pool;
        # results come back in sorted-user order at any concurrency.
        backend = LLMBackend(endpoint)
        try:
            identities = backend.map(
                lambda posts: infer_identity(posts, backend),
                bundle.posts.values())
        except TransportError as err:
            raise CliError(f"identity inference failed at {args.endpoint}: "
                           f"{err}; nothing written")
        finally:
            backend.close()

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "assignments.csv",
               ["user", *VECTOR_COLUMNS, "trait", "distance"],
               [[u, *a.empirical_vector.as_tuple(), a.assigned.name,
                 f"{a.distance:.6f}"] for u, a in bundle.assignments.items()])
    write_jsonl(out / "personas.jsonl",
                ({"id": user, "identity_text": identity, "topic": None,
                  "trait": a.assigned.name} for (user, a), identity
                 in zip(bundle.assignments.items(), identities)))
    _write_csv(out / "follows.csv", ["follower", "followee"], bundle.follows)
    _write_csv(out / "ego_edges.csv", ["src", "dst", "weight"],
               [[s, d, w] for (s, d), w in sorted(bundle.ego.edges.items())])
    source = ("placeholder identities" if endpoint is None else
              f"identities inferred by {endpoint.model} at {args.endpoint}")
    print(f"ground bundle written to {out}: {len(bundle.posts)} users, "
          f"{len(bundle.follows)} follow edges, {source}")
    return 0


def _add_endpoint_flags(parser) -> None:
    """The flags of the llm backend's ``_BACKEND_KEYS``."""
    parser.add_argument("--endpoint")
    parser.add_argument("--model")
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--concurrency", type=int,
                        help=f"llm completions in flight at once (default "
                             f"{EndpointConfig.concurrency})")


def build_parser() -> argparse.ArgumentParser:
    import argparse  # imported where used: a library run parses no arguments

    parser = argparse.ArgumentParser(prog="traitsim")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a simulation")
    sim.add_argument("--config", help="JSON config file")
    sim.add_argument("--personas", help="personas jsonl file")
    sim.add_argument("--follows", help="follower,followee csv file")
    sim.add_argument("--configuration", choices=CONFIGURATIONS)
    _add_endpoint_flags(sim)
    sim.add_argument("--seed", type=int, dest="master_seed", metavar="SEED")
    sim.add_argument("--iterations", type=int)
    sim.add_argument("--feed-size", type=int, dest="feed_size")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="analyze an artifact directory")
    ana.add_argument("--run", required=True)
    ana.add_argument("--which", choices=("all", "rq1", "rq2", "rq3"),
                     default="all")
    ana.add_argument("--compare", help="second run for the chain comparison")
    ana.add_argument("--k-min", type=int, default=2, dest="k_min")
    ana.add_argument("--k-max", type=int, default=8, dest="k_max")
    ana.add_argument("--cluster-seed", type=int, default=0, dest="cluster_seed")
    ana.add_argument("--out")
    ana.set_defaults(func=cmd_analyze)

    grd = sub.add_parser("ground", help="empirical grounding pipeline")
    grd.add_argument("--records", required=True)
    grd.add_argument("--follows")
    grd.add_argument("--cap", type=int, default=1000)
    _add_endpoint_flags(grd)
    grd.add_argument("--out", required=True)
    grd.set_defaults(func=cmd_ground)
    return parser


def main(argv=None) -> int:
    """Run the command ``argv`` names and return its exit status: 0, or 1
    after printing a ``CliError``. The command runs with the cyclic garbage
    collector paused (``engine.collector_paused``), which is left as it was
    found; the worlds it builds or loads are freed by reference counting
    before that."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with collector_paused():
            return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
