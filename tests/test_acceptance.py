"""Acceptance gate: one test per top-level acceptance criterion.

Each test prints a single ``[AC<n>] <name>: PASS`` line on success (pytest -v
shows it with ``-s`` or in captured output on failure). The desk runs are
module-scoped: a 98-agent full-model run (14 personas x 7 traits, 25
iterations) and a 980-agent run (140 personas) for the propagation-shape
criterion, which needs a larger population for stable chain statistics.
"""

import random
import time

import numpy as np
import pytest

from traitsim.analytics import (
    action_probability_vector,
    chain_length_table,
    cluster_agents,
    content_mix,
    mann_whitney_u,
    project_onto_centroids,
    trace_chains,
)
from traitsim.core import (
    ARCHETYPES,
    ContentItem,
    ENGAGEMENT_KINDS,
    Trait,
)
from traitsim.engine import (
    SimulationConfig,
    run_simulation,
)
from traitsim.grounding import (
    assign_trait,
    extract_ego_network,
    ground,
    parse_records,
)
from traitsim.networks import (
    WeightedDigraph,
    build_interaction_network,
    build_resharing_network,
    centrality_by_trait,
    degree_centrality,
)
from traitsim.reasoning import StubBackend

from conftest import Shuffled, make_personas
from test_analytics import brute_force_chains, mw_oracle, random_forest

SEED_98 = 7
SEED_980 = 2


def report(tag, ok):
    print(f"\n{tag}: {'PASS' if ok else 'FAIL'}")
    assert ok, tag


@pytest.fixture(scope="module")
def run98():
    config = SimulationConfig(master_seed=SEED_98, iterations=25)
    start = time.perf_counter()
    world = run_simulation(config, make_personas(14))
    elapsed = time.perf_counter() - start
    return world, elapsed


@pytest.fixture(scope="module")
def ablation98():
    config = SimulationConfig(configuration="IdentityOnly",
                              master_seed=SEED_98, iterations=25)
    return run_simulation(config, make_personas(14))


@pytest.fixture(scope="module")
def run980():
    config = SimulationConfig(master_seed=SEED_980, iterations=25)
    return run_simulation(config, make_personas(140))


def trait_of(agent_id):
    return Trait[agent_id.rsplit("-", 1)[1]]


def vectors_by_agent(world):
    vectors = action_probability_vector(world.log)
    return {a: vectors[a] for a in world.agent_order()}


def test_ac1_stub_calibration(run98):
    """Mean per-trait action vectors within +/-0.05 of the archetype rows
    (allowing for the first-iteration post/inactive mask), in under 60s."""
    world, elapsed = run98
    vectors = vectors_by_agent(world)
    iterations = 25
    worst = 0.0
    for trait, row in ARCHETYPES.items():
        members = [v.as_tuple() for a, v in vectors.items()
                   if trait_of(a) is trait]
        mean = np.mean(members, axis=0)
        # iteration 1 renormalizes the row over post/inactive only
        masked = np.array(row.as_tuple()) * (1.0, 0.0, 0.0, 1.0)
        masked = masked / masked.sum() if masked.sum() > 0 else masked
        expected = (masked + (iterations - 1) * np.array(row.as_tuple())) / iterations
        worst = max(worst, float(np.abs(mean - expected).max()))
    report(f"[AC1] stub archetype calibration (max deviation "
           f"{worst:.3f}, runtime {elapsed:.1f}s)",
           worst <= 0.05 and elapsed < 60.0)


def test_ac2_emergent_clusters(run98, ablation98):
    """Silhouette-selected k=5 with pure contributor/balanced clusters, and
    the trait-less ablation collapsing into the contributor cluster."""
    world, _ = run98
    vectors = vectors_by_agent(world)
    clustering = cluster_agents(vectors, 2, 8, seed=0)

    def dominant_cluster(trait):
        labels = [clustering.assignments[a] for a in vectors
                  if trait_of(a) is trait]
        return max(set(labels), key=labels.count)

    def purity(label, trait):
        members = [a for a, l in clustering.assignments.items() if l == label]
        return sum(trait_of(a) is trait for a in members) / len(members)

    pc_label = dominant_cluster(Trait.PC)
    pc_purity = purity(pc_label, Trait.PC)
    bp_purity = purity(dominant_cluster(Trait.BP), Trait.BP)

    ablation_vectors = vectors_by_agent(ablation98)
    projected = project_onto_centroids(ablation_vectors, clustering.centroids)
    into_pc = sum(l == pc_label for l in projected.values()) / len(projected)

    report(f"[AC2] emergent clusters (k={clustering.k}, PC purity "
           f"{pc_purity:.2f}, BP purity {bp_purity:.2f}, ablation into PC "
           f"{into_pc:.2f})",
           clustering.k == 5 and pc_purity >= 0.95 and bp_purity >= 0.95
           and into_pc >= 0.95)


def test_ac3_chain_tracing_oracle():
    """trace_chains equals brute-force path enumeration on 200 random
    forests, and the canonical A->B->C example classifies correctly."""
    rng = random.Random(123)
    agree = all(
        sorted(tuple(int(author[1:]) for author in c.agents)
               for c in trace_chains(forest)) == brute_force_chains(forest)
        for forest in (random_forest(rng) for _ in range(200))
    )

    # A posts (1); B re-shares it (2); C re-shares B's re-share (3)
    store = {
        1: ContentItem(1, "A", 1, "t", "Music"),
        2: ContentItem(2, "B", 2, "t", "Music", parent=1, root=1),
        3: ContentItem(3, "C", 3, "t", "Music", parent=2, root=1),
    }
    chains = trace_chains(store)
    example_ok = (len(chains) == 1 and chains[0].length == 3
                  and chains[0].agents == ("A", "B", "C"))

    report(f"[AC3] chain tracing vs brute-force oracle (200 forests, "
           f"example length {chains[0].length})", agree and example_ok)


def test_ac4_propagation_shape(run980):
    """Large-run propagation statistics: short chains dominate with a
    monotone tail, engagement starts first-order, the cumulative
    second-order share rises strictly through iteration 10, and original
    content keeps a >=20% share afterwards."""
    world = run980
    chains = trace_chains(world.content)
    table = chain_length_table(chains)
    lengths = sorted(table.counts)
    tail_monotone = (lengths[0] == 2
                     and table.counts[2] == max(table.counts.values())
                     and all(table.counts[a] >= table.counts[b]
                             for a, b in zip(lengths, lengths[1:])))

    # first iteration with any engagement is 100% first-order, that is on
    # an original
    by_iteration = {}
    for r in world.log:
        if r.kind in ENGAGEMENT_KINDS:
            by_iteration.setdefault(r.iteration, []).append(
                world.content[r.target].parent is None)
    first_it = min(by_iteration)
    starts_first_order = all(by_iteration[first_it])

    # cumulative second-order share strictly increasing through iteration 10
    cum_first = cum_second = 0
    shares = []
    for it in range(1, 11):
        firsts = by_iteration.get(it, [])
        cum_first += sum(firsts)
        cum_second += len(firsts) - sum(firsts)
        if cum_first + cum_second:
            shares.append(cum_second / (cum_first + cum_second))
    second_order_rises = all(b > a for a, b in zip(shares, shares[1:]))

    mix = content_mix(world.log)
    originals_hold = all(mix[it][0] >= 20.0 for it in range(11, 26)
                         if mix[it] is not None)

    report(f"[AC4] propagation shape (max len {table.max}, first-order start "
           f"{starts_first_order}, 2nd-order shares "
           f"{' '.join(f'{s:.2f}' for s in shares)}, mix@25 "
           f"{mix[25][0]:.1f}% original)",
           tail_monotone and starts_first_order and second_order_rises
           and originals_hold)


def test_ac5_network_centrality(run98):
    """Out-degree medians order as the archetypes predict, and weighted
    degree is conserved between the in and out sides."""
    world, _ = run98
    n = len(world.agents)
    traits = {a: trait_of(a).name for a in world.agents}

    reshare_graph = build_resharing_network(world.log, world.content)
    interact_graph = build_interaction_network(world.log, world.content)

    out_re = centrality_by_trait(
        degree_centrality(reshare_graph, "out", n), traits)
    out_in = centrality_by_trait(
        degree_centrality(interact_graph, "out", n), traits)
    ca, bp, os_ = (out_re[t][0] for t in ("CA", "BP", "OS"))
    ie, oe = (out_in[t][0] for t in ("IE", "OE"))

    conserved = True
    for graph in (reshare_graph, interact_graph):
        total_in = sum(degree_centrality(graph, "in", n).values())
        total_out = sum(degree_centrality(graph, "out", n).values())
        expected = sum(graph.edges.values()) / (n - 1)
        conserved &= (abs(total_in - total_out) < 1e-9
                      and abs(total_in - expected) < 1e-9)

    report(f"[AC5] network centrality (reshare medians CA {ca:.3f} > BP "
           f"{bp:.3f} > OS {os_:.3f}; interaction IE {ie:.3f} > OE {oe:.3f})",
           ca > bp > os_ and ie > oe and conserved)


DAY = 86400


def _ten_user_records():
    """Hand-computed community: every engagement targets u0, the hub."""
    import json

    lines = []

    def add(user, kind, day, text=None):
        obj = {"user": user, "kind": kind, "timestamp": day * DAY + 10}
        if kind == "post":
            obj["text"] = text or f"{user} day {day}"
        else:
            obj["target_user"] = "u0"
        lines.append(json.dumps(obj))

    for d in range(10):
        add("u0", "post", d)  # (1,0,0,0) -> PC
    for d in range(5):
        add("u1", "reshare", d)  # (0,.5,0,.5) -> OS
    for d in range(8):
        add("u2", "like", d)  # (0,0,.8,.2) -> OE
    add("u3", "like", 0)  # (0,0,.1,.9) -> SO
    for d in range(5):
        add("u4", "post", d)
        add("u4", "reshare", d + 5)  # (.5,.5,0,0) -> BP
    for d in range(8):
        add("u5", "reshare", d)
    for d in range(2):
        add("u5", "like", d + 8)  # (0,.8,.2,0) -> CA
    add("u6", "reshare", 0)
    for d in range(9):
        add("u6", "comment", d + 1)  # (0,.1,.9,0) -> IE
    for d in range(9):
        add("u7", "post", d)
    add("u7", "like", 9)  # (.9,0,.1,0) -> PC
    add("u8", "dislike", 5)  # (0,0,.1,.9) -> SO
    for d in range(2):
        add("u9", "post", d)
    for d in range(8):
        add("u9", "like", d + 2)  # (.2,0,.8,0) -> IE
    return lines


EXPECTED_TRAITS = {
    "u0": Trait.PC, "u1": Trait.OS, "u2": Trait.OE, "u3": Trait.SO,
    "u4": Trait.BP, "u5": Trait.CA, "u6": Trait.IE, "u7": Trait.PC,
    "u8": Trait.SO, "u9": Trait.IE,
}


def test_ac6_empirical_grounding(tmp_path):
    """Archetype self-recovery, the capped ego network on a 5000-node graph,
    and the hand-computed 10-user fixture end to end."""
    self_recovery = all(
        assign_trait(row).assigned is trait and assign_trait(row).distance < 1e-12
        for trait, row in ARCHETYPES.items())

    graph = WeightedDigraph()
    for i in range(4999):  # star: 5000 nodes, hub has max degree
        graph.add_edge(f"n{i:05d}", "hub", weight=i % 7 + 1)
    ego = extract_ego_network(graph, cap=1000)
    ego_ok = len(ego.nodes) == 1001 and "hub" in ego.nodes

    records_path = tmp_path / "records.jsonl"
    records_path.write_text("\n".join(_ten_user_records()) + "\n")
    bundle = ground(parse_records(records_path), [], cap=1000)
    community = bundle.ego.nodes
    assigned = {u: a.assigned for u, a in bundle.assignments.items()}
    fixture_ok = (community == set(EXPECTED_TRAITS)
                  and assigned == EXPECTED_TRAITS)

    report(f"[AC6] empirical grounding (ego {len(ego.nodes)} nodes, "
           f"{sum(assigned[u] is EXPECTED_TRAITS[u] for u in assigned)}/10 "
           f"fixture traits recovered)",
           self_recovery and ego_ok and fixture_ok)


def test_ac7_mann_whitney_exact():
    """Exact-mode p-values equal independent pair-counting enumeration for
    every split with n_a + n_b <= 10."""
    rng = random.Random(11)
    checked = 0
    ok = True
    for n_a in range(1, 10):
        for n_b in range(1, 11 - n_a):
            for _ in range(3):
                a = [rng.randint(0, 4) for _ in range(n_a)]  # ties guaranteed
                b = [rng.randint(0, 4) for _ in range(n_b)]
                u, p = mann_whitney_u(a, b)
                u_ref, p_ref = mw_oracle(a, b)
                ok &= (abs(u - u_ref) < 1e-12 and abs(p - p_ref) < 1e-12)
                checked += 1
    report(f"[AC7] exact Mann-Whitney vs enumeration oracle ({checked} "
           f"sample pairs)", ok)


def test_ac8_determinism(run98):
    """Bit-identical logs across repeated runs and across permuted decision
    order."""
    reference, _ = run98
    ref_log = reference.log

    config = SimulationConfig(master_seed=SEED_98, iterations=25)
    repeat = run_simulation(config, make_personas(14))
    repeat_ok = repeat.log == ref_log

    shuffled = Shuffled(StubBackend(), random.Random(5).shuffle)
    permuted = run_simulation(config, make_personas(14), shuffled)
    permuted_ok = permuted.log == ref_log

    report(f"[AC8] determinism (repeat identical {repeat_ok}, permuted "
           f"decision order identical {permuted_ok})",
           repeat_ok and permuted_ok)
