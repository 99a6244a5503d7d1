import dataclasses
import gc
import hashlib
import math
import random
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradednet import optimizers
from gradednet.bench import (
    grade_topology,
    prepare_trial,
    prune,
    run_suite,
    run_trial,
    save_summary_json,
    search,
    trial_seed,
    write_records_csv,
)
from gradednet.config import RunConfig
from gradednet.grading import GradingConfig, KnowledgeBase, build_knowledge_base
from gradednet.optimizers import (
    REJECTED,
    AbcConfig,
    Fitness,
    GaConfig,
    Subgraph,
    _excise_loops,
    _Search,
    _randbelow,
    abc_search,
    ga_search,
    modified_crossover,
    neighbor_path,
    path_fitness,
    path_is_valid,
    random_path,
    roulette_select,
)
from gradednet.topology import Link, Node, QosInputs, Topology, generate_topology
from gradednet.traffic import sample_link_states
from oracles import (
    abc_search_by_rescoring,
    adjacency,
    bfs_hops,
    crossover_by_intersection,
    enumerate_best_bottleneck,
    excise_loops_by_scan,
    extend_by_randrange,
    ga_search_by_rescoring,
    neighbor_path_by_randrange,
    random_path_by_randrange,
    roulette_by_scan,
)


def _topology(positions, links):
    nodes = [Node(i, x, y, QosInputs(network_lifetime=50.0))
             for i, (x, y) in enumerate(positions)]
    return Topology(seed=0, nodes=nodes, links=[Link(a, b, 30.0) for a, b in links])


def _line_topology():
    return _topology([(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)], [(0, 1), (1, 2)])


def _kb_for(topo, fill=30.0):
    return KnowledgeBase(link_available_mbps={
        (min(l.a, l.b), max(l.a, l.b)): fill for l in topo.links})


def _random_setup(seed, n=20, density=0.3):
    topo = generate_topology(n, density, seed)
    rng = np.random.default_rng(seed + 1)
    states = sample_link_states(len(topo.links), rng, capacity_mbps=30.0)
    kb = build_knowledge_base(topo, states, GradingConfig(), rng)
    sub = Subgraph.from_topology(topo, set(range(n)), 0)
    return topo, kb, sub


# ---------------------------------------------------------------- paths

def test_random_path_line_graph():
    topo = _line_topology()
    sub = Subgraph.from_topology(topo, {1, 2}, 0)
    assert random_path(sub, 0, 2, random.Random(0)) == (0, 1, 2)


def test_random_path_disconnected():
    topo = _topology([(0.1, 0.1), (0.2, 0.2), (0.8, 0.8), (0.9, 0.9)],
                     [(0, 1), (2, 3)])
    sub = Subgraph.from_topology(topo, {1, 2, 3}, 0)
    assert random_path(sub, 0, 3, random.Random(0)) is None


def test_random_path_invariants_on_random_subgraphs():
    for seed in range(300):
        topo, kb, sub = _random_setup(seed, n=14, density=0.35)
        rng = random.Random(seed)
        destination = 13
        path = random_path(sub, 0, destination, rng)
        if path is not None:
            assert path_is_valid(path, sub, 0, destination)


def test_neighbor_path_single_hop():
    topo = _line_topology()
    sub = Subgraph.from_topology(topo, {1, 2}, 0)
    base = (0, 1, 2)
    for seed in range(10):
        regrown = neighbor_path(base, sub, random.Random(seed))
        assert path_is_valid(regrown, sub, 0, 2)
        assert regrown == base  # unique path in a line graph


def test_neighbor_path_property_scan():
    count = 0
    for seed in range(40):
        topo, kb, sub = _random_setup(seed, n=16, density=0.35)
        rng = random.Random(seed)
        path = random_path(sub, 0, 15, rng)
        if path is None:
            continue
        for _ in range(25):
            path = neighbor_path(path, sub, rng)
            assert path_is_valid(path, sub, 0, 15)
            count += 1
    assert count > 400


# ---------------------------------------------------------------- fitness

def test_path_fitness_bottleneck():
    topo = _line_topology()
    kb = KnowledgeBase(link_available_mbps={(0, 1): 18.0, (1, 2): 24.0})
    fit = path_fitness((0, 1, 2), topo, kb)
    assert fit.bottleneck_bw == pytest.approx(18.0)


def test_path_fitness_idle_links():
    topo = _line_topology()
    fit = path_fitness((0, 1, 2), topo, _kb_for(topo, 30.0))
    assert fit.bottleneck_bw == pytest.approx(30.0)


def test_path_fitness_threshold_rejection():
    topo = _line_topology()
    kb = KnowledgeBase(link_available_mbps={(0, 1): 2.0, (1, 2): 24.0})
    assert path_fitness((0, 1, 2), topo, kb, bw_threshold=5.0) is None
    assert path_fitness((0, 1, 2), topo, kb, bw_threshold=0.0).bottleneck_bw == 2.0


def test_path_fitness_saturated_is_zero():
    topo = _line_topology()
    kb = KnowledgeBase(link_available_mbps={(0, 1): 0.0, (1, 2): 24.0})
    assert path_fitness((0, 1, 2), topo, kb).bottleneck_bw == 0.0


def test_path_fitness_malformed():
    topo = _line_topology()
    kb = _kb_for(topo)
    with pytest.raises(ValueError):
        path_fitness((0,), topo, kb)
    with pytest.raises(ValueError):
        path_fitness((0, 2), topo, kb)  # no such link
    with pytest.raises(ValueError):
        path_fitness((0, 1, 0), topo, kb)  # repeated node


def test_fitness_reversal_invariant():
    for seed in range(20):
        topo, kb, sub = _random_setup(seed, n=12, density=0.4)
        path = random_path(sub, 0, 11, random.Random(seed))
        if path is None:
            continue
        fwd = path_fitness(path, topo, kb)
        rev = path_fitness(tuple(reversed(path)), topo, kb)
        assert fwd.bottleneck_bw == pytest.approx(rev.bottleneck_bw)


@st.composite
def _subgraph_walks(draw):
    # A random graph on up to 9 nodes, random link bandwidths, a random
    # allowed subset, and a random simple walk of at least one hop inside it.
    n = draw(st.integers(2, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    links = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    topo = _topology([((i + 0.5) / n, 0.5) for i in range(n)], links)
    kb = KnowledgeBase(link_available_mbps={
        key: draw(st.floats(0.0, 30.0)) for key in sorted(links)})
    first = draw(st.sampled_from(sorted(links)))
    allowed = frozenset(first) | frozenset(draw(st.sets(st.integers(0, n - 1))))
    sub = Subgraph(topo, allowed)
    path = list(first) if draw(st.booleans()) else list(reversed(first))
    while draw(st.booleans()):
        choices = [v for v in sub.neighbors(path[-1]) if v not in path]
        if not choices:
            break
        path.append(draw(st.sampled_from(choices)))
    # Thresholds equal to a link's bandwidth probe the boundary of rejection.
    threshold = draw(st.sampled_from([0.0, 4.5, *kb.link_available_mbps.values()]))
    return topo, kb, sub, tuple(path), threshold


@settings(max_examples=300, deadline=None)
@given(_subgraph_walks())
def test_path_fitness_matches_reference(case):
    topo, kb, sub, path, threshold = case
    assert path_is_valid(path, sub, path[0], path[-1])
    bottleneck = min(kb.available_on(u, v) for u, v in zip(path, path[1:]))
    expected = None if bottleneck < threshold else Fitness(bottleneck)
    assert path_fitness(path, topo, kb, threshold) == expected
    # the search core's early-exit scan gives the same rank
    rank = _Search(sub, path[0], path[-1], kb, random.Random(0), threshold, None).evaluate(path)
    assert rank == (REJECTED if expected is None else expected.bottleneck_bw)


class _ReadLog(dict):
    # A link snapshot that records, in order, every key it is asked for.
    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)


def test_evaluate_reads_up_to_first_rejected_link():
    # Hops that run both up and down the ids, so half the keys are reversed.
    path = (3, 0, 5, 1, 6, 2, 4)
    keys = [(min(u, v), max(u, v)) for u, v in zip(path, path[1:])]
    topo = _topology([((i + 0.5) / 7, 0.5) for i in range(7)], keys)
    sub = Subgraph(topo, frozenset(range(7)))

    def evaluate(bandwidths, *parents):
        links = _ReadLog(zip(keys, bandwidths))
        search = _Search(sub, path[0], path[-1], KnowledgeBase(link_available_mbps=links),
                         random.Random(0), 4.5, None)
        return search.evaluate(path, *parents), links.reads

    for k in range(1, len(keys) + 1):
        # hop k is the first below the threshold, and every later hop is too
        bandwidths = [10.0 + i if i < k - 1 else 2.0 for i in range(len(keys))]
        assert evaluate(bandwidths) == (REJECTED, keys[:k])
    # accepted, with a tie at the threshold: each hop read once
    assert evaluate([12.0, 4.5, 30.0, 7.0, 4.5, 9.0]) == (4.5, keys)
    # a candidate equal to a given parent takes its rank unread
    other = (3, 0, 5, 1, 6, 4)
    assert evaluate([2.0] * len(keys), (other, 1.0), (path, 7.0)) == (7.0, [])


@settings(max_examples=200, deadline=None)
@given(_subgraph_walks(), st.data())
def test_path_fitness_rejects_malformed(case, data):
    topo, kb, sub, path, threshold = case
    with pytest.raises(ValueError):
        path_fitness(path[:1], topo, kb, threshold)
    with pytest.raises(ValueError):
        path_fitness(path + (data.draw(st.sampled_from(path[:-1])),), topo, kb, threshold)
    linked = adjacency(topo)[path[-1]]
    strangers = [v for v in range(topo.n) if v not in path and v not in linked]
    if strangers:
        with pytest.raises(ValueError):
            path_fitness(path + (data.draw(st.sampled_from(strangers)),), topo, kb, threshold)


def test_randbelow_draws_as_randrange():
    # Every n up to 1100, and either side of each power of two up to 2**20,
    # where the number of bits drawn changes.
    sizes = [*range(1, 1101), *(2 ** k + d for k in range(1, 21) for d in (-1, 0, 1))]
    for n in sizes:
        rng, oracle = random.Random(n), random.Random(n)
        for _ in range(3):
            assert _randbelow(rng.getrandbits, n) == oracle.randrange(n)
        assert rng.getstate() == oracle.getstate()


@st.composite
def _sparse_subgraphs(draw):
    # A seeded topology on up to 80 nodes with random link bandwidths, and a
    # random allowed subset, so member ids are sparse and a walk's bit sets
    # run past 30 and 64 bits; then a start path of at least two distinct
    # nodes, either scouted inside the subgraph or drawn from every node, so
    # that its cut prefix and its destination may be non-members.
    n = draw(st.integers(2, 80) | st.integers(66, 80))
    seed = draw(st.integers(0, 2 ** 16))
    topo = generate_topology(n, draw(st.floats(0.05, 0.6)), seed)
    pick = random.Random(seed)
    kb = KnowledgeBase(link_available_mbps={
        (min(l.a, l.b), max(l.a, l.b)): pick.uniform(0.0, 30.0) for l in topo.links})
    keep = draw(st.floats(0.2, 1.0) | st.just(1.0))
    sub = Subgraph(topo, frozenset(v for v in range(n) if pick.random() < keep))
    members = sorted(sub.allowed)
    start = None
    if len(members) >= 2 and draw(st.booleans()):
        source, destination = draw(st.lists(st.sampled_from(members), min_size=2, max_size=2,
                                            unique=True))
        start = random_path(Subgraph(topo, sub.allowed), source, destination, pick)
    if start is None:
        start = tuple(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=12,
                                    unique=True)))
    return topo, kb, sub, start


def _nodes_of(sub):
    # any node, a member more often than not
    members = st.sampled_from(sorted(sub.allowed)) if sub.allowed else st.nothing()
    return members | members | st.integers(0, sub.topology.n - 1)


@settings(max_examples=400, deadline=None)
@given(_subgraph_walks().map(lambda case: (case[2], case[3]))
       | _sparse_subgraphs().map(lambda case: (case[2], case[3])),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_walks_draw_as_randrange(case, seed, data):
    # Small subgraphs, with dead ends where a neighbor is not allowed and
    # with nodes of degree 1, and sparse ones on up to 80 nodes: scouting
    # between any two nodes, then a chain of perturbations from the start
    # path, must give the oracle's paths and leave the generator where
    # randrange leaves it.
    sub, start = case
    source, destination = data.draw(_nodes_of(sub)), data.draw(_nodes_of(sub))
    rng, oracle = random.Random(seed), random.Random(seed)
    if source == destination:
        with pytest.raises(ValueError, match="must differ"):
            random_path(sub, source, destination, rng)
    else:
        assert (random_path(sub, source, destination, rng)
                == random_path_by_randrange(sub, source, destination, oracle))
    assert rng.getstate() == oracle.getstate()
    path = expected = start
    for _ in range(5):
        path = neighbor_path(path, sub, rng)
        expected = neighbor_path_by_randrange(expected, sub, oracle)
        assert path == expected
        assert rng.getstate() == oracle.getstate()


def test_walks_reject_degenerate_input():
    # A one-node path has no cut point and equal endpoints have no path:
    # both are errors raised before any draw and before any row is built.
    sub = Subgraph(_line_topology(), frozenset({0, 1, 2}))
    rng = random.Random(0)
    state = rng.getstate()
    for path in ((1,), ()):
        with pytest.raises(ValueError):
            neighbor_path(path, sub, rng)
    for v in (1, 3):
        with pytest.raises(ValueError, match="must differ"):
            random_path(sub, v, v, rng)
    assert rng.getstate() == state
    assert "_rows" not in vars(sub)


def test_neighbor_path_rejects_a_path_that_repeats_a_node():
    # A cut of such a path can keep its destination, and no regrowth ends at
    # a node it has visited: the error comes before any draw or row.
    topo, kb, sub = _random_setup(4, n=16, density=0.35)
    path = random_path(Subgraph(topo, sub.allowed), 0, 15, random.Random(0))
    assert path is not None and len(path) > 2
    rng = random.Random(1)
    state = rng.getstate()
    for repeated in (path + (0,), (15,) + path, path[:2] + path[1:], (0, 1, 0)):
        with pytest.raises(ValueError, match="repeats a node"):
            neighbor_path(repeated, sub, rng)
    assert rng.getstate() == state
    assert "_rows" not in vars(sub)


def _complete_subgraph(m):
    # members 0..m-1 of a topology complete on m + 1 nodes; node m is no member
    n = m + 1
    topo = _topology([((i + 0.5) / n, 0.5) for i in range(n)],
                     [(a, b) for a in range(n) for b in range(a + 1, n)])
    return Subgraph(topo, frozenset(range(m)))


@pytest.mark.parametrize("m", [65, 129, 257])
def test_walks_draw_as_randrange_on_complete_subgraphs(m):
    # Rows of up to m - 1 neighbors, so a step's candidate count crosses
    # every power of two below m and the bit sets run past 64 bits.  Node m
    # is not a member: a walk towards it visits every member before its dead
    # end, drawing once at each candidate count from m - 1 down to 1.
    sub = _complete_subgraph(m)
    for seed in range(3):
        rng, oracle = random.Random(seed), random.Random(seed)
        assert neighbor_path((0, m), sub, rng) == neighbor_path_by_randrange((0, m), sub, oracle)
        assert rng.getstate() == oracle.getstate()
        path = random_path(sub, 0, m - 1, rng)
        assert path == random_path_by_randrange(sub, 0, m - 1, oracle)
        assert rng.getstate() == oracle.getstate()
        expected = path
        for _ in range(20):
            path = neighbor_path(path, sub, rng)
            expected = neighbor_path_by_randrange(expected, sub, oracle)
            assert path == expected
            assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("m", [129, 257])
def test_walk_picks_past_many_visited_neighbors(m):
    # A shuffled prefix covers most of every member's m - 1 neighbors, so the
    # few unvisited ones sit among long runs of visited ones and a step
    # re-counts the visited ranks before its pick many times.  Extending a
    # prefix that leaves 2 to 17 members unvisited, and perturbing a path
    # through every member, must give the oracle's paths and draws.
    sub = _complete_subgraph(m)
    for seed in range(40):
        order = tuple(random.Random(seed).sample(range(m), m))
        prefix, destination = order[:m - 2 - seed % 16], order[-1]
        rng, oracle = random.Random(seed), random.Random(seed)
        assert (optimizers._walk(sub._rows, prefix, destination, rng.getrandbits)
                == extend_by_randrange(sub, prefix, destination, oracle))
        assert rng.getstate() == oracle.getstate()
        assert neighbor_path(order, sub, rng) == neighbor_path_by_randrange(order, sub, oracle)
        assert rng.getstate() == oracle.getstate()


@settings(max_examples=60, deadline=None)
@given(_sparse_subgraphs(), st.sampled_from([0.0, 4.5]), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_every_walk_starts_short_of_its_destination(case, threshold, seed, data):
    # Scouts, GA's mutations (at rate 1.0, so every child mutates) and
    # repairs, and the bees' moves and scouts (abc_limit=1) all hand the walk
    # a non-empty prefix that does not hold the destination.
    topo, kb, sub, _ = case
    members = sorted(sub.allowed)
    if len(members) < 2:
        return
    source, destination = data.draw(st.lists(st.sampled_from(members), min_size=2,
                                             max_size=2, unique=True))
    walk, calls = optimizers._walk, []

    def recording_walk(rows, prefix, destination, getrandbits):
        calls.append((prefix, destination))
        return walk(rows, prefix, destination, getrandbits)

    with mock.patch.object(optimizers, "_walk", recording_walk):
        ga_search(sub, source, destination,
                  GaConfig(population_size=4, generations=3, mutation_rate=1.0), kb,
                  random.Random(seed), bw_threshold=threshold)
        abc_search(sub, source, destination, AbcConfig(colony_size=3, max_cycles=2, abc_limit=1),
                   kb, random.Random(seed), bw_threshold=threshold)
    assert calls
    assert all(prefix and end not in prefix for prefix, end in calls)


@settings(max_examples=80, deadline=None)
@given(_sparse_subgraphs(), st.sampled_from([0.3, 1.0]), st.sampled_from([0.0, 4.5]),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_search_walks_draw_as_randrange(case, mutation_rate, threshold, seed, data):
    # Every walk of a search (its scouts, GA's mutations and repairs, the
    # bees' moves) replaced by the oracle's walk must leave the search's
    # result, its observer stream and the generator's state unchanged.
    topo, kb, sub, _ = case
    source, destination = data.draw(_nodes_of(sub)), data.draw(_nodes_of(sub))
    if source == destination:
        return
    optimizer, cfg = data.draw(st.sampled_from([
        (ga_search, GaConfig(population_size=4, generations=3, mutation_rate=mutation_rate)),
        (abc_search, AbcConfig(colony_size=3, max_cycles=2, abc_limit=1)),
    ]))

    def run():
        rng, events = random.Random(seed), []
        result = optimizer(sub, source, destination, cfg, kb, rng, bw_threshold=threshold,
                           observer=lambda kind, path: events.append((kind, path)))
        return result, events, rng.getstate()

    def oracle_walk(rows, prefix, destination, getrandbits):
        return extend_by_randrange(sub, prefix, destination, getrandbits.__self__)

    walked = run()
    with mock.patch.object(optimizers, "_walk", oracle_walk):
        assert walked == run()


@st.composite
def _topologies_and_allowed(draw):
    # Random links, each in a random direction, and a random allowed set.
    n = draw(st.integers(1, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    links = [(b, a) if draw(st.booleans()) else (a, b) for a, b in chosen]
    topo = _topology([((i + 0.5) / n, 0.5) for i in range(n)], links)
    return topo, frozenset(draw(st.sets(st.integers(0, n - 1))))


@settings(max_examples=300, deadline=None)
@given(_topologies_and_allowed())
def test_subgraph_is_link_adjacency_restricted_to_allowed(case):
    topo, allowed = case
    adj = adjacency(topo)
    sub = Subgraph(topo, allowed)
    rows = [(v, sub.neighbors(v)) for v in sorted(allowed)]
    assert rows == [(v, tuple(sorted(adj[v] & allowed))) for v in sorted(allowed)]
    assert all(type(v) is int for _, nbrs in rows for v in nbrs)


@settings(max_examples=300, deadline=None)
@given(_topologies_and_allowed(), st.data())
def test_subgraph_rows_built_on_first_use_match_the_oracle(case, data):
    # The walks' rows are built as they are first read, in any order and some
    # of them twice.  Each row's bit set and its rank list each decode to the
    # oracle's row, the two hold the same ranks, and its degree is the rank
    # list's length; ``neighbors`` of a non-member, a negative id or one past
    # the last node is empty and must not wrap around to another node's row.
    topo, allowed = case
    adj = adjacency(topo)
    expected = {v: tuple(sorted(adj[v] & allowed)) if v in allowed else ()
                for v in range(-1, topo.n + 2)}
    sub = Subgraph(topo, allowed)
    assert "_rows" not in vars(sub)
    members = sorted(allowed)
    reads = data.draw(st.lists(st.integers(0, len(members)), max_size=3 * len(members) + 3))
    for i in reads:
        bits, ranks, degree = sub._rows[i]
        bit_ranks = [j for j in range(bits.bit_length()) if bits >> j & 1]
        assert list(ranks) == bit_ranks
        assert degree == len(ranks)
        row = expected[members[i]] if i < len(members) else ()
        assert tuple(members[j] for j in bit_ranks) == row
        assert tuple(members[j] for j in ranks) == row
    for v in data.draw(st.lists(st.sampled_from(sorted(expected)), max_size=topo.n + 6)):
        assert sub.neighbors(v) == expected[v]
    assert sub.neighbors(-1) == sub.neighbors(topo.n + 1) == ()


def test_subgraph_rejects_unknown_nodes():
    topo = _line_topology()
    for allowed in ({0, 3}, {-1, 1}, {0, 1, 2, 3}, {2 ** 70}):
        with pytest.raises(ValueError, match="allowed nodes must be in"):
            Subgraph(topo, frozenset(allowed))
    # a float id is never cast to a node: 1.5 does not become 1
    for allowed in ({0, 1.5}, {2.0}):
        with pytest.raises(IndexError):
            Subgraph(topo, frozenset(allowed))
    assert Subgraph(topo, frozenset()).neighbors(0) == ()


def test_walked_subgraph_is_freed_by_reference_counting():
    # The walks' rows hold the topology's edge arrays and the member mask,
    # never the subgraph, so a subgraph whose walks have run is freed when
    # its last reference goes, without the cyclic garbage collector.
    topo, kb, sub = _random_setup(5)
    alive = weakref.ref(sub)
    gc.disable()
    try:
        rng = random.Random(0)
        assert random_path(sub, 0, topo.n - 1, rng) is not None
        ga_search(sub, 0, topo.n - 1, GaConfig(population_size=4, generations=3), kb, rng)
        assert "_rows" in vars(sub)
        del sub
        assert alive() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------- roulette

def test_roulette_single_candidate():
    assert roulette_select([3.0], random.Random(0)) == 0


def test_roulette_zero_prefix_never_selected():
    rng = random.Random(1)
    for _ in range(200):
        assert roulette_select([0.0, 0.0, 5.0], rng) == 2


def test_roulette_frequency():
    rng = random.Random(42)
    hits = sum(roulette_select([1.0, 3.0], rng) for _ in range(100000))
    assert abs(hits / 100000 - 0.75) < 0.01


def test_roulette_all_zero_uniform():
    rng = random.Random(3)
    seen = {roulette_select([0.0, 0.0, 0.0], rng) for _ in range(200)}
    assert seen == {0, 1, 2}


@given(st.lists(st.floats(0.0, 1e6) | st.sampled_from([0.0, 0.1, 0.2, 0.7]), min_size=1,
                max_size=20), st.integers(0, 2**32 - 1))
def test_roulette_picks_as_a_left_to_right_scan(weights, seed):
    # same pick and same draws; the scan's total is its own left-to-right sum
    rng, scan_rng = random.Random(seed), random.Random(seed)
    assert roulette_select(weights, rng) == roulette_by_scan(weights, scan_rng)
    assert rng.random() == scan_rng.random()


def test_roulette_validation():
    with pytest.raises(ValueError):
        roulette_select([], random.Random(0))
    with pytest.raises(ValueError):
        roulette_select([-1.0, 2.0], random.Random(0))
    # a NaN before or after a negative weight does not hide it
    for weights in ([math.nan, -1.0], [-1.0, math.nan]):
        with pytest.raises(ValueError):
            roulette_select(weights, random.Random(0))


def test_roulette_accepts_negative_zero():
    assert roulette_select([-0.0], random.Random(0)) == 0
    assert roulette_select([-0.0, 2.0], random.Random(0)) == 1


# ---------------------------------------------------------------- crossover

def test_crossover_reference_exchange():
    rng = random.Random(0)
    a, b = modified_crossover((0, 1, 3, 9), (0, 2, 3, 5, 9), rng)
    assert a == (0, 1, 3, 5, 9)
    assert b == (0, 2, 3, 9)


def test_crossover_disjoint_interiors_unchanged():
    rng = random.Random(0)
    pa, pb = (0, 1, 9), (0, 2, 9)
    assert modified_crossover(pa, pb, rng) == (pa, pb)


def test_crossover_identical_parents_closure():
    rng = random.Random(0)
    parent = (0, 1, 2, 9)
    a, b = modified_crossover(parent, parent, rng)
    assert a == parent and b == parent


@given(st.lists(st.integers(0, 6), max_size=30))
def test_excise_loops_matches_the_scan(nodes):
    # short node ranges, so most sequences repeat nodes, some many times
    path = tuple(nodes)
    excised = _excise_loops(path)
    assert excised == excise_loops_by_scan(path)
    if len(set(path)) == len(path):
        assert excised is path


@pytest.mark.parametrize("parent", [(0, 9), (0, 4, 9), (0, *range(10, 60), 9),
                                    (0, 3, 4, 3, 9), (0, 4, 0, 9)])
def test_crossover_on_equal_parents_draws_as_the_intersection(parent):
    # Simple parents of two, three and many nodes make the same pivot draw
    # (none for two nodes) and come back themselves; parents that repeat a
    # node are crossed as any other pair.
    for seed in range(5):
        rng, oracle = random.Random(seed), random.Random(seed)
        copy = tuple(list(parent))
        children = modified_crossover(parent, copy, rng)
        assert children == crossover_by_intersection(parent, copy, oracle)
        assert rng.getstate() == oracle.getstate()
        if len(set(parent)) == len(parent):
            assert children[0] is parent and children[1] is copy


def test_crossover_mismatched_endpoints():
    with pytest.raises(ValueError):
        modified_crossover((0, 1, 2), (0, 1, 3), random.Random(0))


def test_crossover_loop_excision_keeps_validity():
    seen = 0
    for seed in range(60):
        topo, kb, sub = _random_setup(seed, n=14, density=0.4)
        rng = random.Random(seed)
        pa = random_path(sub, 0, 13, rng)
        pb = random_path(sub, 0, 13, rng)
        if pa is None or pb is None:
            continue
        for _ in range(20):
            ca, cb = modified_crossover(pa, pb, rng)
            assert path_is_valid(ca, sub, 0, 13)
            assert path_is_valid(cb, sub, 0, 13)
            pa, pb = ca, cb
            seen += 1
    assert seen > 300


# ---------------------------------------------------------------- searches

def test_abc_single_path_graph():
    topo = _line_topology()
    sub = Subgraph.from_topology(topo, {1, 2}, 0)
    result = abc_search(sub, 0, 2, AbcConfig(colony_size=4, max_cycles=10),
                        _kb_for(topo), random.Random(0))
    assert result.best_path == (0, 1, 2)
    assert result.convergence_cycle == 0
    assert result.hop_count == 2


def test_ga_single_path_graph():
    topo = _line_topology()
    sub = Subgraph.from_topology(topo, {1, 2}, 0)
    result = ga_search(sub, 0, 2, GaConfig(population_size=4, generations=10),
                       _kb_for(topo), random.Random(0))
    assert result.best_path == (0, 1, 2)
    assert result.convergence_cycle == 0


def test_searches_disconnected_destination():
    # Destination 3 is cut off from the source in the first subgraph and is
    # not a member of the second, where no search may draw or build a row.
    topo = _topology([(0.1, 0.1), (0.2, 0.2), (0.8, 0.8), (0.9, 0.9)],
                     [(0, 1), (2, 3)])
    kb = _kb_for(topo)
    for sub in (Subgraph.from_topology(topo, {1, 2, 3}, 0),
                Subgraph.from_topology(topo, {1, 2}, 0)):
        for optimizer, cfg in ((abc_search, AbcConfig(colony_size=3, max_cycles=5)),
                               (ga_search, GaConfig(population_size=3, generations=5))):
            rng, events = random.Random(0), []
            state = rng.getstate()
            result = optimizer(sub, 0, 3, cfg, kb, rng,
                               observer=lambda kind, path: events.append(kind))
            assert result.best_path is None and not result.found
            assert result.fitness_trace == (0.0,) and events == []
            if 3 not in sub.allowed:
                assert rng.getstate() == state
                # the query ends at the prune: no rows were built
                assert "_rows" not in vars(sub)


def test_search_determinism():
    for seed in (3, 17):
        topo, kb, sub = _random_setup(seed, n=18, density=0.3)
        runs = [
            abc_search(sub, 0, 17, AbcConfig(colony_size=6, max_cycles=15), kb,
                       random.Random(5))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        runs = [
            ga_search(sub, 0, 17, GaConfig(population_size=8, generations=15), kb,
                      random.Random(5))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


def test_traces_nondecreasing_and_convergence_consistent():
    for seed in range(15):
        topo, kb, sub = _random_setup(seed, n=16, density=0.3)
        for result in (
            abc_search(sub, 0, 15, AbcConfig(colony_size=5, max_cycles=20), kb,
                       random.Random(seed)),
            ga_search(sub, 0, 15, GaConfig(population_size=6, generations=20), kb,
                      random.Random(seed)),
        ):
            trace = result.fitness_trace
            assert all(a <= b for a, b in zip(trace, trace[1:]))
            assert trace[result.convergence_cycle] == trace[-1]
            if result.convergence_cycle > 0:
                assert trace[result.convergence_cycle - 1] < trace[-1]


def test_abc_limit_boundary_scouting():
    # limit=inf never scouts; limit=1 scouts a source as soon as it fails once
    topo, kb, sub = _random_setup(23, n=16, density=0.3)
    events = []
    abc_search(sub, 0, 15, AbcConfig(colony_size=4, max_cycles=10, abc_limit=math.inf),
               kb, random.Random(1), observer=lambda kind, p: events.append(kind))
    assert "scout" not in events

    events = []
    abc_search(sub, 0, 15, AbcConfig(colony_size=4, max_cycles=10, abc_limit=1),
               kb, random.Random(1), observer=lambda kind, p: events.append(kind))
    assert "scout" in events


def test_ga_zero_mutation_closure():
    # with no mutation and a single-path space the population never changes
    topo = _line_topology()
    sub = Subgraph.from_topology(topo, {1, 2}, 0)
    paths = []
    ga_search(sub, 0, 2, GaConfig(population_size=4, generations=5, mutation_rate=0.0),
              _kb_for(topo), random.Random(0),
              observer=lambda kind, p: paths.append(p))
    assert set(paths) == {(0, 1, 2)}


def test_all_candidates_valid_during_search():
    for seed in range(25):
        topo, kb, sub = _random_setup(seed, n=16, density=0.3)

        def check(kind, path, sub=sub):
            assert path_is_valid(path, sub, 0, 15)

        abc_search(sub, 0, 15, AbcConfig(colony_size=5, max_cycles=15), kb,
                   random.Random(seed), observer=check)
        ga_search(sub, 0, 15, GaConfig(population_size=6, generations=15), kb,
                  random.Random(seed), observer=check)


@pytest.mark.parametrize("mutation_rate", [0.001, 0.3, 1.0])
def test_ga_offspring_are_valid_paths(mutation_rate):
    # crossover and mutation alone keep offspring valid; nothing repairs them
    offspring = 0
    for seed in range(12):
        topo, kb, _ = _random_setup(seed, n=24, density=0.25)
        pick = random.Random(seed)
        sub = Subgraph.from_topology(topo, {v for v in range(1, 24) if pick.random() < 0.8}
                                     | {23}, 0)
        for threshold in (0.0, 4.5):

            def check(kind, path, sub=sub):
                nonlocal offspring
                if kind == "offspring":
                    assert path_is_valid(path, sub, 0, 23)
                    offspring += 1

            ga_search(sub, 0, 23, GaConfig(population_size=8, generations=12,
                                           mutation_rate=mutation_rate),
                      kb, random.Random(seed), bw_threshold=threshold, observer=check)
    assert offspring > 1000


def test_search_hop_count_bounded_by_bfs():
    for seed in range(25):
        topo, kb, sub = _random_setup(seed, n=16, density=0.3)
        shortest = bfs_hops(sub, 0, 15)
        if shortest is None:
            continue
        abc = abc_search(sub, 0, 15, AbcConfig(colony_size=5, max_cycles=15), kb,
                         random.Random(seed))
        if abc.found:
            assert abc.hop_count >= shortest


def test_abc_matches_enumeration_on_small_graphs():
    hits = trials = 0
    for seed in range(60):
        topo, kb, sub = _random_setup(seed, n=9, density=0.4)
        oracle = enumerate_best_bottleneck(sub, 0, 8, kb)
        if oracle is None:
            continue
        trials += 1
        result = abc_search(sub, 0, 8, AbcConfig(colony_size=8, max_cycles=30), kb,
                            random.Random(seed))
        if result.found and abs(result.best_fitness.bottleneck_bw - oracle) < 1e-9:
            hits += 1
    assert trials >= 30
    assert hits / trials >= 0.95


@st.composite
def _searches(draw):
    # A small seeded topology, a random threshold and one optimizer with a
    # small random configuration.
    n = draw(st.integers(4, 16))
    topo, kb, sub = _random_setup(draw(st.integers(0, 10**6)), n=n,
                                  density=draw(st.floats(0.2, 0.6)))
    if draw(st.booleans()):
        optimizer, cfg = abc_search, AbcConfig(colony_size=draw(st.integers(1, 6)),
                                               max_cycles=draw(st.integers(1, 6)),
                                               abc_limit=draw(st.integers(1, 5)))
    else:
        optimizer, cfg = ga_search, GaConfig(
            population_size=draw(st.integers(2, 6)), generations=draw(st.integers(1, 6)),
            mutation_rate=draw(st.sampled_from([0.0, 0.001, 0.3, 1.0])))
    threshold = draw(st.floats(0.0, 30.0))
    return topo, kb, sub, optimizer, cfg, threshold, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_searches())
def test_result_is_best_reported_candidate(case):
    topo, kb, sub, optimizer, cfg, threshold, seed = case
    reported = []
    result = optimizer(sub, 0, topo.n - 1, cfg, kb, random.Random(seed),
                       bw_threshold=threshold,
                       observer=lambda kind, path: reported.append(path))
    fits = {path: path_fitness(path, topo, kb, threshold) for path in reported}
    passing = {path: fit for path, fit in fits.items() if fit is not None}
    assert result.found == bool(passing)
    if passing:
        assert result.best_path in passing
        assert result.best_fitness == passing[result.best_path]
        assert result.best_fitness.bottleneck_bw == max(
            fit.bottleneck_bw for fit in passing.values())
        if topo.n <= 10:
            # the unconstrained optimum over every simple path bounds any result
            assert result.best_fitness.bottleneck_bw <= enumerate_best_bottleneck(
                sub, 0, topo.n - 1, kb)


def _search_and_oracle(sub, source, destination, kb, cfg, seed, threshold, tally):
    # The search and its rescoring oracle on the same inputs: their results,
    # observer streams and generator states.
    optimizer, oracle = ((abc_search, abc_search_by_rescoring) if isinstance(cfg, AbcConfig)
                         else (ga_search, ga_search_by_rescoring))

    def run(search, **tally):
        rng, events = random.Random(seed), []
        result = search(sub, source, destination, cfg, kb, rng, bw_threshold=threshold,
                        observer=lambda kind, path: events.append((kind, path)), **tally)
        return result, events, rng.getstate()

    return run(optimizer), run(oracle, tally=tally)


_BOOKKEEPING_CONFIGS = st.sampled_from([
    AbcConfig(colony_size=4, max_cycles=3, abc_limit=1),
    AbcConfig(colony_size=6, max_cycles=6),
    GaConfig(population_size=4, generations=3, mutation_rate=1.0),
    GaConfig(population_size=6, generations=6, mutation_rate=0.3),
    GaConfig(population_size=5, generations=4, mutation_rate=0.0),
])


@settings(max_examples=150, deadline=None)
@given(_sparse_subgraphs(), _BOOKKEEPING_CONFIGS, st.sampled_from([0.0, 4.5, 15.0]),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_searches_draw_as_with_rescoring(case, cfg, threshold, seed, data):
    # One wheel per phase (rebuilt on each accepted onlooker), a parent's
    # rank for a child equal to it, equal parents crossed without a pivot
    # and linear loop excision change no draw, no event and no result.
    topo, kb, sub, _ = case
    members = sorted(sub.allowed)
    if len(members) < 2:
        return
    source, destination = data.draw(st.lists(st.sampled_from(members), min_size=2,
                                             max_size=2, unique=True))
    searched, expected = _search_and_oracle(sub, source, destination, kb, cfg, seed,
                                            threshold, None)
    assert searched == expected


def test_rescoring_cases_reach_every_branch():
    # Fixed cases where the onlookers accept candidates, scouts replace
    # sources (abc_limit=1), every child mutates and the threshold rejects
    # children that repairs replace; each must still match the oracle.
    tally = Counter()
    for seed in range(6):
        topo, kb, sub = _random_setup(seed, n=20, density=0.3)
        for cfg in (AbcConfig(colony_size=6, max_cycles=4, abc_limit=1),
                    GaConfig(population_size=6, generations=4, mutation_rate=1.0)):
            searched, expected = _search_and_oracle(sub, 0, 19, kb, cfg, seed, 4.5, tally)
            assert searched == expected
    assert min(tally[key] for key in ("onlooker accepted", "scout", "mutation", "repair")) > 0


def test_parents_values_are_reused():
    # On a pinned n=256 trial, GA's children are mostly copies of a parent
    # and take its rank unscored, and some bee moves return their source.
    # A candidate is scored when its evaluation reads the link snapshot.
    config, seed = RunConfig(), trial_seed(7, 256, 21)
    prepared = prepare_trial(256, seed, config)
    evaluate = optimizers._Search.evaluate
    for algo in ("abc", "ga"):
        links = _ReadLog(prepared.kb.link_available_mbps)
        trial = dataclasses.replace(prepared, kb=KnowledgeBase(prepared.kb.records, links))
        scored, reported = [], []

        def counted(self, path, *parents):
            before = len(links.reads)
            value = evaluate(self, path, *parents)
            if len(links.reads) > before:
                scored.append(path)
            return value

        with mock.patch.object(optimizers._Search, "evaluate", counted):
            search(trial, algo, config, seed, observer=lambda kind, path: reported.append(path))
        assert reported
        assert len(scored) < (len(reported) / 2 if algo == "ga" else len(reported))


def test_config_validation():
    with pytest.raises(ValueError):
        AbcConfig(max_cycles=0)
    with pytest.raises(ValueError):
        AbcConfig(abc_limit=0)
    with pytest.raises(ValueError):
        GaConfig(population_size=1)
    with pytest.raises(ValueError):
        GaConfig(mutation_rate=1.5)


# ---------------------------------------------------------------- RNG order

# sha256 of repr((abc, ga)) for run_trial(n, trial_seed(7, n, k), RunConfig()),
# all trials with a route.  Any change to how the searches draw from their
# random streams changes these; update them only together with a CHANGES.md
# entry saying that RNG consumption changed.
PINNED_TRIALS = {
    (64, 1): "ca44d8bb327d8976b895bb1f253826df0179ab8aa056b201d8e089e573c1fe9a",
    (64, 2): "d5299bce35006a6432f8b9d597e97ce71317ee3fffdc7af9d5dfb11693ab295a",
    (64, 3): "8107bd2378a4ad6d6c2a1c58ab9bd69fb3bd8c931797b4e2da8593e96e163a45",
    (64, 4): "1b7b8461d53a9f5d3b23e913fc4f326c829231fc7de43f94e63826eae319946b",
    (256, 21): "93a3a97e80118315529c322ca3a88e4db999eca5cda19a17f29252e899ade9a7",
    (256, 33): "a44cae9466632d4cce57995c9a8b4068341022bcf0b7ce9884c662d22e258966",
}


@pytest.mark.parametrize("n, k", sorted(PINNED_TRIALS))
def test_trial_results_pinned(n, k):
    record = run_trial(n, trial_seed(7, n, k), RunConfig())
    assert record.abc.found and record.ga.found
    digest = hashlib.sha256(repr((record.abc, record.ga)).encode()).hexdigest()
    assert digest == PINNED_TRIALS[(n, k)]


def test_suite_artifacts_pinned(tmp_path):
    # Eight trials, three of them with a route.
    summary, records = run_suite(RunConfig(seed=1, node_counts=(32, 64), seeds_per_n=4))
    assert sum(record.abc.found for record in records) == 3
    write_records_csv([record.to_row() for record in records], tmp_path / "results.csv")
    save_summary_json(summary, tmp_path / "summary.json")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("results.csv", "summary.json")}
    assert digests == {
        "results.csv": "5163e7bb203d471cf176ca9caf4afc840df70d9d93c16defacf8046edc73a4f3",
        "summary.json": "290950be09cc2767406c4ae50181a819c80a2d7a620c8bc7a16e9b4f6ce2fbfb",
    }


# sha256 of repr(events) for the PINNED_TRIALS, where events lists every
# (algo, kind, path) that bench.search reports to its observer, ABC then GA.
# The probes in perfbench/ and acceptance criterion 03 read this stream.
PINNED_OBSERVER_STREAMS = {
    (64, 1): "6df84fc701a681ac7ac40c3b49493b3712d127572dca2f409306e473dc3252eb",
    (64, 2): "21e0608b41cc148fcf5b73c4c78659f77ce6dd3cc3420e53e8890f491c243508",
    (64, 3): "dc04b84e4e0977434a0804a1ea3f17f5d4da49ff9f1d7b7ffd2c5a21e9db8e8c",
    (64, 4): "a32bb90b98d08514b88b46a234edd14ba14b989213a47c2b419818c5272dd019",
    (256, 21): "0257cc441df59a55ff6299d699a5483584c4f253c27017f0f2c2cb68d59f27db",
    (256, 33): "e0998e9a24cf37cb6d446dab036d342cc04d9a9d8ff23981991601e4f8d2c27e",
}


@pytest.mark.parametrize("n, k", sorted(PINNED_OBSERVER_STREAMS))
def test_observer_stream_pinned(n, k):
    config, seed = RunConfig(), trial_seed(7, n, k)
    trial = prepare_trial(n, seed, config)
    events = []
    for algo in ("abc", "ga"):
        search(trial, algo, config, seed,
               observer=lambda kind, path, algo=algo: events.append((algo, kind, path)))
    digest = hashlib.sha256(repr(events).encode()).hexdigest()
    assert digest == PINNED_OBSERVER_STREAMS[(n, k)]


# sha256 of repr((result, events)) for one query at route-refresh scale:
# `generate --n 1024 --seed 11`, graded with seed 11, from source 326 to
# destination 147, whose pruned subgraph has 212 members.  Each search runs
# on random.Random(11); events lists every (kind, path) it reports.
PINNED_SEARCHES_1024 = {
    "abc": "f351377bbb0b4f5938255ebd334409adfa7a6a444ae5365463c342589c1c383c",
    "ga": "8a214908604b27ffcbac92c18f5dc1bde39da79483712c22973fa9bd3df7899d",
}


@pytest.fixture(scope="module")
def trial_1024():
    config = RunConfig(seed=11)
    topology = generate_topology(1024, config.link_density, 11,
                                 capacity_mbps=config.max_bandwidth_mbps,
                                 lifetime_scale=config.lifetime_scale)
    kb = grade_topology(topology, config, 11)
    return prune(topology, kb, 326, 147, config.selection_mode), config


@pytest.mark.parametrize("algo, optimizer, cfg", [
    ("abc", abc_search, AbcConfig(colony_size=10, max_cycles=5)),
    ("ga", ga_search, GaConfig()),
])
def test_search_pinned_at_n_1024(trial_1024, algo, optimizer, cfg):
    trial, config = trial_1024
    assert len(trial.subgraph.allowed) == 212
    events = []
    result = optimizer(trial.subgraph, trial.source, trial.destination, cfg, trial.kb,
                       random.Random(11), bw_threshold=config.bw_threshold_mbps,
                       observer=lambda kind, path: events.append((kind, path)))
    digest = hashlib.sha256(repr((result, events)).encode()).hexdigest()
    assert digest == PINNED_SEARCHES_1024[algo]
