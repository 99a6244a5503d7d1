"""Tests of the benchmark's own code: the exact widest-path reference and the tracer.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import math
import random

import numpy as np
import pytest

from gradednet.grading import GradingConfig, KnowledgeBase, build_knowledge_base
from gradednet.optimizers import Subgraph, path_fitness, path_is_valid
from gradednet.topology import Link, Node, QosInputs, Topology, generate_topology
from gradednet.traffic import sample_link_states

from run import tail
from tracing import Tracer
from widest import widest_path


def brute_force_widest(subgraph, kb, source, destination, threshold):
    """Best bottleneck over every simple path whose links all meet the threshold."""
    best = None

    def dfs(node, visited, width):
        nonlocal best
        if node == destination:
            best = width if best is None else max(best, width)
            return
        for nxt in subgraph.neighbors(node):
            bw = kb.available_on(node, nxt)
            if nxt in visited or bw < threshold:
                continue
            visited.add(nxt)
            dfs(nxt, visited, min(width, bw))
            visited.remove(nxt)

    dfs(source, {source}, math.inf)
    return best


def _graded(seed, n=11, density=0.3):
    topology = generate_topology(n, density, seed)
    rng = np.random.default_rng(seed)
    states = sample_link_states(len(topology.links), rng)
    return topology, build_knowledge_base(topology, states, GradingConfig(), rng)


@pytest.mark.parametrize("seed", range(40))
def test_matches_brute_force_enumeration(seed):
    topology, kb = _graded(seed)
    pick = random.Random(seed)
    source, destination = pick.sample(range(topology.n), 2)
    candidates = {v for v in range(topology.n) if pick.random() < 0.8} | {destination}
    subgraph = Subgraph.from_topology(topology, candidates, source)
    for threshold in (0.0, 4.5, 15.0):
        expected = brute_force_widest(subgraph, kb, source, destination, threshold)
        got = widest_path(subgraph, kb, source, destination, threshold)
        if expected is None:
            assert got is None
            continue
        width, path = got
        assert width == expected
        assert path_is_valid(path, subgraph, source, destination)
        assert path_fitness(path, topology, kb, threshold).bottleneck_bw == width


def _diamond():
    # 0-1-3 carries 10 Mbps end to end; 0-2-3 starts wide but ends at 5 Mbps.
    nodes = [Node(i, 0.1 * i, 0.1 * i, QosInputs(50.0)) for i in range(4)]
    bws = {(0, 1): 10.0, (1, 3): 10.0, (0, 2): 20.0, (2, 3): 5.0}
    topology = Topology(seed=0, nodes=nodes, links=[Link(a, b, 30.0) for a, b in bws])
    return Subgraph(topology, frozenset(range(4))), KnowledgeBase(link_available_mbps=bws)


def test_widest_is_not_the_first_wide_link():
    subgraph, kb = _diamond()
    assert widest_path(subgraph, kb, 0, 3) == (10.0, (0, 1, 3))


def test_threshold_disconnects():
    subgraph, kb = _diamond()
    assert widest_path(subgraph, kb, 0, 3, bw_threshold=12.0) is None


def test_destination_outside_subgraph():
    subgraph, kb = _diamond()
    pruned = Subgraph(subgraph.topology, frozenset({0, 1, 2}))
    assert widest_path(pruned, kb, 0, 3) is None


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("op"):
        with tracer.span("child"):
            pass
    name, start, end, parent, _ = tracer.spans[1]
    selfs = tracer.self_times()
    assert parent == 0
    op_start, op_end = tracer.spans[0][1:3]
    assert selfs["op"][0] == pytest.approx(op_end - op_start - (end - start))
    assert selfs["child"][0] == end - start


def test_tail_is_the_90th_percentile():
    assert tail([float(i) for i in range(101)]) == (90.0, "p90 of 101, 10 beyond")
    assert tail([3.0]) == (3.0, "only sample")


def test_tail_does_not_jump_with_the_sample_count():
    # Around 21 samples the tail stays near the top instead of falling to the median.
    values = [tail([float(i) for i in range(1, n + 1)])[0] for n in (19, 20, 21, 22)]
    assert values == pytest.approx([17.2, 18.1, 19.0, 19.9])
