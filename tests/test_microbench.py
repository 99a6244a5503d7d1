"""Micro-benchmarks of the search hot path and of both searches on one fixed
n=256 trial, of generating and of grading one fixed n=1024 topology, and of
two queries on it: one that ends at the prune and one routed GA search.

The timings are informational (no thresholds); compare them across commits
with ``pytest tests/test_microbench.py --benchmark-autosave`` and
``pytest-benchmark compare``.  Each round repeats the same seeded work.
"""

import random

import pytest

from gradednet.bench import (
    STREAM_ABC,
    STREAM_GA,
    STREAM_GRADING,
    prepare_trial,
    stream_np_rng,
    stream_py_rng,
    trial_seed,
)
from gradednet.config import RunConfig
from gradednet.grading import build_knowledge_base, select_feasible
from gradednet.optimizers import (
    REJECTED,
    Subgraph,
    _Search,
    abc_search,
    ga_search,
    neighbor_path,
    path_fitness,
    path_is_valid,
    random_path,
)
from gradednet.topology import generate_topology, quadrant_candidates
from gradednet.traffic import sample_link_states
from oracles import generate_topology_eager

CONFIG = RunConfig()
N = 256
SEED = trial_seed(7, N, 21)  # a trial whose pruned subgraph has a route
STEPS = 500


@pytest.fixture(scope="module")
def trial():
    prepared = prepare_trial(N, SEED, CONFIG)
    start = random_path(prepared.subgraph, prepared.source, prepared.destination,
                        random.Random(0))
    assert start is not None
    return (prepared.topology, prepared.kb, prepared.subgraph, prepared.source,
            prepared.destination, start)


def _perturbation_chain(start, subgraph, rng):
    paths = [start]
    for _ in range(STEPS):
        paths.append(neighbor_path(paths[-1], subgraph, rng))
    return paths


def test_bench_neighbor_path(benchmark, trial):
    topology, kb, subgraph, source, destination, start = trial
    paths = benchmark.pedantic(
        _perturbation_chain, setup=lambda: ((start, subgraph, random.Random(1)), {}),
        rounds=3, iterations=1)
    assert len(paths) == STEPS + 1
    assert path_is_valid(paths[-1], subgraph, source, destination)


def test_bench_path_fitness(benchmark, trial):
    topology, kb, subgraph, source, destination, start = trial
    paths = _perturbation_chain(start, subgraph, random.Random(1))

    def evaluate_all():
        return [path_fitness(path, topology, kb, CONFIG.bw_threshold_mbps) for path in paths]

    fits = benchmark.pedantic(evaluate_all, rounds=3, iterations=1)
    assert len(fits) == len(paths)


def test_bench_search_evaluate(benchmark, trial):
    # the searches' own ranking of the same paths, which stops reading a
    # rejected path at its first link below the threshold
    topology, kb, subgraph, source, destination, start = trial
    paths = _perturbation_chain(start, subgraph, random.Random(1))
    search = _Search(subgraph, source, destination, kb, random.Random(0),
                     CONFIG.bw_threshold_mbps, None)

    def evaluate_all():
        return [search.evaluate(path) for path in paths]

    ranks = benchmark.pedantic(evaluate_all, rounds=3, iterations=1)
    fits = [path_fitness(path, topology, kb, CONFIG.bw_threshold_mbps) for path in paths]
    assert ranks == [REJECTED if fit is None else fit.bottleneck_bw for fit in fits]


def test_bench_abc_search(benchmark, trial):
    topology, kb, subgraph, source, destination, start = trial
    result = benchmark.pedantic(
        abc_search,
        setup=lambda: ((subgraph, source, destination, CONFIG.abc_config(), kb,
                        stream_py_rng(SEED, STREAM_ABC)),
                       {"bw_threshold": CONFIG.bw_threshold_mbps}),
        rounds=3, iterations=1)
    assert result.found


def test_bench_ga_search(benchmark, trial):
    topology, kb, subgraph, source, destination, start = trial
    result = benchmark.pedantic(
        ga_search,
        setup=lambda: ((subgraph, source, destination, CONFIG.ga_config(), kb,
                        stream_py_rng(SEED, STREAM_GA)),
                       {"bw_threshold": CONFIG.bw_threshold_mbps}),
        rounds=3, iterations=1)
    assert result.found
    assert path_is_valid(result.best_path, subgraph, source, destination)


@pytest.fixture(scope="module")
def topology_1024():
    # n=1024 has about 84k links; the topology's edge arrays are built with
    # it, before timing
    return generate_topology(1024, CONFIG.link_density, 11,
                             capacity_mbps=CONFIG.max_bandwidth_mbps)


def test_bench_generate_topology(benchmark):
    # a round is one generation: positions, linked pairs and the checked edge arrays
    args = (1024, CONFIG.link_density, 11)
    topology = benchmark.pedantic(generate_topology, args=args,
                                  kwargs={"capacity_mbps": CONFIG.max_bandwidth_mbps},
                                  rounds=1, iterations=1)
    assert len(topology.edges.keys) == len(generate_topology_eager(*args).links)


def _grading_inputs(topology):
    rng = stream_np_rng(11, STREAM_GRADING)
    states = sample_link_states(len(topology.links), rng,
                                capacity_mbps=CONFIG.max_bandwidth_mbps,
                                flow_rate_mbps=CONFIG.flow_rate_mbps, mu=CONFIG.mu)
    return (topology, states, CONFIG.grading_config(), rng), {}


def test_bench_build_knowledge_base(benchmark, topology_1024):
    # a round is one regrade
    topology = topology_1024
    assert topology.edges.degree.sum() == 2 * len(topology.links)
    kb = benchmark.pedantic(build_knowledge_base, setup=lambda: _grading_inputs(topology),
                            rounds=3, iterations=1)
    assert len(kb.records) == topology.n
    assert len(kb.link_available_mbps) == len(topology.links)


def test_bench_prune_unroutable(benchmark, topology_1024):
    # One query whose destination is graded out, so it ends at the prune:
    # select, the quadrant (535 graded nodes) and its Subgraph, then a GA
    # search that finds no route.  At n=1024 most queries without a route end so.
    topology = topology_1024
    args, _ = _grading_inputs(topology)
    kb = build_knowledge_base(*args)
    source, destination = 3, 50

    def query():
        feasible = select_feasible(topology, kb, CONFIG.selection_mode)
        subgraph = Subgraph.from_topology(
            topology, quadrant_candidates(topology, source, destination) & feasible, source)
        return ga_search(subgraph, source, destination, CONFIG.ga_config(), kb,
                         stream_py_rng(SEED, STREAM_GA), bw_threshold=CONFIG.bw_threshold_mbps)

    result = benchmark.pedantic(query, rounds=20, iterations=1)
    assert not result.found


def test_bench_ga_search_1024(benchmark, topology_1024):
    # One routed default-GA query of the shape that dominates route-refresh's
    # tail: a pruned subgraph of 150-300 members (296 here) on n=1024.  A
    # round is the prune and the search.
    topology = topology_1024
    args, _ = _grading_inputs(topology)
    kb = build_knowledge_base(*args)
    source, destination = 0, 110

    def query():
        feasible = select_feasible(topology, kb, CONFIG.selection_mode)
        subgraph = Subgraph.from_topology(
            topology, quadrant_candidates(topology, source, destination) & feasible, source)
        result = ga_search(subgraph, source, destination, CONFIG.ga_config(), kb,
                           stream_py_rng(SEED, STREAM_GA), bw_threshold=CONFIG.bw_threshold_mbps)
        return subgraph, result

    subgraph, result = benchmark.pedantic(query, rounds=3, iterations=1)
    assert 150 <= len(subgraph.allowed) <= 300
    assert result.found
    assert path_is_valid(result.best_path, subgraph, source, destination)
