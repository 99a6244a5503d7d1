"""Micro-benchmarks of the search hot path on one fixed n=256 trial.

The timings are informational (no thresholds); compare them across commits
with ``pytest tests/test_microbench.py --benchmark-autosave`` and
``pytest-benchmark compare``.  Each round repeats the same seeded work.
"""

import random

import pytest

from gradednet.bench import (
    STREAM_ABC,
    STREAM_ENDPOINTS,
    STREAM_GRADING,
    STREAM_TOPOLOGY,
    child_seed,
    pick_endpoints,
    stream_np_rng,
    stream_py_rng,
    trial_seed,
)
from gradednet.config import RunConfig
from gradednet.grading import build_knowledge_base, select_feasible
from gradednet.optimizers import (
    Subgraph,
    abc_search,
    neighbor_path,
    path_fitness,
    path_is_valid,
    random_path,
)
from gradednet.topology import generate_topology, quadrant_candidates
from gradednet.traffic import sample_link_states

CONFIG = RunConfig()
N = 256
SEED = trial_seed(7, N, 21)  # a trial whose pruned subgraph has a route
STEPS = 500


@pytest.fixture(scope="module")
def trial():
    topology = generate_topology(N, CONFIG.link_density, child_seed(SEED, STREAM_TOPOLOGY),
                                 capacity_mbps=CONFIG.max_bandwidth_mbps,
                                 lifetime_scale=CONFIG.lifetime_scale)
    rng = stream_np_rng(SEED, STREAM_GRADING)
    states = sample_link_states(len(topology.links), rng,
                                capacity_mbps=CONFIG.max_bandwidth_mbps,
                                flow_rate_mbps=CONFIG.flow_rate_mbps, mu=CONFIG.mu)
    kb = build_knowledge_base(topology, states, CONFIG.grading_config(), rng)
    source, destination = pick_endpoints(topology, stream_py_rng(SEED, STREAM_ENDPOINTS))
    candidates = (quadrant_candidates(topology, source, destination)
                  & select_feasible(topology, kb, CONFIG.selection_mode))
    subgraph = Subgraph.from_topology(topology, candidates, source)
    start = random_path(subgraph, source, destination, random.Random(0))
    assert start is not None
    return topology, kb, subgraph, source, destination, start


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


def test_bench_abc_search(benchmark, trial):
    topology, kb, subgraph, source, destination, start = trial
    result = benchmark.pedantic(
        abc_search,
        setup=lambda: ((subgraph, source, destination, CONFIG.abc_config(), kb,
                        stream_py_rng(SEED, STREAM_ABC)),
                       {"bw_threshold": CONFIG.bw_threshold_mbps}),
        rounds=3, iterations=1)
    assert result.found
