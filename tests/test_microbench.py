"""Micro-benchmarks of the search hot path on one fixed n=256 trial.

The timings are informational (no thresholds); compare them across commits
with ``pytest tests/test_microbench.py --benchmark-autosave`` and
``pytest-benchmark compare``.  Each round repeats the same seeded work.
"""

import random

import pytest

from gradednet.bench import STREAM_ABC, prepare_trial, stream_py_rng, trial_seed
from gradednet.config import RunConfig
from gradednet.optimizers import (
    abc_search,
    neighbor_path,
    path_fitness,
    path_is_valid,
    random_path,
)

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


def test_bench_abc_search(benchmark, trial):
    topology, kb, subgraph, source, destination, start = trial
    result = benchmark.pedantic(
        abc_search,
        setup=lambda: ((subgraph, source, destination, CONFIG.abc_config(), kb,
                        stream_py_rng(SEED, STREAM_ABC)),
                       {"bw_threshold": CONFIG.bw_threshold_mbps}),
        rounds=3, iterations=1)
    assert result.found
