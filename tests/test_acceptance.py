"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines.  Shared expensive runs (the trial sweeps) live in module-scoped
fixtures so criteria that examine the same data don't recompute it.
"""

import random
import statistics
import time

import numpy as np
import pytest

from gradednet.bench import prepare_trial, run_trial, search, trial_seed
from gradednet.cli import main as cli_main
from gradednet.config import RunConfig
from gradednet.grading import (
    DelayInputs,
    SaturatedChannelError,
    average_delay,
    build_knowledge_base,
)
from gradednet.optimizers import (
    AbcConfig,
    GaConfig,
    Subgraph,
    abc_search,
    ga_search,
    path_is_valid,
)
from gradednet.topology import generate_topology, quadrant_candidates
from gradednet.traffic import LinkState, link_load_at, sample_link_states
from oracles import (
    bfs_hops,
    enumerate_best_bottleneck,
    rk4_load_grid,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")


# ------------------------------------------------------------------ fixtures

@pytest.fixture(scope="module")
def validity_sweep():
    """1000 seeded protocol trials over n in {15, 32, 64} with a path observer."""
    config = RunConfig(colony_size=8, population_size=8)
    outcomes = []
    violations = 0
    for index in range(1000):
        n = (15, 32, 64)[index % 3]
        seed = trial_seed(1000, n, index)
        # the observer needs the subgraph before the searches run
        trial = prepare_trial(n, seed, config)

        def observe(kind, path):
            if not path_is_valid(path, trial.subgraph, trial.source, trial.destination):
                nonlocal violations
                violations += 1

        abc = search(trial, "abc", config, seed, observe)
        ga = search(trial, "ga", config, seed, observe)
        outcomes.append((trial.subgraph, trial.source, trial.destination, abc, ga))
    return outcomes, violations


@pytest.fixture(scope="module")
def default_sweep_n64():
    """120 trials at n=64 with the shipped default configuration."""
    config = RunConfig()
    return [run_trial(64, trial_seed(config.seed, 64, k), config)
            for k in range(120)]


# ------------------------------------------------------------------ criteria

def test_criterion_01_ode_fidelity():
    """Closed-form link load matches RK4 integration to 1e-6 over t in [0, 10]."""
    started = time.time()
    rng = np.random.default_rng(20240901)
    t0 = rng.uniform(0.0, 10.0, 100)
    gamma = rng.uniform(0.0, 10.0, 100)
    mu = rng.uniform(0.1, 5.0, 100)
    times, loads = rk4_load_grid(t0, gamma, mu, t_end=10.0, steps=5000)
    max_err = 0.0
    for j in range(100):
        state = LinkState(float(t0[j]), float(gamma[j]), float(mu[j]))
        closed = np.array([link_load_at(state, t) for t in times[::10]])
        max_err = max(max_err, float(np.max(np.abs(closed - loads[::10, j]))))
    elapsed = time.time() - started
    ok = max_err < 1e-6 and elapsed < 5.0
    _report(1, "ode fidelity", ok, f"max_err={max_err:.2e}, {elapsed:.2f}s")
    assert max_err < 1e-6
    assert elapsed < 5.0


def test_criterion_02_delay_formula():
    """Hand-evaluated delay cases to 1e-12; saturation raises."""
    one = average_delay(DelayInputs(lam=(1.0,), gamma_total=1.0, mu=1.0,
                                    capacities=(2.0,)))
    two = average_delay(DelayInputs(lam=(1.0, 1.0), gamma_total=2.0, mu=1.0,
                                    capacities=(2.0, 3.0)))
    ok = abs(one - 1.0) < 1e-12 and abs(two - 0.75) < 1e-12
    raised = False
    try:
        average_delay(DelayInputs(lam=(2.0,), gamma_total=2.0, mu=1.0,
                                  capacities=(2.0,)))
    except SaturatedChannelError:
        raised = True
    _report(2, "delay formula", ok and raised,
            f"T1={one!r}, T2={two!r}, saturated raises={raised}")
    assert ok and raised


def test_criterion_03_path_validity(validity_sweep):
    """Every path sampled during 1000 trials satisfies all path invariants."""
    outcomes, violations = validity_sweep
    for subgraph, source, destination, abc, ga in outcomes:
        for result in (abc, ga):
            if result.found and not path_is_valid(result.best_path, subgraph,
                                                  source, destination):
                violations += 1
    ok = violations == 0 and len(outcomes) == 1000
    _report(3, "path validity", ok,
            f"{len(outcomes)} trials, {violations} violations")
    assert ok


def test_criterion_04_oracle_optimality():
    """ABC/GA reach the exhaustive-enumeration optimum on small graphs."""
    started = time.time()
    abc_hits = ga_hits = considered = 0
    attempt = 0
    while considered < 200:
        attempt += 1
        n = 6 + (attempt % 5)
        topology = generate_topology(n, 0.4, 90000 + attempt)
        rng = np.random.default_rng(80000 + attempt)
        states = sample_link_states(len(topology.links), rng, capacity_mbps=30.0)
        kb = build_knowledge_base(topology, states, RunConfig().grading_config(), rng)
        subgraph = Subgraph.from_topology(topology, set(range(n)), 0)
        source, destination = 0, n - 1
        oracle = enumerate_best_bottleneck(subgraph, source, destination, kb)
        if oracle is None:
            continue
        considered += 1
        abc = abc_search(subgraph, source, destination,
                         AbcConfig(colony_size=10, max_cycles=30), kb,
                         random.Random(attempt), bw_threshold=0.0)
        ga = ga_search(subgraph, source, destination,
                       GaConfig(population_size=20, generations=30,
                                mutation_rate=0.1), kb,
                       random.Random(10_000 + attempt), bw_threshold=0.0)
        if abc.found and abs(abc.best_fitness.bottleneck_bw - oracle) < 1e-9:
            abc_hits += 1
        if ga.found and abs(ga.best_fitness.bottleneck_bw - oracle) < 1e-9:
            ga_hits += 1
    elapsed = time.time() - started
    abc_rate, ga_rate = abc_hits / considered, ga_hits / considered
    ok = abc_rate >= 0.95 and ga_rate >= 0.90 and elapsed < 60.0
    _report(4, "oracle optimality", ok,
            f"abc={abc_rate:.3f}, ga={ga_rate:.3f}, {elapsed:.1f}s")
    assert abc_rate >= 0.95
    assert ga_rate >= 0.90
    assert elapsed < 60.0


def test_criterion_05_bfs_bound(validity_sweep):
    """Returned hop counts never undercut BFS shortest hops on the same subgraph."""
    outcomes, _ = validity_sweep
    checked = violations = 0
    for subgraph, source, destination, abc, ga in outcomes:
        shortest = bfs_hops(subgraph, source, destination)
        for result in (abc, ga):
            if result.found:
                checked += 1
                if shortest is None or result.hop_count < shortest:
                    violations += 1
    ok = violations == 0 and checked > 0
    _report(5, "bfs hop bound", ok, f"{checked} paths checked, {violations} below BFS")
    assert ok


def test_criterion_06_quadrant_statistics():
    """Destination-quadrant candidate fraction averages near one quarter.

    The source is the node nearest the square's center, matching the
    quadrant construction (sectors are centered on the source); corner
    sources would trivially skew the area split.
    """
    fractions = []
    for seed in range(100):
        topology = generate_topology(1024, 0.01, 50_000 + seed)
        source = min(range(1024),
                     key=lambda i: (topology.nodes[i].x - 0.5) ** 2
                                   + (topology.nodes[i].y - 0.5) ** 2)
        rng = random.Random(seed)
        destination = rng.randrange(1023)
        if destination >= source:
            destination += 1
        members = quadrant_candidates(topology, source, destination)
        fractions.append(len(members) / 1023)
    mean = sum(fractions) / len(fractions)
    ok = 0.15 <= mean <= 0.35
    _report(6, "quadrant statistics", ok, f"mean fraction={mean:.4f} over 100 seeds")
    assert ok


def test_criterion_07_convergence_ordering(default_sweep_n64):
    """Median ABC convergence cycle does not exceed GA's at n=64 defaults."""
    abc_conv = [r.abc.convergence_cycle for r in default_sweep_n64 if r.abc.found]
    ga_conv = [r.ga.convergence_cycle for r in default_sweep_n64 if r.ga.found]
    abc_median = statistics.median(abc_conv)
    ga_median = statistics.median(ga_conv)
    ratio = None if ga_median == 0 else (ga_median - abc_median) / ga_median
    ok = len(abc_conv) >= 30 and len(ga_conv) >= 30 and abc_median <= ga_median
    _report(7, "convergence ordering", ok,
            f"abc_median={abc_median}, ga_median={ga_median}, "
            f"ratio={ratio if ratio is None else round(ratio, 3)} "
            f"(reported, target ~0.6), n={len(abc_conv)}/{len(ga_conv)}")
    assert len(abc_conv) >= 30 and len(ga_conv) >= 30
    assert abc_median <= ga_median


def test_criterion_08_quality_fractions(default_sweep_n64):
    """Quality fractions partition to one; the bee colony wins the plurality."""
    both = [r for r in default_sweep_n64 if r.abc.found and r.ga.found]
    assert len(default_sweep_n64) >= 100
    ga_better = abc_better = equal = 0
    for record in both:
        a = record.abc.best_fitness.bottleneck_bw
        g = record.ga.best_fitness.bottleneck_bw
        if a > g + 1e-9:
            abc_better += 1
        elif g > a + 1e-9:
            ga_better += 1
        else:
            equal += 1
    total = len(both)
    fractions = (abc_better / total, equal / total, ga_better / total)
    ok = (abs(sum(fractions) - 1.0) < 1e-12
          and abc_better > equal and abc_better > ga_better)
    _report(8, "quality fractions", ok,
            f"abc_better={fractions[0]:.3f}, equal={fractions[1]:.3f}, "
            f"ga_better={fractions[2]:.3f} over {total} compared trials")
    assert abs(sum(fractions) - 1.0) < 1e-12
    assert abc_better > equal and abc_better > ga_better


def test_criterion_10_determinism(tmp_path):
    """Identical config and seed reproduce byte-identical artifacts."""
    mismatches = []
    cfg = tmp_path / "config.json"
    cfg.write_text('{"colony_size": 5, "population_size": 5, '
                   '"max_cycles": 6, "generations": 6}\n')

    for run in ("a", "b"):
        out = tmp_path / f"gen_{run}"
        assert cli_main(["generate", "--n", "20", "--seed", "11",
                         "--out", str(out)]) == 0
    for name in ("topology.json", "run_config.json"):
        if ((tmp_path / "gen_a" / name).read_bytes()
                != (tmp_path / "gen_b" / name).read_bytes()):
            mismatches.append(f"generate/{name}")

    topology = str(tmp_path / "gen_a" / "topology.json")
    for run in ("a", "b"):
        out = tmp_path / f"route_{run}"
        assert cli_main(["route", "--topology", topology, "--source", "0",
                         "--destination", "19", "--seed", "11",
                         "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("grade_dump.json", "route_abc.json", "route_ga.json",
                 "run_config.json"):
        if ((tmp_path / "route_a" / name).read_bytes()
                != (tmp_path / "route_b" / name).read_bytes()):
            mismatches.append(f"route/{name}")

    for run in ("a", "b"):
        out = tmp_path / f"bench_{run}"
        assert cli_main(["bench", "--node-counts", "15,16", "--seeds-per-n", "2",
                         "--seed", "11", "--config", str(cfg),
                         "--out", str(out)]) == 0
    for name in ("results.csv", "summary.json", "plot_traffic_intensity.csv",
                 "plot_throughput.csv", "run_config.json"):
        if ((tmp_path / "bench_a" / name).read_bytes()
                != (tmp_path / "bench_b" / name).read_bytes()):
            mismatches.append(f"bench/{name}")

    ok = not mismatches
    _report(10, "determinism", ok,
            "all artifacts byte-identical" if ok else f"mismatches: {mismatches}")
    assert ok
