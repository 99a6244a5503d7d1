"""Benchmark harness: seeded trials, node-count sweeps, CSV/JSON artifacts.

A trial is the full protocol on one topology: generate, grade, prune to the
destination quadrant, then run every optimizer on the identical subgraph.
``prepare_trial`` is the one implementation of the steps before the searches;
``run_trial`` and the ``route`` command build on it and its parts.
Each trial's seed is split into independent per-purpose streams (topology,
grading, endpoints, one per algorithm) so adding an algorithm later never
perturbs the existing ones.
"""

from __future__ import annotations

import csv
import itertools
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .grading import KnowledgeBase, build_knowledge_base, select_feasible
from .optimizers import Observer, RouteResult, Subgraph, abc_search, ga_search
from .topology import Topology, generate_topology, quadrant_candidates, write_json
from .traffic import sample_link_states, traffic_intensity

STREAM_TOPOLOGY = 0
STREAM_GRADING = 1
STREAM_ABC = 2
STREAM_GA = 3
STREAM_ENDPOINTS = 4

# Each optimizer's search, config and stream, in the order every artifact lists them.
SEARCHES = {
    "abc": (abc_search, RunConfig.abc_config, STREAM_ABC),
    "ga": (ga_search, RunConfig.ga_config, STREAM_GA),
}

# results.csv's columns, in order, with the type of each.  Floats are written
# with repr, so they load back exactly, and bools as 0 or 1.
CSV_FIELDS = {
    "n": int, "seed": int, "mode": str, "n_selected": int,
    **{f"{algo}_{stat}": kind for stat, kind in (("hops", int), ("conv", int), ("fit", float))
       for algo in SEARCHES},
    **{f"path_found_{algo}": bool for algo in SEARCHES},
}

FITNESS_TIE_MBPS = 1e-9
MIN_ENDPOINT_SEPARATION = 0.5


def child_seed(seed: int, stream: int) -> int:
    """Independent 64-bit sub-seed for one purpose-stream of a trial."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return int(ss.generate_state(1, np.uint64)[0])


def stream_np_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def stream_py_rng(seed: int, stream: int) -> random.Random:
    return random.Random(child_seed(seed, stream))


def pick_endpoints(topology, rng: random.Random) -> tuple[int, int]:
    """Seeded source/destination pair with a meaningful geometric separation.

    Adjacent endpoints make the search trivial; the protocol is interested in
    multi-hop routes, so pairs closer than ``MIN_ENDPOINT_SEPARATION`` are
    redrawn, up to 100 draws per node.  Falls back to the most separated pair
    when the topology is too clustered.
    """
    n = topology.n
    nodes = topology.nodes

    def separation2(pair: tuple[int, int]) -> float:
        dx = nodes[pair[0]].x - nodes[pair[1]].x
        dy = nodes[pair[0]].y - nodes[pair[1]].y
        return dx * dx + dy * dy

    for _ in range(100 * n):
        source = rng.randrange(n)
        destination = rng.randrange(n - 1)
        if destination >= source:
            destination += 1
        if separation2((source, destination)) >= MIN_ENDPOINT_SEPARATION ** 2:
            return source, destination
    return max(itertools.combinations(range(n), 2), key=separation2)


@dataclass
class TrialRecord:
    """One trial's row: each optimizer's result, in the field named after its ``SEARCHES`` key."""

    n_total: int
    n_selected: int
    abc: RouteResult
    ga: RouteResult
    seed: int
    selection_mode: str
    source: int = 0
    destination: int = 0

    def to_row(self) -> dict:
        row = {"n": self.n_total, "seed": self.seed, "mode": self.selection_mode,
               "n_selected": self.n_selected}
        for algo in SEARCHES:
            result = getattr(self, algo)
            row[f"{algo}_hops"] = result.hop_count
            row[f"{algo}_conv"] = result.convergence_cycle
            row[f"{algo}_fit"] = result.best_fitness.bottleneck_bw
            row[f"path_found_{algo}"] = result.found
        return row


@dataclass
class SuiteSummary:
    """A sweep's statistics, keyed as in summary.json: one entry per node
    count, and the quality fractions over trials where both found a path."""

    mode: str
    per_n: dict[int, dict]
    quality: dict


@dataclass
class PreparedTrial:
    """One trial up to the searches: the graded topology and its pruned subgraph."""

    topology: Topology
    kb: KnowledgeBase
    feasible: frozenset[int]
    source: int
    destination: int
    subgraph: Subgraph


def grade_topology(topology: Topology, config: RunConfig, seed: int) -> KnowledgeBase:
    """Sample link states, then grade every node, both from the seed's grading stream.

    Each link's load is drawn over that link's own capacity.  The two stages
    draw from one numpy stream in this order, so the same topology, config
    and seed always give the identical knowledge base.
    """
    rng = stream_np_rng(seed, STREAM_GRADING)
    capacity = topology.edges.capacity_mbps
    states = sample_link_states(len(capacity), rng, capacity_mbps=capacity,
                                flow_rate_mbps=config.flow_rate_mbps, mu=config.mu)
    return build_knowledge_base(topology, states, config.grading_config(), rng)


def prune(topology: Topology, kb: KnowledgeBase, source: int, destination: int,
          mode: str) -> PreparedTrial:
    """The trial with the nodes kept by grading, and the subgraph of those in
    the destination's quadrant."""
    feasible = select_feasible(topology, kb, mode)
    candidates = quadrant_candidates(topology, source, destination) & feasible
    return PreparedTrial(topology, kb, feasible, source, destination,
                         Subgraph.from_topology(topology, candidates, source))


def prepare_trial(n: int, seed: int, config: RunConfig) -> PreparedTrial:
    """Generate, grade, pick endpoints and prune: the protocol before the searches."""
    topology = generate_topology(
        n, config.link_density, child_seed(seed, STREAM_TOPOLOGY),
        capacity_mbps=config.max_bandwidth_mbps,
        lifetime_scale=config.lifetime_scale,
    )
    kb = grade_topology(topology, config, seed)
    source, destination = pick_endpoints(topology, stream_py_rng(seed, STREAM_ENDPOINTS))
    return prune(topology, kb, source, destination, config.selection_mode)


def search(trial: PreparedTrial, algo: str, config: RunConfig, seed: int,
           observer: Observer | None = None) -> RouteResult:
    """Run one optimizer, a key of ``SEARCHES``, on the trial's subgraph with its own stream."""
    optimizer, algo_config, stream = SEARCHES[algo]
    return optimizer(trial.subgraph, trial.source, trial.destination, algo_config(config),
                     trial.kb, stream_py_rng(seed, stream),
                     bw_threshold=config.bw_threshold_mbps, observer=observer)


def run_trial(n: int, seed: int, config: RunConfig) -> TrialRecord:
    """Run the full protocol once: prepare the trial, then search with every optimizer."""
    trial = prepare_trial(n, seed, config)
    return TrialRecord(
        n_total=n, n_selected=len(trial.feasible),
        **{algo: search(trial, algo, config, seed) for algo in SEARCHES},
        seed=seed, selection_mode=config.selection_mode,
        source=trial.source, destination=trial.destination,
    )


def trial_seed(base_seed: int, n: int, index: int) -> int:
    """Deterministic per-(n, replicate) seed; independent of execution order."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(n, index))
    return int(ss.generate_state(1, np.uint64)[0])


def run_suite(config: RunConfig) -> tuple[SuiteSummary, list[TrialRecord]]:
    """Sweep ``config.node_counts``, aggregating over ``seeds_per_n`` replicates each."""
    records = [
        run_trial(n, trial_seed(config.seed, n, k), config)
        for n in config.node_counts
        for k in range(config.seeds_per_n)
    ]
    rows = [record.to_row() for record in records]
    return summarize(rows), records


def convergence_ratio(abc_median: float | None, ga_median: float | None) -> float | None:
    """Relative convergence advantage (GA - ABC) / GA; None when undefined."""
    if abc_median is None or ga_median is None or ga_median == 0:
        return None
    return (ga_median - abc_median) / ga_median


def _median(values: list) -> float | None:
    return statistics.median(values) if values else None


def summarize(rows: list[dict]) -> SuiteSummary:
    """Aggregate trial rows into per-n medians and overall quality fractions.

    A pure fold over the row set: execution order never changes the result.
    """
    if not rows:
        raise ValueError("no rows to summarize")
    per_n = {}
    for n in sorted({row["n"] for row in rows}):
        group = [row for row in rows if row["n"] == n]
        entry = per_n[n] = {"trials": len(group)}
        for algo in SEARCHES:
            found = [row for row in group if row[f"path_found_{algo}"]]
            entry[f"path_found_{algo}"] = len(found) / len(group)
            entry[f"{algo}_median_hops"] = _median([row[f"{algo}_hops"] for row in found])
            entry[f"{algo}_median_conv"] = _median([row[f"{algo}_conv"] for row in found])
        entry["convergence_ratio"] = convergence_ratio(entry["abc_median_conv"],
                                                       entry["ga_median_conv"])

    both = [row for row in rows if row["path_found_abc"] and row["path_found_ga"]]
    ga_better = sum(1 for r in both if r["ga_fit"] > r["abc_fit"] + FITNESS_TIE_MBPS)
    abc_better = sum(1 for r in both if r["abc_fit"] > r["ga_fit"] + FITNESS_TIE_MBPS)
    shares = {"ga_better": ga_better, "abc_better": abc_better,
              "equal": len(both) - ga_better - abc_better}
    quality = {name: count / len(both) if both else 0.0 for name, count in shares.items()}
    quality["compared_trials"] = len(both)
    return SuiteSummary(rows[0]["mode"], per_n, quality)


def _csv_cell(kind: type, value):
    return repr(value) if kind is float else int(value) if kind is bool else value


def _csv_value(kind: type, cell: str):
    return bool(int(cell)) if kind is bool else kind(cell)


def write_records_csv(rows: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        for row in rows:
            writer.writerow([_csv_cell(kind, row[name]) for name, kind in CSV_FIELDS.items()])


def load_records_csv(path: str | Path) -> list[dict]:
    with open(path, newline="") as handle:
        return [{name: _csv_value(kind, entry[name]) for name, kind in CSV_FIELDS.items()}
                for entry in csv.DictReader(handle)]


def summary_to_dict(summary: SuiteSummary) -> dict:
    return {"mode": summary.mode, "quality": summary.quality,
            "per_n": {str(n): entry for n, entry in sorted(summary.per_n.items())}}


def save_summary_json(summary: SuiteSummary, path: str | Path) -> None:
    write_json(path, summary_to_dict(summary))


PLOT_KINDS = ("traffic-intensity", "throughput")


def emit_plot_data(records: list[TrialRecord], kind: str, *,
                   packet_size_bits: int = RunConfig.packet_size_bytes * 8,
                   link_capacity_mbps: float = RunConfig.max_bandwidth_mbps,
                   flow_rate_mbps: float = RunConfig.flow_rate_mbps) -> list[tuple]:
    """Plot-ready rows (n, seed, algo, cycle, value), one per algorithm per trial.

    ``throughput`` reports the best path's bottleneck bandwidth in Mbps at its
    convergence cycle; ``traffic-intensity`` reports packet size times the
    bottleneck link's flow count over its available bandwidth.  Algorithms
    that found no path (or whose bottleneck is fully saturated) contribute no
    row.  Rows are sorted by (n, seed, algo, cycle).
    """
    if not records:
        raise ValueError("no records to plot")
    if kind not in PLOT_KINDS:
        raise ValueError(f"kind must be one of {PLOT_KINDS}")
    rows = []
    for record, algo in itertools.product(records, SEARCHES):
        result = getattr(record, algo)
        if not result.found:
            continue
        bottleneck = result.best_fitness.bottleneck_bw
        if kind == "throughput":
            value = bottleneck
        else:
            if bottleneck <= 0:
                continue
            flows = (link_capacity_mbps - bottleneck) / flow_rate_mbps
            value = traffic_intensity(packet_size_bits, flows, bottleneck * 1e6)
        rows.append((record.n_total, record.seed, algo, result.convergence_cycle, value))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    return rows


def write_plot_csv(rows: list[tuple], path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("n", "seed", "algo", "cycle", "value"))
        for n, seed, algo, cycle, value in rows:
            writer.writerow([n, seed, algo, cycle, repr(value)])
