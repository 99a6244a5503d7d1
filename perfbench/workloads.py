"""The benchmark's workloads, as seeded streams of items to run and check.

Every workload is a closed loop: one client in one process sends the next
item only after the previous one has been run and checked.  An item is
either an operation (counted, timed alone) or background work that the
operations depend on (route-refresh's regrade rounds, timed but not counted).
The benchmark draws every input from ``--seed`` and hands gradednet only
those inputs.  Planning and checking happen between items and are not timed.

* ``sweep-search``: the paper's bench protocol.  One operation is one small
  ``gradednet bench`` run: ``bench.run_trial`` at n = 64 and at n = 256, then
  ``summarize`` and the artifact writers.  ABC is over 90 % of trial time, so
  optimiser changes show here.  Only trials whose pruned quadrant holds a
  route and is of middling size (SWEEP_BANDS) are run.  Trials without a
  route take milliseconds and trial time tracks quadrant size, so a
  seed-dependent mix would swamp the timings; skipped draws are counted by
  reason.
* ``grade-large``: generate, sample link states, grade and select at
  n = 2048 (about 336k links), the ``gradednet grade`` path with no search.
  It is the bypass case for search changes and the main case for topology
  and grading work.  It runs by hand only: with about 4 operations a run, its
  figures on a shared host were too unsteady for ``BENCHMARK.json``.
* ``route-refresh``: one n = 1024 topology built in set-up; each round draws
  fresh link states and rebuilds the knowledge base (the paper's periodic
  refresh), then serves queries that each select, prune, build a
  ``Subgraph`` and run ``ga_search``.  Each round serves a fixed mix of
  queries that have a route and queries that end at the prune, in strata of
  subgraph size, so the median measures the prune and the tail measures GA
  on every seed.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gradednet.bench import (
    STREAM_ABC,
    STREAM_ENDPOINTS,
    STREAM_GA,
    STREAM_GRADING,
    STREAM_TOPOLOGY,
    TrialRecord,
    child_seed,
    emit_plot_data,
    load_records_csv,
    pick_endpoints,
    run_trial,
    save_summary_json,
    stream_np_rng,
    stream_py_rng,
    summarize,
    summary_to_dict,
    write_plot_csv,
    write_records_csv,
)
from gradednet.config import RunConfig
from gradednet.grading import build_knowledge_base, select_feasible
from gradednet.optimizers import Subgraph, abc_search, ga_search, path_fitness, path_is_valid
from gradednet.topology import generate_topology, quadrant_candidates
from gradednet.traffic import sample_link_states

from tracing import NullTracer
from widest import widest_path

CONFIG = RunConfig()
THRESHOLD = CONFIG.bw_threshold_mbps

# Pruned-subgraph node counts [low, high) of the sweep's trials: the middle
# third of trials that have a route, at each size.  Trial time tracks subgraph
# size (correlation 0.93 at n = 256), and with all sizes a run's dozen trials
# per size gave throughput that moved by about 20 % from seed to seed.
SWEEP_BANDS = {64: (19, 29), 256: (67, 103)}
GRADE_N = 2048
REFRESH_N = 1024
# Each refresh round serves a fixed number of queries per stratum of
# pruned-subgraph node count: for queries that have a route, (stratum cuts,
# queries per stratum), and the same for queries that end at the prune.  Query
# time tracks subgraph size, so fixed quotas keep a run's mix, and with it the
# median (on the prune, 60 % of queries) and the tail (on GA), the same
# whatever the seed.  Routed queries come from subgraphs under 300 nodes: GA
# took from 0.07 s to nearly 2 s per query at 300-430 nodes, and over 5 s
# beyond, so the few such queries a run can hold would set its throughput and
# tail.  Twelve routed queries a round put over a hundred GA runs in a 50 s run.
REFRESH_QUOTAS = {True: ((150, 300), (4, 8, 0)),
                  False: ((270, 430), (6, 6, 6))}
MIN_SEPARATION = 0.5


class CheckFailed(Exception):
    """A result of gradednet contradicted the benchmark's independent check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def derive(seed: int, *key: int) -> int:
    """Independent 64-bit seed for one input of the workload."""
    state = np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1, np.uint64)
    return int(state[0])


@dataclass
class Outcome:
    """A checked item: its result row and what the traced run summarises."""

    row: dict
    routes: list = field(default_factory=list)  # rows scored against the exact optimum
    selected_fracs: list = field(default_factory=list)
    subgraph_nodes: list = field(default_factory=list)
    links: list = field(default_factory=list)
    drawn: tuple = ()  # unavailability reason (or None) of every input drawn for this op


def unavailable_reason(feasible, subgraph, source: int, destination: int,
                       optimum: float | None) -> str | None:
    """Why no route exists, judged from outside the optimizers; None if one does."""
    if destination not in feasible:
        return "dest_graded_out"
    if not subgraph.neighbors(source):
        return "quadrant_empty"
    if optimum is None:
        return "quadrant_disconnected"
    return None


def fitness_on(topology, kb):
    """The optimizers' fitness of a path over these inputs, for search probes."""
    return lambda path: path_fitness(path, topology, kb, THRESHOLD)


def exact_optimum(subgraph, kb, source: int, destination: int) -> float | None:
    best = widest_path(subgraph, kb, source, destination, THRESHOLD)
    return None if best is None else best[0]


def check_route(label: str, result, subgraph, topology, kb, source: int,
                destination: int, optimum: float | None) -> None:
    """A returned path is valid, its bottleneck recomputes, and it is at most optimal."""
    if not result.found:
        return
    path = result.best_path
    check(path_is_valid(path, subgraph, source, destination), f"{label}: invalid path {path}")
    check(result.hop_count == len(path) - 1, f"{label}: hop count {result.hop_count}")
    fitness = path_fitness(path, topology, kb, THRESHOLD)
    reported = result.best_fitness.bottleneck_bw
    check(fitness is not None and fitness.bottleneck_bw == reported,
          f"{label}: reported bottleneck {reported} != recomputed {fitness}")
    check(optimum is not None and reported <= optimum,
          f"{label}: bottleneck {reported} exceeds the exact optimum {optimum}")


class Workload:
    """A named stream of items over fixed inputs that ``setup`` builds."""

    name = ""
    # Input-shape counts cover the inputs drawn for this many operations, which
    # a traced run always completes, so they do not depend on the program's speed.
    shape_ops = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir / self.name

    def setup(self, tracer) -> None:
        pass

    def fixed_digest(self) -> str:
        """Digest of the fixed inputs, so repeated set-ups can be compared."""
        return repr(CONFIG.to_dict())

    def items(self):
        raise NotImplementedError


# ---------------------------------------------------------------- sweep-search

@dataclass
class TrialStages:
    topology: object
    kb: object
    feasible: set
    source: int
    destination: int
    subgraph: object


def trial_stages(n: int, seed: int, tracer) -> TrialStages:
    """``bench.run_trial`` up to the searches, stage by stage, each in a span."""
    with tracer.span("topology.generate"):
        topology = generate_topology(n, CONFIG.link_density, child_seed(seed, STREAM_TOPOLOGY),
                                     capacity_mbps=CONFIG.max_bandwidth_mbps,
                                     lifetime_scale=CONFIG.lifetime_scale)
    rng = stream_np_rng(seed, STREAM_GRADING)
    with tracer.span("traffic.sample_states"):
        states = sample_link_states(len(topology.links), rng,
                                    capacity_mbps=CONFIG.max_bandwidth_mbps,
                                    flow_rate_mbps=CONFIG.flow_rate_mbps, mu=CONFIG.mu)
    with tracer.span("grading.build_kb"):
        kb = build_knowledge_base(topology, states, CONFIG.grading_config(), rng)
    with tracer.span("bench.pick_endpoints"):
        source, destination = pick_endpoints(topology, stream_py_rng(seed, STREAM_ENDPOINTS))
    with tracer.span("grading.select"):
        feasible = select_feasible(topology, kb, CONFIG.selection_mode)
    with tracer.span("topology.quadrant"):
        quadrant = quadrant_candidates(topology, source, destination)
    with tracer.span("optimizers.subgraph"):
        subgraph = Subgraph.from_topology(topology, quadrant & feasible, source)
    return TrialStages(topology, kb, feasible, source, destination, subgraph)


class TrialPlan:
    """One ``run_trial`` input that has a route, and its exact optimum.

    Only seeds are kept between planning and checking; the check rebuilds the
    stages, so the planned topology is not in memory, adding to the peak,
    while the trial runs.
    """

    def __init__(self, n: int, seed: int, optimum: float):
        self.n, self.seed, self.optimum = n, seed, optimum
        self.drawn: tuple = ()

    def run(self, tracer) -> TrialRecord:
        if not tracer.active:
            return run_trial(self.n, self.seed, CONFIG)
        # The traced copy of the protocol; its row must equal run_trial's.
        st = trial_stages(self.n, self.seed, tracer)
        probe = tracer.probe("abc")
        with tracer.span("optimizers.abc"):
            abc = abc_search(st.subgraph, st.source, st.destination, CONFIG.abc_config(), st.kb,
                             stream_py_rng(self.seed, STREAM_ABC), bw_threshold=THRESHOLD,
                             observer=probe)
        probe.bind(abc, fitness_on(st.topology, st.kb))
        probe = tracer.probe("ga")
        with tracer.span("optimizers.ga"):
            ga = ga_search(st.subgraph, st.source, st.destination, CONFIG.ga_config(), st.kb,
                           stream_py_rng(self.seed, STREAM_GA), bw_threshold=THRESHOLD,
                           observer=probe)
        probe.bind(ga, fitness_on(st.topology, st.kb))
        return TrialRecord(n_total=self.n, n_selected=len(st.feasible), abc=abc, ga=ga,
                           seed=self.seed, selection_mode=CONFIG.selection_mode,
                           source=st.source, destination=st.destination)

    def check(self, record: TrialRecord, outcome: "Outcome") -> dict:
        st = trial_stages(self.n, self.seed, NullTracer())
        check((record.source, record.destination) == (st.source, st.destination),
              f"endpoints {record.source}->{record.destination}, "
              f"expected {st.source}->{st.destination}")
        check(record.n_selected == len(st.feasible), f"n_selected {record.n_selected}")
        for label, result in (("abc", record.abc), ("ga", record.ga)):
            check_route(label, result, st.subgraph, st.topology, st.kb,
                        st.source, st.destination, self.optimum)
        outcome.selected_fracs.append(len(st.feasible) / self.n)
        outcome.subgraph_nodes.append(len(st.subgraph.allowed))
        outcome.links.append(len(st.topology.links))
        return dict(record.to_row(), opt=self.optimum)


class MiniSweep:
    """One ``gradednet bench`` run in small: the trials, then summary and artifacts."""

    is_op = True

    def __init__(self, trials: list[TrialPlan], out_dir: Path):
        self.trials, self.out_dir = trials, out_dir
        self.label = "sweep-search " + " ".join(f"n={t.n}:trial_seed={t.seed}" for t in trials)

    def run(self, tracer):
        records = [trial.run(tracer) for trial in self.trials]
        rows = [record.to_row() for record in records]
        with tracer.span("bench.summarize"):
            summary = summarize(rows)
        with tracer.span("bench.write"):
            self.out_dir.mkdir(parents=True, exist_ok=True)
            write_records_csv(rows, self.out_dir / "results.csv")
            save_summary_json(summary, self.out_dir / "summary.json")
            for kind in ("traffic-intensity", "throughput"):
                plot = emit_plot_data(records, kind,
                                      packet_size_bits=CONFIG.packet_size_bytes * 8,
                                      link_capacity_mbps=CONFIG.max_bandwidth_mbps,
                                      flow_rate_mbps=CONFIG.flow_rate_mbps)
                write_plot_csv(plot, self.out_dir / f"plot_{kind.replace('-', '_')}.csv")
        return records, summary

    def check(self, result) -> Outcome:
        records, summary = result
        outcome = Outcome(row={}, drawn=tuple(r for t in self.trials for r in t.drawn))
        outcome.routes = [trial.check(record, outcome)
                          for trial, record in zip(self.trials, records)]
        check(load_records_csv(self.out_dir / "results.csv") ==
              [record.to_row() for record in records],
              "results.csv does not read back as the trial rows")
        outcome.row = {"trials": outcome.routes, "summary": summary_to_dict(summary)}
        return outcome


class SweepSearch(Workload):
    name = "sweep-search"
    shape_ops = 3

    def items(self):
        draws = {n: 0 for n in SWEEP_BANDS}
        while True:
            yield MiniSweep([self._plan(n, draws) for n in SWEEP_BANDS], self.out_dir)

    def _plan(self, n: int, draws: dict) -> TrialPlan:
        """The next trial of size n that has a route and a pruned subgraph in the band."""
        drawn = []
        while True:
            seed = derive(self.seed, n, draws[n])
            draws[n] += 1
            st = trial_stages(n, seed, NullTracer())
            optimum = exact_optimum(st.subgraph, st.kb, st.source, st.destination)
            reason = unavailable_reason(st.feasible, st.subgraph, st.source,
                                        st.destination, optimum)
            drawn.append(reason)
            low, high = SWEEP_BANDS[n]
            if reason is None and low <= len(st.subgraph.allowed) < high:
                plan = TrialPlan(n, seed, optimum)
                plan.drawn = tuple(drawn)
                return plan


# ----------------------------------------------------------------- grade-large

class GradeOp:
    is_op = True
    drawn = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.label = f"grade-large n={GRADE_N} seed={seed}"

    def run(self, tracer):
        with tracer.span("topology.generate"):
            topology = generate_topology(GRADE_N, CONFIG.link_density, self.seed,
                                         capacity_mbps=CONFIG.max_bandwidth_mbps,
                                         lifetime_scale=CONFIG.lifetime_scale)
        rng = stream_np_rng(self.seed, STREAM_GRADING)
        with tracer.span("traffic.sample_states"):
            states = sample_link_states(len(topology.links), rng,
                                        capacity_mbps=CONFIG.max_bandwidth_mbps,
                                        flow_rate_mbps=CONFIG.flow_rate_mbps, mu=CONFIG.mu)
        with tracer.span("grading.build_kb"):
            kb = build_knowledge_base(topology, states, CONFIG.grading_config(), rng)
        with tracer.span("grading.select"):
            feasible = select_feasible(topology, kb, CONFIG.selection_mode)
        return topology, kb, feasible

    def check(self, result) -> Outcome:
        topology, kb, feasible = result
        check(sorted(kb.records) == list(range(GRADE_N)), "not every node has a grade record")
        per_class = [0] * 6
        grade_sum = 0.0
        for node, rec in kb.records.items():
            check(rec.node == node, f"record of node {node} names node {rec.node}")
            check(rec.priority in (1, 2, 3, 4, 5, 6), f"node {node} priority {rec.priority}")
            check(0.0 <= rec.grade <= 1.0, f"node {node} grade {rec.grade}")
            per_class[rec.priority - 1] += 1
            grade_sum += rec.grade
        check(feasible == {v for v, rec in kb.records.items() if rec.priority <= 3},
              "selection is not priorities 1..3")
        row = {"seed": self.seed, "links": len(topology.links), "selected": len(feasible),
               "per_class": per_class, "grade_sum": grade_sum}
        return Outcome(row=row, selected_fracs=[len(feasible) / GRADE_N],
                       links=[len(topology.links)])


class GradeLarge(Workload):
    name = "grade-large"

    def items(self):
        for k in itertools.count():
            yield GradeOp(derive(self.seed, k))


# --------------------------------------------------------------- route-refresh

def draw_endpoints(topology, rng: random.Random) -> tuple[int, int]:
    """A source/destination pair at least MIN_SEPARATION apart, so routes are multi-hop."""
    nodes = topology.nodes
    while True:
        source, destination = rng.sample(range(topology.n), 2)
        dx = nodes[source].x - nodes[destination].x
        dy = nodes[source].y - nodes[destination].y
        if dx * dx + dy * dy >= MIN_SEPARATION * MIN_SEPARATION:
            return source, destination


class Regrade:
    """One refresh round: fresh link states and a rebuilt knowledge base."""

    is_op = False
    drawn = ()

    def __init__(self, topology, seed: int, round_no: int):
        self.topology, self.seed, self.round_no = topology, seed, round_no
        self.label = f"route-refresh round={round_no} seed={seed}"
        self.kb = None

    def run(self, tracer):
        rng = np.random.default_rng(self.seed)
        with tracer.span("traffic.sample_states"):
            states = sample_link_states(len(self.topology.links), rng,
                                        capacity_mbps=CONFIG.max_bandwidth_mbps,
                                        flow_rate_mbps=CONFIG.flow_rate_mbps, mu=CONFIG.mu)
        with tracer.span("grading.build_kb"):
            self.kb = build_knowledge_base(self.topology, states, CONFIG.grading_config(), rng)
        return self.kb

    def check(self, kb) -> Outcome:
        check(len(kb.records) == self.topology.n, "not every node has a grade record")
        check(len(kb.link_available_mbps) == len(self.topology.links),
              "link snapshot does not cover every link")
        return Outcome(row={"round": self.round_no, "seed": self.seed,
                            "priorities": [kb.records[v].priority for v in sorted(kb.records)]})


class QueryOp:
    is_op = True

    def __init__(self, topology, kb, source: int, destination: int, seed: int,
                 allowed: frozenset, optimum: float | None, drawn: tuple):
        self.topology, self.kb = topology, kb
        self.source, self.destination, self.seed = source, destination, seed
        self.allowed, self.optimum, self.drawn = allowed, optimum, drawn
        self.label = f"route-refresh query {source}->{destination} ga_seed={seed}"

    def run(self, tracer):
        with tracer.span("grading.select"):
            feasible = select_feasible(self.topology, self.kb, CONFIG.selection_mode)
        with tracer.span("topology.quadrant"):
            quadrant = quadrant_candidates(self.topology, self.source, self.destination)
        with tracer.span("optimizers.subgraph"):
            subgraph = Subgraph.from_topology(self.topology, quadrant & feasible, self.source)
        probe = tracer.probe("ga")
        with tracer.span("optimizers.ga"):
            ga = ga_search(subgraph, self.source, self.destination, CONFIG.ga_config(), self.kb,
                           random.Random(self.seed), bw_threshold=THRESHOLD, observer=probe)
        if probe is not None:
            probe.bind(ga, fitness_on(self.topology, self.kb))
        return feasible, subgraph, ga

    def check(self, result) -> Outcome:
        feasible, subgraph, ga = result
        check(subgraph.allowed == self.allowed, "pruned subgraph differs from the planned one")
        check_route("ga", ga, subgraph, self.topology, self.kb,
                    self.source, self.destination, self.optimum)
        row = {"source": self.source, "destination": self.destination, "opt": self.optimum,
               "ga_fit": ga.best_fitness.bottleneck_bw, "ga_hops": ga.hop_count,
               "ga_conv": ga.convergence_cycle, "path_found_ga": ga.found}
        return Outcome(row=row, routes=[row], selected_fracs=[len(feasible) / self.topology.n],
                       subgraph_nodes=[len(subgraph.allowed)],
                       links=[len(self.topology.links)], drawn=self.drawn)


class RouteRefresh(Workload):
    name = "route-refresh"
    shape_ops = sum(sum(per_stratum) for _, per_stratum in REFRESH_QUOTAS.values())

    def setup(self, tracer) -> None:
        with tracer.span("topology.generate"):
            self.topology = generate_topology(REFRESH_N, CONFIG.link_density, derive(self.seed, 0),
                                              capacity_mbps=CONFIG.max_bandwidth_mbps,
                                              lifetime_scale=CONFIG.lifetime_scale)

    def fixed_digest(self) -> str:
        h = hashlib.sha256()
        for node in self.topology.nodes:
            h.update(repr((node.x, node.y, node.qos)).encode())
        for link in self.topology.links:
            h.update(repr((link.a, link.b, link.capacity_mbps)).encode())
        return h.hexdigest()

    def items(self):
        topology = self.topology
        for round_no in itertools.count():
            regrade = Regrade(topology, derive(self.seed, 1, round_no), round_no)
            yield regrade
            kb = regrade.kb
            feasible = select_feasible(topology, kb, CONFIG.selection_mode)
            rng = random.Random(derive(self.seed, 2, round_no))
            # (has a route, size stratum) -> queries still wanted this round
            quota = {(routed, stratum): wanted
                     for routed, (_, per_stratum) in REFRESH_QUOTAS.items()
                     for stratum, wanted in enumerate(per_stratum)}
            drawn = []
            for query in itertools.count():
                if not any(quota.values()):
                    break
                source, destination = draw_endpoints(topology, rng)
                subgraph = Subgraph.from_topology(
                    topology, quadrant_candidates(topology, source, destination) & feasible, source)
                optimum = exact_optimum(subgraph, kb, source, destination)
                reason = unavailable_reason(feasible, subgraph, source, destination, optimum)
                drawn.append(reason)
                routed = reason is None
                key = (routed, bisect.bisect(REFRESH_QUOTAS[routed][0], len(subgraph.allowed)))
                if not quota[key]:
                    continue
                quota[key] -= 1
                yield QueryOp(topology, kb, source, destination,
                              derive(self.seed, 3, round_no, query),
                              subgraph.allowed, optimum, tuple(drawn))
                drawn = []


WORKLOADS = {cls.name: cls for cls in (SweepSearch, GradeLarge, RouteRefresh)}
