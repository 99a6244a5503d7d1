"""Two-level node grading over a topology.

Level 1 classifies every node into a priority class 1..6 by walking a nested
QoS check: network lifetime, then packet density, then congestion, then
resource availability, then delay.  Class 1 means all checks passed; each
failed check short-circuits to a worse class.  Level 2 assigns the surviving
nodes a numeric grade in [0, 1]: the mean free fraction of their incident
links, i.e. how much bandwidth headroom the node offers a route.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyKnowledgeBaseError, InfeasibleBalanceError, SaturatedChannelError
from .topology import QosInputs, Topology
from .traffic import (
    ArrivalModel,
    LinkState,
    available_bandwidth,
    load_fraction,
    sample_poisson_arrivals,
)

SELECTION_MODES = ("best-classes", "literal")


@dataclass
class GradeRecord:
    """Grading output for one node."""

    node: int
    priority: int
    delay_s: float
    available_bw_mbps: float
    grade: float

    def __post_init__(self) -> None:
        if self.priority not in (1, 2, 3, 4, 5, 6):
            raise ValueError(f"priority must be in 1..6, got {self.priority}")
        if not 0.0 <= self.grade <= 1.0:
            raise ValueError(f"grade must be in [0, 1], got {self.grade}")
        if self.available_bw_mbps < 0:
            raise ValueError("available bandwidth must be nonnegative")


@dataclass
class KnowledgeBase:
    """Per-node grade records plus the per-link bandwidth snapshot they were built from."""

    records: dict[int, GradeRecord] = field(default_factory=dict)
    link_available_mbps: dict[tuple[int, int], float] = field(default_factory=dict)

    def available_on(self, a: int, b: int) -> float:
        key = (a, b) if a < b else (b, a)
        try:
            return self.link_available_mbps[key]
        except KeyError:
            raise ValueError(f"no link between {a} and {b} in knowledge base") from None


@dataclass
class GradingConfig:
    """Thresholds and sampling parameters for knowledge-base construction."""

    density_threshold: int = 5
    lifetime_threshold: float = 20.0
    lifetime_scale: float = 100.0
    resource_prob: float = 0.9
    congestion_threshold: float = 0.25
    delay_multiplier: float = 5.0
    alpha: float = 1.0
    arrival_horizon_s: float = 1.0
    flow_rate_mbps: float = 1.0
    grade_time_s: float = 0.0


def level1_priority(q: QosInputs, congested: bool, delayed: bool,
                    density_threshold: int = 5,
                    lifetime_threshold: float = 20.0) -> int:
    """Classify a node into priority 1 (best) .. 6 (worst).

    Checks nest in order: lifetime above threshold, density below threshold,
    no congestion, resources available, no delay.  The first failing check
    decides the class.
    """
    if not q.network_lifetime > lifetime_threshold:
        return 6
    if not q.node_density < density_threshold:
        return 5
    if congested:
        return 4
    if not q.resource_available:
        return 3
    return 2 if delayed else 1


@dataclass
class DelayInputs:
    """Per-node queueing view: one channel per incident link.

    lam:        flow rate on each channel (msgs/sec)
    gamma_total: total external traffic through the node
    mu:         1 / mean message length
    capacities: per-channel capacities, same units as lam / mu
    """

    lam: tuple[float, ...]
    gamma_total: float
    mu: float
    capacities: tuple[float, ...]

    def __post_init__(self) -> None:
        self.lam = tuple(float(v) for v in self.lam)
        self.capacities = tuple(float(v) for v in self.capacities)
        if len(self.lam) < 1:
            raise ValueError("need at least one channel")
        if len(self.lam) != len(self.capacities):
            raise ValueError("lam and capacities must have matching lengths")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if any(c <= 0 for c in self.capacities):
            raise ValueError("channel capacities must be positive")
        if any(v < 0 for v in self.lam):
            raise ValueError("flow rates must be nonnegative")


def average_delay(d: DelayInputs) -> float:
    """Mean queueing delay across a node's channels.

    Sum over channels of (lam_i / gamma) * 1 / (mu*C_i - lam_i).  A channel
    whose flow reaches its service capacity has unbounded delay and raises
    SaturatedChannelError.
    """
    for lam_i, c_i in zip(d.lam, d.capacities):
        if d.mu * c_i <= lam_i:
            raise SaturatedChannelError(
                f"channel saturated: mu*C = {d.mu * c_i} <= lambda = {lam_i}")
    if all(v == 0.0 for v in d.lam):
        return 0.0
    if d.gamma_total <= 0:
        raise ValueError("gamma_total must be positive when flows are present")
    return sum(
        (lam_i / d.gamma_total) * (1.0 / (d.mu * c_i - lam_i))
        for lam_i, c_i in zip(d.lam, d.capacities)
    )


def select_feasible(topology: Topology, kb: KnowledgeBase,
                    mode: str = "best-classes") -> set[int]:
    """Nodes allowed to participate in routing, by priority class.

    ``best-classes`` keeps priorities 1..3 (the reading where class 1 is the
    best node); ``literal`` keeps priorities >= 3.  The mode used is recorded
    in every output artifact because the two readings disagree.
    """
    if not kb.records:
        raise EmptyKnowledgeBaseError("knowledge base has no records")
    if mode == "best-classes":
        return {n for n, rec in kb.records.items() if rec.priority <= 3}
    if mode == "literal":
        return {n for n, rec in kb.records.items() if rec.priority >= 3}
    raise ValueError(f"unknown selection mode {mode!r}")


def balance_traffic(neighborhood_loads: tuple[float, ...] | list[float],
                    envisaged: float) -> tuple[float, ...]:
    """Minimally adjust neighborhood load fractions to meet an envisaged total.

    Minimizes sum |act_j - cur_j| subject to sum act_j >= envisaged and
    0 <= act_j <= 1.  When the current loads already meet the target they are
    returned unchanged; otherwise the deficit is poured into components in
    index order (any split of the deficit is L1-optimal, so index order is
    the canonical deterministic choice).
    """
    cur = tuple(float(v) for v in neighborhood_loads)
    for v in cur:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"load fractions must be in [0, 1], got {v}")
    if envisaged < 0:
        raise ValueError(f"envisaged total must be nonnegative, got {envisaged}")
    if envisaged > len(cur):
        raise InfeasibleBalanceError(
            f"envisaged total {envisaged} exceeds box capacity {len(cur)}")

    total = sum(cur)
    if total >= envisaged:
        return cur

    act = list(cur)
    deficit = envisaged - total
    for j in range(len(act)):
        room = 1.0 - act[j]
        add = room if room < deficit else deficit
        act[j] += add
        deficit -= add
        if deficit <= 0.0:
            break
    return tuple(act)


def build_knowledge_base(topology: Topology,
                         link_states: list[LinkState],
                         config: GradingConfig,
                         rng: np.random.Generator) -> KnowledgeBase:
    """Grade every node of a topology from a snapshot of link states.

    ``link_states`` must align with ``topology.links``.  Lifetime and
    resource availability are sampled per node, packet density comes from
    one window of Poisson arrivals, congestion and delay derive from the
    link snapshot.  The same rng state always produces the identical
    knowledge base.
    """
    if len(link_states) != len(topology.links):
        raise ValueError("link_states must match topology.links one-to-one")

    kb = KnowledgeBase()

    # Per-link snapshot at the grading instant: free bandwidth, and the flow
    # count and capacity the delay model needs.
    flows_capacity: dict[tuple[int, int], tuple[float, float]] = {}
    for link, state in zip(topology.links, link_states):
        loaded = load_fraction(state, link.capacity_mbps,
                               flow_rate_mbps=config.flow_rate_mbps,
                               at_time=config.grade_time_s)
        key = link.key()
        kb.link_available_mbps[key] = available_bandwidth(link.capacity_mbps, loaded)
        flows_capacity[key] = (loaded * link.capacity_mbps / config.flow_rate_mbps,
                               link.capacity_mbps)

    n = topology.n
    lifetimes = rng.uniform(0.0, config.lifetime_scale, n)
    resources = rng.random(n) < config.resource_prob

    densities = np.zeros(n, dtype=int)
    for node in topology.nodes:
        nbrs = sorted(topology.adjacency[node.id])
        if not nbrs:
            continue
        model = ArrivalModel(config.alpha, tuple(1.0 / len(nbrs) for _ in nbrs))
        counts = sample_poisson_arrivals(model, config.arrival_horizon_s, rng)
        for j, count in zip(nbrs, counts):
            densities[j] += int(count)

    for node in topology.nodes:
        v = node.id
        qos = QosInputs(
            network_lifetime=float(lifetimes[v]),
            node_density=int(densities[v]),
            resource_available=bool(resources[v]),
        )

        frees, fracs, lams, caps = [], [], [], []
        for other in sorted(topology.adjacency[v]):
            key = (v, other) if v < other else (other, v)
            free = kb.link_available_mbps[key]
            flows, capacity = flows_capacity[key]
            frees.append(free)
            fracs.append(free / capacity)
            lams.append(flows)
            caps.append(capacity / config.flow_rate_mbps)

        if frees:
            # Level 2: the mean free fraction, which is also level 1's congestion measure.
            grade = sum(fracs) / len(fracs)
            congested = grade < config.congestion_threshold
            try:
                delay = average_delay(DelayInputs(
                    lam=tuple(lams), gamma_total=sum(lams) or 1.0,
                    mu=1.0, capacities=tuple(caps)))
            except SaturatedChannelError:
                delay = math.inf
            delayed = delay > config.delay_multiplier / min(caps)
            available = min(frees)
        else:
            grade = 0.0
            congested = delayed = False
            delay = available = 0.0

        priority = level1_priority(qos, congested, delayed,
                                   density_threshold=config.density_threshold,
                                   lifetime_threshold=config.lifetime_threshold)
        kb.records[v] = GradeRecord(node=v, priority=priority, delay_s=delay,
                                    available_bw_mbps=available, grade=grade)
    return kb


def grade_dump(kb: KnowledgeBase, mode: str) -> list[dict]:
    """JSON-ready grade rows, one per node, sorted by id."""
    rows = []
    for node in sorted(kb.records):
        rec = kb.records[node]
        rows.append({
            "id": rec.node,
            "priority": rec.priority,
            "delay_s": None if math.isinf(rec.delay_s) else rec.delay_s,
            "avail_bw_mbps": rec.available_bw_mbps,
            "grade": rec.grade,
            "mode": mode,
        })
    return rows


def save_grade_dump(kb: KnowledgeBase, mode: str, path: str | Path) -> None:
    Path(path).write_text(json.dumps(grade_dump(kb, mode), indent=2, sort_keys=True) + "\n")
