"""Two-level node grading over a topology.

Level 1 classifies every node into a priority class 1..6 by walking a nested
QoS check: network lifetime, then packet density, then congestion, then
resource availability, then delay.  Class 1 means all checks passed; each
failed check short-circuits to a worse class.  Level 2 assigns every node a
numeric grade in [0, 1]: the mean free fraction of its incident links, i.e.
how much bandwidth headroom the node offers a route.  The grade is computed
first, since level 1's congestion check reads it; routing reads only the
level-1 priority (``select_feasible``).
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .topology import (DEFAULT_LIFETIME_SCALE, EdgeArrays, Topology, check_positive,
                       write_json)
from .traffic import LinkState, available_bandwidth, load_fraction

SELECTION_MODES = ("best-classes", "literal")

# The largest mean numpy's Generator.poisson draws from; it raises "lam value
# too large" above it.  This is numpy's POISSON_LAM_MAX (numpy/random/_common.pyx):
# int64 max - 10 * sqrt(int64 max).
POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


class EmptyKnowledgeBaseError(RuntimeError):
    """Raised when node selection runs against an unpopulated knowledge base."""


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


class LinkSnapshot(Mapping):
    """The free bandwidth on each link, read-only: ``available[index[key]]``
    for each edge key ``(a, b)``, ``a < b``.

    ``index`` maps each key to its link position and ``available`` holds one
    float per link in that order.  Knowledge bases graded on one topology
    share its ``edges.index``, so each keeps only its float array.  The
    snapshot reads as the dict of its links would: ``len`` without building
    anything, iteration in link order, a KeyError for a non-link, ``==``
    against any mapping and the dict's ``repr``; item assignment is a
    TypeError.
    """

    __slots__ = ("index", "available")

    def __init__(self, index: dict[tuple[int, int], int], available: array) -> None:
        self.index, self.available = index, available

    def __getitem__(self, key: tuple[int, int]) -> float:
        return self.available[self.index[key]]

    def __len__(self) -> int:
        return len(self.available)

    def __iter__(self):
        return iter(self.index)

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def available_on(self, a: int, b: int) -> float:
        """The free bandwidth on the link between ``a`` and ``b``, either way
        round; a ValueError naming both when there is none.  This is the
        link-key rule every hop lookup follows."""
        try:
            return self.available[self.index[(a, b) if a < b else (b, a)]]
        except KeyError:
            raise ValueError(f"no link between {a} and {b} in knowledge base") from None


@dataclass
class KnowledgeBase:
    """Per-node grade records plus the per-link bandwidth snapshot they were built from.

    ``link_available_mbps`` is always a ``LinkSnapshot``: any other mapping
    given for it is copied into one, in its own order, when the knowledge
    base is built.  Its keys must be ``(a, b)`` with ``a < b``, the one form
    every lookup reads; a ValueError names the first that is not.

    A knowledge base is not changed after its first selection:
    ``select_feasible`` stores the nodes it selects under each mode and
    returns that set on every later call, so records changed after it would
    not be seen.  The stored selections take no part in ``==`` or ``repr``.
    """

    records: dict[int, GradeRecord] = field(default_factory=dict)
    link_available_mbps: Mapping[tuple[int, int], float] = field(default_factory=dict)
    _selected: dict[str, frozenset[int]] = field(default_factory=dict, init=False,
                                                 compare=False, repr=False)

    def __post_init__(self) -> None:
        links = self.link_available_mbps
        if not isinstance(links, LinkSnapshot):
            for a, b in links:
                if not a < b:
                    raise ValueError(f"link key {(a, b)} must be (a, b) with a < b")
            self.link_available_mbps = LinkSnapshot(dict(zip(links, range(len(links)))),
                                                    array("d", links.values()))

    def available_on(self, a: int, b: int) -> float:
        """``link_available_mbps.available_on(a, b)``."""
        return self.link_available_mbps.available_on(a, b)


@dataclass
class GradingConfig:
    """Thresholds and sampling parameters for knowledge-base construction;
    the rates and the ranges of the grading draws are checked when it is built."""

    # these thresholds keep roughly 60% of nodes, in line with the reference
    # selection counts at desk scale
    density_threshold: int = 5
    lifetime_threshold: float = 35.0
    lifetime_scale: float = DEFAULT_LIFETIME_SCALE
    resource_prob: float = 0.9
    congestion_threshold: float = 0.25
    delay_multiplier: float = 5.0
    alpha: float = 1.0
    arrival_horizon_s: float = 1.0
    flow_rate_mbps: float = 1.0
    grade_time_s: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self, {"alpha": "arrival rate", "arrival_horizon_s": "arrival horizon",
                              "flow_rate_mbps": "flow rate"})
        if not self.alpha * self.arrival_horizon_s <= POISSON_LAM_MAX:
            raise ValueError(f"alpha * arrival_horizon_s (mean arrivals per window) must be "
                             f"at most {POISSON_LAM_MAX!r}, got {self.alpha!r} * "
                             f"{self.arrival_horizon_s!r}")
        if self.grade_time_s < 0:
            raise ValueError(f"grade_time_s must be >= 0, got {self.grade_time_s!r}")
        if self.lifetime_scale < 0:
            raise ValueError(f"lifetime_scale must be >= 0, got {self.lifetime_scale!r}")
        if not 0.0 <= self.resource_prob <= 1.0:
            raise ValueError(f"resource_prob must be in [0, 1], got {self.resource_prob!r}")


def level1_priority(lifetime, density, congested, resource_available, delayed, *,
                    density_threshold: int = GradingConfig.density_threshold,
                    lifetime_threshold: float = GradingConfig.lifetime_threshold) -> np.ndarray:
    """Classify nodes into priority 1 (best) .. 6 (worst), one entry per node.

    Checks nest in order: lifetime above threshold, density below threshold,
    no congestion, resources available, no delay.  The first failing check
    decides the class; a NaN lifetime fails the first.  Every argument is a
    per-node column or a scalar.
    """
    passed = (np.greater(lifetime, lifetime_threshold), np.less(density, density_threshold),
              np.logical_not(congested), resource_available, np.logical_not(delayed))
    return np.select([np.logical_not(check) for check in passed], (6, 5, 4, 3, 2), 1)


def _sums(owner: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum of ``values`` per owner in 0..n-1, each added left to right in input order."""
    return np.bincount(owner, weights=values, minlength=n).astype(float, copy=False)


def _node_delays(lam: np.ndarray, capacities: np.ndarray, gamma_total: np.ndarray,
                 owner: np.ndarray, n: int) -> np.ndarray:
    """Mean queueing delay of each of ``n`` nodes over its channels.

    Channel i carries ``lam[i]`` with capacity ``capacities[i]``, in flow
    units, and belongs to node ``owner[i]``; ``gamma_total`` holds each
    node's total traffic.  A node's delay is the sum over its channels, left
    to right, of (lam_i / gamma) * 1 / (C_i - lam_i).  It is inf when one of
    its channels is saturated (C_i <= lam_i), or when the sum overflows a
    double, and 0.0 when all its flows are 0.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # (lam / gamma) * (1.0 / (C - lam)), in place: the same operations in the same order
        terms = lam / gamma_total[owner]
        slack = capacities - lam
        np.divide(1.0, slack, out=slack)
        terms *= slack
    delay = _sums(owner, terms, n)
    del terms, slack  # freed before the channel counts below make their own arrays
    delay[_sums(owner, lam != 0.0, n) == 0] = 0.0
    delay[_sums(owner, capacities <= lam, n) > 0] = math.inf
    return delay


def select_feasible(topology: Topology, kb: KnowledgeBase,
                    mode: str = "best-classes") -> frozenset[int]:
    """Nodes allowed to participate in routing, by priority class.

    ``best-classes`` keeps priorities 1..3 (the reading where class 1 is the
    best node); ``literal`` keeps priorities >= 3.  The mode used is recorded
    in every output artifact because the two readings disagree.

    The first call for a knowledge base and a mode reads its records and
    stores the set in the knowledge base; every later call returns that same
    object, so the many queries one knowledge base serves select once.  An
    empty knowledge base and an unknown mode raise on every call.
    """
    selected = kb._selected.get(mode)
    if selected is not None:
        return selected
    if not kb.records:
        raise EmptyKnowledgeBaseError("knowledge base has no records")
    if mode == "best-classes":
        selected = frozenset([n for n, rec in kb.records.items() if rec.priority <= 3])
    elif mode == "literal":
        selected = frozenset([n for n, rec in kb.records.items() if rec.priority >= 3])
    else:
        raise ValueError(f"unknown selection mode {mode!r}")
    kb._selected[mode] = selected
    return selected


def build_knowledge_base(topology: Topology,
                         link_states: LinkState,
                         config: GradingConfig,
                         rng: np.random.Generator) -> KnowledgeBase:
    """Grade every node of a topology from a snapshot of link states.

    ``link_states`` columns align with ``topology.links``.  Lifetime and
    resource availability are sampled per node, packet density comes from
    one window of Poisson arrivals, congestion and delay derive from the
    link snapshot.  The same rng state always produces the identical
    knowledge base.

    Everything but the arrival draws is computed on ``topology.edges``; a
    node's sums run over its links in neighbor order, left to right.  The
    link snapshot is one float array, a copy of the free bandwidths' bytes,
    read through the topology's ``edges.index``.
    """
    edges = topology.edges
    free, priority, delay, available, grade = _grade_columns(edges, link_states, config, rng)
    # Built last, once the per-edge arrays they come from are freed.
    records = {v: GradeRecord(node=v, priority=p, delay_s=d, available_bw_mbps=a, grade=g)
               for v, p, d, a, g in zip(range(topology.n), priority.tolist(), delay.tolist(),
                                        available.tolist(), grade.tolist())}
    link_free = array("d")
    link_free.frombytes(memoryview(np.ascontiguousarray(free, dtype=float)).cast("B"))
    return KnowledgeBase(records=records,
                         link_available_mbps=LinkSnapshot(edges.index, link_free))


def _grade_columns(edges: EdgeArrays, link_states: LinkState, config: GradingConfig,
                   rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Each link's free bandwidth, then each node's priority, delay, available
    bandwidth and grade, for ``build_knowledge_base``."""
    capacity = edges.capacity_mbps
    for column in (link_states.t0, link_states.gamma):
        if np.ndim(column) and np.shape(column) != capacity.shape:
            raise ValueError("link_states must match topology.links one-to-one")

    # Per-link snapshot at the grading instant: free bandwidth, and the flow
    # count and channel capacity the delay model needs.
    loaded = load_fraction(link_states, capacity, flow_rate_mbps=config.flow_rate_mbps,
                           at_time=config.grade_time_s)
    free = available_bandwidth(capacity, loaded)
    flows = loaded * capacity / config.flow_rate_mbps
    channels = capacity / config.flow_rate_mbps

    n = len(edges.degree)
    lifetimes = rng.uniform(0.0, config.lifetime_scale, n)
    resources = rng.random(n) < config.resource_prob
    densities = _densities(edges, config.alpha * config.arrival_horizon_s, rng)

    # Level 2: the mean free fraction, which is also level 1's congestion measure.
    node, link = edges.node, edges.link
    linked = edges.degree > 0
    grade = _sums(node, (free / capacity)[link], n) / np.maximum(edges.degree, 1)
    congested = linked & (grade < config.congestion_threshold)

    lam = flows[link]
    # A node whose flows are all 0 has gamma_total 0; _node_delays gives it 0.0.
    gamma_total = _sums(node, lam, n)
    delay = _node_delays(lam, channels[link], gamma_total, node, n)
    min_channel = np.full(n, math.inf)
    available = np.zeros(n)
    if linked.any():
        first = edges.starts[linked]
        min_channel[linked] = np.minimum.reduceat(channels[link], first)
        available[linked] = np.minimum.reduceat(free[link], first)
    # A tiny channel, or a huge multiplier, overflows the threshold to inf.
    with np.errstate(over="ignore", divide="ignore"):
        delayed = linked & (delay > config.delay_multiplier / min_channel)

    priority = level1_priority(lifetimes, densities, congested, resources, delayed,
                               density_threshold=config.density_threshold,
                               lifetime_threshold=config.lifetime_threshold)
    return free, priority, delay, available, grade


def _densities(edges: EdgeArrays, mean_arrivals: float, rng: np.random.Generator) -> np.ndarray:
    """Packets each node received in one window of Poisson arrivals.

    Each linked node, in id order, hands its window's arrivals to its
    neighbors uniformly; a node's density is what its neighbors send it.
    """
    sent = np.zeros(len(edges.node), dtype=np.int64)
    uniform: dict[int, np.ndarray] = {}
    for start, degree in zip(edges.starts.tolist(), edges.degree.tolist()):
        if not degree:
            continue
        if degree not in uniform:
            # The renormalized vector, not the bare 1/degree one, is what the
            # recorded multinomial draws were made with; keep it.
            probs = np.full(degree, 1.0 / degree)
            uniform[degree] = probs / probs.sum()
        total = int(rng.poisson(mean_arrivals))
        sent[start:start + degree] = rng.multinomial(total, uniform[degree])
    return _sums(edges.neighbor, sent, len(edges.degree)).astype(np.int64)


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
    write_json(path, grade_dump(kb, mode))
