"""Independent oracles the tests check the implementation against.

These deliberately avoid the code paths they verify: the ODE oracle
integrates numerically instead of using the closed form, the path oracle
enumerates exhaustively instead of searching, the adjacency, grading and
quadrant oracles walk links and nodes one at a time in plain Python
instead of computing on arrays, the
walk oracles draw with ``randrange`` instead of ``getrandbits``, and the
eager generator builds its ``Link`` list from one dense distance pass.
The grading oracle takes only the record types from ``gradednet.grading``:
it classifies each node with its own nested checks and makes its own
Poisson and multinomial arrival draws.  The search oracles keep the
searches' plainest bookkeeping, on the randrange walks: a roulette built
for every pick, every candidate scored by ``path_fitness``, the
set-intersection crossover and loop excision by list scans.
"""

from __future__ import annotations

import math
from collections import Counter, deque

import numpy as np

from gradednet.grading import GradeRecord, KnowledgeBase
from gradednet.optimizers import (
    REGROW_RETRIES,
    REJECTED,
    REPAIR_ATTEMPTS,
    WALK_RESTARTS,
    Fitness,
    RouteResult,
    path_fitness,
    roulette_select,
)
from gradednet.topology import (
    DEFAULT_CAPACITY_MBPS,
    DEFAULT_LIFETIME_SCALE,
    Link,
    Node,
    QosInputs,
    Topology,
)


def rk4_load(t0: float, gamma: float, mu: float, t_end: float,
             steps: int = 5000) -> float:
    """Integrate dT/dt = gamma - mu*T from T(0)=t0 with classic RK4."""
    y = float(t0)
    h = t_end / steps
    for _ in range(steps):
        k1 = gamma - mu * y
        k2 = gamma - mu * (y + h / 2 * k1)
        k3 = gamma - mu * (y + h / 2 * k2)
        k4 = gamma - mu * (y + h * k3)
        y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def rk4_load_grid(t0: np.ndarray, gamma: np.ndarray, mu: np.ndarray,
                  t_end: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized RK4 over many (t0, gamma, mu) cases; returns (times, loads)."""
    y = np.array(t0, dtype=float)
    h = t_end / steps
    times = np.empty(steps)
    loads = np.empty((steps, len(y)))
    t = 0.0
    for i in range(steps):
        k1 = gamma - mu * y
        k2 = gamma - mu * (y + h / 2 * k1)
        k3 = gamma - mu * (y + h / 2 * k2)
        k4 = gamma - mu * (y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        times[i] = t
        loads[i] = y
    return times, loads


def generate_topology_eager(n: int, link_density: float, seed: int, *,
                            capacity_mbps: float = DEFAULT_CAPACITY_MBPS,
                            lifetime_scale: float = DEFAULT_LIFETIME_SCALE) -> Topology:
    """``generate_topology`` as a ``Link`` list: the dense n x n x 2 offsets give
    every squared distance, and each link, isolated-node attachments included,
    is a ``Link`` handed to ``Topology(seed, nodes, links)``."""
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    lifetimes = rng.uniform(0.0, lifetime_scale, n)

    radius = math.sqrt(link_density / math.pi)
    diff = points[:, None, :] - points[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    pairs = np.argwhere(np.triu(dist2 <= radius * radius, k=1))
    links = [Link(a, b, capacity_mbps) for a, b in pairs.tolist()]
    degree = np.bincount(pairs.ravel(), minlength=n)
    for i in np.flatnonzero(degree == 0).tolist():
        if degree[i] > 0:
            continue
        d2 = dist2[i].copy()
        d2[i] = np.inf
        j = int(np.argmin(d2))
        links.append(Link(min(i, j), max(i, j), capacity_mbps))
        degree[i] += 1
        degree[j] += 1

    nodes = [Node(i, float(points[i, 0]), float(points[i, 1]),
                  QosInputs(network_lifetime=float(lifetimes[i]))) for i in range(n)]
    return Topology(seed=seed, nodes=nodes, links=links)


def adjacency(topology) -> dict[int, set[int]]:
    """Each node's neighbors, read from ``topology.links`` one link at a time."""
    adj: dict[int, set[int]] = {v: set() for v in range(topology.n)}
    for link in topology.links:
        adj[link.a].add(link.b)
        adj[link.b].add(link.a)
    return adj


def bfs_hops(subgraph, source: int, destination: int) -> int | None:
    """Shortest hop count between two nodes over a restricted adjacency."""
    if source not in subgraph.allowed or destination not in subgraph.allowed:
        return None
    seen = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        if node == destination:
            return seen[node]
        for nxt in subgraph.neighbors(node):
            if nxt not in seen:
                seen[nxt] = seen[node] + 1
                queue.append(nxt)
    return None


def enumerate_best_bottleneck(subgraph, source: int, destination: int,
                              kb) -> float | None:
    """Max-bottleneck value over every simple path, by exhaustive DFS."""
    best = None

    def dfs(node, visited, bottleneck):
        nonlocal best
        if node == destination:
            if best is None or bottleneck > best:
                best = bottleneck
            return
        for nxt in subgraph.neighbors(node):
            if nxt in visited:
                continue
            visited.add(nxt)
            dfs(nxt, visited, min(bottleneck, kb.available_on(node, nxt)))
            visited.remove(nxt)

    dfs(source, {source}, float("inf"))
    return best


def _left_to_right_sum(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def quadrant_members(topology, source: int, destination: int) -> set[int] | None:
    """``quadrant_candidates`` node by node, from the documented half-open
    angular intervals written as half-planes: [0, 180) is above the source
    or on its right along the x axis, and it splits at the y axis into Q1 and
    Q2; [180, 360) splits the same way into Q3 and Q4.  Nodes at the source's
    position have no quadrant; None when the destination is one of them."""
    sx, sy = topology.nodes[source].x, topology.nodes[source].y

    def quadrant(node) -> int | None:
        dx, dy = node.x - sx, node.y - sy
        if dx == 0.0 and dy == 0.0:
            return None
        if dy > 0.0 or (dy == 0.0 and dx > 0.0):
            return 1 if dx > 0.0 else 2
        return 3 if dx < 0.0 else 4

    target = quadrant(topology.nodes[destination])
    if target is None:
        return None
    return {node.id for node in topology.nodes if node.id != source and quadrant(node) == target}


def walk_by_randrange(neighbors, start: int, destination: int, visited: set[int], rng):
    """One uniform random walk over unvisited neighbors, picked with
    ``rng.randrange``; None on a dead end.  Extends ``visited`` in place."""
    path = [start]
    cur = start
    while cur != destination:
        choices = [v for v in neighbors(cur) if v not in visited]
        if not choices:
            return None
        cur = choices[rng.randrange(len(choices))]
        path.append(cur)
        visited.add(cur)
    return tuple(path)


def random_path_by_randrange(subgraph, source: int, destination: int, rng):
    """``random_path`` built on ``walk_by_randrange``."""
    if source not in subgraph.allowed or destination not in subgraph.allowed:
        return None
    for _ in range(WALK_RESTARTS):
        found = walk_by_randrange(subgraph.neighbors, source, destination, {source}, rng)
        if found is not None:
            return found
    return None


def extend_by_randrange(subgraph, prefix, destination: int, rng):
    """``prefix`` extended by ``walk_by_randrange`` from its last node, avoiding
    all of it; the whole path, or None on a dead end."""
    tail = walk_by_randrange(subgraph.neighbors, prefix[-1], destination, set(prefix), rng)
    return None if tail is None else tuple(prefix) + tail[1:]


def neighbor_path_by_randrange(path, subgraph, rng):
    """``neighbor_path`` built on ``extend_by_randrange``: a random cut, then a
    regrown suffix that avoids the kept prefix."""
    for _ in range(REGROW_RETRIES):
        cut = rng.randrange(len(path) - 1)
        regrown = extend_by_randrange(subgraph, path[:cut + 1], path[-1], rng)
        if regrown is not None:
            return regrown
    return path


def roulette_by_scan(weights, rng) -> int:
    """Fitness-proportional pick as one left-to-right scan whose own sum is the total."""
    total = _left_to_right_sum(weights)
    if total <= 0.0:
        return rng.randrange(len(weights))
    r = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


def excise_loops_by_scan(path):
    """Loop excision by list scans: at each repeated node, cut the kept list
    back to that node's first occurrence."""
    out: list[int] = []
    for node in path:
        if node in out:
            out = out[:out.index(node) + 1]
        else:
            out.append(node)
    return tuple(out)


def crossover_by_intersection(parent_a, parent_b, rng):
    """Shared-node crossover: a pivot drawn from the sorted intersection of the
    parents' interiors, suffixes exchanged there, loops excised by scans."""
    if parent_a[0] != parent_b[0] or parent_a[-1] != parent_b[-1]:
        raise ValueError("parents must share source and destination")
    shared = sorted(set(parent_a[1:-1]) & set(parent_b[1:-1]))
    if not shared:
        return parent_a, parent_b
    pivot = shared[rng.randrange(len(shared))]
    ia, ib = parent_a.index(pivot), parent_b.index(pivot)
    return (excise_loops_by_scan(parent_a[:ia + 1] + parent_b[ib + 1:]),
            excise_loops_by_scan(parent_b[:ib + 1] + parent_a[ia + 1:]))


class _Rescoring:
    # A search's record that reuses nothing: every candidate is scored by
    # path_fitness, reported, and kept if it is the best yet.
    def __init__(self, subgraph, source, destination, kb, rng, bw_threshold, observer):
        self.subgraph, self.source, self.destination = subgraph, source, destination
        self.kb, self.rng, self.bw_threshold, self.observer = kb, rng, bw_threshold, observer
        self.best_path, self.best, self.trace = None, REJECTED, []

    def scout(self):
        return random_path_by_randrange(self.subgraph, self.source, self.destination, self.rng)

    def score(self, path):
        fitness = path_fitness(path, self.subgraph.topology, self.kb, self.bw_threshold)
        return REJECTED if fitness is None else fitness.bottleneck_bw

    def step(self, kind, path):
        value = self.score(path)
        self.report(kind, path, value)
        return value

    def report(self, kind, path, value):
        if self.observer is not None:
            self.observer(kind, path)
        if value > self.best:
            self.best_path, self.best = path, value

    def populate(self, size):
        members = []
        for _ in range(size):
            path = self.scout()
            if path is not None:
                members.append([path, self.step("init", path), 0])
        if members:
            self.end_cycle()
        return members

    def end_cycle(self):
        self.trace.append(max(self.best, 0.0))

    def result(self):
        trace = tuple(self.trace) if self.trace else (0.0,)
        stagnation = next((i for i in range(5, len(trace)) if trace[i] == trace[i - 5]), None)
        path = self.best_path
        return RouteResult(path, Fitness(max(self.best, 0.0)), len(path) - 1 if path else 0,
                           trace.index(trace[-1]), trace, stagnation)


def abc_search_by_rescoring(subgraph, source, destination, cfg, kb, rng, *,
                            bw_threshold=0.0, observer=None, tally=None):
    """``abc_search`` with a roulette built for every onlooker's pick and every
    candidate scored.  ``tally`` counts accepted onlookers and scouts."""
    tally = Counter() if tally is None else tally
    search = _Rescoring(subgraph, source, destination, kb, rng, bw_threshold, observer)
    limit = cfg.abc_limit if cfg.abc_limit is not None else cfg.colony_size * 5
    sources = search.populate(cfg.colony_size)  # [path, value, trials]
    if not sources:
        return search.result()

    def improve(src, kind):
        candidate = neighbor_path_by_randrange(src[0], subgraph, rng)
        value = search.step(kind, candidate)
        if value > src[1]:
            src[:] = [candidate, value, 0]
            return True
        src[2] += 1
        return False

    for _ in range(cfg.max_cycles):
        for src in sources:
            improve(src, "employed")
        for _ in range(cfg.colony_size):
            pick = roulette_select([max(value, 0.0) for _, value, _ in sources], rng)
            if improve(sources[pick], "onlooker"):
                tally["onlooker accepted"] += 1
        for src in sources:
            if src[2] >= limit:
                fresh = search.scout()
                if fresh is not None:
                    src[0], src[1] = fresh, search.step("scout", fresh)
                    tally["scout"] += 1
                src[2] = 0
        search.end_cycle()
    return search.result()


def ga_search_by_rescoring(subgraph, source, destination, cfg, kb, rng, *,
                           bw_threshold=0.0, observer=None, tally=None):
    """``ga_search`` with a roulette built for every pick, every child scored
    and ``crossover_by_intersection``.  ``tally`` counts mutations and
    repairs."""
    tally = Counter() if tally is None else tally
    search = _Rescoring(subgraph, source, destination, kb, rng, bw_threshold, observer)
    population = [(path, value) for path, value, _ in search.populate(cfg.population_size)]
    if not population:
        return search.result()

    def mutate(path):
        if cfg.mutation_rate <= 0.0:
            return path
        for i in range(1, len(path) - 1):
            if rng.random() < cfg.mutation_rate:
                tally["mutation"] += 1
                return extend_by_randrange(subgraph, path[:i], path[-1], rng) or path
        return path

    for _ in range(cfg.generations):
        offspring = []
        while len(offspring) < len(population):
            pa, va = population[roulette_select([max(v, 0.0) for _, v in population], rng)]
            pb, _ = population[roulette_select([max(v, 0.0) for _, v in population], rng)]
            for child in crossover_by_intersection(pa, pb, rng):
                child = mutate(child)
                value = search.score(child)
                if value == REJECTED:
                    tally["repair"] += 1
                    child, value = pa, va
                    for _ in range(REPAIR_ATTEMPTS):
                        fresh = search.scout()
                        if fresh is None:
                            break
                        child, value = fresh, search.score(fresh)
                        if value != REJECTED:
                            break
                search.report("offspring", child, value)
                offspring.append((child, value))
                if len(offspring) >= len(population):
                    break
        population = offspring
        search.end_cycle()
    return search.result()


def grade_nodes_one_by_one(topology, link_states, config, rng):
    """``build_knowledge_base`` as a per-link, then per-node, Python loop.

    Every sum is an explicit left-to-right loop over a node's links in
    neighbor order, and the level-1 checks are nested ``if``s.  Draws from
    ``rng`` in the same order as the implementation: lifetimes, resources,
    then one Poisson total and one uniform multinomial split per linked
    node, in id order.  It imports no grading rule or arrival helper from
    the code it checks.
    """
    m = len(topology.links)
    t0s = np.broadcast_to(link_states.t0, (m,)).tolist()
    gammas = np.broadcast_to(link_states.gamma, (m,)).tolist()
    mu, flow_rate = link_states.mu, config.flow_rate_mbps
    decay = math.exp(-mu * config.grade_time_s)

    kb = KnowledgeBase()
    flows_capacity = {}
    for link, t0, gamma in zip(topology.links, t0s, gammas):
        load = t0 * decay + (gamma / mu) * (1.0 - decay)
        loaded = min(1.0, max(0.0, load * flow_rate / link.capacity_mbps))
        key = (min(link.a, link.b), max(link.a, link.b))
        kb.link_available_mbps[key] = link.capacity_mbps * (1.0 - loaded)
        flows_capacity[key] = (loaded * link.capacity_mbps / flow_rate, link.capacity_mbps)

    n = topology.n
    lifetimes = rng.uniform(0.0, config.lifetime_scale, n)
    resources = rng.random(n) < config.resource_prob
    densities = [0] * n
    adj = adjacency(topology)
    for v in range(n):
        nbrs = sorted(adj[v])
        if not nbrs:
            continue
        total = int(rng.poisson(config.alpha * config.arrival_horizon_s))
        probs = np.array([1.0 / len(nbrs)] * len(nbrs))
        counts = rng.multinomial(total, probs / probs.sum())
        for j, count in zip(nbrs, counts.tolist()):
            densities[j] += count

    for v in range(n):
        frees, fracs, lams, caps = [], [], [], []
        for other in sorted(adj[v]):
            key = (v, other) if v < other else (other, v)
            flows, capacity = flows_capacity[key]
            frees.append(kb.link_available_mbps[key])
            fracs.append(kb.link_available_mbps[key] / capacity)
            lams.append(flows)
            caps.append(capacity / flow_rate)
        if frees:
            grade = _left_to_right_sum(fracs) / len(fracs)
            congested = grade < config.congestion_threshold
            gamma_total = _left_to_right_sum(lams) or 1.0
            if any(c <= lam for lam, c in zip(lams, caps)):
                delay = math.inf
            elif all(lam == 0.0 for lam in lams):
                delay = 0.0
            else:
                delay = _left_to_right_sum(
                    (lam / gamma_total) * (1.0 / (c - lam)) for lam, c in zip(lams, caps))
            delayed = delay > config.delay_multiplier / min(caps)
            available = min(frees)
        else:
            grade, congested, delayed, delay, available = 0.0, False, False, 0.0, 0.0
        if not float(lifetimes[v]) > config.lifetime_threshold:
            priority = 6
        elif not densities[v] < config.density_threshold:
            priority = 5
        elif congested:
            priority = 4
        elif not resources[v]:
            priority = 3
        elif delayed:
            priority = 2
        else:
            priority = 1
        kb.records[v] = GradeRecord(node=v, priority=priority, delay_s=delay,
                                    available_bw_mbps=available, grade=grade)
    return kb
