"""Bee-colony and genetic path search over a graded subgraph.

Both searches share one solution encoding (a full simple path from source to
destination) and one fitness (the path's bottleneck: the minimum available
bandwidth over its links).  The subgraph they explore is the set of graded
candidate nodes in the destination's quadrant, plus the source.

Both run on one search core, ``_Search``, which scouts random paths,
evaluates candidates, reports each one to the observer and tracks the best
ever seen; the two differ only in their phase loops.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grading import KnowledgeBase
from .topology import EdgeArrays, Topology

PathNodes = tuple[int, ...]
Observer = Callable[[str, PathNodes], None]

WALK_RESTARTS = 50
REGROW_RETRIES = 10
REPAIR_ATTEMPTS = 3
# The rank of a path with a link below the bandwidth threshold: rejected paths
# rank below any accepted path, including saturated ones.
REJECTED = -1.0


@dataclass(frozen=True)
class Fitness:
    """Bottleneck bandwidth of a path, Mbps; zero only when some link is saturated."""

    bottleneck_bw: float


@dataclass
class AbcConfig:
    """Colony controls.  abc_limit=None defaults to 5x the colony size."""

    # A large colony exhausts the pruned quadrant subgraph within the first
    # few cycles.
    colony_size: int = 100
    max_cycles: int = 30
    abc_limit: int | None = None

    def __post_init__(self) -> None:
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if self.colony_size < 1:
            raise ValueError("colony_size must be >= 1")
        if self.abc_limit is not None and self.abc_limit < 1:
            raise ValueError("abc_limit must be >= 1")


@dataclass
class GaConfig:
    population_size: int = 15
    generations: int = 30
    mutation_rate: float = 0.001

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")


@dataclass
class FoodSource:
    path: PathNodes
    value: float
    trials: int = 0


@dataclass
class RouteResult:
    """Outcome of one search: best path, its fitness, and the convergence trace."""

    best_path: PathNodes | None
    best_fitness: Fitness
    hop_count: int
    convergence_cycle: int
    fitness_trace: tuple[float, ...]
    stagnation_cycle: int | None = None

    @property
    def found(self) -> bool:
        return self.best_path is not None


def _member_row(edges: EdgeArrays, inside: np.ndarray, v: int) -> np.ndarray:
    # Member v's CSR slice of ``edges``, masked by the member mask ``inside``:
    # its neighbors in the set, ascending ids.  ``neighbors`` reads rows so;
    # the walks' rows are the same slices, gathered for every member at once.
    start = int(edges.starts[v])
    row = edges.neighbor[start:start + int(edges.degree[v])]
    return row[inside[row]]


class _Rows:
    # The walks' rows over a subgraph's members, built in one pass over the
    # topology's edge arrays and the member mask, so they hold no reference to
    # their subgraph.  ``members`` lists the members in ascending id order,
    # which is rank order, and ``rank`` maps each to its rank.  ``table[i]``
    # is member i's row as ``(bits, ranks, degree)``: ``ranks`` lists the
    # ranks of its neighbors in ascending order, ``bits`` is the same set as
    # an int with bit rank[u] set for each neighbor u, and ``degree`` is
    # ``len(ranks)``.  Every non-member has rank ``outside``, len(members),
    # whose row, the table's last, is empty.  ``upto[j]`` has bits 0..j set.

    __slots__ = ("members", "rank", "outside", "upto", "table")

    def __init__(self, edges: EdgeArrays, inside: np.ndarray):
        members = np.flatnonzero(inside)
        m = len(members)
        # the members' CSR slices, end to end in rank order
        degree = edges.degree[members]
        ends = np.cumsum(degree)
        offset = np.repeat(edges.starts[members] - (ends - degree), degree)
        edge = offset + np.arange(len(offset))
        # each neighbor's rank, or the sentinel m for a non-member; keep the
        # members', so row i is ranks[bounds[i]:bounds[i + 1]], bounded by the
        # kept edges before each slice's end
        rank_of = np.full(len(inside), m)
        rank_of[members] = np.arange(m)
        ranks = rank_of[edges.neighbor[edge]]
        kept = np.flatnonzero(ranks < m)
        ranks = ranks[kept]
        bounds = [0, *np.searchsorted(kept, ends).tolist()]
        # row i's bit set, packed little-endian: bit j of its bytes is rank j
        square = np.zeros((m, m), dtype=bool)
        square[np.repeat(np.arange(m), np.diff(bounds)), ranks] = True
        packed = np.packbits(square, axis=1, bitorder="little")
        ranks = ranks.tolist()
        self.table = [(int.from_bytes(row.tobytes(), "little"), ranks[lo:hi], hi - lo)
                      for row, lo, hi in zip(packed, bounds, bounds[1:])]
        self.table.append((0, [], 0))
        self.members = members.tolist()
        self.rank = {v: i for i, v in enumerate(self.members)}
        self.outside = m
        self.upto = [(2 << j) - 1 for j in range(m)]


def _member_mask(n: int, allowed: frozenset) -> np.ndarray:
    # The member mask over node ids 0..n-1, as numpy reads ``allowed``: no
    # dtype cast, so a float id stays a float and fails to index.  The range
    # check comes first.
    inside = np.zeros(n, dtype=bool)
    if allowed:
        ids = np.array(list(allowed))
        if not (0 <= ids.min() and ids.max() < n):
            raise ValueError(f"allowed nodes must be in 0..{n - 1}")
        inside[ids] = True
    return inside


class Subgraph:
    """Adjacency, in id order, restricted to the allowed candidate set (plus the source).

    The ids are checked when the subgraph is built: one outside 0..n-1 is a
    ValueError, checked first, and then one that is not an integer, a float
    such as 2.0 included, is an IndexError.  Ids that are all Python ints
    are checked in Python, with no numpy call; any other set (numpy ints,
    say) is checked as numpy reads it into the member mask.

    The member mask over node ids is the subgraph's one private member
    index, built by the first ``neighbors()`` call or the first walk.
    ``neighbors(v)`` reads member ``v``'s CSR row of the topology's edges,
    masked by it, on each call, in ascending id order, and gives ``()`` for
    any other id.  The walks read the same rows as rank lists and bit sets
    over the members' ranks, their one cache: every member's row is built in
    one array pass over the edge arrays and the mask when the first walk
    runs, into a list indexed by rank, and none of it refers back to the
    subgraph.  A query that ends at the prune builds neither the mask nor
    the rows.  The mask stays beside the rows because both ways measured to
    drop it were slower: serving ``neighbors`` from the rows builds every
    row for callers that never walk, and filtering each CSR row through
    ``allowed`` doubles the cost of ``neighbors``.
    """

    def __init__(self, topology: Topology, allowed: frozenset[int]):
        self.topology = topology
        self.allowed = allowed
        # Ints are checked here: their sum is an int, where a float or a
        # numpy scalar among them makes it something else.  Any other set,
        # and one within {0, 1}, which numpy reads as a mask when it holds
        # only bools, is checked by building the mask, which is then dropped.
        if type(sum(allowed)) is int and not allowed <= {0, 1}:
            ids = sorted(allowed)
            if not (0 <= ids[0] and ids[-1] < topology.n):
                raise ValueError(f"allowed nodes must be in 0..{topology.n - 1}")
        elif allowed:
            _member_mask(topology.n, allowed)

    @functools.cached_property
    def _inside(self) -> np.ndarray:
        return _member_mask(self.topology.n, self.allowed)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if v not in self.allowed:
            return ()
        return tuple(_member_row(self.topology.edges, self._inside, v).tolist())

    @functools.cached_property
    def _rows(self) -> _Rows:
        return _Rows(self.topology.edges, self._inside)

    @classmethod
    def from_topology(cls, topology: Topology, candidates: set[int], source: int) -> "Subgraph":
        return cls(topology, frozenset(candidates | {source}))


def path_is_valid(path: PathNodes, subgraph: Subgraph, source: int, destination: int) -> bool:
    """Check every path invariant: endpoints, simplicity, adjacency (hence membership)."""
    if len(path) < 2 or path[0] != source or path[-1] != destination:
        return False
    if len(set(path)) != len(path):
        return False
    neighbors = subgraph.neighbors
    return all(v in neighbors(u) for u, v in zip(path, path[1:]))


def _walk(rows: _Rows, prefix: PathNodes, destination: int,
          getrandbits: Callable[[int], int]) -> PathNodes | None:
    # Extend ``prefix``, which must not hold ``destination``, by one uniform
    # random walk over unvisited allowed neighbors to ``destination``; the
    # whole path, or None on a dead end.  Every path move is this walk: a
    # scout extends the source alone, a bee move and a GA mutation a kept
    # prefix of the path they change.  The hot loop of both searches runs on
    # member ranks, reading each step's row from ``table``, a plain list, by
    # the current rank: ``visited`` is a bit set over them, ``seen`` the row's
    # visited neighbors.  The pick draws r below the count of the unvisited
    # ones by the rule CPython 3.10-3.13's randrange follows on a
    # random.Random, inlined: getrandbits of the count's bit length until
    # one is below the count.  So a walk makes randrange's draws, and then
    # takes ``ranks[j]`` for the least j with exactly r unvisited ranks
    # before it.  From j = r, each pass sets j to r plus the visited ranks up
    # to ranks[j]; j never decreases and never passes that least j, so the
    # loop runs once per visited neighbor that comes before the pick, at
    # most.  Ranks keep id order, as rows do, so ranks[j] is the neighbor
    # randrange(len(choices)) would pick from the unvisited ones listed in
    # neighbor order.
    members, rank, outside, upto = rows.members, rows.rank, rows.outside, rows.upto
    table = rows.table
    visited = 0
    for v in prefix:
        visited |= 1 << rank.get(v, outside)
    cur, target = rank.get(prefix[-1], outside), rank.get(destination, -1)
    path = [*prefix]
    while True:
        bits, ranks, degree = table[cur]
        seen = bits & visited
        n = degree - seen.bit_count()
        if not n:
            return None
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        j = r
        while (i := r + (seen & upto[ranks[j]]).bit_count()) != j:
            j = i
        cur = ranks[j]
        path.append(members[cur])
        if cur == target:
            return tuple(path)
        visited |= 1 << cur


def random_path(subgraph: Subgraph, source: int, destination: int,
                rng: random.Random) -> PathNodes | None:
    """Scout move: seeded random walks until one reaches the destination.

    Returns None after ``WALK_RESTARTS`` dead ends; absence of a path is a
    value, not an error.  Equal endpoints are a ValueError.
    """
    if source == destination:
        raise ValueError("source and destination must differ")
    if source not in subgraph.allowed or destination not in subgraph.allowed:
        return None
    rows, getrandbits = subgraph._rows, rng.getrandbits
    for _ in range(WALK_RESTARTS):
        found = _walk(rows, (source,), destination, getrandbits)
        if found is not None:
            return found
    return None


def _perturb(path: PathNodes, rows: _Rows, rng: random.Random) -> PathNodes:
    # The bees' move: keep a random prefix short of the destination, regrow
    # the rest avoiding it; ``path`` unchanged after REGROW_RETRIES dead ends.
    # ``path`` must be a simple path of two or more nodes, as every food
    # source is, and nothing checks it: a shorter one has no cut point, and a
    # cut of one that repeats a node could keep its destination.
    for _ in range(REGROW_RETRIES):
        cut = rng.randrange(len(path) - 1)
        regrown = _walk(rows, path[:cut + 1], path[-1], rng.getrandbits)
        if regrown is not None:
            return regrown
    return path


def path_fitness(path: PathNodes, topology: Topology, kb: KnowledgeBase,
                 bw_threshold: float = 0.0) -> Fitness | None:
    """Bottleneck available bandwidth of a path, or None when rejected.

    A path is rejected when any of its links offers less than
    ``bw_threshold`` Mbps; rejected paths do not participate in routing.
    Each hop is read through the knowledge base's link snapshot's one
    lookup, ``LinkSnapshot.available_on``, which holds exactly the
    topology's links and raises a ValueError naming a hop that is not one.

    This is the validating reference that the tests and the benchmark score
    with: it checks that the path is simple and reads every hop.  The
    searches rank their own candidates, which are simple by construction,
    with ``_Search.evaluate``, which gives the same ranks.
    """
    if len(path) < 2 or len(set(path)) != len(path):
        raise ValueError(f"malformed path {path}")
    available_on = kb.link_available_mbps.available_on
    bottleneck = min([available_on(u, v) for u, v in zip(path, path[1:])])
    if bottleneck < bw_threshold:
        return None
    return Fitness(bottleneck)


def _wheel(weights: list[float] | tuple[float, ...]) -> list[float]:
    # The roulette wheel over ``weights``, at least one and none negative (each
    # caller floors its ranks at zero): their left-to-right partial sums.  The
    # total is the last partial sum, so the pick below can reach it; sum()
    # compensates on Python 3.12+ and could differ.
    return list(itertools.accumulate(weights))


def _spin(wheel: list[float], rng: random.Random) -> int:
    # One fitness-proportional pick from a wheel built by _wheel; uniform
    # when every weight is zero.
    total = wheel[-1]
    if total <= 0.0:
        return rng.randrange(len(wheel))
    r = rng.random() * total
    return min(bisect.bisect_right(wheel, r), len(wheel) - 1)


def _excise_loops(path: PathNodes) -> PathNodes:
    # Remove any cycle between duplicate occurrences of a node, left to
    # right, in linear time: ``at`` maps each kept node to its position in
    # ``out``.  A simple path comes back as it is.
    out: list[int] = []
    at: dict[int, int] = {}
    for node in path:
        i = at.get(node)
        if i is None:
            at[node] = len(out)
            out.append(node)
        else:
            for dropped in out[i + 1:]:
                del at[dropped]
            del out[i + 1:]
    return path if len(out) == len(path) else tuple(out)


def modified_crossover(parent_a: PathNodes, parent_b: PathNodes,
                       rng: random.Random) -> tuple[PathNodes, PathNodes]:
    """Exchange suffixes at a shared intermediate node; repair loops by excision.

    Parents without a shared intermediate node are returned unchanged, and
    so are equal simple parents: every node is shared and any pivot gives
    the parents back, so only the pivot is drawn.
    """
    if parent_a[0] != parent_b[0] or parent_a[-1] != parent_b[-1]:
        raise ValueError("parents must share source and destination")
    if parent_a == parent_b and len(set(parent_a)) == len(parent_a):
        if len(parent_a) > 2:
            rng.randrange(len(parent_a) - 2)
        return parent_a, parent_b
    shared = sorted(set(parent_a[1:-1]) & set(parent_b[1:-1]))
    if not shared:
        return parent_a, parent_b
    pivot = shared[rng.randrange(len(shared))]
    ia = parent_a.index(pivot)
    ib = parent_b.index(pivot)
    child_a = _excise_loops(parent_a[:ia + 1] + parent_b[ib + 1:])
    child_b = _excise_loops(parent_b[:ib + 1] + parent_a[ia + 1:])
    return child_a, child_b


class _Search:
    """What ABC and GA share: the endpoints, scouting, evaluating a candidate,
    reporting it to the observer, and the best candidate ever seen with its
    per-cycle trace, which is nondecreasing.  A candidate's rank is one
    float: its bottleneck, or ``REJECTED``.  ``evaluate`` is the one place a
    candidate gets its rank, once per candidate; it stops reading a rejected
    candidate at its first link below the threshold.  ``path_fitness`` is the
    validating reference that the tests and the benchmark score with.  Equal
    endpoints are a ValueError raised by ``populate``, before any draw."""

    def __init__(self, subgraph: Subgraph, source: int, destination: int,
                 kb: KnowledgeBase, rng: random.Random, bw_threshold: float,
                 observer: Observer | None) -> None:
        self.subgraph, self.source, self.destination = subgraph, source, destination
        self.rng, self.bw_threshold, self.observer = rng, bw_threshold, observer
        self._links = kb.link_available_mbps
        self._index, self._available = self._links.index, self._links.available
        self.best_path: PathNodes | None = None
        self.best = REJECTED
        self.trace: list[float] = []

    def scout(self) -> PathNodes | None:
        return random_path(self.subgraph, self.source, self.destination, self.rng)

    def evaluate(self, path: PathNodes, *parents: tuple[PathNodes, float]) -> float:
        """The rank of ``path``.  A rank depends on the path alone, so a
        candidate equal to one of its ``(parent, rank)`` pairs takes that
        rank and is not scored again.

        Otherwise the hops are read left to right and the first one below
        the threshold rejects the path: some hop is below the threshold
        exactly when the minimum is, so the rank is ``path_fitness``'s.
        A hop reads ``available[index[key]]`` from the knowledge base's link
        snapshot, both bound once per search; a hop that is not a link
        raises the snapshot's own ValueError.  Every candidate is a walk, a
        loop-excised crossover child or a parent, hence a simple path of two
        or more nodes, so that is not checked again."""
        for parent, rank in parents:
            if path == parent:
                return rank
        index, available, threshold = self._index, self._available, self.bw_threshold
        bottleneck = math.inf
        try:
            for u, v in itertools.pairwise(path):
                # LinkSnapshot.available_on's lookup, inlined
                bw = available[index[(u, v) if u < v else (v, u)]]
                if bw < threshold:
                    return REJECTED
                if bw < bottleneck:
                    bottleneck = bw
        except KeyError:
            self._links.available_on(u, v)  # not a link: raises the snapshot's ValueError
            raise
        return bottleneck

    def report(self, kind: str, path: PathNodes, value: float) -> None:
        """Tell the observer about a candidate and keep it if it is the best yet."""
        if self.observer is not None:
            self.observer(kind, path)
        if value > self.best:
            self.best_path, self.best = path, value

    def step(self, kind: str, path: PathNodes, *parents: tuple[PathNodes, float]) -> float:
        value = self.evaluate(path, *parents)
        self.report(kind, path, value)
        return value

    def populate(self, size: int) -> list[tuple[PathNodes, float]]:
        """Up to ``size`` scouted paths with their rank; empty when the
        destination is unreachable.  A non-empty population is cycle 0.

        Equal endpoints are a ValueError.  When the source or the
        destination is not a member, no scout could reach it, so none is
        sent: the query ends at the prune with no draw, no observer event,
        and neither the member mask nor the rows built."""
        if self.source == self.destination:
            raise ValueError("source and destination must differ")
        allowed = self.subgraph.allowed
        if self.source not in allowed or self.destination not in allowed:
            return []
        members = []
        for _ in range(size):
            path = self.scout()
            if path is not None:
                members.append((path, self.step("init", path)))
        if members:
            self.end_cycle()
        return members

    def end_cycle(self) -> None:
        self.trace.append(max(self.best, 0.0))

    def result(self) -> RouteResult:
        trace = tuple(self.trace) if self.trace else (0.0,)
        final = trace[-1]
        convergence = next(i for i, v in enumerate(trace) if v == final)
        stagnation = next(
            (i for i in range(5, len(trace)) if trace[i] == trace[i - 5]), None)
        path = self.best_path
        return RouteResult(path, Fitness(max(self.best, 0.0)), len(path) - 1 if path else 0,
                           convergence, trace, stagnation)


def abc_search(subgraph: Subgraph, source: int, destination: int,
               cfg: AbcConfig, kb: KnowledgeBase, rng: random.Random, *,
               bw_threshold: float = 0.0,
               observer: Observer | None = None) -> RouteResult:
    """Artificial-bee-colony search for the max-bottleneck path.

    Employed bees perturb each food source and greedily keep improvements;
    onlookers make the same greedy move on sources picked in proportion to
    their nectar (bottleneck bandwidth); sources stuck for ``abc_limit``
    trials are abandoned to scouts.  The best source ever seen is remembered
    across cycles.

    The onlookers' roulette wheel (the partial sums of the sources' nectar,
    floored at zero) is built once per onlooker phase and rebuilt only when
    an onlooker's candidate is accepted, the one event that changes a
    source's nectar, so every onlooker spins a wheel of the current nectar of
    every source, exactly as if it were rebuilt before each selection.  A
    candidate the perturbation returned unchanged keeps its source's nectar
    without being scored again.

    Scouts almost never run at the default ``abc_limit`` (5x the colony
    size, 500 trials): a source gets about two trials a cycle, one employed
    and on average one onlooker, so about 60 over 30 cycles.  Only when the
    onlookers crowd onto the few sources with a nonzero weight can one reach
    the limit.
    """
    search = _Search(subgraph, source, destination, kb, rng, bw_threshold, observer)
    colony = cfg.colony_size
    limit = cfg.abc_limit if cfg.abc_limit is not None else colony * 5
    sources = [FoodSource(path, value) for path, value in search.populate(colony)]
    if not sources:
        return search.result()
    # bound only now, so a query that ends at the prune builds no rows
    rows = subgraph._rows

    def improve(src: FoodSource, kind: str) -> bool:
        # The bees' greedy move: perturb the source and keep the candidate if
        # it ranks higher, else count a trial.  True when it was kept.
        candidate = _perturb(src.path, rows, rng)
        value = search.step(kind, candidate, (src.path, src.value))
        if value > src.value:
            src.path, src.value, src.trials = candidate, value, 0
            return True
        src.trials += 1
        return False

    for _ in range(cfg.max_cycles):
        # Employed phase: one greedy move per source.
        for src in sources:
            improve(src, "employed")

        # Onlooker phase: fitness-proportional reinforcement.  Only an
        # accepted candidate changes a weight, so the wheel stays current.
        wheel = _wheel([max(src.value, 0.0) for src in sources])
        for _ in range(colony):
            if improve(sources[_spin(wheel, rng)], "onlooker"):
                wheel = _wheel([max(src.value, 0.0) for src in sources])

        # Scout phase: abandon exhausted sources.
        for src in sources:
            if src.trials >= limit:
                fresh = search.scout()
                if fresh is not None:
                    src.path, src.value = fresh, search.step("scout", fresh)
                src.trials = 0

        search.end_cycle()

    return search.result()


def ga_search(subgraph: Subgraph, source: int, destination: int,
              cfg: GaConfig, kb: KnowledgeBase, rng: random.Random, *,
              bw_threshold: float = 0.0,
              observer: Observer | None = None) -> RouteResult:
    """Genetic search: roulette selection, shared-node crossover, suffix-regrow mutation.

    The selection wheel is built once per generation, whose weights are
    fixed, and a child equal to a parent takes that parent's rank without
    being scored again: the population collapses onto a few paths, so most
    children are copies of a parent.
    """
    search = _Search(subgraph, source, destination, kb, rng, bw_threshold, observer)
    # Each member is evaluated once, when it joins the population.
    population = search.populate(cfg.population_size)
    if not population:
        return search.result()
    # bound only now, so a query that ends at the prune builds no rows
    rows, getrandbits = subgraph._rows, rng.getrandbits

    def mutate(path: PathNodes) -> PathNodes:
        # Per intermediate gene: with probability mutation_rate, regrow the
        # suffix from that gene's predecessor (at most one regrowth per pass;
        # a point swap would almost always break adjacency).
        if cfg.mutation_rate <= 0.0:
            return path
        for i in range(1, len(path) - 1):
            if rng.random() < cfg.mutation_rate:
                return _walk(rows, path[:i], path[-1], getrandbits) or path
        return path

    for _ in range(cfg.generations):
        wheel = _wheel([max(value, 0.0) for _, value in population])
        offspring: list[tuple[PathNodes, float]] = []
        while len(offspring) < len(population):
            pa, va = population[_spin(wheel, rng)]
            pb, vb = population[_spin(wheel, rng)]
            for child in modified_crossover(pa, pb, rng):
                # Crossover and mutation keep every child a valid path; one
                # below the bandwidth threshold is replaced by a scout path.
                child = mutate(child)
                value = search.evaluate(child, (pa, va), (pb, vb))
                if value == REJECTED:
                    # Replacement paths should themselves be feasible, else
                    # they get zero selection weight and never breed.  With
                    # no scout path at all, the first parent stands in.
                    child, value = pa, va
                    for _ in range(REPAIR_ATTEMPTS):
                        fresh = search.scout()
                        if fresh is None:
                            break
                        child, value = fresh, search.evaluate(fresh)
                        if value != REJECTED:
                            break
                search.report("offspring", child, value)
                offspring.append((child, value))
                if len(offspring) >= len(population):
                    break
        population = offspring
        search.end_cycle()

    return search.result()
