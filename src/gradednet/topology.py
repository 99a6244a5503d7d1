"""Random geometric topologies with a source-centered quadrant partition.

Nodes are scattered uniformly in the unit square and linked when they fall
within a connection radius derived from the requested link density (expected
degree ~ density * (n-1)).  Any node left isolated is attached to its nearest
neighbor so every node can participate in routing.  The plane around a chosen
source splits into four angular quadrants; only nodes sharing the
destination's quadrant are candidates for a route.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

DEFAULT_CAPACITY_MBPS = 30.0
DEFAULT_LIFETIME_SCALE = 100.0
_DISTANCE_BLOCK_ROWS = 128


class CoincidentPointError(ValueError):
    """Raised when a quadrant is requested for a point equal to the source."""


class Quadrant(Enum):
    """One of the four angular sectors around a source node."""

    Q1 = 1
    Q2 = 2
    Q3 = 3
    Q4 = 4


@dataclass
class QosInputs:
    """Raw per-node QoS observations, stored in and read from ``topology.json``.

    Grading does not read them: it draws its own lifetime and resource
    availability per node and computes density from its own arrival draws.

    network_lifetime:   remaining lifetime, abstract units
    node_density:       packets that arrived at the node in the last window
    resource_available: whether the node currently has resources to forward
    """

    network_lifetime: float
    node_density: int = 0
    resource_available: bool = True

    def __post_init__(self) -> None:
        if self.network_lifetime < 0:
            raise ValueError("network lifetime must be nonnegative")
        if self.node_density < 0:
            raise ValueError("node density must be nonnegative")


@dataclass
class Node:
    id: int
    x: float
    y: float
    qos: QosInputs

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(slots=True)
class Link:
    """Undirected link between two nodes; ``Topology`` checks it, grading samples its load."""

    a: int
    b: int
    capacity_mbps: float


@dataclass(frozen=True, eq=False)
class EdgeArrays:
    """A topology's links as numpy arrays, the form grading and ``Subgraph`` compute on.

    capacity_mbps: one entry per link, in ``Topology.links`` order
    keys:     each link's ``(min(a, b), max(a, b))``, in the same order; all
              keys share one int object per node id
    node, neighbor, link: the directed edges (both directions of every link)
              sorted by (node, neighbor), each with the index of its link
    degree:   links per node
    starts:   index of each node's first directed edge
    index:    each edge key's link position, a dict in link order; built on
              first read and kept, so every knowledge base graded on the
              topology reads its links through this one object
    """

    capacity_mbps: np.ndarray
    keys: list[tuple[int, int]]
    node: np.ndarray
    neighbor: np.ndarray
    link: np.ndarray
    degree: np.ndarray
    starts: np.ndarray

    @classmethod
    def of(cls, n: int, a: np.ndarray, b: np.ndarray, capacity: np.ndarray) -> "EdgeArrays":
        """Check the links ``(a[i], b[i])`` of capacity ``capacity[i]`` between
        nodes ``0..n-1`` and build their edge arrays.

        The first link, in link order, that is a self-loop, has an endpoint
        outside ``0..n-1``, a capacity not above 0 (NaN too), or repeats an
        earlier link either way round is a ValueError naming its first fault.
        """
        capacity_mbps = capacity.astype(float)
        unknown = (a < 0) | (a >= n) | (b < 0) | (b >= n)
        lo, hi = np.where(unknown, 0, np.sort([a, b], axis=0)).astype(np.int64)
        repeated = np.ones(len(a), dtype=bool)
        repeated[np.unique(lo * n + hi, return_index=True)[1]] = False  # first of each key
        faults = ((a == b, "self-loop on node {a}"),
                  (unknown, "link ({a}, {b}) references unknown node"),
                  (~(capacity_mbps > 0), "link ({a}, {b}) capacity must be positive, got {c}"),
                  (repeated, "duplicate link {key}"))
        found = [(int(np.argmax(bad)), rank) for rank, (bad, _) in enumerate(faults) if bad.any()]
        if found:
            i, rank = min(found)
            # the caller's own values, as Python numbers, whatever the arrays' dtypes
            x, y, c = a.tolist()[i], b.tolist()[i], capacity.tolist()[i]
            raise ValueError(faults[rank][1].format(a=x, b=y, c=c, key=(min(x, y), max(x, y))))

        node = np.concatenate((lo, hi))
        neighbor = np.concatenate((hi, lo))
        order = np.argsort(node * n + neighbor)  # keys are unique: one per directed edge
        degree = np.bincount(node, minlength=n)
        ids = np.arange(n).astype(object)
        return cls(
            capacity_mbps=capacity_mbps,
            keys=list(zip(ids[lo].tolist(), ids[hi].tolist())),
            node=node[order].astype(np.int32), neighbor=neighbor[order].astype(np.int32),
            link=np.tile(np.arange(len(a), dtype=np.int32), 2)[order],
            degree=degree, starts=np.cumsum(degree) - degree,
        )

    @functools.cached_property
    def index(self) -> dict[tuple[int, int], int]:
        return dict(zip(self.keys, range(len(self.keys))))


class _LinkView:
    """A generated topology's links, read-only: ``Link(a, b, capacity)`` for
    each edge key ``(a, b)``, built when iterated and not kept.  ``len``
    builds none."""

    __slots__ = ("_keys", "_capacity_mbps")

    def __init__(self, keys: list[tuple[int, int]], capacity_mbps: float) -> None:
        self._keys, self._capacity_mbps = keys, capacity_mbps

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        capacity = self._capacity_mbps
        return (Link(a, b, capacity) for a, b in self._keys)


class Topology:
    """A generated network: nodes, undirected links, and their position (n x 2)
    and edge arrays, built once.

    ``==`` and ``repr`` are a dataclass's over ``seed``, ``nodes`` and the
    list of ``links``.  A topology built from a list of links keeps that list;
    a generated one counts and iterates its ``links`` through a view over its
    edge keys, each ``a < b`` with the generator's capacity, keeping no ``Link``.
    """

    seed: int
    nodes: list[Node]
    links: list[Link] | _LinkView
    positions: np.ndarray
    edges: EdgeArrays

    def __init__(self, seed: int, nodes: list[Node], links: list[Link]) -> None:
        # dtypes inferred: no int overflows, and a message shows each value as given
        self._build(seed, nodes, np.array([link.a for link in links]),
                    np.array([link.b for link in links]),
                    np.array([link.capacity_mbps for link in links]))
        self.links = links

    @classmethod
    def _from_pairs(cls, seed: int, nodes: list[Node], a: np.ndarray, b: np.ndarray,
                    capacity_mbps: float) -> "Topology":
        """The topology whose links ``(a[i], b[i])`` all have ``capacity_mbps``."""
        topology = cls.__new__(cls)
        topology._build(seed, nodes, a, b, np.full(len(a), capacity_mbps))
        topology.links = _LinkView(topology.edges.keys, capacity_mbps)
        return topology

    def _build(self, seed: int, nodes: list[Node], a: np.ndarray, b: np.ndarray,
               capacity: np.ndarray) -> None:
        """Check the nodes and the links once, into ``positions`` and ``edges``."""
        self.seed, self.nodes = seed, nodes
        ids = [node.id for node in nodes]
        if ids != list(range(len(nodes))):
            raise ValueError("node ids must be dense 0..n-1 in order")
        # dtype inferred, so an int beyond float range compares exactly instead of overflowing
        coords = np.array([node.position for node in nodes]).reshape(-1, 2)
        inside = ((coords >= 0.0) & (coords <= 1.0)).all(axis=1)  # NaN is outside
        if not inside.all():
            raise ValueError(f"node {int(np.argmin(inside))} position outside the unit square")
        self.positions = coords.astype(float)
        self.edges = EdgeArrays.of(self.n, a, b, capacity)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.seed, self.nodes, list(self.links))
                == (other.seed, other.nodes, list(other.links)))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(seed={self.seed!r}, nodes={self.nodes!r}, "
                f"links={list(self.links)!r})")

    @property
    def n(self) -> int:
        return len(self.nodes)

    def has_node(self, node: int) -> bool:
        return 0 <= node < len(self.nodes)


def _squared_distances(rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared distance from each of ``rows`` (k x 2) to each of ``points`` (m x 2), k x m."""
    diff = rows[:, None, :] - points[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def generate_topology(n: int, link_density: float, seed: int, *,
                      capacity_mbps: float = DEFAULT_CAPACITY_MBPS,
                      lifetime_scale: float = DEFAULT_LIFETIME_SCALE) -> Topology:
    """Generate a seeded random geometric topology in the unit square.

    Pairs closer than ``sqrt(link_density / pi)`` are linked, which makes the
    expected degree track ``link_density * (n - 1)`` away from the borders.
    Isolated nodes are then attached to their nearest neighbor.  The same
    (n, link_density, seed) always yields the identical topology.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if not 0.0 < link_density <= 1.0:
        raise ValueError(f"link density must be in (0, 1], got {link_density}")

    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    lifetimes = rng.uniform(0.0, lifetime_scale, n)

    radius = math.sqrt(link_density / math.pi)
    # The radius is tested a block of rows at a time, against the columns from
    # the block's first row on, and each block keeps only its pairs i < j, in
    # row-major order: no n x n array ever exists.  Each squared distance is
    # computed as by one dense pass.
    blocks = []
    for start in range(0, n, _DISTANCE_BLOCK_ROWS):
        near = np.argwhere(_squared_distances(points[start:start + _DISTANCE_BLOCK_ROWS],
                                              points[start:]) <= radius * radius)
        blocks.append(near[near[:, 1] > near[:, 0]] + start)
    pairs = np.concatenate(blocks)
    degree = np.bincount(pairs.ravel(), minlength=n)

    # Attach every isolated node to its geometrically nearest peer.  The
    # degree is read live: an earlier attachment may have linked node i.
    attached = []
    for i in np.flatnonzero(degree == 0).tolist():
        if degree[i] > 0:
            continue
        d2 = _squared_distances(points[i:i + 1], points)[0]
        d2[i] = np.inf
        j = int(np.argmin(d2))
        attached.append((min(i, j), max(i, j)))
        degree[i] += 1
        degree[j] += 1
    if attached:
        pairs = np.concatenate((pairs, attached))

    nodes = [
        Node(i, float(points[i, 0]), float(points[i, 1]),
             QosInputs(network_lifetime=float(lifetimes[i])))
        for i in range(n)
    ]
    return Topology._from_pairs(seed, nodes, pairs[:, 0], pairs[:, 1], capacity_mbps)


# The quadrant rule, one sign test per quadrant on an offset (dx, dy) from the
# source, scalar or array.  The zero offset passes none of them.
_QUADRANT_RULES = {
    Quadrant.Q1: lambda dx, dy: (dx > 0) & (dy >= 0),
    Quadrant.Q2: lambda dx, dy: (dx <= 0) & (dy > 0),
    Quadrant.Q3: lambda dx, dy: (dx < 0) & (dy <= 0),
    Quadrant.Q4: lambda dx, dy: (dx >= 0) & (dy < 0),
}


def quadrant_of(source_pos: tuple[float, float], node_pos: tuple[float, float]) -> Quadrant:
    """Quadrant of ``node_pos`` relative to ``source_pos``.

    Angular intervals are half-open starting counter-clockwise from the
    positive x axis: [0, 90) -> Q1, [90, 180) -> Q2, [180, 270) -> Q3,
    [270, 360) -> Q4, so points on an axis belong to the quadrant that
    starts there.  Exact sign tests on the offset (dx, dy) decide them, so
    a node within rounding of an axis still lands on its own side.
    """
    dx, dy = node_pos[0] - source_pos[0], node_pos[1] - source_pos[1]
    for quadrant, rule in _QUADRANT_RULES.items():
        if rule(dx, dy):
            return quadrant
    raise CoincidentPointError("node is at the source's position; its quadrant is undefined")


def quadrant_candidates(topology: Topology, source: int, destination: int) -> set[int]:
    """Nodes sharing the destination's quadrant around ``source``.

    The source itself is excluded (it is always a route member); the
    destination is always included.  Nodes at the source's position have no
    quadrant and are skipped; a destination there is a CoincidentPointError.
    """
    if not topology.has_node(source):
        raise ValueError(f"unknown source node {source}")
    if not topology.has_node(destination):
        raise ValueError(f"unknown destination node {destination}")
    if source == destination:
        raise ValueError("source and destination must differ")

    target = quadrant_of(topology.positions[source], topology.positions[destination])
    offset = topology.positions - topology.positions[source]
    return set(np.flatnonzero(_QUADRANT_RULES[target](*offset.T)).tolist())


def topology_to_dict(topology: Topology) -> dict:
    return {
        "seed": topology.seed,
        "nodes": [
            {
                "id": node.id,
                "x": node.x,
                "y": node.y,
                "lifetime": node.qos.network_lifetime,
                "density": node.qos.node_density,
                "resource": node.qos.resource_available,
            }
            for node in topology.nodes
        ],
        "links": [
            {"a": link.a, "b": link.b, "capacity_mbps": link.capacity_mbps}
            for link in topology.links
        ],
    }


def is_finite(value: int | float) -> bool:
    """Whether a number is a finite float; an int beyond float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# Accepted JSON value types per field kind; bool is rejected wherever a
# number is accepted, although Python counts it as one.
_ACCEPTED_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), list: (list,)}


def check_json_value(value, kind: type, what: str) -> None:
    """The JSON value-type rule of topology and config files: bool is not a
    number, a float field takes an int or a float, and a float must be finite."""
    if (isinstance(value, bool) and kind is not bool) or not isinstance(
            value, _ACCEPTED_TYPES[kind]):
        raise ValueError(f"{what} must be {kind.__name__}, got {value!r}")
    if kind is float and not is_finite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")


def check_positive(owner, fields: dict[str, str]) -> None:
    """The "must be positive" rule of config fields: each field of ``owner``
    named in ``fields``, in order, with what it is."""
    for name, meaning in fields.items():
        value = getattr(owner, name)
        if value <= 0:
            raise ValueError(f"{name} ({meaning}) must be positive, got {value!r}")


def read_json(path: str | Path):
    """The JSON document in ``path``; nesting too deep to parse is a ValueError."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` to ``path`` as indented JSON with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _field(entry: dict, name: str, kind: type, where: str):
    try:
        value = entry[name]
    except KeyError:
        raise ValueError(f"{where} lacks field {name!r}") from None
    except TypeError:
        raise ValueError(f"{where} must be a JSON object") from None
    check_json_value(value, kind, f"{where} field {name!r}")
    return float(value) if kind is float else value


def topology_from_dict(doc: dict) -> Topology:
    """Inverse of ``topology_to_dict``; a missing, mistyped or empty field is a ValueError."""
    entries = _field(doc, "nodes", list, "topology")
    if not entries:
        raise ValueError("topology field 'nodes' must not be empty")
    nodes = [
        Node(
            _field(entry, "id", int, f"nodes[{i}]"),
            _field(entry, "x", float, f"nodes[{i}]"),
            _field(entry, "y", float, f"nodes[{i}]"),
            QosInputs(
                network_lifetime=_field(entry, "lifetime", float, f"nodes[{i}]"),
                node_density=_field(entry, "density", int, f"nodes[{i}]"),
                resource_available=_field(entry, "resource", bool, f"nodes[{i}]"),
            ),
        )
        for i, entry in enumerate(entries)
    ]
    links = [
        Link(_field(entry, "a", int, f"links[{i}]"), _field(entry, "b", int, f"links[{i}]"),
             _field(entry, "capacity_mbps", float, f"links[{i}]"))
        for i, entry in enumerate(_field(doc, "links", list, "topology"))
    ]
    return Topology(seed=_field(doc, "seed", int, "topology"), nodes=nodes, links=links)


def save_topology(topology: Topology, path: str | Path) -> None:
    write_json(path, topology_to_dict(topology))


def load_topology(path: str | Path) -> Topology:
    return topology_from_dict(read_json(path))
