import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradednet.topology import (
    CoincidentPointError,
    EdgeArrays,
    Link,
    Node,
    QosInputs,
    Quadrant,
    Topology,
    generate_topology,
    load_topology,
    quadrant_candidates,
    quadrant_of,
    save_topology,
    topology_to_dict,
)
from oracles import adjacency, generate_topology_eager, quadrant_members


def _manual_topology(positions, links, seed=0):
    nodes = [Node(i, x, y, QosInputs(network_lifetime=50.0))
             for i, (x, y) in enumerate(positions)]
    return Topology(seed=seed, nodes=nodes, links=[Link(a, b, 30.0) for a, b in links])


def test_generate_node_count():
    topo = generate_topology(15, 0.3, 42)
    assert topo.n == 15
    assert len(topo.nodes) == 15


def test_generate_deterministic():
    a = generate_topology(15, 0.3, 42)
    b = generate_topology(15, 0.3, 42)
    assert topology_to_dict(a) == topology_to_dict(b)


def test_generate_different_seeds_differ():
    a = generate_topology(15, 0.3, 42)
    b = generate_topology(15, 0.3, 43)
    assert topology_to_dict(a) != topology_to_dict(b)


def test_generate_rejects_tiny():
    with pytest.raises(ValueError):
        generate_topology(1, 0.3, 42)
    with pytest.raises(ValueError):
        generate_topology(10, 0.0, 42)
    with pytest.raises(ValueError):
        generate_topology(10, 1.5, 42)


def test_generate_no_isolated_nodes():
    # sparse enough that isolates would appear without augmentation
    for seed in range(10):
        topo = generate_topology(40, 0.02, seed)
        adj = adjacency(topo)
        assert all(len(adj[i]) >= 1 for i in range(topo.n))


def _assert_generated_as_eagerly(n, density, seed):
    topo, eager = generate_topology(n, density, seed), generate_topology_eager(n, density, seed)
    assert topo.nodes == eager.nodes
    assert topo.links == eager.links
    for name in (f.name for f in dataclasses.fields(EdgeArrays)):
        built, expected = getattr(topo.edges, name), getattr(eager.edges, name)
        if isinstance(expected, list):
            assert built == expected
        else:
            assert built.dtype == expected.dtype and np.array_equal(built, expected), name
    assert repr(topo) == repr(eager)
    assert Topology(topo.seed, topo.nodes, list(topo.links)) == topo


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 80), st.sampled_from([0.005, 0.02, 0.05, 0.15]),
       st.integers(0, 2 ** 32 - 1))
def test_generate_matches_the_eager_link_list(n, density, seed):
    # the sparse densities leave isolated nodes to attach
    _assert_generated_as_eagerly(n, density, seed)


# 1500 rows end in a part block of distances; the sparse case attaches
# isolated nodes in every block
@pytest.mark.parametrize("n, density", [(1024, 0.2), (1500, 0.2), (1500, 0.0005)],
                         ids=["1024", "1500", "1500-sparse"])
def test_generate_matches_the_eager_link_list_at_scale(n, density):
    _assert_generated_as_eagerly(n, density, 11)


def test_generate_holds_no_n_by_n_array():
    # distances are tested a block of rows at a time, so the peak stays well
    # under one n x n float array
    n = 2048
    tracemalloc.start()
    try:
        generate_topology(n, 0.005, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 2


def test_generated_link_keys_share_one_int_per_node():
    topo = generate_topology(1024, 0.2, 3)
    assert len({id(v) for key in topo.edges.keys for v in key}) <= topo.n


def test_generated_links_keep_the_given_capacity(tmp_path):
    # an int capacity, as an int max_bandwidth_mbps in a JSON config gives, is read and
    # written as an int
    path = tmp_path / "topology.json"
    for seed in range(3):
        for capacity, written in ((30, "30"), (30.0, "30.0")):
            topo = generate_topology(40, 0.05, seed, capacity_mbps=capacity)
            assert {type(link.capacity_mbps) for link in (*topo.links, topo.links[-1],
                                                          *topo.links[:2])} == {type(capacity)}
            save_topology(topo, path)
            links = json.loads(path.read_text())["links"]
            assert {repr(link["capacity_mbps"]) for link in links} == {written}
        assert load_topology(path) == generate_topology(40, 0.05, seed)


def test_generated_links_read_as_a_list():
    topo = generate_topology(40, 0.1, 3)
    links = list(topo.links)
    m = len(links)
    assert m == len(topo.links) == len(topo.edges.keys) > 3
    assert [(link.a, link.b) for link in links] == topo.edges.keys
    for i in (0, 1, m - 1, -1, -m):
        assert topo.links[i] == links[i]
    for i in (m, -m - 1):
        with pytest.raises(IndexError):
            topo.links[i]
    for part in (slice(None), slice(1, 4), slice(-3, None), slice(None, None, -2), slice(m, None)):
        assert type(topo.links[part]) is list
        assert topo.links[part] == links[part]
    with pytest.raises(TypeError):
        topo.links["0"]
    assert repr(topo.links) == repr(links)
    assert topo.links.index(links[2]) == 2 and links[-1] in topo.links
    with pytest.raises(TypeError):
        topo.links[0] = links[0]


def test_generated_links_compare_as_a_list():
    topo = generate_topology(40, 0.1, 3)
    built = Topology(topo.seed, topo.nodes, list(topo.links))
    assert type(built.links) is list
    for a, b in ((topo.links, list(topo.links)), (topo.links, built.links),
                 (topo.links, generate_topology(40, 0.1, 3).links)):
        assert a == b and b == a and not a != b and not b != a
    for other in (generate_topology(40, 0.1, 4).links, list(topo.links)[:-1],
                  list(topo.links) + [Link(0, 1, 30.0)], []):
        assert topo.links != other and other != topo.links
    assert topo.links != tuple(topo.links) and topo.links != 0
    # the same pairs at another capacity differ
    assert topo.links != generate_topology(40, 0.1, 3, capacity_mbps=31.0).links


def test_reading_generated_links_keeps_no_link():
    # counting and iterating the links of an n=1024 topology (about 84k) keeps
    # none of them; a list of them held about 5 MiB
    topo = generate_topology(1024, 0.2, 11)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(topo.links) == len(topo.edges.keys)
        for _ in topo.links:
            pass
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024
    assert peak - before < 64 * 1024


def test_generate_positions_in_unit_square():
    topo = generate_topology(100, 0.2, 5)
    for node in topo.nodes:
        assert 0.0 <= node.x <= 1.0 and 0.0 <= node.y <= 1.0


def test_adjacency_symmetric():
    # the edge arrays hold both directions of every link, sorted, each with its link
    topo = generate_topology(60, 0.15, 9)
    edges = topo.edges
    pairs = list(zip(edges.node.tolist(), edges.neighbor.tolist()))
    assert pairs == sorted(set(pairs))
    assert set(pairs) == {(j, i) for i, j in pairs}
    assert set(pairs) == {(i, j) for i, nbrs in adjacency(topo).items() for j in nbrs}
    for (i, j), link in zip(pairs, edges.link.tolist()):
        a, b = topo.links[link].a, topo.links[link].b
        assert edges.keys[link] == (min(a, b), max(a, b)) == (min(i, j), max(i, j))
    assert edges.degree.tolist() == [len(adjacency(topo)[i]) for i in range(topo.n)]


def test_quadrant_axis_rules():
    src = (0.5, 0.5)
    assert quadrant_of(src, (0.8, 0.9)) is Quadrant.Q1
    assert quadrant_of(src, (0.9, 0.5)) is Quadrant.Q1   # 0 degrees
    assert quadrant_of(src, (0.5, 0.9)) is Quadrant.Q2   # 90 degrees
    assert quadrant_of(src, (0.1, 0.5)) is Quadrant.Q3   # 180 degrees
    assert quadrant_of(src, (0.5, 0.1)) is Quadrant.Q4   # 270 degrees
    assert quadrant_of(src, (0.1, 0.9)) is Quadrant.Q2
    assert quadrant_of(src, (0.1, 0.1)) is Quadrant.Q3
    assert quadrant_of(src, (0.9, 0.1)) is Quadrant.Q4
    # within rounding of an axis: an angle would round onto it, the signs do not
    assert quadrant_of(src, (0.0, math.nextafter(0.5, 1))) is Quadrant.Q2
    assert quadrant_of((0.0, 0.0), (1e-300, 0.25)) is Quadrant.Q1


def test_quadrant_coincident_is_error():
    with pytest.raises(CoincidentPointError):
        quadrant_of((0.5, 0.5), (0.5, 0.5))


def test_quadrant_partition_is_total():
    # every non-source node lands in exactly one quadrant
    topo = generate_topology(200, 0.1, 3)
    src = topo.nodes[0].position
    seen = {}
    for node in topo.nodes[1:]:
        seen[node.id] = quadrant_of(src, node.position)
    assert len(seen) == topo.n - 1
    union = set()
    for q in Quadrant:
        members = {i for i, tag in seen.items() if tag is q}
        assert union.isdisjoint(members)
        union |= members
    assert union == {n.id for n in topo.nodes[1:]}


def test_candidates_two_node_topology():
    topo = _manual_topology([(0.2, 0.2), (0.7, 0.9)], [(0, 1)])
    assert quadrant_candidates(topo, 0, 1) == {1}


def test_candidates_include_destination_exclude_source():
    topo = generate_topology(50, 0.2, 11)
    members = quadrant_candidates(topo, 3, 17)
    assert 17 in members
    assert 3 not in members
    target = quadrant_of(topo.nodes[3].position, topo.nodes[17].position)
    for m in members:
        assert quadrant_of(topo.nodes[3].position, topo.nodes[m].position) is target


def test_candidates_take_a_node_within_rounding_of_an_axis():
    # node 2 lies 1 ulp above the source's horizontal axis, so in Q2 with the
    # destination, where a rounded angle puts it on the axis, in Q3; node 3
    # sits on the source and has no quadrant
    topo = _manual_topology([(0.5, 0.5), (0.0, 0.6), (0.0, math.nextafter(0.5, 1)), (0.5, 0.5)],
                            [(0, 1), (1, 2), (2, 3)])
    assert quadrant_candidates(topo, 0, 1) == {1, 2}


def _near(value):
    # the source's coordinate, 1 ulp either side of it, or anywhere
    return st.one_of(st.sampled_from([value, math.nextafter(value, 0.0),
                                      math.nextafter(value, 1.0)]), st.floats(0.0, 1.0))


@st.composite
def _crowded_positions(draw):
    source = draw(st.tuples(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                            st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)))
    others = draw(st.lists(st.tuples(_near(source[0]), _near(source[1])),
                           min_size=1, max_size=12))
    return [source] + others


@given(_crowded_positions())
def test_candidates_match_the_per_node_oracle(positions):
    topo = _manual_topology(positions, [(0, i) for i in range(1, len(positions))])
    for destination in range(1, topo.n):
        expected = quadrant_members(topo, 0, destination)
        if expected is None:
            with pytest.raises(CoincidentPointError):
                quadrant_candidates(topo, 0, destination)
        else:
            assert quadrant_candidates(topo, 0, destination) == expected


def test_candidates_validation():
    topo = generate_topology(10, 0.3, 1)
    with pytest.raises(ValueError):
        quadrant_candidates(topo, 2, 2)
    with pytest.raises(ValueError):
        quadrant_candidates(topo, 0, 99)


def test_topology_invariant_validation():
    with pytest.raises(ValueError):
        _manual_topology([(0.1, 0.1), (0.5, 0.5)], [(0, 0)])
    with pytest.raises(ValueError):
        _manual_topology([(0.1, 0.1), (0.5, 0.5)], [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        _manual_topology([(0.1, 0.1), (0.5, 0.5)], [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        _manual_topology([(0.1, 1.5)], [])
    with pytest.raises(ValueError, match="node 0 position"):
        _manual_topology([(0.1, math.nan)], [])
    # the first bad node is named: here an int beyond float range, then a negative
    with pytest.raises(ValueError, match="node 1 position"):
        _manual_topology([(0.1, 0.1), (10 ** 400, 0.5), (0.5, -1.0)], [])


_TRIANGLE = [(0.1, 0.1), (0.5, 0.5), (0.9, 0.2)]


@pytest.mark.parametrize("bad, message", [
    pytest.param((2, 2, 30.0), "self-loop on node 2", id="self-loop"),
    pytest.param((-1, 2, 30.0), r"link \(-1, 2\) references unknown node", id="endpoint-minus-1"),
    pytest.param((1, 3, 30.0), r"link \(1, 3\) references unknown node", id="endpoint-n"),
    pytest.param((1, 2, 0.0), r"link \(1, 2\) capacity must be positive", id="capacity-0"),
    pytest.param((1, 2, -1.0), r"link \(1, 2\) capacity must be positive", id="capacity-minus-1"),
    pytest.param((1, 2, math.nan), r"link \(1, 2\) capacity must be positive", id="capacity-nan"),
    pytest.param((0, 1, 30.0), r"duplicate link \(0, 1\)", id="duplicate-same-direction"),
    pytest.param((1, 0, 30.0), r"duplicate link \(0, 1\)", id="duplicate-reversed"),
])
def test_topology_rejects_single_faulty_link(bad, message):
    nodes = [Node(i, x, y, QosInputs(network_lifetime=50.0)) for i, (x, y) in enumerate(_TRIANGLE)]
    good = [Link(0, 1, 30.0), Link(0, 2, 30.0)]
    Topology(seed=0, nodes=nodes, links=good)
    with pytest.raises(ValueError, match=message):
        Topology(seed=0, nodes=nodes, links=good + [Link(*bad)])


def test_topology_names_first_faulty_link_in_link_order():
    # (2, 0) is the first repeat in link order; (1, 0) repeats the smallest key
    with pytest.raises(ValueError, match=r"duplicate link \(0, 2\)"):
        _manual_topology(_TRIANGLE, [(1, 2), (0, 2), (0, 1), (2, 0), (2, 1), (1, 0)])
    # an earlier link's fault wins over a later link's, whatever the kinds
    with pytest.raises(ValueError, match=r"duplicate link \(0, 1\)"):
        _manual_topology(_TRIANGLE, [(0, 1), (1, 0), (2, 2), (0, 7)])
    with pytest.raises(ValueError, match=r"link \(0, 10{30}\) references unknown node"):
        _manual_topology(_TRIANGLE, [(0, 1), (0, 10 ** 30), (1, 1)])


def test_equal_inputs_give_equal_topologies():
    a, b = generate_topology(30, 0.2, 4), generate_topology(30, 0.2, 4)
    assert a == b and a.edges is not b.edges
    assert Topology(seed=a.seed, nodes=a.nodes, links=list(a.links)) == a
    assert a != generate_topology(30, 0.2, 5)
    assert repr(a) == repr(b) and "edges" not in repr(a)


def test_json_round_trip_lossless(tmp_path):
    topo = generate_topology(30, 0.25, 77)
    path = tmp_path / "topology.json"
    save_topology(topo, path)
    loaded = load_topology(path)
    assert topology_to_dict(loaded) == topology_to_dict(topo)
    # byte-identical when saved again
    second = tmp_path / "again.json"
    save_topology(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_json_schema_fields(tmp_path):
    topo = generate_topology(5, 0.5, 2)
    path = tmp_path / "t.json"
    save_topology(topo, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"seed", "nodes", "links"}
    assert set(doc["nodes"][0]) == {"id", "x", "y", "lifetime", "density", "resource"}
    assert set(doc["links"][0]) == {"a", "b", "capacity_mbps"}
