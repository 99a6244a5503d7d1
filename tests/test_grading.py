import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradednet.grading import (
    EmptyKnowledgeBaseError,
    GradeRecord,
    GradingConfig,
    KnowledgeBase,
    LinkSnapshot,
    _grade_columns,
    _node_delays,
    build_knowledge_base,
    grade_dump,
    level1_priority,
    save_grade_dump,
    select_feasible,
)
from gradednet.topology import (Link, Node, QosInputs, Topology, generate_topology,
                                load_topology, save_topology)
from gradednet.traffic import LinkState, sample_link_states
from oracles import grade_nodes_one_by_one


def _qos():
    return QosInputs(network_lifetime=90.0)


# ---------------------------------------------------------------- level 1

@pytest.mark.parametrize(
    "lifetime, density, congested, resource, delayed, lifetime_threshold, expected", [
        pytest.param(90.0, 0, False, True, False, 35.0, 1, id="all_pass_is_one"),
        pytest.param(90.0, 0, False, True, True, 35.0, 2, id="delay_is_two"),
        pytest.param(90.0, 0, False, False, False, 35.0, 3, id="no_resource_is_three"),
        pytest.param(90.0, 0, True, False, True, 35.0, 4, id="congested_is_four"),
        pytest.param(90.0, 5, True, True, True, 35.0, 5, id="dense_is_five"),
        pytest.param(0.0, 0, False, True, False, 20.0, 6, id="dead_is_six"),
        # zero lifetime fails even a zero threshold (strictly above required)
        pytest.param(0.0, 0, False, True, False, 0.0, 6, id="dead_at_zero_threshold_is_six"),
        # the lifetime check dominates everything else
        pytest.param(1.0, 99, True, False, True, 20.0, 6, id="check_order"),
    ])
def test_priority(lifetime, density, congested, resource, delayed, lifetime_threshold,
                  expected):
    # plain Python scalars in, one plain int out; a Python bool is never
    # bit-inverted into -2
    priority = level1_priority(lifetime, density, congested, resource, delayed,
                               lifetime_threshold=lifetime_threshold).tolist()
    assert priority == expected and type(priority) is int


def test_priority_batch_gives_every_class():
    # one column per check: the first failing check decides each node's
    # class, whatever later checks fail, and a NaN lifetime fails the first
    priority = level1_priority(
        np.array([90.0, 90.0, 90.0, 90.0, 90.0, 0.0, math.nan]),
        np.array([0, 0, 0, 0, 5, 9, 0]),
        np.array([False, False, False, True, True, True, False]),
        np.array([True, True, False, False, True, False, True]),
        np.array([False, True, False, True, True, True, False]),
        density_threshold=5, lifetime_threshold=20.0)
    assert priority.tolist() == [1, 2, 3, 4, 5, 6, 6]
    assert all(type(p) is int for p in priority.tolist())


# ---------------------------------------------------------------- delay

def _delay(lam, gamma_total, mu, capacities):
    """The delay grading records for one node whose channels carry ``lam``."""
    owner = np.zeros(len(lam), dtype=np.intp)
    return float(_node_delays(np.array(lam, dtype=float), np.array(capacities, dtype=float) * mu,
                              np.array([gamma_total]), owner, 1)[0])


def test_delay_zero_flows():
    assert _delay((0.0, 0.0), 1.0, 1.0, (2.0, 3.0)) == 0.0


def test_delay_single_channel_reference():
    assert _delay((1.0,), 1.0, 1.0, (2.0,)) == pytest.approx(1.0, abs=1e-12)


def test_delay_two_channel_reference():
    assert _delay((1.0, 1.0), 2.0, 1.0, (2.0, 3.0)) == pytest.approx(0.75, abs=1e-12)


def test_delay_saturation_is_inf():
    # a flow that reaches its channel's service rate, mu*C <= lambda
    assert _delay((2.0,), 2.0, 1.0, (2.0,)) == math.inf
    assert _delay((1.0, 3.0), 4.0, 1.0, (2.0, 2.0)) == math.inf


def test_delay_overflow_is_inf_not_saturation():
    # subnormal capacities: mu*C > lambda, but 1 / (mu*C - lambda) overflows,
    # with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _delay((1e-310,), 1e-310, 1.0, (2e-310,)) == math.inf


def test_delay_increases_with_flow():
    previous = 0.0
    for lam in (0.5, 1.0, 1.5, 1.9):
        value = _delay((lam,), lam, 1.0, (2.0,))
        assert value > previous
        previous = value


_RATE = st.floats(0.01, 100.0)


@st.composite
def _delay_inputs(draw):
    """1-4 channels whose flows include 0 and the saturation boundary mu*C."""
    mu = draw(_RATE)
    capacities = draw(st.lists(_RATE, min_size=1, max_size=4))
    lam = [draw(st.sampled_from((0.0, mu * c)) | st.floats(0.0, 2 * mu * c))
           for c in capacities]
    gamma_total = draw(st.just(sum(lam)) | _RATE)
    return lam, gamma_total, mu, capacities


@settings(max_examples=300, deadline=None)
@given(_delay_inputs())
def test_delay_matches_per_channel_rule(inputs):
    # the oracle states the rule one channel at a time, in plain Python
    lam, gamma_total, mu, capacities = inputs
    value = _delay(lam, gamma_total, mu, capacities)
    if any(mu * c <= flow for flow, c in zip(lam, capacities)):
        assert value == math.inf
    elif not any(lam):
        assert value == 0.0
    else:
        expected = 0.0
        for flow, c in zip(lam, capacities):
            expected += (flow / gamma_total) * (1.0 / (mu * c - flow))
        assert math.isclose(value, expected, rel_tol=1e-12)


# ---------------------------------------------------------------- level 2 grade

def _two_link_topology():
    nodes = [Node(0, 0.1, 0.1, _qos()), Node(1, 0.5, 0.5, _qos()),
             Node(2, 0.9, 0.9, _qos())]
    links = [Link(0, 1, 30.0), Link(1, 2, 30.0)]
    return Topology(seed=0, nodes=nodes, links=links)


def _grades(topo, states):
    kb = build_knowledge_base(topo, states, GradingConfig(), np.random.default_rng(0))
    return {node: rec.grade for node, rec in kb.records.items()}


def test_build_kb_grade_is_mean_free_fraction():
    # 18 and 6 flows of 1 Mbps on 30 Mbps links leave 12 and 24 Mbps free:
    # free fractions 0.4 and 0.8, so the middle node grades 0.6
    grades = _grades(_two_link_topology(), LinkState(np.array([18.0, 6.0])))
    assert grades[1] == pytest.approx(0.6)
    assert grades[0] == pytest.approx(0.4)


def test_build_kb_grade_extremes():
    topo = _two_link_topology()
    assert _grades(topo, LinkState())[1] == 1.0
    assert _grades(topo, LinkState(30.0))[1] == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**16), st.floats(0.0, 1.0))
def test_build_kb_congested_exactly_below_threshold(n, seed, threshold):
    # once lifetime (P6) and density (P5) pass, congestion decides P4 by
    # comparing the level-2 grade with the threshold
    topo = generate_topology(n, 0.3, seed)
    rng = np.random.default_rng(seed)
    states = sample_link_states(len(topo.links), rng)
    cfg = GradingConfig(congestion_threshold=threshold)
    kb = build_knowledge_base(topo, states, cfg, rng)
    for rec in kb.records.values():
        if rec.priority <= 4:
            assert (rec.priority == 4) == (rec.grade < threshold)


@st.composite
def _graded_inputs(draw):
    """A small hand-built topology (some nodes may have no links), link
    states mixing idle, saturated and random loads, and a grading config."""
    n = draw(st.integers(1, 9))
    nodes = [Node(i, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)), _qos())
             for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    links = []
    for a, b in chosen:
        if draw(st.booleans()):
            a, b = b, a
        links.append(Link(a, b, draw(st.sampled_from([30.0, 1.5])
                                     | st.floats(0.5, 60.0))))
    load = st.sampled_from([0.0, 30.0, 1e3]) | st.floats(0.0, 60.0)
    t0 = np.array([draw(load) for _ in links])
    gamma = np.array([draw(load) for _ in links])
    mu = draw(st.sampled_from([1.0]) | st.floats(0.1, 5.0))
    config = GradingConfig(
        grade_time_s=draw(st.sampled_from([0.0, 0.37]) | st.floats(0.0, 5.0)),
        flow_rate_mbps=draw(st.sampled_from([1.0]) | st.floats(0.25, 4.0)),
        alpha=draw(st.floats(0.1, 8.0)),
        congestion_threshold=draw(st.floats(0.0, 1.0)),
        delay_multiplier=draw(st.floats(0.01, 10.0)),
    )
    return Topology(seed=0, nodes=nodes, links=links), LinkState(t0, gamma, mu), config


@settings(max_examples=150, deadline=None)
@given(_graded_inputs(), st.integers(0, 2**32 - 1))
def test_build_kb_matches_per_node_oracle(inputs, seed):
    topo, states, config = inputs
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    kb = build_knowledge_base(topo, states, config, rng)
    expected = grade_nodes_one_by_one(topo, states, config, oracle_rng)
    assert kb.records == expected.records
    assert list(kb.link_available_mbps.items()) == list(expected.link_available_mbps.items())
    assert rng.random() == oracle_rng.random()
    # plain Python values only, so reprs and JSON dumps do not depend on numpy
    for rec in kb.records.values():
        assert (type(rec.priority), type(rec.delay_s), type(rec.available_bw_mbps),
                type(rec.grade)) == (int, float, float, float)
    assert all(type(v) is float for v in kb.link_available_mbps.values())
    assert all(type(a) is int and type(b) is int for a, b in kb.link_available_mbps)


@pytest.mark.parametrize("field, value", [
    ("alpha", 0.0), ("arrival_horizon_s", 0.0), ("flow_rate_mbps", -2.0),
    ("grade_time_s", -1.0), ("lifetime_scale", -5.0), ("resource_prob", 2.0),
    ("resource_prob", -0.5),
])
def test_grading_config_rejects_out_of_range_field(field, value):
    with pytest.raises(ValueError, match=field):
        GradingConfig(**{field: value})


def test_build_kb_matches_per_node_oracle_on_generated_topologies():
    for n, seed, grade_time in ((40, 7, 0.0), (64, 3, 0.37), (256, 11, 1.5)):
        topo = generate_topology(n, 0.2, seed)
        config = GradingConfig(grade_time_s=grade_time)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        states = sample_link_states(len(topo.links), np.random.default_rng(seed + 1))
        kb = build_knowledge_base(topo, states, config, rng)
        expected = grade_nodes_one_by_one(topo, states, config, oracle_rng)
        assert kb.records == expected.records
        assert kb.link_available_mbps == expected.link_available_mbps
        assert rng.random() == oracle_rng.random()


def test_build_kb_rejects_misaligned_link_states():
    topo = _two_link_topology()
    with pytest.raises(ValueError, match="one-to-one"):
        build_knowledge_base(topo, LinkState(np.zeros(3)), GradingConfig(),
                             np.random.default_rng(0))


def test_available_on_reads_a_link_either_way_round():
    # 18 and 6 flows of 1 Mbps on 30 Mbps links leave 12 and 24 Mbps
    kb = build_knowledge_base(_two_link_topology(), LinkState(np.array([18.0, 6.0])),
                              GradingConfig(), np.random.default_rng(0))
    for a, b, free in ((0, 1, 12.0), (1, 2, 24.0)):
        assert kb.available_on(a, b) == kb.available_on(b, a) == free
    for a, b in ((0, 2), (2, 0), (1, 1), (2, 3)):
        with pytest.raises(ValueError, match=f"no link between {a} and {b} "):
            kb.available_on(a, b)
    # a hand-built key that no lookup would reach is refused when it is built
    for key in ((1, 0), (2, 2)):
        with pytest.raises(ValueError, match=re.escape(f"link key {key} must be")):
            KnowledgeBase(link_available_mbps={(0, 1): 5.0, key: 5.0})


# ---------------------------------------------------------------- link snapshot

@pytest.fixture(params=["generated", "loaded"])
def snapshot_topology(request, tmp_path):
    topo = generate_topology(120, 0.2, 7)
    if request.param == "loaded":
        save_topology(topo, tmp_path / "topology.json")
        topo = load_topology(tmp_path / "topology.json")
    return topo


def test_link_snapshot_reads_as_a_dict_of_the_free_column(snapshot_topology):
    topo, config = snapshot_topology, GradingConfig()
    # neither generating nor loading a topology builds its link index
    assert "index" not in topo.edges.__dict__
    states = sample_link_states(len(topo.links), np.random.default_rng(3), capacity_mbps=30.0)
    kb = build_knowledge_base(topo, states, config, np.random.default_rng(4))
    free = _grade_columns(topo.edges, states, config, np.random.default_rng(4))[0]
    expected = dict(zip(topo.edges.keys, free.tolist()))
    snapshot = kb.link_available_mbps
    assert isinstance(snapshot, LinkSnapshot)
    assert snapshot == expected and expected == snapshot
    assert list(snapshot.items()) == list(expected.items())
    assert len(snapshot) == len(topo.links) and repr(snapshot) == repr(expected)
    assert all(type(v) is float for v in snapshot.values())
    assert np.array(list(snapshot.values())).tobytes() == free.tobytes()
    # a knowledge base built from the dict holds the same snapshot in the same form
    rebuilt = KnowledgeBase(kb.records, expected)
    assert isinstance(rebuilt.link_available_mbps, LinkSnapshot) and rebuilt == kb

    a, b = next((a, b) for a in range(topo.n) for b in range(a + 1, topo.n)
                if (a, b) not in topo.edges.index)
    with pytest.raises(KeyError):
        snapshot[(a, b)]
    with pytest.raises(ValueError, match=f"no link between {b} and {a} "):
        kb.available_on(b, a)
    with pytest.raises(TypeError):
        snapshot[topo.edges.keys[0]] = 1.0

    again = build_knowledge_base(topo, states, config, np.random.default_rng(5))
    assert again.link_available_mbps.index is snapshot.index is topo.edges.index


def test_regrading_keeps_one_float_per_link():
    # Once the topology's link index exists, a knowledge base of an n=1024
    # topology (about 84k links) keeps its records and one float array; a
    # dict of its links held about 4.7 MiB.
    topo = generate_topology(1024, 0.2, 11)
    rng = np.random.default_rng(5)
    states = sample_link_states(len(topo.links), rng, capacity_mbps=30.0)
    build_knowledge_base(topo, states, GradingConfig(), rng)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kb = build_knowledge_base(topo, states, GradingConfig(), rng)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kb.link_available_mbps) == len(topo.links)
    assert after - before < 1.5 * 2 ** 20


# ---------------------------------------------------------------- selection

def _kb_with_priorities(priorities):
    records = {
        i: GradeRecord(node=i, priority=p, delay_s=0.0,
                       available_bw_mbps=10.0, grade=0.5)
        for i, p in enumerate(priorities)
    }
    return KnowledgeBase(records=records)


def test_select_best_classes():
    kb = _kb_with_priorities([1, 2, 3, 4, 5, 6])
    topo = generate_topology(6, 0.5, 0)
    assert select_feasible(topo, kb, "best-classes") == {0, 1, 2}


def test_select_literal():
    kb = _kb_with_priorities([1, 2, 3, 4, 5, 6])
    topo = generate_topology(6, 0.5, 0)
    assert select_feasible(topo, kb, "literal") == {2, 3, 4, 5}


def test_select_all_best_nodes():
    kb = _kb_with_priorities([1, 1, 1])
    topo = generate_topology(3, 0.5, 0)
    assert select_feasible(topo, kb, "best-classes") == {0, 1, 2}
    assert select_feasible(topo, kb, "literal") == set()


def test_select_empty_kb_raises():
    topo = generate_topology(3, 0.5, 0)
    with pytest.raises(EmptyKnowledgeBaseError):
        select_feasible(topo, KnowledgeBase(), "best-classes")
    with pytest.raises(ValueError):
        select_feasible(topo, _kb_with_priorities([1]), "bogus")


def _select_by_records(kb, mode):
    # the selection as a comprehension over the records, read afresh
    keep = (lambda p: p <= 3) if mode == "best-classes" else (lambda p: p >= 3)
    return {n for n, rec in kb.records.items() if keep(rec.priority)}


def test_selection_is_stored_once_per_knowledge_base():
    # The first selection under a mode is stored in the knowledge base and
    # every later call returns that very object; each mode stores its own.
    topo = generate_topology(40, 0.2, 5)
    built = build_knowledge_base(topo, sample_link_states(len(topo.links),
                                                          np.random.default_rng(5)),
                                 GradingConfig(), np.random.default_rng(6))
    hand = _kb_with_priorities([1, 2, 3, 4, 5, 6, 3, 1])
    for kb in (built, hand):
        for mode in ("best-classes", "literal"):
            first = select_feasible(topo, kb, mode)
            assert isinstance(first, frozenset)
            assert first == _select_by_records(kb, mode)
            assert all(select_feasible(topo, kb, mode) is first for _ in range(3))
        assert (select_feasible(topo, kb, "best-classes")
                is not select_feasible(topo, kb, "literal"))


def test_knowledge_bases_never_share_a_selection():
    topo = generate_topology(8, 0.5, 0)
    a, b = _kb_with_priorities([1, 2, 3, 4]), _kb_with_priorities([1, 2, 3, 4])
    first = select_feasible(topo, a)
    second = select_feasible(topo, b)
    assert first == second and first is not second
    # a knowledge base built from another's records selects for itself
    c = KnowledgeBase(records=dict(a.records))
    assert select_feasible(topo, c) is not first
    other = _kb_with_priorities([4, 5, 1])
    assert select_feasible(topo, other) == {2}
    assert select_feasible(topo, a) is first


def test_stored_selection_takes_no_part_in_eq_or_repr():
    kb, fresh = _kb_with_priorities([1, 4, 2]), _kb_with_priorities([1, 4, 2])
    before = repr(kb)
    select_feasible(generate_topology(3, 0.5, 0), kb, "literal")
    assert kb == fresh
    assert repr(kb) == before == repr(fresh)
    assert "_selected" not in repr(kb)
    with pytest.raises(TypeError):
        KnowledgeBase(_selected={})


def test_select_raises_on_every_call():
    # nothing is stored for an empty knowledge base or an unknown mode
    topo = generate_topology(3, 0.5, 0)
    empty, kb = KnowledgeBase(), _kb_with_priorities([1, 5])
    select_feasible(topo, kb, "best-classes")
    for _ in range(2):
        with pytest.raises(EmptyKnowledgeBaseError):
            select_feasible(topo, empty, "best-classes")
        with pytest.raises(EmptyKnowledgeBaseError):
            select_feasible(topo, empty, "bogus")
        with pytest.raises(ValueError, match="unknown selection mode"):
            select_feasible(topo, kb, "bogus")
    assert select_feasible(topo, kb, "literal") == {1}


# ---------------------------------------------------------------- knowledge base

def test_build_kb_deterministic():
    topo = generate_topology(30, 0.2, 4)
    cfg = GradingConfig()
    kbs = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        states = sample_link_states(len(topo.links), rng, capacity_mbps=30.0)
        kbs.append(build_knowledge_base(topo, states, cfg, rng))
    assert kbs[0].records == kbs[1].records
    assert kbs[0].link_available_mbps == kbs[1].link_available_mbps


def test_build_kb_idle_network_best_classes():
    # idle links, guaranteed resources, tiny arrival rate: only the delay
    # branch can demote a node, so priorities stay in {1, 2}
    topo = generate_topology(25, 0.25, 8)
    idle = LinkState(0.0, 0.0, 1.0)
    cfg = GradingConfig(resource_prob=1.0, alpha=1e-6, lifetime_threshold=1e-9)
    kb = build_knowledge_base(topo, idle, cfg, np.random.default_rng(1))
    assert set(kb.records) == set(range(topo.n))
    assert all(rec.priority in (1, 2) for rec in kb.records.values())
    assert all(rec.grade == pytest.approx(1.0) for rec in kb.records.values())


def test_build_kb_zero_lifetime_all_dead():
    topo = generate_topology(20, 0.25, 8)
    cfg = GradingConfig(lifetime_scale=1e-12, lifetime_threshold=20.0)
    kb = build_knowledge_base(topo, LinkState(), cfg, np.random.default_rng(1))
    assert all(rec.priority == 6 for rec in kb.records.values())
    assert select_feasible(topo, kb, "best-classes") == set()


def test_build_kb_saturated_links_mark_delay():
    topo = generate_topology(20, 0.25, 8)
    saturated = LinkState(60.0, 0.0, 1.0)
    cfg = GradingConfig(resource_prob=1.0, alpha=1e-6, lifetime_threshold=1e-9,
                        congestion_threshold=0.9)
    kb = build_knowledge_base(topo, saturated, cfg, np.random.default_rng(1))
    # saturated everywhere: mean free fraction 0 -> congestion wins at P4
    assert all(rec.priority == 4 for rec in kb.records.values())
    assert all(math.isinf(rec.delay_s) for rec in kb.records.values())
    assert all(rec.available_bw_mbps == 0.0 for rec in kb.records.values())


def test_grade_dump_schema():
    topo = generate_topology(10, 0.3, 3)
    kb = build_knowledge_base(topo, LinkState(), GradingConfig(), np.random.default_rng(5))
    rows = grade_dump(kb, "best-classes")
    assert len(rows) == 10
    assert [row["id"] for row in rows] == sorted(row["id"] for row in rows)
    assert set(rows[0]) == {"id", "priority", "delay_s", "avail_bw_mbps", "grade", "mode"}
    assert all(row["mode"] == "best-classes" for row in rows)


def test_grade_dump_writes_null_on_saturation(tmp_path):
    # Links 0-1 and 2-3 of 2 Mbps carry 2 and 1 flows of 1 Mbps: the first
    # is saturated, so grading records inf for nodes 0 and 1, which the dump
    # writes as None and the saved JSON as null; nodes 2 and 3 wait 1.0 s.
    nodes = [Node(i, 0.2 * i + 0.1, 0.5, _qos()) for i in range(4)]
    topo = Topology(seed=0, nodes=nodes, links=[Link(0, 1, 2.0), Link(2, 3, 2.0)])
    kb = build_knowledge_base(topo, LinkState(np.array([2.0, 1.0])), GradingConfig(),
                              np.random.default_rng(0))
    assert [kb.records[v].delay_s for v in range(4)] == [math.inf, math.inf, 1.0, 1.0]
    delays = [row["delay_s"] for row in grade_dump(kb, "best-classes")]
    assert delays == [None, None, 1.0, 1.0] and type(delays[2]) is float
    path = tmp_path / "grades.json"
    save_grade_dump(kb, "best-classes", path)
    assert [row["delay_s"] for row in json.loads(path.read_text())] == delays
    assert path.read_text().count('"delay_s": null') == 2
