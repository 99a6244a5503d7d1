import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradednet.grading import (
    DelayInputs,
    EmptyKnowledgeBaseError,
    GradeRecord,
    GradingConfig,
    KnowledgeBase,
    SaturatedChannelError,
    average_delay,
    build_knowledge_base,
    grade_dump,
    level1_priority,
    select_feasible,
)
from gradednet.topology import Link, Node, QosInputs, Topology, generate_topology
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

def test_delay_zero_flows():
    d = DelayInputs(lam=(0.0, 0.0), gamma_total=1.0, mu=1.0, capacities=(2.0, 3.0))
    assert average_delay(d) == 0.0


def test_delay_single_channel_reference():
    d = DelayInputs(lam=(1.0,), gamma_total=1.0, mu=1.0, capacities=(2.0,))
    assert average_delay(d) == pytest.approx(1.0, abs=1e-12)


def test_delay_two_channel_reference():
    d = DelayInputs(lam=(1.0, 1.0), gamma_total=2.0, mu=1.0, capacities=(2.0, 3.0))
    assert average_delay(d) == pytest.approx(0.75, abs=1e-12)


def test_delay_saturated_channel_raises():
    d = DelayInputs(lam=(2.0,), gamma_total=2.0, mu=1.0, capacities=(2.0,))
    with pytest.raises(SaturatedChannelError):
        average_delay(d)


def test_delay_overflow_is_inf_not_saturation():
    # subnormal capacities: mu*C > lambda, but 1 / (mu*C - lambda) overflows
    d = DelayInputs(lam=(1e-310,), gamma_total=1e-310, mu=1.0, capacities=(2e-310,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert average_delay(d) == math.inf


def test_delay_increases_with_flow():
    previous = 0.0
    for lam in (0.5, 1.0, 1.5, 1.9):
        d = DelayInputs(lam=(lam,), gamma_total=lam, mu=1.0, capacities=(2.0,))
        value = average_delay(d)
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
    return DelayInputs(tuple(lam), gamma_total, mu, tuple(capacities))


@settings(max_examples=300, deadline=None)
@given(_delay_inputs())
def test_delay_matches_per_channel_rule(d):
    # the oracle states the rule one channel at a time, in plain Python
    if any(d.mu * c <= lam for lam, c in zip(d.lam, d.capacities)):
        with pytest.raises(SaturatedChannelError):
            average_delay(d)
    elif not any(d.lam):
        assert average_delay(d) == 0.0
    else:
        expected = 0.0
        for lam, c in zip(d.lam, d.capacities):
            expected += (lam / d.gamma_total) * (1.0 / (d.mu * c - lam))
        assert math.isclose(average_delay(d), expected, rel_tol=1e-12)


def test_delay_inputs_validation():
    with pytest.raises(ValueError):
        DelayInputs(lam=(), gamma_total=1.0, mu=1.0, capacities=())
    with pytest.raises(ValueError):
        DelayInputs(lam=(1.0,), gamma_total=1.0, mu=1.0, capacities=(1.0, 2.0))
    with pytest.raises(ValueError):
        DelayInputs(lam=(1.0,), gamma_total=1.0, mu=0.0, capacities=(1.0,))


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
