import random

import pytest

from gradednet.bench import (
    TrialRecord,
    convergence_ratio,
    emit_plot_data,
    load_records_csv,
    pick_endpoints,
    prepare_trial,
    run_suite,
    run_trial,
    search,
    summarize,
    summary_to_dict,
    trial_seed,
    write_records_csv,
)
from gradednet.config import RunConfig
from gradednet.optimizers import Fitness, RouteResult
from gradednet.topology import Link, Node, QosInputs, Topology, generate_topology

FAST = RunConfig(colony_size=6, population_size=6, max_cycles=8, generations=8)


def test_trial_deterministic():
    a = run_trial(15, 42, FAST)
    b = run_trial(15, 42, FAST)
    assert a.to_row() == b.to_row()
    assert a.abc == b.abc and a.ga == b.ga


def test_trial_protocol_builds_no_link(monkeypatch):
    # generate, grade, prune and both searches run on the edge arrays alone
    def no_link(*args):
        raise AssertionError("a Link was built")

    monkeypatch.setattr("gradednet.topology.Link", no_link)
    seed = trial_seed(42, 64, 0)  # a trial with a route
    trial = prepare_trial(64, seed, RunConfig())
    assert search(trial, "abc", RunConfig(), seed).found
    assert search(trial, "ga", RunConfig(), seed).found
    # counting the links builds none; reading one does, so the patch bites
    assert len(trial.topology.links) == len(trial.topology.edges.keys)
    with pytest.raises(AssertionError, match="a Link was built"):
        trial.topology.links[0]


def test_trial_selected_subset():
    for seed in (1, 2, 3):
        rec = run_trial(15, seed, FAST)
        assert rec.n_selected <= rec.n_total
        assert rec.source != rec.destination


def test_trial_shares_mode():
    rec = run_trial(15, 5, FAST.replace(selection_mode="literal"))
    assert rec.selection_mode == "literal"


def test_endpoints_separated():
    topo = generate_topology(64, 0.2, 3)
    for seed in range(10):
        s, d = pick_endpoints(topo, random.Random(seed))
        dx = topo.nodes[s].x - topo.nodes[d].x
        dy = topo.nodes[s].y - topo.nodes[d].y
        assert dx * dx + dy * dy >= 0.25 - 1e-12


def test_endpoints_fall_back_to_most_separated_pair():
    # no pair is 0.5 apart, so every one of the 100 * n draws is made and
    # rejected before the most separated pair, (1, 2), is returned
    nodes = [Node(i, x, y, QosInputs(network_lifetime=50.0))
             for i, (x, y) in enumerate([(0.1, 0.1), (0.2, 0.1), (0.1, 0.3)])]
    topo = Topology(seed=0, nodes=nodes, links=[Link(0, 1, 30.0), Link(1, 2, 30.0)])
    rng, reference = random.Random(5), random.Random(5)
    assert pick_endpoints(topo, rng) == (1, 2)
    for _ in range(300):
        reference.randrange(3)
        reference.randrange(2)
    assert rng.getstate() == reference.getstate()


def test_suite_counts_and_fractions():
    summary, records = run_suite(FAST.replace(node_counts=(15, 16), seeds_per_n=3))
    assert len(records) == 6
    assert set(summary.per_n) == {15, 16}
    assert summary.per_n[15]["trials"] == 3
    quality = summary.quality
    total = quality["ga_better"] + quality["equal"] + quality["abc_better"]
    if quality["compared_trials"]:
        assert total == pytest.approx(1.0)


def test_suite_order_independent():
    summary, records = run_suite(FAST.replace(node_counts=(15, 16), seeds_per_n=3))
    rows = [r.to_row() for r in records]
    shuffled = list(rows)
    random.Random(0).shuffle(shuffled)
    assert summarize(shuffled) == summarize(rows)


def test_default_sweep_has_eight_counts():
    assert RunConfig().node_counts == (15, 16, 32, 64, 128, 256, 512, 1024)


def test_trial_seed_stable():
    assert trial_seed(42, 64, 0) == trial_seed(42, 64, 0)
    assert trial_seed(42, 64, 0) != trial_seed(42, 64, 1)
    assert trial_seed(42, 15, 0) != trial_seed(42, 64, 0)


def test_convergence_ratio_cases():
    assert convergence_ratio(4.0, 10.0) == pytest.approx(0.6)
    assert convergence_ratio(7.0, 7.0) == 0.0
    assert convergence_ratio(10.0, 4.0) == pytest.approx(-1.5)
    assert convergence_ratio(1.0, 0.0) is None
    # a median is None when no trial at that n found a path
    assert convergence_ratio(None, 4.0) is None
    assert convergence_ratio(4.0, None) is None
    assert convergence_ratio(None, None) is None


def test_csv_round_trip(tmp_path):
    summary, records = run_suite(FAST.replace(node_counts=(15,), seeds_per_n=4))
    rows = [r.to_row() for r in records]
    path = tmp_path / "results.csv"
    write_records_csv(rows, path)
    loaded = load_records_csv(path)
    assert loaded == rows
    assert summarize(loaded) == summary
    header = path.read_text().splitlines()[0]
    assert header == ("n,seed,mode,n_selected,abc_hops,ga_hops,"
                      "abc_conv,ga_conv,abc_fit,ga_fit,path_found_abc,path_found_ga")


def test_summary_json_shape():
    summary, _ = run_suite(FAST.replace(node_counts=(15,), seeds_per_n=2))
    doc = summary_to_dict(summary)
    assert set(doc) == {"mode", "quality", "per_n"}
    assert set(doc["per_n"]["15"]) == {
        "trials", "path_found_abc", "path_found_ga", "abc_median_hops",
        "ga_median_hops", "abc_median_conv", "ga_median_conv", "convergence_ratio",
    }


def _fixed_record(found=True):
    trace = (5.0, 8.0, 8.0)
    route = RouteResult(best_path=(0, 1, 2) if found else None,
                        best_fitness=Fitness(8.0 if found else 0.0),
                        hop_count=2 if found else 0,
                        convergence_cycle=1, fitness_trace=trace)
    return TrialRecord(n_total=15, n_selected=10, abc=route, ga=route,
                       seed=7, selection_mode="best-classes")


def test_plot_data_one_row_per_algorithm():
    rows = emit_plot_data([_fixed_record()], "throughput")
    assert len(rows) == 2
    assert [r[2] for r in rows] == ["abc", "ga"]
    assert all(r[:2] == (15, 7) for r in rows)
    assert all(r[3] == 1 and r[4] == pytest.approx(8.0) for r in rows)


def test_plot_data_intensity_recomputable():
    rows = emit_plot_data([_fixed_record()], "traffic-intensity",
                          packet_size_bits=1600, link_capacity_mbps=30.0,
                          flow_rate_mbps=1.0)
    # bottleneck 8 Mbps free => 22 flows on the link
    expected = 1600 * 22.0 / 8e6
    assert all(r[4] == pytest.approx(expected) for r in rows)


def test_plot_data_skips_missing_paths():
    rows = emit_plot_data([_fixed_record(found=False)], "throughput")
    assert rows == []


def test_plot_data_validation():
    with pytest.raises(ValueError):
        emit_plot_data([], "throughput")
    with pytest.raises(ValueError):
        emit_plot_data([_fixed_record()], "bogus")


def test_plot_data_deterministic_order():
    records = [_fixed_record() for _ in range(3)]
    records[0].seed, records[1].seed, records[2].seed = 9, 3, 5
    rows = emit_plot_data(records, "throughput")
    assert [r[1] for r in rows] == [3, 3, 5, 5, 9, 9]
