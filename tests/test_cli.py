import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gradednet.cli
from gradednet.cli import main
from gradednet.config import RunConfig


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_topology(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = _run(capsys, "generate", "--n", "15", "--seed", "42",
                           "--out", str(out))
    assert code == 0
    assert "15 nodes" in stdout
    doc = json.loads((out / "topology.json").read_text())
    assert len(doc["nodes"]) == 15
    assert (out / "run_config.json").exists()


def test_generate_byte_identical_rerun(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run(capsys, "generate", "--n", "20", "--seed", "9", "--out", str(out_a))[0] == 0
    assert _run(capsys, "generate", "--n", "20", "--seed", "9", "--out", str(out_b))[0] == 0
    assert (out_a / "topology.json").read_bytes() == (out_b / "topology.json").read_bytes()
    assert (out_a / "run_config.json").read_bytes() == (out_b / "run_config.json").read_bytes()


def test_generate_usage_error(tmp_path, capsys):
    code, _, err = _run(capsys, "generate", "--n", "1", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "error" in err.lower()


def test_unknown_flag_exits_one(capsys):
    assert main(["generate", "--bogus"]) == 1


def test_io_failure_exits_two(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    code, _, err = _run(capsys, "generate", "--n", "10", "--seed", "1",
                        "--out", str(blocker / "sub"))
    assert code == 2
    assert "i/o" in err.lower()


def test_grade_command(tmp_path, capsys):
    out = tmp_path / "run"
    _run(capsys, "generate", "--n", "15", "--seed", "42", "--out", str(out))
    code, stdout, _ = _run(capsys, "grade", "--topology", str(out / "topology.json"),
                           "--seed", "42", "--out", str(out))
    assert code == 0
    rows = json.loads((out / "grade_dump.json").read_text())
    assert len(rows) == 15
    assert all(row["mode"] == "best-classes" for row in rows)
    assert "selected" in stdout


def test_route_both_algorithms(tmp_path, capsys):
    out = tmp_path / "run"
    _run(capsys, "generate", "--n", "30", "--seed", "42", "--out", str(out))
    code, stdout, _ = _run(capsys, "route", "--topology", str(out / "topology.json"),
                           "--source", "0", "--destination", "29",
                           "--seed", "42", "--out", str(out))
    assert code == 0
    assert "[abc]" in stdout and "[ga]" in stdout
    assert (out / "grade_dump.json").exists()
    assert (out / "route_abc.json").exists()
    assert (out / "route_ga.json").exists()
    doc = json.loads((out / "route_abc.json").read_text())
    assert doc["source"] == 0 and doc["destination"] == 29


def test_route_bad_ids_exit_one(tmp_path, capsys):
    out = tmp_path / "run"
    _run(capsys, "generate", "--n", "10", "--seed", "1", "--out", str(out))
    code, _, err = _run(capsys, "route", "--topology", str(out / "topology.json"),
                        "--source", "0", "--destination", "99", "--out", str(out))
    assert code == 1
    code, _, err = _run(capsys, "route", "--topology", str(out / "topology.json"),
                        "--source", "3", "--destination", "3", "--out", str(out))
    assert code == 1


def test_route_no_path_is_success(tmp_path, capsys):
    # island pair: destination quadrant holds no connection to the source
    out = tmp_path / "run"
    topology = {
        "seed": 0,
        "nodes": [
            {"id": 0, "x": 0.1, "y": 0.1, "lifetime": 90.0, "density": 0, "resource": True},
            {"id": 1, "x": 0.15, "y": 0.12, "lifetime": 90.0, "density": 0, "resource": True},
            {"id": 2, "x": 0.9, "y": 0.9, "lifetime": 90.0, "density": 0, "resource": True},
            {"id": 3, "x": 0.85, "y": 0.88, "lifetime": 90.0, "density": 0, "resource": True},
        ],
        "links": [
            {"a": 0, "b": 1, "capacity_mbps": 30.0},
            {"a": 2, "b": 3, "capacity_mbps": 30.0},
        ],
    }
    out.mkdir(parents=True)
    (out / "topology.json").write_text(json.dumps(topology))
    code, stdout, _ = _run(capsys, "route", "--topology", str(out / "topology.json"),
                           "--source", "0", "--destination", "2",
                           "--seed", "7", "--out", str(out))
    assert code == 0
    assert "path not available" in stdout


def test_route_destination_at_source_position_writes_nothing(tmp_path, capsys):
    node = {"x": 0.5, "y": 0.5, "lifetime": 90.0, "density": 0, "resource": True}
    topology = {"seed": 1, "nodes": [dict(node, id=0), dict(node, id=1)],
                "links": [{"a": 0, "b": 1, "capacity_mbps": 30.0}]}
    path = tmp_path / "topology.json"
    path.write_text(json.dumps(topology))
    out = tmp_path / "route"
    code, _, err = _run(capsys, "route", "--topology", str(path), "--source", "0",
                        "--destination", "1", "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "position" in err
    assert not out.exists()


def test_bench_sweep(tmp_path, capsys):
    out = tmp_path / "bench"
    code, stdout, _ = _run(capsys, "bench", "--node-counts", "15,16",
                           "--seeds-per-n", "2", "--seed", "42", "--out", str(out),
                           "--config", _fast_config(tmp_path))
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 4  # header + 2 counts x 2 seeds
    assert (out / "summary.json").exists()
    assert (out / "plot_traffic_intensity.csv").exists()
    assert (out / "plot_throughput.csv").exists()
    assert "quality over" in stdout


# sha256 of the stdout table of `bench --node-counts 32,64,128 --seeds-per-n 4
# --seed 3`: every line but the final "wrote ...", which names the output paths.
BENCH_TABLE_SHA256 = "830d044f4e8aa13a20286ac1fdbeafee2dec84f35b192362751e077df4c2099d"


def test_bench_stdout_table_pinned(tmp_path, capsys):
    code, stdout, _ = _run(capsys, "bench", "--node-counts", "32,64,128", "--seeds-per-n", "4",
                           "--seed", "3", "--out", str(tmp_path / "bench"))
    assert code == 0
    lines = stdout.splitlines(keepends=True)
    assert lines[-1].startswith("wrote ")
    assert hashlib.sha256("".join(lines[:-1]).encode()).hexdigest() == BENCH_TABLE_SHA256


def test_bench_rerun_identical(tmp_path, capsys):
    cfg = _fast_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["bench", "--node-counts", "15", "--seeds-per-n", "2", "--seed", "5",
            "--config", cfg]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    for name in ("results.csv", "summary.json", "plot_throughput.csv", "run_config.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_config_file_overridden_by_flags(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"n": 12, "seed": 1}))
    out = tmp_path / "run"
    code, stdout, _ = _run(capsys, "generate", "--config", str(cfg_path),
                           "--n", "18", "--out", str(out))
    assert code == 0
    assert "18 nodes" in stdout
    resolved = json.loads((out / "run_config.json").read_text())
    assert resolved["n"] == 18
    assert resolved["seed"] == 1


def test_bad_config_key_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"frobnicate": 1}))
    code, _, err = _run(capsys, "generate", "--config", str(cfg_path),
                        "--out", str(tmp_path / "x"))
    assert code == 1


def test_topology_missing_node_field_exits_one(tmp_path, capsys):
    out = tmp_path / "run"
    _run(capsys, "generate", "--n", "12", "--seed", "3", "--out", str(out))
    doc = json.loads((out / "topology.json").read_text())
    del doc["nodes"][0]["lifetime"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    for command in (["grade"], ["route", "--source", "0", "--destination", "5"]):
        code, _, err = _run(capsys, *command, "--topology", str(broken),
                            "--out", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("error:") and "lifetime" in err


def test_config_field_of_wrong_type_exits_one(tmp_path, capsys):
    for doc in ({"n": "abc"}, {"link_density": True}, {"colony_size": 2.5},
                {"colony_size": None}, {"abc_limit": 2.5}, {"node_counts": 64}, [1, 2]):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        code, _, err = _run(capsys, "generate", "--config", str(cfg_path),
                            "--out", str(tmp_path / "x"))
        assert code == 1, doc
        assert err.startswith("error:"), doc


def test_grade_empty_topology_exits_one(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"seed": 1, "nodes": [], "links": []}))
    out = tmp_path / "out"
    code, _, err = _run(capsys, "grade", "--topology", str(path), "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "nodes" in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("resource", "false"), ("id", 1.7), ("density", "3"), ("lifetime", True), ("x", "0.5"),
])
def test_topology_node_field_of_wrong_type_exits_one(tmp_path, capsys, field, value):
    out = tmp_path / "run"
    _run(capsys, "generate", "--n", "12", "--seed", "3", "--out", str(out))
    doc = json.loads((out / "topology.json").read_text())
    doc["nodes"][0][field] = value
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    for command in (["grade"], ["route", "--source", "0", "--destination", "5"]):
        code, _, err = _run(capsys, *command, "--topology", str(broken),
                            "--out", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("error:") and repr(field) in err


def test_bench_node_count_below_two_writes_nothing(tmp_path, capsys):
    out = tmp_path / "bench"
    code, _, err = _run(capsys, "bench", "--node-counts", "1", "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "node_counts" in err
    assert not out.exists()
    # so is an empty sweep, and a list that does not parse names its flag
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"node_counts": []}))
    code, _, err = _run(capsys, "bench", "--config", str(cfg_path), "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "node_counts" in err
    assert not out.exists()
    code, _, err = _run(capsys, "bench", "--node-counts", "64,", "--out", str(out))
    assert code == 1 and "--node-counts" in err
    assert not out.exists()
    # a repeated node count would count the same trials twice
    code, _, err = _run(capsys, "bench", "--node-counts", "16,16", "--seeds-per-n", "2",
                        "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "node_counts" in err
    assert not out.exists()
    # search settings are checked when the config is built, before any output
    for doc in ({"colony_size": 0}, {"max_cycles": 0}, {"population_size": 1},
                {"abc_limit": 0}, {"mutation_rate": 2}):
        cfg_path.write_text(json.dumps(doc))
        code, _, err = _run(capsys, "bench", "--config", str(cfg_path), "--out", str(out))
        assert code == 1, doc
        assert err.startswith("error:"), doc
        assert not out.exists(), doc
    # so are the link and traffic rates, which only grading used to check,
    # the packet size, which only the plot writer used to check, and the
    # ranges of the grading draws
    for doc in ({"flow_rate_mbps": 0}, {"max_bandwidth_mbps": 0}, {"mu": 0},
                {"mu": -1.5}, {"flow_rate_mbps": -2}, {"packet_size_bytes": 0},
                {"alpha": 0}, {"arrival_horizon_s": 0}, {"grade_time_s": -1},
                {"lifetime_scale": -5}, {"resource_prob": 2}, {"resource_prob": -0.5}):
        cfg_path.write_text(json.dumps(doc))
        for command in ("bench", "generate"):
            code, _, err = _run(capsys, command, "--config", str(cfg_path), "--out", str(out))
            assert code == 1, (command, doc)
            assert err.startswith("error:") and next(iter(doc)) in err, (command, doc)
            assert not out.exists(), (command, doc)


def _command_args(command, topology):
    """The flags each command needs besides the config ones, on a small run."""
    return {"generate": {"--n": "12"},
            "grade": {"--topology": topology},
            "route": {"--topology": topology, "--source": "0", "--destination": "5"},
            "bench": {"--node-counts": "16", "--seeds-per-n": "1"}}[command]


@pytest.mark.parametrize("command, flag, text, field, value", [
    ("generate", "--n", "18", "n", 18),
    ("generate", "--density", "0.35", "link_density", 0.35),
    ("bench", "--density", "0.35", "link_density", 0.35),
    ("grade", "--mode", "literal", "selection_mode", "literal"),
    ("route", "--mode", "literal", "selection_mode", "literal"),
    ("bench", "--node-counts", "16,20", "node_counts", [16, 20]),
    ("bench", "--seeds-per-n", "2", "seeds_per_n", 2),
    ("grade", "--seed", "7", "seed", 7),
])
def test_flag_sets_the_field_it_names(tmp_path, capsys, command, flag, text, field, value):
    assert RunConfig().to_dict()[field] != value
    _run(capsys, "generate", "--n", "12", "--seed", "3", "--out", str(tmp_path / "gen"))
    args = _command_args(command, str(tmp_path / "gen" / "topology.json"))
    args[flag] = text
    out = tmp_path / "run"
    code, _, _ = _run(capsys, command, *(v for item in args.items() for v in item),
                      "--out", str(out))
    assert code == 0
    # --out sets out_dir: the directory the resolved config is written to, so
    # run_config.json itself leaves that field out
    doc = json.loads((out / "run_config.json").read_text())
    assert doc[field] == value
    assert "out_dir" not in doc


def test_negative_seed_names_the_field_and_writes_nothing(tmp_path, capsys):
    _run(capsys, "generate", "--n", "12", "--seed", "3", "--out", str(tmp_path / "gen"))
    topology = str(tmp_path / "gen" / "topology.json")
    out = tmp_path / "run"
    for command in ("generate", "grade", "route", "bench"):
        args = _command_args(command, topology)
        code, _, err = _run(capsys, command, *(v for item in args.items() for v in item),
                            "--seed", "-1", "--out", str(out))
        assert code == 1, command
        assert err.startswith("error:") and "seed" in err, command
        assert not out.exists(), command


def test_zero_flow_rate_exits_one(tmp_path, capsys):
    _run(capsys, "generate", "--n", "12", "--seed", "3", "--out", str(tmp_path / "gen"))
    topology = str(tmp_path / "gen" / "topology.json")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"flow_rate_mbps": 0}))
    for command in (["grade", "--topology", topology],
                    ["route", "--topology", topology, "--source", "0", "--destination", "5"],
                    ["bench", "--node-counts", "16", "--seeds-per-n", "1"]):
        code, _, err = _run(capsys, *command, "--config", str(cfg_path),
                            "--out", str(tmp_path / "x"))
        assert code == 1, command
        assert err.startswith("error:") and "flow rate" in err, command


@pytest.mark.parametrize("text, field", [
    ('{"mu": NaN}', "mu"),
    ('{"lifetime_scale": Infinity}', "lifetime_scale"),
    ('{"bw_threshold_mbps": NaN}', "bw_threshold_mbps"),
    ('{"congestion_threshold": NaN}', "congestion_threshold"),
    pytest.param('{"mu": 1%s}' % ("0" * 400), "mu", id="mu-401-digit-int"),
    pytest.param('{"lifetime_threshold": -1%s}' % ("0" * 400), "lifetime_threshold",
                 id="lifetime_threshold-401-digit-int"),
    pytest.param('{"packet_size_bytes": 1%s}' % ("0" * 400), "packet_size_bytes",
                 id="packet_size_bytes-401-digit-int"),
])
def test_config_non_finite_number_exits_one(tmp_path, capsys, text, field):
    _run(capsys, "generate", "--n", "12", "--seed", "3", "--out", str(tmp_path / "gen"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    for command in (["grade"], ["route", "--source", "0", "--destination", "5"]):
        code, _, err = _run(capsys, *command, "--topology", str(tmp_path / "gen" / "topology.json"),
                            "--config", str(cfg_path), "--out", str(tmp_path / "x"))
        assert code == 1, command
        assert err.startswith("error:") and field in err, command
    assert not (tmp_path / "x").exists()


def test_deeply_nested_json_exits_one(tmp_path, capsys):
    # nesting beyond the interpreter's recursion limit is an error line, not a traceback
    nested = tmp_path / "nested.json"
    for command, depth in ((["grade", "--topology"], 100_000),
                           (["route", "--source", "0", "--destination", "1", "--topology"], 100_000),
                           (["bench", "--config"], 50_000)):
        nested.write_text("[" * depth)
        out = tmp_path / "out"
        code, _, err = _run(capsys, *command, str(nested), "--out", str(out))
        assert code == 1, command
        assert err.startswith("error:") and "nested" in err, command
        assert not out.exists()


@pytest.mark.parametrize("section, field, value", [
    ("links", "capacity_mbps", float("nan")),
    ("nodes", "lifetime", float("inf")),
    ("nodes", "x", float("nan")),
    pytest.param("links", "capacity_mbps", 10 ** 400, id="links-capacity_mbps-401-digit-int"),
    pytest.param("nodes", "lifetime", 10 ** 400, id="nodes-lifetime-401-digit-int"),
])
def test_topology_non_finite_number_exits_one(tmp_path, capsys, section, field, value):
    out = tmp_path / "run"
    _run(capsys, "generate", "--n", "12", "--seed", "3", "--out", str(out))
    doc = json.loads((out / "topology.json").read_text())
    doc[section][0][field] = value
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    for command in (["grade"], ["route", "--source", "0", "--destination", "5"]):
        code, _, err = _run(capsys, *command, "--topology", str(broken),
                            "--out", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("error:") and f"{section}[0] field {field!r}" in err


@pytest.mark.parametrize("fault, expected", [
    pytest.param(lambda first: {**first, "b": first["a"]}, "self-loop", id="self-loop"),
    pytest.param(lambda first: {**first, "a": -1}, "unknown node", id="endpoint-minus-1"),
    pytest.param(lambda first: {**first, "b": 12}, "unknown node", id="endpoint-n"),
    pytest.param(lambda first: {**first, "capacity_mbps": 0}, "capacity", id="capacity-0"),
    pytest.param(lambda first: {**first, "capacity_mbps": -1.0}, "capacity",
                 id="capacity-minus-1"),
    pytest.param(lambda first: {**first, "capacity_mbps": float("nan")}, "capacity",
                 id="capacity-nan"),
    pytest.param(lambda first: [first, first], "duplicate", id="duplicate-same-direction"),
    pytest.param(lambda first: [first, {**first, "a": first["b"], "b": first["a"]}],
                 "duplicate", id="duplicate-reversed"),
])
def test_topology_faulty_link_exits_one(tmp_path, capsys, fault, expected):
    # the first link is replaced by a faulty one, or by a link and its duplicate
    _run(capsys, "generate", "--n", "12", "--seed", "3", "--out", str(tmp_path / "gen"))
    doc = json.loads((tmp_path / "gen" / "topology.json").read_text())
    replaced = fault(doc["links"][0])
    doc["links"][:1] = replaced if isinstance(replaced, list) else [replaced]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    for command in (["grade"], ["route", "--source", "0", "--destination", "5"]):
        code, _, err = _run(capsys, *command, "--topology", str(broken),
                            "--out", str(tmp_path / "x"))
        assert code == 1, command
        assert err.startswith("error:") and expected in err, (command, err)
    assert not (tmp_path / "x").exists()


def test_run_config_from_older_run_still_loads(tmp_path, capsys):
    # refresh_period_s was a field of older releases; it is dropped on load
    cfg_path = tmp_path / "old_run_config.json"
    cfg_path.write_text(json.dumps({"n": 12, "seed": 3, "refresh_period_s": 30.0}))
    out = tmp_path / "gen"
    code, stdout, _ = _run(capsys, "generate", "--config", str(cfg_path), "--out", str(out))
    assert code == 0
    assert "12 nodes" in stdout


def test_run_config_has_no_retired_keys(tmp_path, capsys):
    out = tmp_path / "gen"
    assert _run(capsys, "generate", "--n", "12", "--out", str(out))[0] == 0
    doc = json.loads((out / "run_config.json").read_text())
    assert "refresh_period_s" not in doc
    # a run_config.json feeds back as --config and reproduces itself
    again = tmp_path / "again"
    assert _run(capsys, "generate", "--config", str(out / "run_config.json"),
                "--out", str(again))[0] == 0
    assert (again / "run_config.json").read_bytes() == (out / "run_config.json").read_bytes()


# sha256 of the route and grade artifacts of one small generate -> route/grade
# run.  They change only if grading, pruning or the searches change.  The
# route files were recorded before the route command was built on bench's
# protocol functions; the grade dumps were re-recorded when the level-2 grade
# became the sorted-order sum that the congestion check compares (8 of the 40
# grades moved, by at most 2.2e-16; every other field is unchanged).
PINNED_ROUTE = {
    "route/grade_dump.json": "531fbdffefcb35bea5a790d1470e818dbefc6eb606ff26c57ae9b8c98771418e",
    "route/route_abc.json": "184542d9d2d332fa0a29ad16fd1859294466b9b62fa0923fce3b2f5d41ffcfc9",
    "route/route_ga.json": "30bd7de75f96c4f0049159c7d99a2b25c014ead685a23a9ab21ebc3bc6feda0b",
    "grade/grade_dump.json": "531fbdffefcb35bea5a790d1470e818dbefc6eb606ff26c57ae9b8c98771418e",
}


@pytest.mark.parametrize("algo", ["abc", "ga", "both"])
def test_route_and_grade_artifacts_pinned(tmp_path, capsys, algo):
    # A single-algorithm route prints and writes only that algorithm's search,
    # and its file is byte-identical to the one the two-algorithm route writes.
    assert main(["generate", "--n", "40", "--seed", "7", "--out", str(tmp_path / "gen")]) == 0
    topology = str(tmp_path / "gen" / "topology.json")
    code, stdout, _ = _run(capsys, "route", "--topology", topology, "--source", "0",
                           "--destination", "2", "--seed", "7", "--algo", algo,
                           "--config", _fast_config(tmp_path), "--out", str(tmp_path / "route"))
    assert code == 0
    ran = ["abc", "ga"] if algo == "both" else [algo]
    for name in ("abc", "ga"):
        assert (f"[{name}]" in stdout) == (name in ran)
    assert sorted(p.name for p in (tmp_path / "route").glob("route_*.json")) == [
        f"route_{name}.json" for name in ran]
    assert main(["grade", "--topology", topology, "--seed", "7",
                 "--out", str(tmp_path / "grade")]) == 0
    skipped = {f"route/route_{name}.json" for name in ("abc", "ga") if name not in ran}
    expected = {name: digest for name, digest in PINNED_ROUTE.items() if name not in skipped}
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in expected}
    assert digests == expected


# sha256 of grade's grade_dump.json for an n=1024 topology (about 84k links),
# recorded before grading moved from per-node loops onto edge arrays.
PINNED_GRADE_1024 = "c588c7811f9c26a6d875b0fc6f0a324f292f6989381b8f9986a45b5c8269103c"


def test_grade_dump_pinned_at_n_1024(tmp_path, capsys):
    assert main(["generate", "--n", "1024", "--seed", "11", "--out", str(tmp_path / "gen")]) == 0
    assert main(["grade", "--topology", str(tmp_path / "gen" / "topology.json"),
                 "--seed", "11", "--out", str(tmp_path / "grade")]) == 0
    digest = hashlib.sha256((tmp_path / "grade" / "grade_dump.json").read_bytes()).hexdigest()
    assert digest == PINNED_GRADE_1024


# sha256 of topology.json and of stdout for `generate` run with `--out topo`,
# recorded while a generated topology still built its list of links.  They
# pin the links' order, orientation and capacity type as written.
PINNED_GENERATE = {
    (64, 9): ("edabaaf59178d1835336374493a165d44144809ad3a1dfcfb5e7e711e7b7996a",
              "362294802ef26152162e911992d09dbe12d4f182693f34d2ed34d269cd66bcce"),
    (1024, 11): ("0f2c9f185abe4ead3627ba8bdd541b953448390193b694af965ce8d54c9f68d3",
                 "5af473d0f0b488fe5d993a0473b7458443eebb5ab70b2b4f91088de80193e699"),
}


@pytest.mark.parametrize("n, seed", PINNED_GENERATE, ids=["64", "1024"])
def test_generate_output_pinned(tmp_path, capsys, monkeypatch, n, seed):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = _run(capsys, "generate", "--n", str(n), "--seed", str(seed),
                           "--out", "topo")
    assert code == 0
    assert (hashlib.sha256((tmp_path / "topo" / "topology.json").read_bytes()).hexdigest(),
            hashlib.sha256(stdout.encode()).hexdigest()) == PINNED_GENERATE[n, seed]


def _fast_config(tmp_path) -> str:
    path = tmp_path / "fast.json"
    if not path.exists():
        path.write_text(json.dumps({
            "colony_size": 5, "population_size": 5,
            "max_cycles": 6, "generations": 6,
        }))
    return str(path)


def test_grade_draws_link_loads_over_the_topology_capacities(tmp_path, capsys):
    # the topology's own 60 Mbps links bound the load draws, whatever
    # max_bandwidth_mbps the grading run is given
    cfg_path = tmp_path / "wide.json"
    cfg_path.write_text(json.dumps({"max_bandwidth_mbps": 60}))
    assert main(["generate", "--n", "40", "--seed", "5", "--config", str(cfg_path),
                 "--out", str(tmp_path / "gen")]) == 0
    topology = str(tmp_path / "gen" / "topology.json")
    assert main(["grade", "--topology", topology, "--seed", "5", "--config", str(cfg_path),
                 "--out", str(tmp_path / "with")]) == 0
    assert main(["grade", "--topology", topology, "--seed", "5",
                 "--out", str(tmp_path / "without")]) == 0
    assert ((tmp_path / "with" / "grade_dump.json").read_bytes()
            == (tmp_path / "without" / "grade_dump.json").read_bytes())


@pytest.mark.parametrize("doc", [{"alpha": 1e20}, {"arrival_horizon_s": 1e300},
                                 {"alpha": 1e10, "arrival_horizon_s": 1e10}])
def test_mean_arrivals_beyond_numpy_poisson_exits_one(tmp_path, capsys, doc):
    _run(capsys, "generate", "--n", "12", "--seed", "3", "--out", str(tmp_path / "gen"))
    topology = str(tmp_path / "gen" / "topology.json")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for command in ("generate", "grade", "route", "bench"):
        flags = [item for pair in _command_args(command, topology).items() for item in pair]
        code, _, err = _run(capsys, command, *flags, "--config", str(cfg_path),
                            "--out", str(out))
        assert code == 1, command
        assert err.startswith("error:") and "alpha * arrival_horizon_s" in err, command
        assert not out.exists(), command


def test_bench_node_count_too_large_for_numpy_writes_nothing(tmp_path, capsys):
    # numpy refuses the dimension before allocating anything; the sweep runs
    # before the output directory is made
    out = tmp_path / "out"
    code, _, err = _run(capsys, "bench", "--node-counts", "99999999999999999999",
                        "--seeds-per-n", "1", "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, doc, link_capacity", [
    ("bench", {"max_bandwidth_mbps": 1e308, "mu": 10.0}, None),
    ("bench", {"max_bandwidth_mbps": 1e308, "flow_rate_mbps": 0.01}, None),
    ("grade", {"mu": 10.0}, 1e308),
    ("route", {"mu": 10.0}, 1e308),
])
def test_overflowing_link_load_range_exits_one_and_writes_nothing(tmp_path, capsys, command,
                                                                  doc, link_capacity):
    _run(capsys, "generate", "--n", "12", "--seed", "3", "--out", str(tmp_path / "gen"))
    topology = tmp_path / "gen" / "topology.json"
    if link_capacity is not None:
        topo_doc = json.loads(topology.read_text())
        for link in topo_doc["links"]:
            link["capacity_mbps"] = link_capacity
        topology.write_text(json.dumps(topo_doc))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    flags = [item for pair in _command_args(command, str(topology)).items() for item in pair]
    code, _, err = _run(capsys, command, *flags, "--config", str(cfg_path), "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "flow_rate_mbps" in err and "mu" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, seed, doc, first_link_capacity", [
    (12, 3, {}, 5e-324),                         # the threshold overflows
    (12, 3, {"flow_rate_mbps": 2.0}, 5e-324),    # the channel underflows to 0
    (64, 9, {"delay_multiplier": 1e308, "flow_rate_mbps": 100.0}, None),
])
def test_grade_with_an_infinite_delay_threshold_is_quiet(tmp_path, capsys, n, seed, doc,
                                                         first_link_capacity):
    # a tiny channel, or a huge multiplier, makes the delay threshold inf;
    # grading still succeeds, with no warning
    _run(capsys, "generate", "--n", str(n), "--seed", str(seed), "--out", str(tmp_path / "gen"))
    topology = tmp_path / "gen" / "topology.json"
    if first_link_capacity is not None:
        topo_doc = json.loads(topology.read_text())
        topo_doc["links"][0]["capacity_mbps"] = first_link_capacity
        topology.write_text(json.dumps(topo_doc))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "grade", "--topology", str(topology), "--seed", str(seed),
                        "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert code == 0
    assert err == ""


def test_generate_out_of_memory_exits_one_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.46 TiB for an array")

    monkeypatch.setattr(gradednet.cli, "generate_topology", exhausted)
    out = tmp_path / "out"
    code, _, err = _run(capsys, "generate", "--n", "100000000000", "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "memory" in err and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------- input contract fuzz

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10 ** 400, -10 ** 400]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def _check_exit(code, err, out: Path) -> None:
    """The contract of main(): exit 0, 1 or 2, never a traceback, and a
    validation failure writes nothing."""
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err, err
    if code == 1:
        assert err.startswith("error:"), err
        assert not out.exists(), err


@pytest.fixture(scope="module")
def small_topology_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "gen"
    assert main(["generate", "--n", "12", "--seed", "3", "--out", str(out)]) == 0
    return json.loads((out / "topology.json").read_text())


def _topology_paths(doc) -> list[tuple]:
    """Every place in a topology document that holds one value: a top-level
    field, a whole node or link entry, or one field of one entry."""
    paths = [(key,) for key in doc]
    for section in ("nodes", "links"):
        for i, entry in enumerate(doc[section]):
            paths.append((section, i))
            paths.extend((section, i, key) for key in entry)
    return paths


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_grade_fuzz_one_field_replaced(small_topology_doc, capsys, data):
    path = data.draw(st.sampled_from(_topology_paths(small_topology_doc)), label="path")
    value = data.draw(_JSON_VALUES, label="value")
    doc = json.loads(json.dumps(small_topology_doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    with tempfile.TemporaryDirectory() as work:
        topology = Path(work) / "topology.json"
        topology.write_text(json.dumps(doc))
        out = Path(work) / "out"
        code, _, err = _run(capsys, "grade", "--topology", str(topology), "--seed", "3",
                            "--out", str(out))
        _check_exit(code, err, out)


# A value of the wrong JSON type for each kind of RunConfig field.
_WRONG_TYPE = {
    "int": st.floats() | st.text(max_size=6) | st.booleans() | st.none()
    | st.lists(st.integers(), max_size=2),
    "float": st.text(max_size=6) | st.booleans() | st.none() | st.lists(st.floats(), max_size=2)
    | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    "str": st.integers() | st.floats() | st.booleans() | st.none()
    | st.lists(st.text(max_size=3), max_size=2),
    "int | None": st.floats() | st.text(max_size=6) | st.booleans()
    | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    "tuple[int, ...]": st.integers() | st.floats() | st.text(max_size=6) | st.none()
    | st.lists(st.floats() | st.text(max_size=3) | st.booleans(), min_size=1, max_size=3),
}
_FIELD_KINDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


@st.composite
def _invalid_config_docs(draw):
    """A config document that holds only invalid entries: a non-object, or an
    object whose every key is unknown or holds a value of the wrong type."""
    kind = draw(st.sampled_from(["non-object", "unknown keys", "wrong types"]))
    if kind == "non-object":
        return draw(_JSON_VALUES.filter(lambda value: not isinstance(value, dict)))
    if kind == "unknown keys":
        keys = st.text(max_size=8).filter(
            lambda key: key not in _FIELD_KINDS and key != "refresh_period_s")
        return draw(st.dictionaries(keys, _JSON_VALUES, min_size=1, max_size=3))
    names = draw(st.lists(st.sampled_from(sorted(_FIELD_KINDS)), min_size=1, max_size=3,
                          unique=True))
    return {name: draw(_WRONG_TYPE[_FIELD_KINDS[name]], label=name) for name in names}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_invalid_config_docs())
def test_bench_fuzz_invalid_config_documents(capsys, doc):
    with tempfile.TemporaryDirectory() as work:
        cfg_path = Path(work) / "config.json"
        cfg_path.write_text(json.dumps(doc))
        out = Path(work) / "out"
        code, _, err = _run(capsys, "bench", "--node-counts", "16", "--seeds-per-n", "1",
                            "--config", str(cfg_path), "--out", str(out))
        _check_exit(code, err, out)
        assert code == 1, (doc, err)


# Every flag a command takes besides --out, which stays a fresh directory so
# that an example can write nowhere else.
_COMMAND_FLAGS = {
    "generate": ("--config", "--seed", "--n", "--density"),
    "grade": ("--config", "--seed", "--topology", "--mode"),
    "route": ("--config", "--seed", "--topology", "--source", "--destination", "--algo",
              "--mode"),
    "bench": ("--config", "--seed", "--node-counts", "--seeds-per-n", "--density"),
}
_FLAG_TEXT = (st.text(max_size=10) | st.integers().map(str) | st.floats().map(str)
              | st.integers(-3, 70).map(str) | st.floats(0.0, 1.0).map(str)
              | st.sampled_from(["", "-", ",", "16,", " 12 ", "1_6", "+8", "٣", "nan",
                                 "-inf", "1e308", "-0.0", "64,64", "--n", "literal", "ga"]))


def _small_run(flag: str, text: str) -> bool:
    # every int that int() reads from a comma-separated part of the text is
    # a node count of at most 64, or at most two seeds per node count, so no
    # example allocates a large topology or runs a long sweep
    bound = {"--n": 64, "--node-counts": 64, "--seeds-per-n": 2}.get(flag)
    if bound is None:
        return True
    for part in text.split(","):
        try:
            if int(part) > bound:
                return False
        except ValueError:
            pass
    return True


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_malformed_flags(small_topology_doc, capsys, data):
    command = data.draw(st.sampled_from(sorted(_COMMAND_FLAGS)), label="command")
    flags = data.draw(st.lists(st.sampled_from(_COMMAND_FLAGS[command]), min_size=1,
                               max_size=3, unique=True), label="flags")
    with tempfile.TemporaryDirectory() as work:
        topology = Path(work) / "topology.json"
        topology.write_text(json.dumps(small_topology_doc))
        cfg_path = Path(work) / "fast.json"
        cfg_path.write_text(json.dumps({"colony_size": 5, "population_size": 5,
                                        "max_cycles": 6, "generations": 6}))
        args = {"--config": str(cfg_path), **_command_args(command, str(topology))}
        for flag in flags:
            args[flag] = data.draw(_FLAG_TEXT.filter(lambda text: _small_run(flag, text)),
                                   label=flag)
        out = Path(work) / "out"
        code = main([command, *(item for pair in args.items() for item in pair),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in err, err
        if code == 1:
            # a usage error prints the usage line before its error line
            assert "error:" in err, err
            assert not out.exists(), err
