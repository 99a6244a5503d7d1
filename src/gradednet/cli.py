"""Command-line front end: generate, grade, route, bench.

Exit codes: 0 on success (a "path not available" outcome is a result, not a
failure), 1 on usage or validation errors and on running out of memory, 2 on
I/O failures.  Every command writes its fully resolved configuration next to
its outputs so any artifact can be reproduced from the directory alone, and
writes only once its work has succeeded, so a command that exits 1 writes
nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .bench import (
    PLOT_KINDS,
    SEARCHES,
    emit_plot_data,
    grade_topology,
    prune,
    run_suite,
    save_summary_json,
    search,
    write_plot_csv,
    write_records_csv,
)
from .config import RunConfig
from .grading import SELECTION_MODES, save_grade_dump, select_feasible
from .optimizers import RouteResult
from .topology import generate_topology, load_topology, quadrant_of, save_topology, write_json


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this harness reserves 2 for I/O.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _node_counts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gradednet",
                     description="Graded-network routing simulator and benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, help="base seed")
        p.add_argument("--out", dest="out_dir", help="output directory")

    p_gen = sub.add_parser("generate", help="generate a topology file")
    add_shared(p_gen)
    p_gen.add_argument("--n", type=int, help="node count")
    p_gen.add_argument("--density", dest="link_density", type=float,
                       help="link density in (0, 1]")

    p_grade = sub.add_parser("grade", help="grade a topology into a knowledge base dump")
    add_shared(p_grade)
    p_grade.add_argument("--topology", required=True, help="topology JSON file")
    p_grade.add_argument("--mode", dest="selection_mode", choices=SELECTION_MODES)

    p_route = sub.add_parser("route", help="grade, prune, and search for a route")
    add_shared(p_route)
    p_route.add_argument("--topology", required=True, help="topology JSON file")
    p_route.add_argument("--source", type=int, required=True)
    p_route.add_argument("--destination", type=int, required=True)
    p_route.add_argument("--algo", choices=(*SEARCHES, "both"), default="both")
    p_route.add_argument("--mode", dest="selection_mode", choices=SELECTION_MODES)

    p_bench = sub.add_parser("bench", help="run the node-count sweep benchmark")
    add_shared(p_bench)
    p_bench.add_argument("--node-counts", type=_node_counts,
                         help="comma-separated node counts")
    p_bench.add_argument("--seeds-per-n", type=int, help="replicates per node count")
    p_bench.add_argument("--density", dest="link_density", type=float,
                         help="link density in (0, 1]")

    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    return config.replace(**{name: value for name, value in vars(args).items()
                             if name in fields and value is not None})


def _prepare_out(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Provenance: every knob except the output location itself.
    doc = config.to_dict()
    doc.pop("out_dir")
    write_json(out / "run_config.json", doc)
    return out


def cmd_generate(config: RunConfig) -> int:
    topology = generate_topology(config.n, config.link_density, config.seed,
                                 capacity_mbps=config.max_bandwidth_mbps,
                                 lifetime_scale=config.lifetime_scale)
    out = _prepare_out(config)
    save_topology(topology, out / "topology.json")
    print(f"wrote {out / 'topology.json'}: {topology.n} nodes, {len(topology.links)} links")
    return 0


def cmd_grade(config: RunConfig, topology_path: str) -> int:
    topology = load_topology(topology_path)
    kb = grade_topology(topology, config, config.seed)
    feasible = select_feasible(topology, kb, config.selection_mode)
    out = _prepare_out(config)
    save_grade_dump(kb, config.selection_mode, out / "grade_dump.json")
    print(f"graded {topology.n} nodes ({config.selection_mode}): "
          f"{len(feasible)} selected for routing")
    print(f"wrote {out / 'grade_dump.json'}")
    return 0


def _print_route(algo: str, result: RouteResult) -> None:
    if not result.found:
        print(f"[{algo}] path not available")
        return
    path = " -> ".join(str(v) for v in result.best_path)
    print(f"[{algo}] path: {path}")
    print(f"[{algo}] hops: {result.hop_count}, "
          f"bottleneck: {result.best_fitness.bottleneck_bw:.3f} Mbps, "
          f"converged at cycle {result.convergence_cycle}")


def _route_result_dict(result: RouteResult) -> dict:
    return {
        "found": result.found,
        "path": list(result.best_path) if result.found else None,
        "hop_count": result.hop_count if result.found else None,
        "bottleneck_mbps": result.best_fitness.bottleneck_bw,
        "convergence_cycle": result.convergence_cycle,
        "stagnation_cycle": result.stagnation_cycle,
        "fitness_trace": list(result.fitness_trace),
    }


def cmd_route(config: RunConfig, topology_path: str, source: int,
              destination: int, algo: str) -> int:
    topology = load_topology(topology_path)
    kb = grade_topology(topology, config, config.seed)
    trial = prune(topology, kb, source, destination, config.selection_mode)
    tag = quadrant_of(topology.positions[source], topology.positions[destination])

    print(f"topology: {topology.n} nodes, {len(topology.links)} links")
    print(f"selection mode {config.selection_mode}: {len(trial.feasible)}/{topology.n} nodes "
          f"kept; destination quadrant {tag.name}: {len(trial.subgraph.allowed) - 1} candidates")
    if destination not in trial.feasible:
        priority = kb.records[destination].priority
        print(f"note: destination {destination} excluded by grading "
              f"(priority {priority}); no route can qualify")

    docs = {}
    for name in (SEARCHES if algo == "both" else (algo,)):
        result = search(trial, name, config, config.seed)
        _print_route(name, result)
        docs[name] = {**_route_result_dict(result), "source": source,
                      "destination": destination, "selection_mode": config.selection_mode}

    out = _prepare_out(config)
    save_grade_dump(kb, config.selection_mode, out / "grade_dump.json")
    for name, doc in docs.items():
        write_json(out / f"route_{name}.json", doc)
    return 0


def cmd_bench(config: RunConfig) -> int:
    summary, records = run_suite(config)
    out = _prepare_out(config)
    rows = [record.to_row() for record in records]
    write_records_csv(rows, out / "results.csv")
    save_summary_json(summary, out / "summary.json")
    for kind in PLOT_KINDS:
        plot_rows = emit_plot_data(records, kind,
                                   packet_size_bits=config.packet_size_bytes * 8,
                                   link_capacity_mbps=config.max_bandwidth_mbps,
                                   flow_rate_mbps=config.flow_rate_mbps)
        write_plot_csv(plot_rows, out / f"plot_{kind.replace('-', '_')}.csv")

    def _fmt(value, spec=".1f"):
        return "-" if value is None else format(value, spec)

    # Each median's column is one place wider than its label.
    medians = [(f"{algo} {stat}", f"{algo}_median_{stat}")
               for stat in ("hops", "conv") for algo in SEARCHES]
    header = "".join(f" {label:>{len(label) + 1}}" for label, _ in medians)
    print(f"{'n':>6} {'trials':>7} {'found%':>7}{header} {'ratio':>7}")
    for n, s in sorted(summary.per_n.items()):
        found = sum(s[f"path_found_{algo}"] for algo in SEARCHES) / len(SEARCHES)
        cells = "".join(f" {_fmt(s[key]):>{len(label) + 1}}" for label, key in medians)
        print(f"{n:>6} {s['trials']:>7} {found * 100:>6.0f}%{cells} "
              f"{_fmt(s['convergence_ratio'], '.2f'):>7}")
    q = summary.quality
    print(f"quality over {q['compared_trials']} compared trials: "
          f"abc_better={q['abc_better']:.2f} equal={q['equal']:.2f} ga_better={q['ga_better']:.2f}")
    print(f"wrote {out / 'results.csv'}, {out / 'summary.json'}, plot data")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1

    try:
        config = _resolve_config(args)
        if args.command == "generate":
            return cmd_generate(config)
        if args.command == "grade":
            return cmd_grade(config, args.topology)
        if args.command == "route":
            return cmd_route(config, args.topology, args.source,
                             args.destination, args.algo)
        return cmd_bench(config)  # the parser admits no other command
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
