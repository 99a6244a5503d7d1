#!/usr/bin/env python3
"""gradednet benchmark: seeded workloads, checked results, optional traced run.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-search --seed 1 --seconds 50 --trace 0

``--trace 0`` runs the workload untraced for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs it untraced for a quarter of
``--seconds``, replays the same items with a span around every call into
gradednet and once more untraced, checks that all three passes produced the
same rows, and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Human-readable report lines come before it.  Spans and the sweep's artifacts
go to ``.perfbench-out/`` under the repository root.

Times are CPU time of this process (``time.process_time``), scaled to a
reference machine speed.  gradednet is single-threaded and CPU-bound, so on
an idle machine CPU time is its wall time.  On the shared 2-core box the
benchmark was tuned on, the CPU time of identical work still varied up to
twofold within a minute.  So between items the run times ``reference_kernel``,
fixed pure-Python work that does not use gradednet, once per
REFERENCE_EVERY_S of gradednet CPU time.  Every reported time is multiplied
by REFERENCE_S over the kernel's mean time in that run, giving seconds on a
machine where the kernel takes REFERENCE_S.  A change to gradednet cannot
move the kernel.  Only the run's length is wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
# The tail percentile of operation times.
TAIL_PERCENTILE = 90
# CPU seconds of gradednet work between two runs of reference_kernel, and the
# kernel's time on the machine speed all times are scaled to.
REFERENCE_EVERY_S = 0.25
REFERENCE_S = 0.0125

# Spans reported as ``<name>_s``, the mean self time per call.
TIMED_SPANS = ("topology.generate", "traffic.sample_states", "grading.build_kb",
               "grading.select", "topology.quadrant", "optimizers.subgraph",
               "optimizers.abc", "optimizers.ga", "bench.summarize", "bench.write")
LAYERS = ("topology", "traffic", "grading", "optimizers", "bench")
ROOT_SPANS = ("op", "refresh")
SEARCHES = ("abc", "ga")


def import_workloads():
    """Import gradednet from this checkout's ``src`` and the benchmark's modules.

    Exits with status 1, before printing any result, when the sources are not
    there.  OpenBLAS is held to one thread: gradednet makes no BLAS calls, and
    idle BLAS threads spinning at import added up to 50 % to its CPU time.
    """
    src = ROOT / "src"
    if not (src / "gradednet" / "__init__.py").is_file():
        sys.exit(f"error: gradednet sources not found under {src}")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(src))
    import workloads
    import gradednet
    if Path(gradednet.__file__).resolve().parent != src / "gradednet":
        sys.exit(f"error: imported gradednet from {gradednet.__file__}, not {src}")
    return workloads


def import_seconds() -> float:
    """CPU time to import gradednet and the workloads in a fresh interpreter."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.process_time(); "
            "import workloads; print(time.process_time() - t)")
    return float(subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
                                capture_output=True, text=True, check=True).stdout)


class Pass:
    """Everything one run over the item stream produced."""

    def __init__(self) -> None:
        self.op_times: list[float] = []
        self.busy = 0.0  # CPU seconds inside gradednet calls, all items
        self.reference: list[float] = []  # CPU seconds of each reference_kernel run
        self.items = 0
        self.failed = 0
        # Outcome of every operation that passed its check.  Items are not kept:
        # they hold their inputs, which would grow the heap gradednet's GC walks.
        self.outcomes = []
        self.rows: list[dict] = []
        self.searches = {algo: [] for algo in SEARCHES}  # SearchProbe.counts, traced runs

    @property
    def scale(self) -> float:
        """Factor from this pass's CPU seconds to seconds at the reference speed."""
        return REFERENCE_S / statistics.fmean(self.reference)

    def digest(self) -> str:
        h = hashlib.sha256()
        for row in self.rows:
            h.update(json.dumps(row, sort_keys=True).encode() + b"\n")
        return h.hexdigest()


def run_pass(wl, tracer, seconds: float, limit: int | None = None,
             min_ops: int = 1) -> Pass:
    """Run and check items for ``seconds`` of wall time and at least ``min_ops``
    operations, or run exactly ``limit`` items."""
    result = Pass()
    start = perf_counter()
    since_reference = REFERENCE_EVERY_S  # so the kernel also runs before the first item
    for item in wl.items():
        while since_reference >= REFERENCE_EVERY_S:
            result.reference.append(reference_seconds())
            since_reference -= REFERENCE_EVERY_S
        if limit is not None:
            if result.items >= limit:
                break
        elif len(result.op_times) >= min_ops and perf_counter() - start >= seconds:
            break
        result.items += 1
        tracer.op = str(result.items - 1)
        t0 = process_time()
        try:
            with tracer.span("op" if item.is_op else "refresh"):
                raw = item.run(tracer)
            elapsed = process_time() - t0
            outcome = item.check(raw)
            for probe in tracer.take_probes() if tracer.active else ():
                result.searches[probe.name].append(probe.counts())
        except Exception:
            result.failed += 1
            print(f"FAILED {item.label}", flush=True)
            traceback.print_exc()
            if not item.is_op:
                break  # the operations that follow depend on this item
            continue
        result.busy += elapsed
        since_reference += elapsed
        result.rows.append(outcome.row)
        if item.is_op:
            result.op_times.append(elapsed)
            result.outcomes.append(outcome)
        raw = None  # a grade-large result is hundreds of MB; free it before the next item
    return result


def reference_seconds() -> float:
    """CPU seconds of one run of ``reference_kernel``."""
    t0 = process_time()
    reference_kernel()
    return process_time() - t0


def reference_kernel() -> None:
    """Fixed pure-Python work shaped like the optimizers' random walks.

    It stays in cache and allocates little, so its time follows the core's
    speed and not the garbage collector or the heap a workload left behind.
    """
    rng = random.Random(12345)
    adj = {v: tuple(sorted(rng.sample(range(400), 8))) for v in range(400)}
    for _ in range(150):
        cur, seen = 0, {0}
        for _ in range(60):
            choices = [w for w in adj[cur] if w not in seen]
            if not choices:
                break
            cur = choices[rng.randrange(len(choices))]
            seen.add(cur)


def tail(times: list[float]) -> tuple[float, str]:
    """The TAIL_PERCENTILE-th percentile, interpolated, and how many samples lie beyond it.

    A fixed percentile keeps its meaning when a faster program fits more
    operations into a run.  The rule of the highest percentile with ten samples
    beyond it jumps from the maximum to the median at 21 samples, which a
    sweep-search run straddles from seed to seed.
    """
    if len(times) < 2:
        return times[0], "only sample"
    value = statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    beyond = sum(t > value for t in times)
    return value, f"p{TAIL_PERCENTILE} of {len(times)}, {beyond} beyond"


def quality(p: Pass) -> dict:
    """Share of routable operations where each optimizer hit the optimum, and the mean gap."""
    out = {}
    rows = [row for outcome in p.outcomes for row in outcome.routes
            if row["opt"] is not None]
    for algo in SEARCHES:
        scored = [row for row in rows if f"{algo}_fit" in row]
        if not scored:
            continue
        hits = [row[f"path_found_{algo}"] and row[f"{algo}_fit"] == row["opt"] for row in scored]
        gaps = [row["opt"] - row[f"{algo}_fit"] if row[f"path_found_{algo}"] else row["opt"]
                for row in scored]
        out[f"{algo}_opt_frac"] = sum(hits) / len(scored)
        out[f"{algo}_gap_mbps"] = statistics.fmean(gaps)
    return out


def search_counters(p: Pass) -> dict:
    """Work counts per search, from the observer's candidate stream only."""
    out = {}
    for algo, runs in p.searches.items():
        candidates = sum(c["candidates"] for c in runs)
        found = [c for c in runs if c["evals_to_best"] is not None]
        out[f"optimizers.{algo}_candidates"] = (_mean([c["candidates"] for c in runs]), "count")
        out[f"optimizers.{algo}_rejected_frac"] = (
            sum(c["rejected"] for c in runs) / candidates if candidates else 0.0, "ratio")
        out[f"optimizers.{algo}_evals_to_best"] = (_mean([c["evals_to_best"] for c in found]),
                                                   "count")
        out[f"optimizers.{algo}_conv_cycle"] = (_mean([c["conv_cycle"] for c in found]),
                                                "cycles")
    out["optimizers.abc_scouts"] = (_mean([c["scouts"] for c in p.searches["abc"]]), "count")
    return out


def _mean(values: list) -> float:
    """Mean, or 0.0 for a layer that did no work in this workload."""
    return statistics.fmean(values) if values else 0.0


def shape_counts(wl, p: Pass) -> dict:
    """Input-shape counts over the inputs drawn for the first ``shape_ops`` operations."""
    first = p.outcomes[:wl.shape_ops]
    reasons = Counter(reason for outcome in first for reason in outcome.drawn)
    return {
        "grading.selected_frac": (_mean([f for o in first for f in o.selected_fracs]), "ratio"),
        "grading.dest_graded_out": (reasons["dest_graded_out"], "count"),
        "topology.quadrant_empty": (reasons["quadrant_empty"], "count"),
        "optimizers.quadrant_disconnected": (reasons["quadrant_disconnected"], "count"),
        "topology.links": (_mean([v for o in first for v in o.links]), "count"),
    }


def per_layer(wl, tracer, repeat: Pass, traced: Pass) -> dict:
    """Per-layer metrics of the traced pass; ``repeat`` is the untraced replay."""
    selfs = tracer.self_times()
    total = tracer.root_time()
    out = {f"{name}_s": (_mean(selfs.get(name, [])) * traced.scale, "s")
           for name in TIMED_SPANS}
    for layer in LAYERS:
        spent = sum(sum(v) for name, v in selfs.items() if name.split(".")[0] == layer)
        out[f"{layer}.self_frac"] = (spent / total, "ratio")
    uncovered = sum(sum(selfs.get(name, ())) for name in ROOT_SPANS)
    out["trace.uncovered_frac"] = (uncovered / total, "ratio")
    out["trace.overhead_frac"] = (
        traced.busy * traced.scale / (repeat.busy * repeat.scale) - 1.0, "ratio")
    nodes = [v for o in traced.outcomes for v in o.subgraph_nodes]
    out["optimizers.subgraph_nodes"] = (_mean(nodes), "count")
    out.update(search_counters(traced))
    out.update(shape_counts(wl, traced))
    scores = quality(traced)
    for algo in SEARCHES:
        out[f"optimizers.{algo}_opt_frac"] = (scores.get(f"{algo}_opt_frac", 0.0), "ratio")
        out[f"optimizers.{algo}_gap_mbps"] = (scores.get(f"{algo}_gap_mbps", 0.0), "Mbps")
    return out


def report(workload: str, name: str, value, unit: str, note: str = "") -> None:
    suffix = f"  ({note})" if note else ""
    print(f"{workload:14} {name:36} {value:>14.6g} {unit}{suffix}", flush=True)


def measure(wl, seconds: float) -> tuple[bool, Pass, dict]:
    """The untraced run: set-up several times, then the end-to-end metrics.

    Set-up is scaled by reference kernels run between its repeats, not by the
    run's: the machine's speed drifts between set-up and the end of the run.
    """
    tracer = NullTracer()
    import_times, setup_times, setup_digests, setup_reference = [], [], set(), []
    for _ in range(SETUP_REPEATS):
        setup_reference.append(reference_seconds())
        import_times.append(import_seconds())
        setup_reference.append(reference_seconds())
        t0 = process_time()
        wl.setup(tracer)
        setup_times.append(process_time() - t0)
        setup_digests.add(wl.fixed_digest())
    setup_scale = REFERENCE_S / statistics.fmean(setup_reference)
    correct = len(setup_digests) == 1
    if not correct:
        print("FAILED repeated set-up built different inputs", flush=True)
    p = run_pass(wl, tracer, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = len(p.op_times)
    if not ops:
        return False, p, {}
    scale = p.scale
    tail_value, tail_note = tail(p.op_times)
    metrics = {
        "setup_s": ((statistics.median(import_times) + statistics.median(setup_times))
                    * setup_scale, "s",
                    f"medians of {SETUP_REPEATS} imports and {SETUP_REPEATS} set-ups, "
                    f"speed scale {setup_scale:.4g}"),
        "ops_per_s": (ops / (p.busy * scale), "1/s",
                      f"{ops} ops in {p.busy:.2f} s of gradednet CPU time"),
        "op_p50_s": (statistics.median(p.op_times) * scale, "s", f"of {ops}"),
        "op_tail_s": (tail_value * scale, "s", tail_note),
        "peak_rss_mb": (peak_rss_mb, "MB", ""),
    }
    report(wl.name, "speed_scale", scale, "ratio",
           f"REFERENCE_S over the mean of {len(p.reference)} reference_kernel runs")
    for name, (value, unit, note) in metrics.items():
        report(wl.name, name, value, unit, note)
    report(wl.name, "failed_frac", p.failed / (ops + p.failed), "ratio",
           f"{p.failed} of {ops + p.failed}")
    for name, value in quality(p).items():
        report(wl.name, name, value, "Mbps" if name.endswith("mbps") else "ratio")
    print(f"{wl.name:14} digest {p.digest()}", flush=True)
    return correct, p, {name: (value, unit) for name, (value, unit, _) in metrics.items()}


def trace(wl, seconds: float, spans_path: Path) -> tuple[bool, Pass, dict]:
    """The traced run: per-layer metrics from the same items as an untraced pass.

    A quarter of the time goes to an untraced pass that fixes the items; they
    are then replayed traced and once more untraced.  Tracing overhead compares
    the last two, so neither carries the first pass's warm-up.  All three must
    produce the same rows.
    """
    wl.setup(NullTracer())
    first = run_pass(wl, NullTracer(), seconds / 4, min_ops=wl.shape_ops)
    tracer = Tracer()
    tracer.op = "setup"
    wl.setup(tracer)
    traced = run_pass(wl, tracer, seconds, limit=first.items)
    tracer.write(spans_path)
    wl.setup(NullTracer())
    again = run_pass(wl, NullTracer(), seconds, limit=first.items)
    correct = True
    for label, other in (("traced", traced), ("repeated untraced", again)):
        if other.digest() != first.digest():
            print(f"FAILED {label} pass digest differs from the first pass", flush=True)
            correct = False
    first.failed += traced.failed + again.failed
    if not (first.op_times and traced.items == first.items):
        return False, first, {}
    metrics = per_layer(wl, tracer, again, traced)
    for name, (value, unit) in metrics.items():
        report(wl.name, name, value, unit)
    print(f"{wl.name:14} digest {first.digest()} (untraced, traced and repeated)", flush=True)
    return correct, first, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-search", "grade-large", "route-refresh"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    module = import_workloads()
    wl = module.WORKLOADS[args.workload](args.seed, OUT_DIR)
    if args.trace:
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        correct, p, metrics = trace(wl, args.seconds, spans)
    else:
        correct, p, metrics = measure(wl, args.seconds)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != expected:
        print(f"FAILED metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ expected)}",
              flush=True)
        correct = False
    attempted = len(p.op_times) + p.failed
    result = {
        "correct": bool(correct and p.failed == 0),
        "attempted": max(attempted, 1),
        "failed": p.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
