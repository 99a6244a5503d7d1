"""In-memory spans around the benchmark's calls into gradednet, plus search probes.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span and ``op`` the operation it belongs to.  Times are process CPU
seconds, the clock the benchmark measures everything with.  Spans stay in memory
and are written once, when the run ends.  Neither spans nor probes touch any
random stream, so a traced run must reproduce the untraced run's results.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import process_time


class NullTracer:
    """Tracing off: spans cost one shared no-op context, searches get no observer."""

    active = False

    def span(self, name: str):
        return nullcontext()

    def probe(self, name: str) -> None:
        return None


class Tracer:
    active = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.probes: list[SearchProbe] = []
        self.op: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, process_time(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = process_time()

    def probe(self, name: str) -> "SearchProbe":
        probe = SearchProbe(name)
        self.probes.append(probe)
        return probe

    def take_probes(self) -> list["SearchProbe"]:
        probes, self.probes = self.probes, []
        return probes

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            out[name].append(end - start - covered)
        return out

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")


class SearchProbe:
    """Observer for ``abc_search``/``ga_search``: records every offered candidate.

    The callback only appends.  ``bind`` attaches the search's result and a
    fitness function over its inputs, and ``counts`` recomputes the
    candidates' fitness after the search, outside its span, so the probe adds
    little to the measured time.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.kinds: list[str] = []
        self.paths: list[tuple[int, ...]] = []
        self.result = self.fitness = None

    def __call__(self, kind: str, path: tuple[int, ...]) -> None:
        self.kinds.append(kind)
        self.paths.append(path)

    def bind(self, result, fitness) -> None:
        """``fitness(path)`` is the search's own fitness: a Fitness, or None if rejected."""
        self.result, self.fitness = result, fitness

    def counts(self) -> dict:
        """Candidates, scouts, rejections and the candidate index of the final best.

        The best path's first appearance is counted from 1; it is None when no
        path was found.
        """
        fits = [self.fitness(path) for path in self.paths]
        evals_to_best = None
        if self.result.found:
            best = self.result.best_fitness.bottleneck_bw
            evals_to_best = next(i + 1 for i, f in enumerate(fits)
                                 if f is not None and f.bottleneck_bw == best)
        return {"candidates": len(fits), "scouts": self.kinds.count("scout"),
                "rejected": sum(f is None for f in fits), "evals_to_best": evals_to_best,
                "conv_cycle": self.result.convergence_cycle if self.result.found else None}
