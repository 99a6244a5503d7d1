"""Exact maximum-bottleneck (widest) path on a pruned subgraph.

Max-bottleneck s-t routing is the maximum-capacity route problem (Pollack,
Oper. Res. 8(5), 1960).  A Dijkstra variant that settles nodes in decreasing
order of the best bottleneck reaching them solves it exactly.  Links offering
less than the bandwidth threshold are skipped, which matches the optimizers'
rule that such a link disqualifies a path.  The benchmark scores both
optimizers against this optimum.
"""

from __future__ import annotations

import heapq
import math


def widest_path(subgraph, kb, source: int, destination: int,
                bw_threshold: float = 0.0) -> tuple[float, tuple[int, ...]] | None:
    """``(bottleneck, path)`` of a widest source-destination path, or None.

    Only ``subgraph.adj`` and ``kb.available_on`` are read, so the answer is
    independent of the optimizers' own fitness code.
    """
    if source == destination:
        raise ValueError("source and destination must differ")
    if source not in subgraph.allowed or destination not in subgraph.allowed:
        return None
    width = {source: math.inf}
    parent: dict[int, int | None] = {source: None}
    settled: set[int] = set()
    heap = [(-math.inf, source)]
    while heap:
        neg_width, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u == destination:
            break
        for v in subgraph.neighbors(u):
            if v in settled:
                continue
            bw = kb.available_on(u, v)
            if bw < bw_threshold:
                continue
            reach = min(-neg_width, bw)
            if v not in width or reach > width[v]:
                width[v] = reach
                parent[v] = u
                heapq.heappush(heap, (-reach, v))
    if destination not in settled:
        return None
    path = [destination]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return width[destination], tuple(reversed(path))
