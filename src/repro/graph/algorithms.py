"""Classic graph algorithms over :class:`~repro.graph.digraph.Digraph`.

These are the "global/bulk access" computations the paper motivates
(section 1.2): PageRank, strongly connected components, HITS, BFS, and the
neighborhood primitives that complex queries build on.  All of them operate
on the in-memory CSR graph; the point the paper makes is that a compact
representation lets these run fully in memory.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import Digraph


def bfs_distances(graph: Digraph, sources: Iterable[int]) -> np.ndarray:
    """Multi-source BFS; returns hop distances (-1 = unreachable)."""
    distances = np.full(graph.num_vertices, -1, dtype=np.int64)
    queue: deque[int] = deque()
    for source in sources:
        if not 0 <= source < graph.num_vertices:
            raise GraphError(f"BFS source {source} out of range")
        if distances[source] < 0:
            distances[source] = 0
            queue.append(source)
    while queue:
        vertex = queue.popleft()
        next_distance = distances[vertex] + 1
        for target in graph.successors(vertex):
            if distances[target] < 0:
                distances[target] = next_distance
                queue.append(int(target))
    return distances


def out_neighborhood(graph: Digraph, pages: Iterable[int]) -> set[int]:
    """Union of the successors of every page in ``pages``."""
    result: set[int] = set()
    for page in pages:
        result.update(int(t) for t in graph.successors(page))
    return result


def in_neighborhood(transpose: Digraph, pages: Iterable[int]) -> set[int]:
    """Union of the predecessors of every page, given the transpose graph."""
    return out_neighborhood(transpose, pages)


def strongly_connected_components(graph: Digraph) -> list[list[int]]:
    """Tarjan's SCC algorithm, iterative so deep Web graphs don't recurse out.

    Returns components as lists of vertex ids, in reverse topological order
    of the condensation (Tarjan's natural output order).
    """
    n = graph.num_vertices
    index_counter = 0
    indices = np.full(n, -1, dtype=np.int64)
    lowlinks = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    stack: list[int] = []
    components: list[list[int]] = []

    for root in range(n):
        if indices[root] != -1:
            continue
        # Each work-stack frame is (vertex, iterator position into successors).
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            vertex, child_index = work.pop()
            if child_index == 0:
                indices[vertex] = index_counter
                lowlinks[vertex] = index_counter
                index_counter += 1
                stack.append(vertex)
                on_stack[vertex] = True
            row = graph.successors(vertex)
            advanced = False
            while child_index < len(row):
                child = int(row[child_index])
                child_index += 1
                if indices[child] == -1:
                    work.append((vertex, child_index))
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child]:
                    lowlinks[vertex] = min(lowlinks[vertex], indices[child])
            if advanced:
                continue
            if lowlinks[vertex] == indices[vertex]:
                component: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == vertex:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[vertex])
    return components


def pagerank(
    graph: Digraph,
    damping: float = 0.85,
    tolerance: float = 1e-9,
    max_iterations: int = 100,
) -> np.ndarray:
    """Power-iteration PageRank with uniform teleport and dangling handling.

    Returns scores normalized to sum to one.  This backs the PageRank index
    used by queries 1 and 3 of the paper's workload.
    """
    if not 0.0 < damping < 1.0:
        raise GraphError(f"damping must be in (0, 1), got {damping}")
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    out_degrees = np.diff(graph.offsets).astype(np.float64)
    dangling = out_degrees == 0
    scores = np.full(n, 1.0 / n, dtype=np.float64)
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.offsets))
    targets = graph.targets
    for _ in range(max_iterations):
        contrib = np.zeros(n, dtype=np.float64)
        weights = scores[sources] / out_degrees[sources]
        np.add.at(contrib, targets, weights)
        dangling_mass = scores[dangling].sum() / n
        new_scores = (1.0 - damping) / n + damping * (contrib + dangling_mass)
        if np.abs(new_scores - scores).sum() < tolerance:
            scores = new_scores
            break
        scores = new_scores
    return scores / scores.sum()


def hits(
    graph: Digraph,
    transpose: Digraph,
    pages: Sequence[int],
    iterations: int = 25,
) -> tuple[dict[int, float], dict[int, float]]:
    """Kleinberg's HITS on the subgraph induced by ``pages``.

    Returns (authority, hub) score dictionaries keyed by original page id.
    Used by the Kleinberg-base-set query (paper query 3) follow-ups.
    """
    page_set = {int(p) for p in pages}
    order = sorted(page_set)
    position = {page: i for i, page in enumerate(order)}
    forward: list[list[int]] = [[] for _ in order]
    for page in order:
        for target in graph.successors(page):
            target = int(target)
            if target in page_set:
                forward[position[page]].append(position[target])
    k = len(order)
    authority = np.ones(k, dtype=np.float64)
    hub = np.ones(k, dtype=np.float64)
    for _ in range(iterations):
        new_authority = np.zeros(k, dtype=np.float64)
        for i, row in enumerate(forward):
            for j in row:
                new_authority[j] += hub[i]
        new_hub = np.zeros(k, dtype=np.float64)
        for i, row in enumerate(forward):
            for j in row:
                new_hub[i] += new_authority[j]
        norm_a = np.linalg.norm(new_authority) or 1.0
        norm_h = np.linalg.norm(new_hub) or 1.0
        authority = new_authority / norm_a
        hub = new_hub / norm_h
    return (
        {page: float(authority[position[page]]) for page in order},
        {page: float(hub[position[page]]) for page in order},
    )


def kleinberg_base_set(
    graph: Digraph, transpose: Digraph, root_set: Iterable[int]
) -> set[int]:
    """Root set plus out-neighborhood plus in-neighborhood (paper query 3)."""
    roots = {int(p) for p in root_set}
    base = set(roots)
    base |= out_neighborhood(graph, roots)
    base |= in_neighborhood(transpose, roots)
    return base
