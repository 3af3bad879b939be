"""The pair-by-pair reference planner, kept as the test oracle.

This is the planner ``repro.snode.reference`` shipped before its work
became proportional to the distinct, target-sharing row pairs, moved here
verbatim: ``reference_cost`` re-derives the copy bits and extras of every
ordered pair through ``_reference_parts``, the dictionary pass recomputes
every referenced row's cost, and ``minimum_arborescence`` rebuilds its
whole edge list per contracted cycle (weights are floats, as they were).
``tests/snode/test_planner_oracle.py`` requires the planner under ``src/``
to return equal plans — parents, ``total_bits`` and ``used_dictionary`` —
and equal arborescences, parent for parent.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import CodecError
from repro.snode.reference import DICTIONARY_PARENT, EncodingPlan
from repro.util.rle import bitvector_cost
from repro.util.varint import gamma_cost

DEFAULT_FULL_AFFINITY_LIMIT = 96
DEFAULT_WINDOW = 8


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------


def _gaps_cost(row: Sequence[int]) -> int:
    """Bits for the gamma-gap body of ``row``."""
    cost = gamma_cost(len(row))
    previous = -1
    for value in row:
        cost += gamma_cost(value - previous - 1)
        previous = value
    return cost


def _row_bits(row: Sequence[int]) -> list[int]:
    """Characteristic bit vector of ``row`` up to its largest entry."""
    if not row:
        return []
    bits = [0] * (row[-1] + 1)
    for value in row:
        bits[value] = 1
    return bits


def direct_cost(row: Sequence[int]) -> int:
    """Bits to encode ``row`` directly.

    Direct rows adaptively use whichever body is smaller: gamma-coded gaps
    (sparse rows) or an RLE/plain bit vector over the row's span (dense
    rows, e.g. navigation pages linking to a whole directory) — the
    paper's "RLE bit vectors or gap encoding" choice.  Layout: flag bit
    (direct) + mode bit + body.
    """
    gaps = _gaps_cost(row)
    vector = bitvector_cost(_row_bits(row)) if row else gaps + 1
    return 2 + min(gaps, vector)


def _reference_parts(
    row: Sequence[int], reference_row: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Split ``row`` into (copy bits over reference_row, extra entries)."""
    row_set = set(row)
    copy_bits = [1 if value in row_set else 0 for value in reference_row]
    referenced = {
        value for value, bit in zip(reference_row, copy_bits) if bit
    }
    extras = [value for value in row if value not in referenced]
    return copy_bits, extras


def reference_cost(
    row: Sequence[int], reference_row: Sequence[int], distance: int
) -> int:
    """Bits to encode ``row`` referencing a row ``distance`` away."""
    cost = 1  # flag
    cost += gamma_cost(distance - 1) + 1  # distance (>=1) and direction bit
    cost += _reference_body_cost(row, reference_row)
    return cost


def _reference_body_cost(row: Sequence[int], reference_row: Sequence[int]) -> int:
    """Full-copy flag + (copy bit vector when not a full copy) + extras.

    Identical consecutive rows are the common case in superedge graphs
    (every page of a directory carrying the same external links), so a
    one-bit "copy everything" fast path pays for itself many times over.
    """
    copy_bits, extras = _reference_parts(row, reference_row)
    full_copy = all(copy_bits) if copy_bits else False
    cost = 1  # full-copy flag
    if not full_copy:
        cost += bitvector_cost(copy_bits)
    cost += gamma_cost(len(extras))
    previous = -1
    for value in extras:
        cost += gamma_cost(value - previous - 1)
        previous = value
    return cost


# ---------------------------------------------------------------------------
# Chu-Liu/Edmonds minimum spanning arborescence
# ---------------------------------------------------------------------------


def minimum_arborescence(
    num_nodes: int, edges: Sequence[tuple[int, int, float]], root: int
) -> dict[int, int]:
    """Chu-Liu/Edmonds: min-weight spanning arborescence rooted at ``root``.

    ``edges`` are ``(source, target, weight)`` triples.  Returns a mapping
    ``node -> parent`` for every node except the root.  Raises
    :class:`CodecError` if some node is unreachable from the root.
    """
    nodes = list(range(num_nodes))
    # Work on a mutable copy; contraction introduces fresh node ids.
    current_edges = [(s, t, w) for s, t, w in edges if t != root and s != t]
    current_nodes = set(nodes)
    next_id = num_nodes
    # Track, per contraction level, how to expand cycles back out.
    expansions: list[tuple[int, dict[int, int], dict[tuple[int, int, float], tuple[int, int, float]]]] = []

    while True:
        best_in: dict[int, tuple[int, int, float]] = {}
        for source, target, weight in current_edges:
            if target == root or target not in current_nodes:
                continue
            incumbent = best_in.get(target)
            if incumbent is None or weight < incumbent[2]:
                best_in[target] = (source, target, weight)
        for node in current_nodes:
            if node != root and node not in best_in:
                raise CodecError(f"node {node} unreachable from arborescence root")
        # Detect a cycle in the best-incoming-edge graph.
        cycle = _find_cycle(best_in, current_nodes, root)
        if cycle is None:
            parents = {t: s for t, (s, _, _) in best_in.items()}
            # Expand contractions from innermost to outermost.
            for super_node, cycle_parents, edge_origin in reversed(expansions):
                entering_parent = parents.pop(super_node)
                # Which original edge entered the cycle?
                entry = edge_origin[(entering_parent, super_node, _WEIGHT_SENTINEL)]
                entry_source, entry_target, _ = entry
                for member, member_parent in cycle_parents.items():
                    if member != entry_target:
                        parents[member] = member_parent
                parents[entry_target] = entry_source
                # Re-route edges that previously left the super node.
                for node, parent in list(parents.items()):
                    if parent == super_node:
                        leaving = edge_origin[(super_node, node, _WEIGHT_SENTINEL)]
                        parents[node] = leaving[0]
            return parents
        # Contract the cycle into a fresh super node.
        cycle_set = set(cycle)
        cycle_parents = {node: best_in[node][0] for node in cycle}
        cycle_cost = {node: best_in[node][2] for node in cycle}
        super_node = next_id
        next_id += 1
        new_edges: list[tuple[int, int, float]] = []
        edge_origin: dict[tuple[int, int, float], tuple[int, int, float]] = {}
        best_entering: dict[int, tuple[float, tuple[int, int, float]]] = {}
        best_leaving: dict[int, tuple[float, tuple[int, int, float]]] = {}
        for source, target, weight in current_edges:
            in_source = source in cycle_set
            in_target = target in cycle_set
            if in_source and in_target:
                continue
            if in_target:
                adjusted = weight - cycle_cost[target]
                incumbent = best_entering.get(source)
                if incumbent is None or adjusted < incumbent[0]:
                    best_entering[source] = (adjusted, (source, target, weight))
            elif in_source:
                incumbent = best_leaving.get(target)
                if incumbent is None or weight < incumbent[0]:
                    best_leaving[target] = (weight, (source, target, weight))
            else:
                new_edges.append((source, target, weight))
        for source, (adjusted, original) in best_entering.items():
            new_edges.append((source, super_node, adjusted))
            edge_origin[(source, super_node, _WEIGHT_SENTINEL)] = original
        for target, (weight, original) in best_leaving.items():
            new_edges.append((super_node, target, weight))
            edge_origin[(super_node, target, _WEIGHT_SENTINEL)] = original
        expansions.append((super_node, cycle_parents, edge_origin))
        current_nodes = (current_nodes - cycle_set) | {super_node}
        current_edges = new_edges


_WEIGHT_SENTINEL = float("nan")  # weights are keyed out of edge_origin lookups


def _find_cycle(
    best_in: dict[int, tuple[int, int, float]],
    nodes: set[int],
    root: int,
) -> list[int] | None:
    """Find a cycle in the parent-pointer graph, or None."""
    color = {node: 0 for node in nodes}  # 0 unvisited, 1 in progress, 2 done
    for start in nodes:
        if start == root or color[start] == 2:
            continue
        path: list[int] = []
        node = start
        while True:
            if node == root or color.get(node, 2) == 2:
                break
            if color[node] == 1:
                return path[path.index(node) :]
            color[node] = 1
            path.append(node)
            entry = best_in.get(node)
            if entry is None:
                break
            node = entry[0]
        for visited in path:
            color[visited] = 2
    return None


# ---------------------------------------------------------------------------
# reference assignment
# ---------------------------------------------------------------------------


def plan_references(
    rows: Sequence[Sequence[int]],
    window: int = DEFAULT_WINDOW,
    full_affinity_limit: int = DEFAULT_FULL_AFFINITY_LIMIT,
    dictionary: Sequence[int] | None = None,
) -> EncodingPlan:
    """Choose a reference parent for every row.

    With a ``dictionary``, every row additionally considers referencing it
    (cost includes the extra flag bit each referenced row then carries).
    """
    m = len(rows)
    if m == 0:
        return EncodingPlan(parents=[], total_bits=0)
    direct = [direct_cost(row) for row in rows]
    if m <= full_affinity_limit:
        plan = _plan_full(rows, direct)
    else:
        plan = _plan_windowed(rows, direct, window)
    if not dictionary:
        return plan
    parents = list(plan.parents)
    total = 0
    for y, row in enumerate(rows):
        parent = parents[y]
        if parent == -1:
            current = direct[y]
        else:
            # Row references add one dictionary-flag bit in this mode.
            current = 1 + reference_cost(row, rows[parent], abs(y - parent))
        if row:
            dictionary_cost = 2 + _dictionary_body_cost(row, dictionary)
            if dictionary_cost < current:
                parents[y] = DICTIONARY_PARENT
                current = dictionary_cost
        total += current
    # Dictionary mode also pays for serializing the dictionary itself.
    dictionary_overhead = gamma_cost(len(dictionary))
    previous = -1
    for value in dictionary:
        dictionary_overhead += gamma_cost(value - previous - 1)
        previous = value
    if total + dictionary_overhead >= plan.total_bits:
        return plan
    return EncodingPlan(parents=parents, total_bits=total, used_dictionary=True)


def _dictionary_parts(
    row: Sequence[int], dictionary: Sequence[int]
) -> tuple[list[int], list[int]]:
    """(ascending dictionary indexes used, extra entries) for ``row``."""
    positions = {value: index for index, value in enumerate(dictionary)}
    indexes = sorted(positions[v] for v in row if v in positions)
    member = set(dictionary)
    extras = [v for v in row if v not in member]
    return indexes, extras


def _dictionary_body_cost(row: Sequence[int], dictionary: Sequence[int]) -> int:
    """Dictionary-reference body: full-copy flag or index list, plus extras.

    Rows typically use one or two dictionary entries, so an index list
    (minimal-binary positions) beats a bit vector over the whole
    dictionary; a full copy of the dictionary is one bit.
    """
    indexes, extras = _dictionary_parts(row, dictionary)
    if len(indexes) == len(dictionary):
        cost = 1  # full copy
    else:
        width = max(1, (len(dictionary) - 1).bit_length())
        cost = 1 + gamma_cost(len(indexes)) + len(indexes) * width
    cost += gamma_cost(len(extras))
    previous = -1
    for value in extras:
        cost += gamma_cost(value - previous - 1)
        previous = value
    return cost




def _plan_full(
    rows: Sequence[Sequence[int]], direct: list[int]
) -> EncodingPlan:
    """Exact Adler-Mitzenmacher plan: Edmonds on the full affinity graph."""
    m = len(rows)
    root = m  # extra node
    edges: list[tuple[int, int, float]] = []
    for y in range(m):
        edges.append((root, y, float(direct[y])))
        if not rows[y]:
            continue  # empty rows never benefit from a reference
        for x in range(m):
            if x == y or not rows[x]:
                continue
            cost = reference_cost(rows[y], rows[x], abs(y - x))
            if cost < direct[y]:
                edges.append((x, y, float(cost)))
    parents_map = minimum_arborescence(m + 1, edges, root)
    parents = [-1] * m
    total = 0
    for y in range(m):
        parent = parents_map.get(y, root)
        if parent == root:
            parents[y] = -1
            total += direct[y]
        else:
            parents[y] = parent
            total += reference_cost(rows[y], rows[parent], abs(y - parent))
    return EncodingPlan(parents=parents, total_bits=total)


def _plan_windowed(
    rows: Sequence[Sequence[int]], direct: list[int], window: int
) -> EncodingPlan:
    """Greedy plan: each row picks the cheapest of (direct, prev W rows)."""
    parents = [-1] * len(rows)
    total = 0
    for y, row in enumerate(rows):
        best_cost = direct[y]
        best_parent = -1
        if row:
            for x in range(max(0, y - window), y):
                if not rows[x]:
                    continue
                cost = reference_cost(row, rows[x], y - x)
                if cost < best_cost:
                    best_cost = cost
                    best_parent = x
        parents[y] = best_parent
        total += best_cost
    return EncodingPlan(parents=parents, total_bits=total)
