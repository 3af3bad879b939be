"""Reference encoding of adjacency-list collections (paper section 3.1).

A *row collection* is an ordered list of adjacency lists over a common
target space ``0..target_space-1`` (local indices inside an intranode or
superedge graph).  Each row is stored either

* **directly** — gamma-coded length followed by gamma-coded gaps, or
* **by reference** to another row x — the reference's position, a copy
  bit vector over adj(x) (RLE or plain, whichever is smaller), and the
  extra entries not present in adj(x), gap-coded.

Which rows reference which is decided through the Adler–Mitzenmacher
affinity graph: a directed graph with an edge x -> y weighted by the bit
cost of encoding row y from row x, plus a root whose edge to y costs the
direct encoding; the optimal assignment is a minimum-weight spanning
arborescence rooted at the root, computed with Chu-Liu/Edmonds.

Because the full affinity graph is quadratic, collections larger than
``full_affinity_limit`` fall back to windowed candidates (each row may only
reference one of the previous ``window`` rows — the regime Link3 and
WebGraph operate in).  Windowed candidate sets are acyclic by construction,
so the arborescence degenerates to a per-row minimum, which is what the
fast path computes.

Decoded rows are plain ``list[int]`` (sorted).  Reference chains may point
forward in the full-affinity mode; decoding resolves them iteratively.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress

from repro.errors import CodecError
from repro.util.bitio import BitReader, BitWriter, refill
from repro.util.rle import bitvector_cost, decode_bitvector, encode_bitvector
from repro.util.varint import encode_gamma, gamma_cost

#: Above this many rows the encoder switches from the full affinity graph
#: (exact Edmonds arborescence) to windowed candidate references.
DEFAULT_FULL_AFFINITY_LIMIT = 96

#: How many preceding rows are tried as references in windowed mode.
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


#: Plan parent value meaning "reference the shared dictionary row".
DICTIONARY_PARENT = -2


@dataclass(frozen=True)
class EncodingPlan:
    """Per-row decisions: ``parents[i]`` is a row index, -1 for direct, or
    :data:`DICTIONARY_PARENT` for a dictionary reference.

    ``used_dictionary`` records whether dictionary mode won the cost
    comparison — when False the caller must serialize an empty dictionary
    (dictionary mode adds one flag bit to every referenced row, so it only
    pays off when enough rows actually use it).
    """

    parents: list[int]
    total_bits: int
    used_dictionary: bool = False


def build_dictionary(
    rows: Sequence[Sequence[int]], max_entries: int = 128
) -> list[int]:
    """Targets appearing in two or more rows, sorted ascending (capped).

    Superedge graphs are dominated by one-or-two-entry rows repeating the
    same few popular targets (a site's recurring external references); a
    shared dictionary row lets each such row be a cheap copy-bit-vector
    reference instead of re-coding the target.
    """
    counts: dict[int, int] = {}
    for row in rows:
        for value in row:
            counts[value] = counts.get(value, 0) + 1
    frequent = [value for value, count in counts.items() if count >= 2]
    if len(frequent) > max_entries:
        frequent.sort(key=lambda v: -counts[v])
        frequent = frequent[:max_entries]
    return sorted(frequent)


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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def encode_rows(
    writer: BitWriter,
    rows: Sequence[Sequence[int]],
    plan: EncodingPlan | None = None,
    window: int = DEFAULT_WINDOW,
    full_affinity_limit: int = DEFAULT_FULL_AFFINITY_LIMIT,
    dictionary: Sequence[int] | None = None,
) -> EncodingPlan:
    """Encode a row collection; returns the plan that was used.

    Layout: gamma(row count), then per row either a direct or a referenced
    record as described in the module docstring.  When ``dictionary`` is
    given (superedge graphs), referenced rows carry one extra bit choosing
    between a sibling-row reference and a dictionary reference; the
    dictionary itself is serialized by the caller, not here.
    """
    if plan is None:
        plan = plan_references(rows, window, full_affinity_limit, dictionary)
    if len(plan.parents) != len(rows):
        raise CodecError("encoding plan does not match row count")
    if plan.used_dictionary and not dictionary:
        raise CodecError("plan uses a dictionary that was not given")
    # Flag-bit layout depends on whether dictionary mode is active.
    dictionary = list(dictionary) if (dictionary and plan.used_dictionary) else None
    encode_gamma(writer, len(rows))
    for y, row in enumerate(rows):
        parent = plan.parents[y]
        if parent == DICTIONARY_PARENT:
            if not dictionary:
                raise CodecError("plan references a dictionary that was not given")
            writer.write_bit(1)
            writer.write_bit(1)  # dictionary reference
            _encode_dictionary_body(writer, row, dictionary)
        elif parent < 0:
            writer.write_bit(0)
            gaps = _gaps_cost(row)
            bits = _row_bits(row)
            if row and bitvector_cost(bits) < gaps:
                writer.write_bit(1)  # dense mode: characteristic bit vector
                encode_bitvector(writer, bits)
            else:
                writer.write_bit(0)  # sparse mode: gamma gaps
                encode_gamma(writer, len(row))
                previous = -1
                for value in row:
                    encode_gamma(writer, value - previous - 1)
                    previous = value
        else:
            writer.write_bit(1)
            if dictionary:
                writer.write_bit(0)  # sibling-row reference
            distance = abs(y - parent)
            encode_gamma(writer, distance - 1)
            writer.write_bit(1 if parent < y else 0)  # 1 = backward
            _encode_reference_body(writer, row, rows[parent])
    return plan


def _encode_reference_body(
    writer: BitWriter, row: Sequence[int], reference_row: Sequence[int]
) -> None:
    """Full-copy flag, copy bit vector (unless full copy), extras."""
    copy_bits, extras = _reference_parts(row, reference_row)
    full_copy = bool(copy_bits) and all(copy_bits)
    writer.write_bit(1 if full_copy else 0)
    if not full_copy:
        encode_bitvector(writer, copy_bits)
    _encode_extras(writer, extras)


def _encode_dictionary_body(
    writer: BitWriter, row: Sequence[int], dictionary: Sequence[int]
) -> None:
    """Full-copy flag or minimal-binary index list, then extras."""
    from repro.util.varint import encode_minimal_binary

    indexes, extras = _dictionary_parts(row, dictionary)
    full_copy = len(indexes) == len(dictionary)
    writer.write_bit(1 if full_copy else 0)
    if not full_copy:
        encode_gamma(writer, len(indexes))
        for index in indexes:
            encode_minimal_binary(writer, index, len(dictionary))
    _encode_extras(writer, extras)


def _encode_extras(writer: BitWriter, extras: Sequence[int]) -> None:
    encode_gamma(writer, len(extras))
    previous = -1
    for value in extras:
        encode_gamma(writer, value - previous - 1)
        previous = value


# How decode_rows read the row it is working on.
_DIRECT, _SIBLING, _DICTIONARY = range(3)


def decode_rows(
    reader: BitReader, dictionary: Sequence[int] | None = None
) -> list[list[int]]:
    """Decode a row collection written by :func:`encode_rows`.

    ``dictionary`` must match what the encoder was given (present for
    superedge graphs, absent for intranode graphs).

    This is the cold read path's inner loop, so it is one fused kernel:
    the reader's window lives in local variables for the whole collection
    (the invariant is in ``util.bitio``) and every flag bit, gamma code
    and dictionary index is a shift and a subtraction on it, marked
    ``# bit:``, ``# gamma:`` and ``# field:`` below.  The field a gamma
    code ends in is ``value + 1`` — a gap, a run, a distance.  Only a
    copy or dense-row bit vector hands the window back to the reader
    (:func:`~repro.util.rle.decode_bitvector` is a kernel of its own).
    """
    data = reader._data
    byte, window, avail = reader._byte, reader._window, reader._avail
    if dictionary:
        # Minimal-binary dictionary indexes: ``short`` bits, one more from
        # ``cutoff`` up (see ``varint.encode_minimal_binary``).
        bound = len(dictionary)
        short = max(0, (bound - 1).bit_length() - 1)
        cutoff = (2 << short) - bound if bound > 1 else 1
    # gamma: row count
    rest = 2 * window.bit_length() - avail - 1
    while rest < 0:
        byte, window, avail = refill(data, byte, window, avail)
        rest = 2 * window.bit_length() - avail - 1
    avail = rest
    count = window >> avail
    window -= count << avail
    count -= 1
    rows: list[list[int] | None] = []
    # Rows whose reference chain was not resolved when they were read:
    # row -> (parent, copy bits or None for a full copy, extras).
    deferred: dict[int, tuple[int, list[int] | None, list[int]]] = {}
    for y in range(count):
        # bit: referenced (1) or direct (0)
        if not avail:
            byte, window, avail = refill(data, byte, window, avail)
        avail -= 1
        if not window >> avail:
            # bit: dense (1) or gap-coded (0)
            if not avail:
                byte, window, avail = refill(data, byte, window, avail)
            avail -= 1
            if window >> avail:
                window -= 1 << avail
                reader._byte, reader._window, reader._avail = byte, window, avail
                bits = decode_bitvector(reader)
                byte, window, avail = reader._byte, reader._window, reader._avail
                rows.append([i for i, bit in enumerate(bits) if bit])
                continue
            kind = _DIRECT
        else:
            window -= 1 << avail
            kind = _SIBLING
            if dictionary:
                # bit: dictionary (1) or sibling-row (0) reference
                if not avail:
                    byte, window, avail = refill(data, byte, window, avail)
                avail -= 1
                if window >> avail:
                    window -= 1 << avail
                    kind = _DICTIONARY
            if kind == _DICTIONARY:
                # bit: copy the whole dictionary
                if not avail:
                    byte, window, avail = refill(data, byte, window, avail)
                avail -= 1
                if window >> avail:
                    window -= 1 << avail
                    copied = list(dictionary)
                else:
                    # gamma: number of dictionary entries used
                    rest = 2 * window.bit_length() - avail - 1
                    while rest < 0:
                        byte, window, avail = refill(data, byte, window, avail)
                        rest = 2 * window.bit_length() - avail - 1
                    avail = rest
                    used = window >> avail
                    window -= used << avail
                    copied = []
                    for _ in range(used - 1):
                        # field: minimal-binary dictionary index
                        while short > avail:
                            byte, window, avail = refill(data, byte, window, avail)
                        avail -= short
                        index = window >> avail
                        window -= index << avail
                        if index >= cutoff:
                            if not avail:
                                byte, window, avail = refill(data, byte, window, avail)
                            avail -= 1
                            bit = window >> avail
                            window -= bit << avail
                            index = (index << 1 | bit) - cutoff
                        copied.append(dictionary[index])
            else:
                # gamma: distance to the referenced row
                rest = 2 * window.bit_length() - avail - 1
                while rest < 0:
                    byte, window, avail = refill(data, byte, window, avail)
                    rest = 2 * window.bit_length() - avail - 1
                avail = rest
                distance = window >> avail
                window -= distance << avail
                # bit: backward (1) or forward (0)
                if not avail:
                    byte, window, avail = refill(data, byte, window, avail)
                avail -= 1
                if window >> avail:
                    window -= 1 << avail
                    parent = y - distance
                else:
                    parent = y + distance
                if not 0 <= parent < count:
                    raise CodecError(f"row {y} references out-of-range row {parent}")
                # bit: full copy
                if not avail:
                    byte, window, avail = refill(data, byte, window, avail)
                avail -= 1
                if window >> avail:
                    window -= 1 << avail
                    copy_bits = None
                else:
                    reader._byte, reader._window, reader._avail = byte, window, avail
                    copy_bits = decode_bitvector(reader)
                    byte, window, avail = reader._byte, reader._window, reader._avail
        # Ascending gap list: a direct row's entries, a referenced row's extras.
        # gamma: length
        rest = 2 * window.bit_length() - avail - 1
        while rest < 0:
            byte, window, avail = refill(data, byte, window, avail)
            rest = 2 * window.bit_length() - avail - 1
        avail = rest
        length = window >> avail
        window -= length << avail
        entries: list[int] = []
        previous = -1
        for _ in range(length - 1):
            # gamma: gap
            rest = 2 * window.bit_length() - avail - 1
            while rest < 0:
                byte, window, avail = refill(data, byte, window, avail)
                rest = 2 * window.bit_length() - avail - 1
            avail = rest
            gap = window >> avail
            window -= gap << avail
            previous += gap
            entries.append(previous)
        if kind == _DIRECT:
            rows.append(entries)
        elif kind == _DICTIONARY:
            rows.append(sorted({*copied, *entries}))
        elif parent < y and rows[parent] is not None:
            rows.append(_apply_reference(rows[parent], copy_bits, entries))
        else:
            rows.append(None)
            deferred[y] = (parent, copy_bits, entries)
    reader._byte, reader._window, reader._avail = byte, window, avail
    if deferred:
        _resolve_deferred(rows, deferred)
    return rows  # type: ignore[return-value]


def _apply_reference(
    base: list[int], copy_bits: list[int] | None, extras: list[int]
) -> list[int]:
    """The row that copies ``base`` under ``copy_bits`` and adds ``extras``.

    ``base`` is ascending and duplicate-free, so is any selection from it:
    only extras force a merge.
    """
    copied = base[:] if copy_bits is None else list(compress(base, copy_bits))
    if extras:
        return sorted({*copied, *extras})
    return copied


def _resolve_deferred(
    rows: list[list[int] | None],
    deferred: dict[int, tuple[int, list[int] | None, list[int]]],
) -> None:
    """Fill in the rows whose chains run through a forward reference."""
    for y in deferred:
        if rows[y] is not None:
            continue
        chain = [y]
        node = deferred[y][0]
        while rows[node] is None:
            if node in chain:
                raise CodecError("cyclic reference chain in encoded rows")
            chain.append(node)
            node = deferred[node][0]
        for current in reversed(chain):
            parent, copy_bits, extras = deferred[current]
            rows[current] = _apply_reference(rows[parent], copy_bits, extras)
