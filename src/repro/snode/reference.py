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

Planning costs what the *distinct, target-sharing* row pairs cost: pair
costs are memoised by row content, a parent sharing no target with the row
is never looked at (the lemma and the target index are in
:class:`_CollectionCosts`), one kernel prices a pair, a direct row is
priced from its entries rather than from a bit vector over its span, and
a cycle contraction touches only the edges at its cycle — with the plans
of the pair-by-pair planner, which the tests keep as their oracle.

Planning also skips what its answer cannot depend on.  A pair whose
lower bound (:func:`_parent_floors`, which counts the fewest bits the
runs of its copy vector can take) is not below the row's direct cost
is never priced, since only a cheaper parent becomes an edge.  A
collection that every dictionary plan beats whatever its arborescence
(:func:`_all_dictionary_plan`) never builds the affinity graph, and one
whose graph holds only the root's edges never reaches Edmonds.  The plan
and every edge list Edmonds is handed are the oracle's.

:func:`encode_rows` writes a collection in one kernel on the writer's
accumulator, the mirror of the read side below; the per-field writers
it replaced are the tests' oracle, and the bytes are theirs.

Decoded rows are plain ``list[int]`` (sorted).  Reference chains may point
forward in the full-affinity mode; decoding resolves them iteratively.
:func:`decode_rows` decodes a whole collection and can record where each
row's record starts, and where each row's chain first leaves the *pure
copies* (full copies with no extras, rows equal to their parent's);
given those, :func:`decode_row` decodes one row and the records of its
reference chain that change it, with the same kernel.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, MutableSequence, Sequence
from dataclasses import dataclass
from itertools import compress

from repro.errors import CodecError
from repro.util.bitio import SPILL_BITS, BitReader, BitWriter, refill, spill
from repro.util.rle import decode_bitvector
from repro.util.varint import gamma_cost

#: Above this many rows the encoder switches from the full affinity graph
#: (exact Edmonds arborescence) to windowed candidate references.
DEFAULT_FULL_AFFINITY_LIMIT = 96

#: How many preceding rows are tried as references in windowed mode.
DEFAULT_WINDOW = 8


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

#: ``gamma_cost`` of 0..4095 as a table: the planner's kernels index it
#: where the codecs call the function, once per gap and per run.
_GAMMA_COST = tuple(2 * (value + 1).bit_length() - 1 for value in range(1 << 12))


def _gamma_costs(limit: int) -> Sequence[int]:
    """A table ``t`` with ``t[v] == gamma_cost(v)`` for ``0 <= v <= limit``."""
    if limit < len(_GAMMA_COST):
        return _GAMMA_COST
    return tuple(2 * (value + 1).bit_length() - 1 for value in range(limit + 1))


def _fewest_run_bits(limit: int) -> tuple[int, ...]:
    """``m(n)`` for ``0 <= n < limit``: the fewest bits ``gamma(run - 1)``
    summed over the runs of any split of ``n`` equal bits into runs.

    ``gamma(run - 1)`` is constant while ``run`` stays within ``2**k ..
    2**(k+1) - 1``, and ``m`` never decreases (shortening one run of a
    split never costs more), so the last run of a cheapest split can be
    taken as long as its class allows: ``m(n)`` is the least of
    ``gamma(r - 1) + m(n - r)`` over ``r = min(n, 2**(k+1) - 1)``.
    """
    fewest = [0]
    for n in range(1, limit):
        fewest.append(
            min(
                2 * run.bit_length() - 1 + fewest[n - run]
                for run in {min(n, (2 << k) - 1) for k in range(n.bit_length())}
            )
        )
    return tuple(fewest)


#: :func:`_fewest_run_bits` up to the copy vector lengths the pair floor
#: prices exactly; past them it charges ``min(length, 3)``.
_FEWEST_RUN_BITS = _fewest_run_bits(128)


def _gamma_for(limit: int) -> Callable[[int], int]:
    """``gamma_cost`` for ``0 <= value <= limit``: a look-up where the table
    reaches, the formula past its end."""
    return _GAMMA_COST.__getitem__ if limit < len(_GAMMA_COST) else gamma_cost


def _gaps_cost(row: Sequence[int]) -> int:
    """Bits for the gamma-gap body of ``row``, which must be ascending and
    duplicate-free."""
    if not row:
        return 1  # gamma(0)
    last = row[-1]
    gamma = _gamma_for(max(len(row), last))
    cost = gamma(len(row))
    previous = -1
    for value in row:
        if not previous < value <= last:
            raise CodecError("row entries must be strictly increasing")
        cost += gamma(value - previous - 1)
        previous = value
    return cost


def _row_vector_cost(row: Sequence[int]) -> int:
    """``bitvector_cost`` of the characteristic bit vector of ``row``, up
    to its largest entry, without the vector.

    ``row`` is ascending and duplicate-free (:func:`_gaps_cost` checks),
    so the vector's runs can be read off its entries: a stretch of
    consecutive entries is a run of ones, the gap before it a run of
    zeros, and the last entry ends the vector.  The cost is the scheme
    flag, the gamma-coded span, then the plain bits or the first bit's
    value and ``gamma(run - 1)`` per run, whichever is shorter.
    """
    if not row:
        return 2  # scheme flag and gamma(0)
    span = row[-1] + 1
    gamma = _gamma_for(span)
    rle = 1
    run = 0
    previous = -1
    for value in row:
        if value - previous == 1:
            run += 1
        else:
            if run:
                rle += gamma(run - 1)
            rle += gamma(value - previous - 2)
            run = 1
        previous = value
    return 1 + gamma(span) + min(rle + gamma(run - 1), span)


def direct_cost(row: Sequence[int]) -> int:
    """Bits to encode ``row`` directly.

    Direct rows adaptively use whichever body is smaller: gamma-coded gaps
    (sparse rows) or an RLE/plain bit vector over the row's span (dense
    rows, e.g. navigation pages linking to a whole directory) — the
    paper's "RLE bit vectors or gap encoding" choice.  Layout: flag bit
    (direct) + mode bit + body.
    """
    return 2 + min(_gaps_cost(row), _row_vector_cost(row))


def _extras_cost(
    row: Sequence[int], covered: frozenset[int], extras: int, gamma: Sequence[int]
) -> int:
    """Bits for the ``extras`` entries of ``row`` outside ``covered``: their
    gamma-coded count, then their gamma-coded gaps."""
    cost = gamma[extras]
    if extras:
        previous = -1
        for value in row:
            if value not in covered:
                cost += gamma[value - previous - 1]
                previous = value
    return cost


def _reference_base_cost(
    row: Sequence[int],
    row_set: frozenset[int],
    reference_row: Sequence[int],
    reference_set: frozenset[int],
    gamma: Sequence[int],
) -> int:
    """Bits of ``row``'s reference record against ``reference_row`` less
    its distance code: the referenced flag, the direction bit, the
    full-copy flag, the copy bit vector when not a full copy, and the
    extras.

    This is the planner's kernel.  One pass over ``reference_row`` prices
    the copy bit vector — its RLE runs against its plain length, the
    choice ``bitvector_cost`` makes — and one over ``row`` the gaps of the
    entries ``reference_row`` lacks; a full copy skips the first pass, a
    row without extras the second.  Both rows are ascending and
    duplicate-free, and ``gamma`` covers their lengths and entries.

    Identical consecutive rows are the common case in superedge graphs
    (every page of a directory carrying the same external links), so a
    one-bit "copy everything" fast path pays for itself many times over.
    """
    shared = len(row_set & reference_set)
    length = len(reference_row)
    cost = 3  # referenced flag, direction bit, full-copy flag
    if shared != length or not length:
        # Scheme flag, gamma(length), then plain bits or RLE (the first
        # bit's value and gamma(run - 1) per run), whichever is shorter.
        rle = 0
        if length:
            rle = 1
            run = 0
            current = reference_row[0] in row_set
            for value in reference_row:
                if (value in row_set) is current:
                    run += 1
                else:
                    rle += gamma[run - 1]
                    current = not current
                    run = 1
            rle += gamma[run - 1]
        cost += 1 + gamma[length] + min(rle, length)
    return cost + _extras_cost(row, reference_set, len(row) - shared, gamma)


def _parent_floors(
    row: Sequence[int],
    holders: Mapping[int, Sequence[int]],
    lengths: Sequence[int],
    gamma: Sequence[int],
) -> dict[int, int]:
    """A lower bound on :func:`_reference_base_cost` of ``row`` against
    every parent that shares a target with it, by parent, in one pass over
    ``row``.

    ``holders`` maps each entry of ``row`` to the parents holding it and
    ``lengths`` gives each parent's entry count; ``row`` is ascending and
    ``gamma`` covers the lengths and entries.  The bound is the sum of what
    every reference record holds:

    * the three flags;
    * unless a full copy, the copy bit vector's scheme flag, gamma-coded
      length and at least ``min(length, 1 + m(shared) + m(length -
      shared))`` body bits: plain bits cost the length, and RLE a
      first-bit flag and ``gamma(run - 1)`` per run, where the runs of
      ones split the ``shared`` ones and the runs of zeros the rest, and
      no split of ``n`` bits costs under ``m(n)``
      (:data:`_FEWEST_RUN_BITS`); for a parent longer than that table,
      ``min(length, 3)``, since a vector holding both ones and zeros has
      two runs or more;
    * the gamma-coded count of extras;
    * each extra's gap within the row: its gap within the extras list is
      never smaller, because the extra before it is an entry of the row
      at or before its predecessor in the row.
    """
    # parent -> entries it shares with the row, and the gamma bits of
    # those entries' gaps within the row
    shared: dict[int, int] = {}
    shared_gaps: dict[int, int] = {}
    gaps = 0
    previous = -1
    for target in row:
        gap = gamma[target - previous - 1]
        previous = target
        gaps += gap
        for parent in holders[target]:
            shared[parent] = shared.get(parent, 0) + 1
            shared_gaps[parent] = shared_gaps.get(parent, 0) + gap
    runs = _FEWEST_RUN_BITS
    floors: dict[int, int] = {}
    for parent, common in shared.items():
        floor = 3 + gamma[len(row) - common] + gaps - shared_gaps[parent]
        length = lengths[parent]
        if common != length:
            if length < len(runs):
                body = 1 + runs[common] + runs[length - common]
            else:
                body = 3
            floor += 1 + gamma[length] + min(length, body)
        floors[parent] = floor
    return floors


#: Fewest bits a row reference costs: three flags (referenced, direction,
#: full copy), a gamma-coded distance and a gamma-coded count of extras.
_MIN_REFERENCE_BITS = 5

#: What :meth:`_CollectionCosts.reference_cost` answers for a parent that
#: shares no target with the row: more than any direct cost.
_NO_SHARED_TARGET = 1 << 62


class _CollectionCosts:
    """What the planner derives from one row collection, each thing once.

    Rows of equal content share a *content id*, and with it one frozenset,
    one direct cost and one memo entry per ordered pair of contents: the
    distance between two rows enters a reference's cost only as the
    additive ``gamma_cost(distance - 1)``.  Everything lives as long as
    the ``plan_references`` call that made it.

    **Pruning lemma.**  A parent that shares no target with the row is
    never cheaper than the direct encoding: its copy bit vector is all
    zeros and every entry is an extra, so it costs ``3 + gamma(d - 1) +
    bitvector_cost(0...0) + gaps_cost(row) > 2 + gaps_cost(row) >=
    direct_cost(row)``.  Both planners keep a parent only when it costs
    strictly less than the direct encoding, so answering
    :data:`_NO_SHARED_TARGET` for a disjoint (or empty) pair without
    running the kernel leaves every candidate list as it was.
    """

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        self.rows = rows
        contents: dict[tuple[int, ...], int] = {}
        #: Content id of every row.
        self._ids = [contents.setdefault(tuple(row), len(contents)) for row in rows]
        self._contents = list(contents)
        self._sets = [frozenset(content) for content in contents]
        self._content_direct = [direct_cost(content) for content in contents]
        #: ``direct_cost`` of every row.
        self.direct = [self._content_direct[content] for content in self._ids]
        self._gamma = _gamma_costs(
            max(len(rows), max((c[-1] + 1 for c in contents if c), default=0))
        )
        #: (content id of row, of parent) -> ``_reference_base_cost``.
        self._base: dict[tuple[int, int], int] = {}

    def reference_cost(self, y: int, x: int) -> int:
        """Bits to encode ``rows[y]`` referencing ``rows[x]``, or at least
        :data:`_NO_SHARED_TARGET` when the two rows share no target."""
        key = content, parent_content = self._ids[y], self._ids[x]
        base = self._base.get(key)
        if base is None:
            row_set = self._sets[content]
            parent_set = self._sets[parent_content]
            if row_set.isdisjoint(parent_set):
                base = _NO_SHARED_TARGET
            else:
                base = _reference_base_cost(
                    self._contents[content],
                    row_set,
                    self._contents[parent_content],
                    parent_set,
                    self._gamma,
                )
            self._base[key] = base
        return base + self._gamma[abs(y - x) - 1]

    def affinity_edges(self) -> list[tuple[int, int, int]]:
        """The affinity graph of the collection, root ``len(rows)``.

        Per row ``y`` in order: the root's edge at the direct cost, then
        an edge ``x -> y`` for every other row ``x``, ascending, that
        encodes ``y`` for less than that — the list, in the order, that
        pricing every ordered pair of rows gives.

        **Candidate index.**  By the pruning lemma only a row sharing a
        target with ``y`` can yield an edge, so the parents of ``y`` are
        enumerated from a ``target -> contents holding it`` index rather
        than tried one by one.  A parent whose cost without the distance
        code is not below the direct cost is dropped there, once per pair
        of contents, and unpriced when its :func:`_parent_floors` bound
        already is not; the rows of the contents that remain are put back
        in ascending order, which is the order of the pair-by-pair scan.
        """
        contents, sets, gamma = self._contents, self._sets, self._gamma
        holders: dict[int, list[int]] = {}
        for content, entries in enumerate(contents):
            for target in entries:
                holders.setdefault(target, []).append(content)
        rows_of: list[list[int]] = [[] for _ in contents]
        for y, content in enumerate(self._ids):
            rows_of[content].append(y)
        lengths = [len(entries) for entries in contents]
        #: content id -> (row, cost less the distance code), ascending
        candidates: list[list[tuple[int, int]]] = []
        for content, entries in enumerate(contents):
            direct = self._content_direct[content]
            row_set = sets[content]
            floors = _parent_floors(entries, holders, lengths, gamma)
            if len(rows_of[content]) == 1:
                floors.pop(content, None)  # a row is no parent of itself
            parents: list[tuple[int, int]] = []
            for parent, floor in floors.items():
                if floor >= direct:
                    continue
                base = _reference_base_cost(
                    entries, row_set, contents[parent], sets[parent], gamma
                )
                if base < direct:
                    self._base[(content, parent)] = base
                    parents += [(x, base) for x in rows_of[parent]]
            parents.sort()
            candidates.append(parents)
        root = len(self.rows)
        edges: list[tuple[int, int, int]] = []
        for y, content in enumerate(self._ids):
            direct = self.direct[y]
            edges.append((root, y, direct))
            edges += [
                (x, y, cost)
                for x, base in candidates[content]
                if x != y and (cost := base + gamma[abs(y - x) - 1]) < direct
            ]
        return edges

    def dictionary_costs(self, dictionary: Sequence[int]) -> list[int]:
        """Bits of every row as a dictionary reference (flags included)."""
        members = frozenset(dictionary)
        by_content = [
            2 + _dictionary_body_cost(content, row_set, members, len(dictionary), self._gamma)
            for content, row_set in zip(self._contents, self._sets)
        ]
        return [by_content[content] for content in self._ids]


# ---------------------------------------------------------------------------
# Chu-Liu/Edmonds minimum spanning arborescence
# ---------------------------------------------------------------------------


def minimum_arborescence(
    num_nodes: int, edges: Sequence[tuple[int, int, int]], root: int
) -> dict[int, int]:
    """Chu-Liu/Edmonds: min-weight spanning arborescence rooted at ``root``.

    ``edges`` are ``(source, target, weight)`` triples.  Returns a mapping
    ``node -> parent`` for every node except the root.  Raises
    :class:`CodecError` if some node is unreachable from the root.

    Ties are broken by position in the *edge list*: ``edges`` in the order
    given and, after a contraction, the surviving edges in their old
    order, then one edge into the new super node per outside source (by
    first appearance of the source), then one edge out of it per outside
    target (by first appearance of the target).  A node's parent is the
    first of its cheapest incoming edges in that list, and so are the
    edge kept per outside source and per outside target.  The list is
    never materialised: edges are numbered in list order — a contraction's
    new edges take the next numbers — and kept per target and per source,
    so a contraction reads only the edges that touch its cycle, and only
    a node whose parent was in the cycle looks for a new one.
    """
    sources: list[int] = []
    targets: list[int] = []
    weights: list[int] = []
    in_edges: dict[int, list[int]] = {
        node: [] for node in range(num_nodes) if node != root
    }
    out_edges: dict[int, list[int]] = {}
    for source, target, weight in edges:
        if source != target and target in in_edges:
            in_edges[target].append(len(sources))
            out_edges.setdefault(source, []).append(len(sources))
            sources.append(source)
            targets.append(target)
            weights.append(weight)
    # Edges a contraction replaced stay in the lists of their outside ends.
    alive = [True] * len(sources)

    def first_cheapest(edge_ids: list[int]) -> tuple[int, int]:
        """(source, weight) of the first of the cheapest of ``edge_ids``."""
        edge = min(edge_ids, key=weights.__getitem__)  # the first minimal item
        return sources[edge], weights[edge]

    current_nodes = set(range(num_nodes))
    next_id = num_nodes
    # node -> (source, weight) of its parent edge
    best_in = {
        node: first_cheapest(incoming) for node, incoming in in_edges.items() if incoming
    }
    for node in current_nodes:
        if node != root and node not in best_in:
            raise CodecError(f"node {node} unreachable from arborescence root")
    # Per contraction, how to expand the cycle back out: (super node, each
    # member's parent inside the cycle, outside source -> the member its
    # edge into the super node entered at, outside target -> the member
    # its edge out of the super node left from).
    expansions: list[tuple[int, dict[int, int], dict[int, int], dict[int, int]]] = []

    settled = {root}
    while True:
        cycle = _find_cycle(best_in, current_nodes, settled)
        if cycle is None:
            break
        # Contract the cycle into a fresh super node.
        cycle_set = set(cycle)
        super_node = next_id
        next_id += 1
        cycle_parents = {node: best_in[node][0] for node in cycle}
        cycle_cost = {node: best_in.pop(node)[1] for node in cycle}
        entering: list[int] = []
        leaving: list[int] = []
        for node in cycle:
            for edge in in_edges.pop(node):
                if alive[edge]:
                    alive[edge] = False
                    if sources[edge] not in cycle_set:
                        entering.append(edge)
            for edge in out_edges.pop(node, ()):
                if alive[edge]:
                    alive[edge] = False
                    if targets[edge] not in cycle_set:
                        leaving.append(edge)
        entering.sort()
        leaving.sort()
        # outside source -> (adjusted weight, edge): first of the cheapest
        best_entering: dict[int, tuple[int, int]] = {}
        for edge in entering:
            adjusted = weights[edge] - cycle_cost[targets[edge]]
            incumbent = best_entering.get(sources[edge])
            if incumbent is None or adjusted < incumbent[0]:
                best_entering[sources[edge]] = (adjusted, edge)
        # outside target -> edge: first of the cheapest
        best_leaving: dict[int, int] = {}
        for edge in leaving:
            incumbent = best_leaving.get(targets[edge])
            if incumbent is None or weights[edge] < weights[incumbent]:
                best_leaving[targets[edge]] = edge
        if not best_entering:
            raise CodecError(f"node {super_node} unreachable from arborescence root")
        # The new edges, numbered on from the last: all that enter the
        # super node, then all that leave it.
        incoming = in_edges[super_node] = []
        for source, (adjusted, edge) in best_entering.items():
            incoming.append(len(sources))
            out_edges[source].append(len(sources))
            sources.append(source)
            targets.append(super_node)
            weights.append(adjusted)
        best_in[super_node] = first_cheapest(incoming)
        outgoing = out_edges[super_node] = []
        for target, edge in best_leaving.items():
            outgoing.append(len(sources))
            in_edges[target].append(len(sources))
            sources.append(super_node)
            targets.append(target)
            weights.append(weights[edge])
        alive += [True] * (len(sources) - len(alive))
        for target in best_leaving:
            if best_in[target][0] in cycle_set:
                in_edges[target] = [edge for edge in in_edges[target] if alive[edge]]
                best_in[target] = first_cheapest(in_edges[target])
        expansions.append(
            (
                super_node,
                cycle_parents,
                {source: targets[edge] for source, (_, edge) in best_entering.items()},
                {target: sources[edge] for target, edge in best_leaving.items()},
            )
        )
        current_nodes = (current_nodes - cycle_set) | {super_node}

    parents = {target: source for target, (source, _) in best_in.items()}
    # Expand contractions, the last one first.
    for super_node, cycle_parents, entered_at, left_from in reversed(expansions):
        entry_source = parents.pop(super_node)
        parents.update(cycle_parents)
        parents[entered_at[entry_source]] = entry_source
        # Re-route the edges that left the super node: they only ever led
        # to the outside targets of its contraction.
        for target, member in left_from.items():
            if parents[target] == super_node:
                parents[target] = member
    return parents


def _find_cycle(
    best_in: dict[int, tuple[int, int]],
    nodes: set[int],
    settled: set[int],
) -> list[int] | None:
    """The first cycle of the parent-pointer graph, walking from each node
    of ``nodes`` in turn, or None.

    ``settled`` holds nodes whose parent path reaches the root, the root
    included; the walks skip them and add every node they settle.  A
    contraction never changes a parent on a settled node's path — no
    node of it has its parent in a cycle — so the set stays true from one
    call to the next.  A walk that ends at a node without a parent entry
    (a source outside the graph) settles nothing.
    """
    for start in nodes:
        if start in settled:
            continue
        path: list[int] = []
        on_path: set[int] = set()
        node = start
        while node not in settled:
            if node in on_path:
                return path[path.index(node) :]
            entry = best_in.get(node)
            if entry is None:  # not a node of the graph: the walk ends
                break
            on_path.add(node)
            path.append(node)
            node = entry[0]
        else:
            settled.update(path)
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

    ``total_bits`` is what :func:`encode_rows` writes after the row count
    when ``used_dictionary`` is False.  In dictionary mode it is an upper
    bound: the plan charges every dictionary index the full
    ``ceil(log2 len(dictionary))`` bits, while the minimal-binary code
    written is one bit shorter below its cutoff and empty for a one-entry
    dictionary (ROADMAP item 2 has the exact-cost change; it moves
    payload bytes, so it is a change of its own).
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

    Two skips leave the plan as it would be without them:

    * **All-dictionary shortcut.**  With a dictionary, the plan is first
      tried from direct and dictionary costs alone.  Every row reference
      costs at least :data:`_MIN_REFERENCE_BITS` (three flags, a gamma
      distance and a gamma count of extras), one more bit in dictionary
      mode, and an empty row's only parent is the root.  So when every
      non-empty row's dictionary cost is below ``min(direct, 1 + 5)``, no
      parent can keep a row from the dictionary; and when the dictionary
      total plus the dictionary's own record is below ``sum(min(direct,
      5))``, which no plan of the rows undercuts, the closing comparison
      keeps dictionary mode.  The dictionary plan is then returned
      without building the affinity graph (:func:`_all_dictionary_plan`).
    * **Unpriced pairs.**  :meth:`_CollectionCosts.affinity_edges` runs
      the pricing kernel only on a pair whose lower bound
      (:func:`_parent_floors`) is below the row's direct cost, since a
      pair costing no less than that is never an edge; and
      :func:`_plan_full` hands Edmonds no graph without an edge but the
      root's, whose arborescence is the star.
    """
    m = len(rows)
    if m == 0:
        return EncodingPlan(parents=[], total_bits=0)
    costs = _CollectionCosts(rows)
    if dictionary:
        dictionary_costs = costs.dictionary_costs(dictionary)
        shortcut = _all_dictionary_plan(rows, costs.direct, dictionary_costs, dictionary)
        if shortcut is not None:
            return shortcut
    if m <= full_affinity_limit:
        plan = _plan_full(costs)
    else:
        plan = _plan_windowed(costs, window)
    if not dictionary:
        return plan
    parents = list(plan.parents)
    total = 0
    for y, row in enumerate(rows):
        parent = parents[y]
        if parent == -1:
            current = costs.direct[y]
        else:
            # Row references add one dictionary-flag bit in this mode.
            current = 1 + costs.reference_cost(y, parent)
        if row and dictionary_costs[y] < current:
            parents[y] = DICTIONARY_PARENT
            current = dictionary_costs[y]
        total += current
    # Dictionary mode also pays for serializing the dictionary itself.
    if total + _gaps_cost(dictionary) >= plan.total_bits:
        return plan
    return EncodingPlan(parents=parents, total_bits=total, used_dictionary=True)


def _all_dictionary_plan(
    rows: Sequence[Sequence[int]],
    direct: Sequence[int],
    dictionary_costs: Sequence[int],
    dictionary: Sequence[int],
) -> EncodingPlan | None:
    """The dictionary plan in which every non-empty row takes the
    dictionary, when direct and dictionary costs alone show that
    :func:`plan_references` returns it whatever the parents planned for
    the rows are; None when they do not show it.

    A planned parent costs a row at least ``min(direct, 5)`` bits, and
    ``1 + min(direct, 5)`` once dictionary mode adds its flag bit, so a
    row whose dictionary cost is below ``min(direct, 6)`` takes the
    dictionary under any plan; an empty row is direct under any plan.
    ``sum(min(direct, 5))`` is at most the ``total_bits`` of any plan, so
    a dictionary plan that costs less, its dictionary's record included,
    wins the comparison :func:`plan_references` closes with.
    """
    parents: list[int] = []
    total = 0
    floor = 0  # no plan of the rows costs less
    for row, row_direct, cost in zip(rows, direct, dictionary_costs):
        floor += min(row_direct, _MIN_REFERENCE_BITS)
        if not row:
            parents.append(-1)
            total += row_direct
        elif cost < min(row_direct, 1 + _MIN_REFERENCE_BITS):
            parents.append(DICTIONARY_PARENT)
            total += cost
        else:
            return None
    if total + _gaps_cost(dictionary) >= floor:
        return None
    return EncodingPlan(parents=parents, total_bits=total, used_dictionary=True)


def _dictionary_body_cost(
    row: Sequence[int],
    row_set: frozenset[int],
    members: frozenset[int],
    size: int,
    gamma: Sequence[int],
) -> int:
    """Dictionary-reference body: full-copy flag or index list, plus extras.

    Rows typically use one or two dictionary entries, so an index list
    (positions in a dictionary of ``size`` entries, ``members``) beats a
    bit vector over the whole dictionary; a full copy of the dictionary
    is one bit.
    """
    used = len(row_set & members)
    if used == size:
        cost = 1  # full copy
    else:
        cost = 1 + gamma[used] + used * max(1, (size - 1).bit_length())
    return cost + _extras_cost(row, members, len(row) - used, gamma)


def _plan_full(costs: _CollectionCosts) -> EncodingPlan:
    """Exact Adler-Mitzenmacher plan: Edmonds on the full affinity graph."""
    direct = costs.direct
    m = len(direct)
    root = m  # extra node
    edges = costs.affinity_edges()
    if len(edges) == m:
        # Only the root's edges: the arborescence is the star, all direct.
        return EncodingPlan(parents=[-1] * m, total_bits=sum(direct))
    parents_map = minimum_arborescence(m + 1, edges, root)
    parents = [-1] * m
    total = 0
    for y in range(m):
        parent = parents_map.get(y, root)
        if parent == root:
            total += direct[y]
        else:
            parents[y] = parent
            total += costs.reference_cost(y, parent)
    return EncodingPlan(parents=parents, total_bits=total)


def _plan_windowed(costs: _CollectionCosts, window: int) -> EncodingPlan:
    """Greedy plan: each row picks the cheapest of (direct, prev W rows)."""
    rows = costs.rows
    parents = [-1] * len(rows)
    total = 0
    for y, row in enumerate(rows):
        best_cost = costs.direct[y]
        if row:
            for x in range(max(0, y - window), y):
                cost = costs.reference_cost(y, x)
                if cost < best_cost:
                    best_cost = cost
                    parents[y] = x
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

    This is the build's writer, one fused kernel: the writer's
    accumulator lives in local variables for the whole collection (the
    invariant is in ``util.bitio``) and every field — a flag, a gamma
    code, a dictionary index, a run, a plain copy vector — is one shift
    and one or on it.  A gamma code of ``value`` is the field ``value +
    1`` in ``gamma[value]`` bits, whose leading zeros are the code's
    unary prefix.  A direct row's mode bit and body come from
    :func:`_ascending_code`.
    """
    if plan is None:
        plan = plan_references(rows, window, full_affinity_limit, dictionary)
    parents = plan.parents
    if len(parents) != len(rows):
        raise CodecError("encoding plan does not match row count")
    if plan.used_dictionary and not dictionary:
        raise CodecError("plan uses a dictionary that was not given")
    # Flag-bit layout depends on whether dictionary mode is active.
    dictionary = list(dictionary) if (dictionary and plan.used_dictionary) else None
    gamma = _gamma_costs(max(len(rows), max(map(max, filter(None, rows)), default=0) + 1))
    # dictionary entry -> its minimal-binary index (field, width); see
    # ``varint.encode_minimal_binary``, which writes no bit for a bound of 1
    codes: dict[int, tuple[int, int]] = {}
    sibling, sibling_width = 0b1, 1  # referenced, then "sibling" in dictionary mode
    if dictionary:
        sibling, sibling_width = 0b10, 2
        width = (len(dictionary) - 1).bit_length()
        cutoff = (1 << width) - len(dictionary)
        codes = {
            value: (index, width - 1) if index < cutoff else (index + cutoff, width)
            for index, value in enumerate(dictionary)
        }
    buffer, current, filled = writer._buffer, writer._current, writer._filled
    # gamma: row count
    width = gamma[len(rows)]
    current = current << width | len(rows) + 1
    filled += width
    for y, row in enumerate(rows):
        if filled >= SPILL_BITS:
            current, filled = spill(buffer, current, filled)
        parent = parents[y]
        if parent == DICTIONARY_PARENT:
            if not dictionary:
                raise CodecError("plan references a dictionary that was not given")
            used = sorted(codes[value] for value in row if value in codes)
            extras = [value for value in row if value not in codes]
            if len(used) == len(codes):
                # bits: referenced, dictionary reference, full copy
                current = current << 3 | 0b111
                filled += 3
            else:
                # bits: referenced, dictionary reference, no full copy;
                # gamma: number of entries used
                width = gamma[len(used)]
                current = (current << 3 | 0b110) << width | len(used) + 1
                filled += 3 + width
                for field, width in used:
                    # field: minimal-binary dictionary index
                    current = current << width | field
                    filled += width
        elif parent < 0:
            # bit: direct, then the mode bit and body
            field, width = _ascending_code(row, gamma)
            current = current << 1 + width | field
            filled += 1 + width
            continue
        else:
            # bits: referenced (and sibling-row reference); gamma: distance
            # to the parent; bit: backward (1) or forward (0)
            distance = abs(y - parent)
            if not distance:
                raise CodecError(f"row {y} references itself")
            width = gamma[distance - 1]
            current = (
                (current << sibling_width | sibling) << width | distance
            ) << 1 | (parent < y)
            filled += sibling_width + width + 1
            parent_row = rows[parent]
            parent_set = set(parent_row)
            extras = [value for value in row if value not in parent_set]
            length = len(parent_row)
            if length and len(row) - len(extras) == length:
                # bit: full copy
                current = current << 1 | 1
                filled += 1
            elif not length:
                # bit: no full copy; bit: plain scheme; gamma: 0
                current = current << 3 | 0b001
                filled += 3
            else:
                # bit: no full copy, then the copy bit vector: its plain
                # bits and its RLE runs (``gamma(run - 1)`` each, in
                # ``rle_width`` bits) are gathered in one pass
                row_set = set(row)
                bit = first = parent_row[0] in row_set
                plain = rle = rle_width = run = 0
                for value in parent_row:
                    copied = value in row_set
                    plain = plain << 1 | copied
                    if copied is bit:
                        run += 1
                    else:
                        width = gamma[run - 1]
                        rle = rle << width | run
                        rle_width += width
                        bit = copied
                        run = 1
                width = gamma[run - 1]
                rle = rle << width | run
                rle_width += width
                span = gamma[length]
                if 1 + rle_width < length:
                    # bits: no full copy, RLE scheme; gamma: length; bit:
                    # the first bit's value; then the runs
                    current = (
                        ((current << 2 | 0b01) << span | length + 1) << 1 | first
                    ) << rle_width | rle
                    filled += 3 + span + rle_width
                else:
                    # bits: no full copy, plain scheme; gamma: length;
                    # field: the bits
                    current = ((current << 2) << span | length + 1) << length | plain
                    filled += 2 + span + length
        # gamma: number of extras, then gamma: each extra's gap
        width = gamma[len(extras)]
        current = current << width | len(extras) + 1
        filled += width
        previous = -1
        for value in extras:
            gap = value - previous
            if gap < 1:
                raise CodecError("row entries must be strictly increasing")
            width = gamma[gap - 1]
            current = current << width | gap
            filled += width
            previous = value
    writer._current, writer._filled = current, filled
    return plan


def encode_ascending(writer: BitWriter, row: Sequence[int]) -> None:
    """Mode bit and body of an ascending, duplicate-free list — a direct
    row, or a superedge graph's linked sources: dense (1), its
    characteristic bit vector, when that is shorter, else sparse (0), its
    gamma-coded length and gaps."""
    limit = max(len(row), max(row, default=0)) + 1
    writer.write_bits(*_ascending_code(row, _gamma_costs(limit)))


def _ascending_code(row: Sequence[int], gamma: Sequence[int]) -> tuple[int, int]:
    """``(field, width)``: the mode bit and body :func:`encode_ascending`
    writes for ``row``, ``gamma`` covering its length and entries.

    One pass over the entries gathers both bodies' codes: the gaps, and
    the runs of the characteristic bit vector — a stretch of consecutive
    entries is a run of ones, the gap before it a run of zeros, and the
    last entry ends the vector (the reading of :func:`_row_vector_cost`).
    The bit vector wins, as in :func:`direct_cost`, only when shorter;
    within it RLE wins only when shorter than the plain bits.
    """
    if not row:
        return 0b01, 2  # sparse; gamma: length 0
    gaps = gaps_width = rle = rle_width = run = 0
    previous = -1
    for value in row:
        gap = value - previous
        if gap < 1:
            raise CodecError("row entries must be strictly increasing")
        width = gamma[gap - 1]
        gaps = gaps << width | gap
        gaps_width += width
        if gap == 1:
            run += 1
        else:
            if run:
                width = gamma[run - 1]
                rle = rle << width | run
                rle_width += width
            width = gamma[gap - 2]
            rle = rle << width | gap - 1
            rle_width += width
            run = 1
        previous = value
    width = gamma[run - 1]
    rle = rle << width | run
    rle_width += width
    span = previous + 1
    length_width = gamma[len(row)]
    span_width = gamma[span]
    if 1 + span_width + min(1 + rle_width, span) >= length_width + gaps_width:
        # bit: sparse; gamma: length; the gaps
        return (len(row) + 1) << gaps_width | gaps, 1 + length_width + gaps_width
    if 1 + rle_width < span:
        # bits: dense, RLE scheme; gamma: span; bit: the first bit's value;
        # then the runs
        field = ((0b11 << span_width | span + 1) << 1 | (row[0] == 0)) << rle_width | rle
        return field, 3 + span_width + rle_width
    # bits: dense, plain scheme; gamma: span; field: the bits
    plain = 0
    for value in row:
        plain |= 1 << previous - value
    return (0b10 << span_width | span + 1) << span | plain, 2 + span_width + span


# How decode_rows read the row it is working on.
_DIRECT, _SIBLING, _DICTIONARY = range(3)


def decode_rows(
    reader: BitReader,
    dictionary: Sequence[int] | None = None,
    starts: MutableSequence[int] | None = None,
    jumps: MutableSequence[int] | None = None,
) -> list[list[int]]:
    """Decode a row collection written by :func:`encode_rows`.

    ``dictionary`` must match what the encoder was given (present for
    superedge graphs, absent for intranode graphs).  ``starts``, when
    given, receives the bit offset at which each row's record starts, and
    ``jumps`` each row's jump: the first row up its reference chain, the
    row itself included, that is not a pure copy.  They are the row
    directory :func:`decode_row` reads a single row by.
    """
    data = reader._data
    byte, window, avail = reader._byte, reader._window, reader._avail
    # gamma: row count (refilled here like every field of the kernel, so
    # a reader that was just positioned costs no method call)
    rest = 2 * window.bit_length() - avail - 1
    while rest < 0:
        byte, window, avail = refill(data, byte, window, avail)
        rest = 2 * window.bit_length() - avail - 1
    count = window >> rest
    reader._byte, reader._window, reader._avail = byte, window - (count << rest), rest
    count -= 1
    rows: list[list[int] | None] = []
    # Rows whose reference chain was not resolved when they were read:
    # row -> (parent, copy bits or None for a full copy, extras).
    deferred: dict[int, tuple[int, list[int] | None, list[int]]] = {}
    copies: dict[int, int] | None = None if jumps is None else {}
    _decode_records(reader, dictionary, count, range(count), rows, deferred, starts, copies)
    if deferred:
        _resolve_deferred(rows, deferred)
    if jumps is not None:
        _fill_jumps(jumps, count, copies)  # past the resolve: no chain is cyclic
    return rows  # type: ignore[return-value]


def _fill_jumps(jumps: MutableSequence[int], count: int, copies: dict[int, int]) -> None:
    """Append the jump of each of ``count`` rows to ``jumps``; ``copies``
    maps each pure copy to its parent and holds no cycle."""
    jumps.extend(range(count))
    for y in copies:
        path = []
        node = y
        while node in copies and jumps[node] == node:
            path.append(node)
            node = copies[node]
        node = jumps[node]
        for step in path:
            jumps[step] = node


def decode_row(
    data: bytes,
    starts: Sequence[int],
    y: int,
    dictionary: Sequence[int] | None,
    decoded: dict[int, list[int]],
    jumps: Sequence[int],
) -> list[int]:
    """Row ``y`` of the collection in ``data`` whose records start at the
    bit offsets ``starts``, decoded without its siblings.

    The walk starts at ``jumps[y]`` and reads that row's record alone; a
    sibling reference then reads the record of its parent's jump the
    same way, forward or backward, until a direct or dictionary row — or
    a row already in ``decoded`` — ends the chain.  ``jumps`` is what
    :func:`decode_rows` learned, or ``range(len(starts))`` to read every
    record of the chain.  Every row read, and ``y``'s own copy, is stored
    in ``decoded``, each with one dict store, so threads sharing
    ``decoded`` may race: they compute equal rows.  A chain that returns
    to a row raises :class:`CodecError`, as in :func:`decode_rows`.
    """
    count = len(starts)
    if not 0 <= y < count:
        raise IndexError(f"row {y} outside a collection of {count}")
    reader = BitReader(data)
    # The kernel knows no row, so a sibling reference comes back deferred
    # as its parent, copy bits and extras; one record at a time.
    records: list[list[int] | None] = []
    deferred: dict[int, tuple[int, list[int] | None, list[int]]] = {}
    # The rows read so far whose parent was not known yet, from
    # ``jumps[y]`` on: row -> (copy bits or None for a full copy, extras).
    chain: dict[int, tuple[list[int] | None, list[int]]] = {}
    first = node = jumps[y]
    while (row := decoded.get(node)) is None:
        if node in chain:
            raise CodecError("cyclic reference chain in encoded rows")
        reader.seek(starts[node])
        _decode_records(
            reader, dictionary, count, range(node, node + 1), records, deferred, None, None
        )
        row = records.pop()
        if row is not None:
            decoded[node] = row
            break
        parent, copy_bits, extras = deferred.pop(node)
        chain[node] = (copy_bits, extras)
        node = jumps[parent]
    for node, (copy_bits, extras) in reversed(chain.items()):
        row = decoded[node] = _apply_reference(row, copy_bits, extras)
    if first != y:  # ``y`` copies ``first``'s row: a list of its own
        row = decoded[y] = row[:]
    return row


def _decode_records(
    reader: BitReader,
    dictionary: Sequence[int] | None,
    count: int,
    ys: range,
    rows: list[list[int] | None],
    deferred: dict[int, tuple[int, list[int] | None, list[int]]],
    starts: MutableSequence[int] | None,
    copies: dict[int, int] | None,
) -> None:
    """Read the records of rows ``ys`` of a collection of ``count`` rows,
    ``reader`` at the first of them, appending each row to ``rows``.

    ``rows`` holds rows ``0 .. len(rows) - 1`` (None where not known), or
    nothing when one record is read alone.  A row that copies a known row
    is appended resolved; one whose parent is not known is appended as
    None and its record put in ``deferred``.
    ``starts`` and ``copies``, when given, receive each row's bit offset
    and, for each pure copy (a full copy with no extras), its parent.

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
    for y in ys:
        if starts is not None:
            starts.append(8 * byte - avail)
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
        else:
            if copies is not None and copy_bits is None and not entries:
                copies[y] = parent
            if parent < len(rows) and rows[parent] is not None:
                rows.append(_apply_reference(rows[parent], copy_bits, entries))
            else:
                rows.append(None)
                deferred[y] = (parent, copy_bits, entries)
    reader._byte, reader._window, reader._avail = byte, window, avail


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
