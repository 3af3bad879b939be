"""Logical S-Node model (paper section 2).

Given the Web graph and a partition (via its :class:`Numbering`), this
module materializes the three graph families of the representation:

* the **supernode graph** — one vertex per partition element, a superedge
  ``i -> j`` iff some page of i points into j;
* one **intranode graph** per supernode — links among its own pages, over
  local indices ``0..size-1``;
* one **superedge graph** per superedge — either the *positive* bipartite
  graph (links that exist) or the *negative* one (links that are absent),
  whichever has fewer edges, as the paper's compactness heuristic dictates.

Rows everywhere are indexed by the source page's local index inside its
supernode, and row entries are the target page's local index inside the
*target* supernode.  All ids here are *new* (post-renumbering) ids.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BuildError
from repro.graph.digraph import Digraph
from repro.snode.numbering import Numbering


@dataclass(frozen=True)
class SuperedgeGraph:
    """One encoded-side superedge graph: rows over the source supernode.

    ``negative=False``: ``rows[s]`` lists target locals that s links to.
    ``negative=True``: ``rows[s]`` lists target locals that s does *not*
    link to — but only for sources with at least one actual link into the
    target supernode (sources with no links at all stay empty-positive,
    matching the paper's vertex-set definition of SEdgeNeg, which only
    contains pages involved in the superedge).
    """

    source: int
    target: int
    negative: bool
    rows: tuple[tuple[int, ...], ...]
    # Local indices (in the source supernode) of pages that have at least
    # one link into the target supernode; only meaningful for negative
    # graphs, where a missing row must be distinguished from a full row.
    linked_sources: tuple[int, ...] = ()

    @property
    def num_edges(self) -> int:
        """Number of encoded edges (positive links or negative 'holes')."""
        return sum(len(row) for row in self.rows)


@dataclass
class SNodeModel:
    """Complete logical S-Node representation (pre-serialization)."""

    numbering: Numbering
    super_adjacency: list[list[int]]  # supernode graph, i -> sorted js
    intranode: list[list[list[int]]]  # [supernode][local source] -> locals
    superedges: dict[tuple[int, int], SuperedgeGraph]
    positive_count: int = 0
    negative_count: int = 0

    @property
    def num_supernodes(self) -> int:
        """Number of supernodes."""
        return self.numbering.num_supernodes

    @property
    def num_superedges(self) -> int:
        """Number of superedges in the supernode graph."""
        return sum(len(row) for row in self.super_adjacency)


def decode_superedge(graph: SuperedgeGraph, target_size: int) -> list[list[int]]:
    """Positive rows of a superedge graph, whatever its stored polarity."""
    if not graph.negative:
        return [list(row) for row in graph.rows]
    linked = set(graph.linked_sources)
    positive: list[list[int]] = []
    for local, row in enumerate(graph.rows):
        if local not in linked:
            positive.append([])
            continue
        missing = set(row)
        positive.append([t for t in range(target_size) if t not in missing])
    return positive


def build_model(
    graph: Digraph, numbering: Numbering, force_positive: bool = False
) -> SNodeModel:
    """Materialize the S-Node model for ``graph`` under ``numbering``.

    ``graph`` must be over *old* page ids; the model is expressed in new
    ids via the numbering.  ``force_positive`` disables the paper's
    positive/negative superedge choice (ablation experiment).

    One pass over the pages in new-id order.  A page's targets are
    renumbered and sorted, which groups them by supernode — a supernode
    owns a contiguous id range — and leaves every row ascending: each
    (page, target supernode) row is started once and only appended to.
    """
    if graph.num_vertices != numbering.num_pages:
        raise BuildError("graph and numbering disagree on page count")
    boundaries = numbering.boundaries
    old_to_new, new_to_old = numbering.old_to_new, numbering.new_to_old
    sizes = [end - first for first, end in zip(boundaries, boundaries[1:])]
    #: New page id -> its supernode: the PageID index, unrolled.
    supernode_of = [node for node, size in enumerate(sizes) for _ in range(size)]
    model = SNodeModel(
        numbering=numbering, super_adjacency=[], intranode=[], superedges={}
    )
    for source, size in enumerate(sizes):
        first = boundaries[source]
        intranode: list[list[int]] = []
        #: target supernode -> source local -> ascending target locals
        outgoing: dict[int, dict[int, list[int]]] = {}
        for local in range(size):
            own: list[int] = []
            row, current, base = own, source, first
            successors = graph.successors(new_to_old[first + local]).tolist()
            for new_target in sorted([old_to_new[old] for old in successors]):
                target = supernode_of[new_target]
                if target != current:
                    current, base = target, boundaries[target]
                    if target == source:
                        row = own
                    else:
                        row = outgoing.setdefault(target, {})[local] = []
                row.append(new_target - base)
            intranode.append(own)
        model.intranode.append(intranode)
        model.super_adjacency.append(sorted(outgoing))
        for target in model.super_adjacency[-1]:
            superedge = _superedge_graph(
                source, target, outgoing[target], size, sizes[target], force_positive
            )
            model.superedges[(source, target)] = superedge
            if superedge.negative:
                model.negative_count += 1
            else:
                model.positive_count += 1
    return model


def _superedge_graph(
    source: int,
    target: int,
    linked_rows: dict[int, list[int]],
    source_size: int,
    target_size: int,
    force_positive: bool,
) -> SuperedgeGraph:
    """The superedge graph of the positive ``linked_rows`` (source local ->
    target locals, linked sources only, ascending): stored negative when
    that has fewer edges, the paper's compactness heuristic."""
    positive_edges = sum(map(len, linked_rows.values()))
    negative_edges = len(linked_rows) * target_size - positive_edges
    negative = negative_edges < positive_edges and not force_positive
    rows: list[tuple[int, ...]] = [()] * source_size
    for local, row in linked_rows.items():
        if negative:
            present = set(row)
            rows[local] = tuple(t for t in range(target_size) if t not in present)
        else:
            rows[local] = tuple(row)
    return SuperedgeGraph(
        source=source,
        target=target,
        negative=negative,
        rows=tuple(rows),
        linked_sources=tuple(linked_rows) if negative else (),
    )
