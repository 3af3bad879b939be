"""The per-edge model builder, kept as the test oracle.

This is ``repro.snode.model.build_model`` as it shipped before it became
one pass over a page -> supernode table, moved here verbatim: every edge
looks its target's supernode up through ``Numbering.supernode_of`` (a
bisect), superedge rows are dense lists allocated on a superedge's first
edge, and every row is sorted afterwards.
``tests/snode/test_model_oracle.py`` requires the builder under ``src/``
to return an equal :class:`SNodeModel`.
"""

from __future__ import annotations

from repro.errors import BuildError
from repro.graph.digraph import Digraph
from repro.snode.model import SNodeModel, SuperedgeGraph
from repro.snode.numbering import Numbering


def build_model(
    graph: Digraph, numbering: Numbering, force_positive: bool = False
) -> SNodeModel:
    """Materialize the S-Node model for ``graph`` under ``numbering``.

    ``graph`` must be over *old* page ids; the model is expressed in new
    ids via the numbering.  ``force_positive`` disables the paper's
    positive/negative superedge choice (ablation experiment).
    """
    if graph.num_vertices != numbering.num_pages:
        raise BuildError("graph and numbering disagree on page count")
    n_super = numbering.num_supernodes
    boundaries = numbering.boundaries
    intranode: list[list[list[int]]] = [
        [[] for _ in range(numbering.supernode_size(i))] for i in range(n_super)
    ]
    positive: dict[tuple[int, int], list[list[int]]] = {}
    super_adjacency: list[set[int]] = [set() for _ in range(n_super)]

    for new_source in range(numbering.num_pages):
        old_source = numbering.new_to_old[new_source]
        source_super, source_local = numbering.local_index(new_source)
        for old_target in graph.successors(old_source):
            new_target = numbering.old_to_new[int(old_target)]
            target_super = numbering.supernode_of(new_target)
            target_local = new_target - boundaries[target_super]
            if target_super == source_super:
                intranode[source_super][source_local].append(target_local)
            else:
                key = (source_super, target_super)
                rows = positive.get(key)
                if rows is None:
                    rows = [
                        []
                        for _ in range(numbering.supernode_size(source_super))
                    ]
                    positive[key] = rows
                rows[source_local].append(target_local)
                super_adjacency[source_super].add(target_super)

    for rows in intranode:
        for row in rows:
            row.sort()

    superedges: dict[tuple[int, int], SuperedgeGraph] = {}
    positive_count = 0
    negative_count = 0
    for (source, target), rows in positive.items():
        for row in rows:
            row.sort()
        target_size = numbering.supernode_size(target)
        linked = [local for local, row in enumerate(rows) if row]
        positive_edges = sum(len(rows[local]) for local in linked)
        negative_edges = len(linked) * target_size - positive_edges
        if negative_edges < positive_edges and not force_positive:
            negative_rows: list[tuple[int, ...]] = []
            for local, row in enumerate(rows):
                if not row:
                    negative_rows.append(())
                    continue
                present = set(row)
                negative_rows.append(
                    tuple(t for t in range(target_size) if t not in present)
                )
            superedges[(source, target)] = SuperedgeGraph(
                source=source,
                target=target,
                negative=True,
                rows=tuple(negative_rows),
                linked_sources=tuple(linked),
            )
            negative_count += 1
        else:
            superedges[(source, target)] = SuperedgeGraph(
                source=source,
                target=target,
                negative=False,
                rows=tuple(tuple(row) for row in rows),
            )
            positive_count += 1

    return SNodeModel(
        numbering=numbering,
        super_adjacency=[sorted(adj) for adj in super_adjacency],
        intranode=intranode,
        superedges=superedges,
        positive_count=positive_count,
        negative_count=negative_count,
    )
