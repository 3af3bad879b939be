"""Core losslessness property: for arbitrary graphs and arbitrary
partitions, the S-Node model + physical encoding preserve every edge.

This is stronger than the pipeline test: the partition here is *random*,
not the refinement's output, so the property covers degenerate shapes
(singleton supernodes, one giant supernode, empty supernodes' worth of
pages with no links, dense negative superedges...).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.partition.partition import Partition
from repro.snode.encode import (
    decode_intranode,
    encode_intranode,
    encode_superedge,
    positive_rows_from_payload,
)
from repro.snode.model import build_model
from repro.snode.numbering import build_numbering
from repro.webdata.corpus import Repository


@st.composite
def graph_partition_case(draw):
    n = draw(st.integers(min_value=1, max_value=28))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=120,
        )
    )
    edges = [(s, t) for s, t in edges if s != t]
    labels = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return n, edges, labels


@settings(deadline=None, max_examples=60)
@given(graph_partition_case())
def test_property_model_and_codecs_are_lossless(case):
    n, edges, labels = case
    urls = [f"http://site{labels[i]}.com/p{i:04d}.html" for i in range(n)]
    repository = Repository.from_parts(urls, edges)
    partition = Partition.from_assignment(
        labels, domains=[f"site{label}.com" for label in labels]
    )
    numbering = build_numbering(repository, partition)
    model = build_model(repository.graph, numbering)

    reconstructed = set()
    boundaries = numbering.boundaries
    # Intranode graphs through the physical codec.
    for supernode, rows in enumerate(model.intranode):
        decoded = decode_intranode(encode_intranode(rows))
        assert decoded == rows
        base = boundaries[supernode]
        for local, row in enumerate(decoded):
            for target in row:
                reconstructed.add((base + local, base + target))
    # Superedge graphs through the physical codec.
    for (source, target), graph in model.superedges.items():
        payload = encode_superedge(graph)
        source_size = numbering.supernode_size(source)
        target_size = numbering.supernode_size(target)
        rows = positive_rows_from_payload(payload, source_size, target_size)
        source_base = boundaries[source]
        target_base = boundaries[target]
        for local, row in rows.linked.items():
            for t in row:
                reconstructed.add((source_base + local, target_base + t))

    expected = {
        (numbering.old_to_new[s], numbering.old_to_new[t])
        for s, t in repository.graph.edges()
    }
    assert reconstructed == expected


@settings(deadline=None, max_examples=30)
@given(graph_partition_case())
def test_property_transpose_model_is_lossless(case):
    n, edges, labels = case
    urls = [f"http://site{labels[i]}.com/p{i:04d}.html" for i in range(n)]
    repository = Repository.from_parts(urls, edges)
    partition = Partition.from_assignment(
        labels, domains=[f"site{label}.com" for label in labels]
    )
    numbering = build_numbering(repository, partition)
    transpose = repository.graph.transpose()
    model = build_model(transpose, numbering)
    total = sum(len(r) for rows in model.intranode for r in rows)
    for (source, target), graph in model.superedges.items():
        if graph.negative:
            target_size = numbering.supernode_size(target)
            total += len(graph.linked_sources) * target_size - graph.num_edges
        else:
            total += graph.num_edges
    assert total == transpose.num_edges
