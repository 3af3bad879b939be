"""Tests for the CSR digraph and its builder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import GraphError
from repro.graph.digraph import Digraph, GraphBuilder


def small_graph() -> Digraph:
    return Digraph.from_adjacency([[1, 2], [2], [0], []])


class TestBuilder:
    def test_empty_graph(self):
        graph = GraphBuilder(0).build()
        assert graph.num_vertices == 0
        assert graph.num_edges == 0

    def test_duplicate_edges_collapse(self):
        builder = GraphBuilder(3)
        builder.add_edge(0, 1)
        builder.add_edge(0, 1)
        builder.add_edge(0, 2)
        graph = builder.build()
        assert graph.successors_list(0) == [1, 2]
        assert graph.num_edges == 2

    def test_adjacency_is_sorted(self):
        builder = GraphBuilder(5)
        builder.add_edges([(0, 4), (0, 1), (0, 3)])
        assert builder.build().successors_list(0) == [1, 3, 4]

    def test_out_of_range_rejected(self):
        builder = GraphBuilder(2)
        with pytest.raises(GraphError):
            builder.add_edge(0, 2)
        with pytest.raises(GraphError):
            builder.add_edge(-1, 0)

    def test_add_links_matches_per_edge_adds(self):
        rows = [[1, 2, 2], [0], [], [0, 1, 3]]
        by_edge, by_links = GraphBuilder(4), GraphBuilder(4)
        for source, targets in enumerate(rows):
            for target in targets:
                by_edge.add_edge(source, target)
            by_links.add_links(source, targets)
        a, b = by_edge.build(), by_links.build()
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.targets, b.targets)

    def test_add_links_range_checked(self):
        builder = GraphBuilder(2)
        with pytest.raises(GraphError):
            builder.add_links(0, [1, 2])
        with pytest.raises(GraphError):
            builder.add_links(2, [0])

    def test_chunk_spill_preserves_edges(self, monkeypatch):
        # Force tiny spill chunks so a small stream crosses many chunk
        # boundaries — the built CSR must not care where they fell.
        monkeypatch.setattr(GraphBuilder, "CHUNK_EDGES", 7)
        rng = np.random.default_rng(5)
        edges = [(int(s), int(t)) for s, t in rng.integers(0, 40, size=(500, 2))]
        chunked = GraphBuilder(40)
        chunked.add_edges(edges)
        assert len(chunked._chunks) >= 500 // 7
        monkeypatch.undo()
        plain = GraphBuilder(40)
        plain.add_edges(edges)
        a, b = chunked.build(), plain.build()
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.targets, b.targets)


class TestDigraph:
    def test_degrees(self):
        graph = small_graph()
        assert graph.out_degree(0) == 2
        assert graph.out_degree(3) == 0
        assert graph.mean_out_degree() == pytest.approx(1.0)

    def test_has_edge(self):
        graph = small_graph()
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)

    def test_edges_iterator(self):
        assert sorted(small_graph().edges()) == [(0, 1), (0, 2), (1, 2), (2, 0)]

    def test_vertex_range_checked(self):
        with pytest.raises(GraphError):
            small_graph().successors(4)

    def test_transpose_reverses_every_edge(self):
        graph = small_graph()
        transpose = graph.transpose()
        assert sorted(transpose.edges()) == sorted(
            (t, s) for s, t in graph.edges()
        )

    def test_transpose_involution(self):
        graph = small_graph()
        assert graph.transpose().transpose() == graph

    def test_invalid_csr_rejected(self):
        with pytest.raises(GraphError):
            Digraph(np.array([0, 2, 1]), np.array([0, 1]))
        with pytest.raises(GraphError):
            Digraph(np.array([0, 1]), np.array([5]))


@given(
    st.integers(min_value=1, max_value=30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ),
                max_size=100,
            ),
        )
    )
)
def test_property_transpose_preserves_edge_count(case):
    n, edges = case
    graph = Digraph.from_edges(n, edges)
    transpose = graph.transpose()
    assert transpose.num_edges == graph.num_edges
    assert sorted(transpose.edges()) == sorted((t, s) for s, t in graph.edges())
