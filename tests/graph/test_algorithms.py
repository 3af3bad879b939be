"""Tests for graph algorithms (BFS, SCC, PageRank, HITS, neighborhoods)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph.algorithms import (
    bfs_distances,
    hits,
    in_neighborhood,
    kleinberg_base_set,
    out_neighborhood,
    pagerank,
    strongly_connected_components,
)
from repro.graph.digraph import Digraph


def path_graph(n: int) -> Digraph:
    return Digraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Digraph:
    return Digraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestBFS:
    def test_distances_on_path(self):
        distances = bfs_distances(path_graph(5), [0])
        assert list(distances) == [0, 1, 2, 3, 4]

    def test_unreachable_marked_minus_one(self):
        graph = Digraph.from_edges(3, [(0, 1)])
        distances = bfs_distances(graph, [0])
        assert distances[2] == -1

    def test_multi_source(self):
        # Directed path: source 4 reaches nothing new, source 0 the rest.
        distances = bfs_distances(path_graph(5), [0, 4])
        assert list(distances) == [0, 1, 2, 3, 0]

    def test_invalid_source(self):
        with pytest.raises(GraphError):
            bfs_distances(path_graph(3), [5])


class TestSCC:
    def test_cycle_is_one_component(self):
        components = strongly_connected_components(cycle_graph(6))
        assert len(components) == 1
        assert sorted(components[0]) == list(range(6))

    def test_dag_gives_singletons(self):
        components = strongly_connected_components(path_graph(5))
        assert sorted(len(c) for c in components) == [1] * 5

    def test_two_cycles_with_bridge(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
        components = strongly_connected_components(Digraph.from_edges(6, edges))
        sizes = sorted(len(c) for c in components)
        assert sizes == [3, 3]

    def test_empty_graph(self):
        assert strongly_connected_components(Digraph.from_edges(0, [])) == []

    def test_deep_chain_no_recursion_error(self):
        # An iterative implementation must survive 50k-deep structures.
        graph = path_graph(50_000)
        components = strongly_connected_components(graph)
        assert len(components) == 50_000


class TestPageRank:
    def test_scores_sum_to_one(self):
        scores = pagerank(cycle_graph(10))
        assert scores.sum() == pytest.approx(1.0)

    def test_symmetric_cycle_is_uniform(self):
        scores = pagerank(cycle_graph(8))
        assert np.allclose(scores, 1 / 8, atol=1e-8)

    def test_sink_handled(self):
        graph = Digraph.from_edges(3, [(0, 2), (1, 2)])
        scores = pagerank(graph)
        assert scores.sum() == pytest.approx(1.0)
        assert scores[2] > scores[0]

    def test_hub_attracts_rank(self):
        edges = [(i, 0) for i in range(1, 10)]
        scores = pagerank(Digraph.from_edges(10, edges))
        assert scores[0] == max(scores)

    def test_invalid_damping(self):
        with pytest.raises(GraphError):
            pagerank(cycle_graph(3), damping=1.5)

    def test_empty_graph(self):
        assert len(pagerank(Digraph.from_edges(0, []))) == 0


class TestHITS:
    def test_authority_on_star(self):
        # pages 1..4 all point to 0: 0 is the authority, others hubs
        edges = [(i, 0) for i in range(1, 5)]
        graph = Digraph.from_edges(5, edges)
        authority, hub = hits(graph, graph.transpose(), list(range(5)))
        assert authority[0] == max(authority.values())
        assert hub[0] == min(hub.values())

    def test_scores_for_all_requested_pages(self):
        graph = cycle_graph(6)
        authority, hub = hits(graph, graph.transpose(), [0, 1, 2])
        assert set(authority) == {0, 1, 2}
        assert set(hub) == {0, 1, 2}


class TestNeighborhoods:
    def test_out_neighborhood(self):
        graph = Digraph.from_adjacency([[1, 2], [3], [], []])
        assert out_neighborhood(graph, [0, 1]) == {1, 2, 3}

    def test_in_neighborhood_via_transpose(self):
        graph = Digraph.from_adjacency([[1, 2], [2], [], []])
        assert in_neighborhood(graph.transpose(), [2]) == {0, 1}

    def test_kleinberg_base_set(self):
        graph = Digraph.from_adjacency([[1], [2], [], [0]])
        base = kleinberg_base_set(graph, graph.transpose(), [0])
        assert base == {0, 1, 3}

@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=2, max_value=20).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=60,
            ),
        )
    )
)
def test_property_scc_partitions_vertices(case):
    n, edges = case
    graph = Digraph.from_edges(n, edges)
    components = strongly_connected_components(graph)
    flattened = sorted(v for component in components for v in component)
    assert flattened == list(range(n))


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=2, max_value=15).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=1,
                max_size=50,
            ),
        )
    )
)
def test_property_pagerank_is_probability_vector(case):
    n, edges = case
    scores = pagerank(Digraph.from_edges(n, edges))
    assert scores.sum() == pytest.approx(1.0, abs=1e-6)
    assert (scores >= 0).all()
