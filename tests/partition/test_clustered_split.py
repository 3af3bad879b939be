"""Tests for clustered split (supernode-adjacency vectors + k-means)."""

from __future__ import annotations

import random


from repro.graph.digraph import Digraph
from repro.partition.clustered_split import (
    ClusteredSplitConfig,
    clustered_split,
    supernode_adjacency_vectors,
)
from repro.partition.partition import Element, Partition


def two_camp_world() -> tuple[Digraph, Partition]:
    """Pages 0-9: half point into element B, half into element C.

    Element A = pages 0..9, B = 10..14, C = 15..19.
    """
    edges = []
    for page in range(0, 5):
        edges += [(page, 10), (page, 11)]
    for page in range(5, 10):
        edges += [(page, 15), (page, 16)]
    graph = Digraph.from_edges(20, edges)
    partition = Partition(
        20,
        [
            Element(pages=tuple(range(0, 10)), domain="a"),
            Element(pages=tuple(range(10, 15)), domain="b"),
            Element(pages=tuple(range(15, 20)), domain="c"),
        ],
    )
    return graph, partition


class TestAdjacencyVectors:
    def test_vectors_reflect_target_supernodes(self):
        graph, partition = two_camp_world()
        element = partition.elements()[0]
        vectors, neighbors = supernode_adjacency_vectors(
            element, graph, partition.assignment(), 0
        )
        assert vectors.shape == (10, 2)
        assert sorted(neighbors) == [1, 2]
        # Pages 0-4 share one pattern, 5-9 the other.
        assert len({tuple(v) for v in vectors[:5].tolist()}) == 1
        assert len({tuple(v) for v in vectors[5:].tolist()}) == 1
        assert tuple(vectors[0]) != tuple(vectors[9])

    def test_intra_element_links_excluded(self):
        graph = Digraph.from_edges(4, [(0, 1), (1, 0), (0, 2)])
        partition = Partition(
            4,
            [
                Element(pages=(0, 1), domain="a"),
                Element(pages=(2, 3), domain="b"),
            ],
        )
        vectors, neighbors = supernode_adjacency_vectors(
            partition.elements()[0], graph, partition.assignment(), 0
        )
        assert neighbors == [1]
        assert vectors[0, 0] == 1  # page 0 -> element 1
        assert vectors[1, 0] == 0  # page 1 only links inside its element


class TestClusteredSplit:
    def config(self) -> ClusteredSplitConfig:
        return ClusteredSplitConfig(min_cluster_size=1, time_bound_seconds=5.0)

    def test_splits_two_camps(self):
        graph, partition = two_camp_world()
        children = clustered_split(
            partition.elements()[0],
            graph,
            partition.assignment(),
            0,
            random.Random(0),
            self.config(),
        )
        assert children is not None
        assert len(children) == 2
        camps = sorted(tuple(c.pages) for c in children)
        assert camps == [tuple(range(0, 5)), tuple(range(5, 10))]

    def test_identical_vectors_abort(self):
        # All pages of the element point to the same outside target.
        edges = [(p, 4) for p in range(4)]
        graph = Digraph.from_edges(5, edges)
        partition = Partition(
            5,
            [
                Element(pages=(0, 1, 2, 3), domain="a"),
                Element(pages=(4,), domain="b"),
            ],
        )
        result = clustered_split(
            partition.elements()[0], graph, partition.assignment(), 0,
            random.Random(0), self.config(),
        )
        assert result is None

    def test_singleton_element_aborts(self):
        graph = Digraph.from_edges(2, [(0, 1)])
        partition = Partition(
            2, [Element(pages=(0,), domain="a"), Element(pages=(1,), domain="b")]
        )
        result = clustered_split(
            partition.elements()[0], graph, partition.assignment(), 0,
            random.Random(0), self.config(),
        )
        assert result is None

    def test_children_cover_element(self):
        graph, partition = two_camp_world()
        children = clustered_split(
            partition.elements()[0], graph, partition.assignment(), 0,
            random.Random(1), self.config(),
        )
        covered = sorted(p for c in children for p in c.pages)
        assert covered == list(range(0, 10))

    def test_timeout_escalation_aborts(self):
        graph, partition = two_camp_world()
        config = ClusteredSplitConfig(
            time_bound_seconds=0.0, max_attempts=2, min_cluster_size=1,
            max_iterations=500,
        )
        # With a zero time bound k-means cannot converge -> abort (None).
        result = clustered_split(
            partition.elements()[0], graph, partition.assignment(), 0,
            random.Random(0), config,
        )
        assert result is None
