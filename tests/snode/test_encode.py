"""Tests for the physical encoders (supernode graph, intranode, superedge)."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.snode.encode import (
    POINTER_BYTES,
    decode_intranode,
    decode_superedge_payload,
    decode_supernode_graph,
    encode_intranode,
    encode_superedge,
    encode_supernode_graph,
    positive_rows_from_payload,
)
from repro.snode.model import SuperedgeGraph


class TestSupernodeGraph:
    def test_roundtrip_simple(self):
        adjacency = [[1, 2], [2], [], [0, 1, 2]]
        data = encode_supernode_graph(adjacency)
        assert decode_supernode_graph(data) == adjacency

    def test_empty_graph(self):
        assert decode_supernode_graph(encode_supernode_graph([])) == []

    def test_single_vertex_no_edges(self):
        assert decode_supernode_graph(encode_supernode_graph([[]])) == [[]]

    def test_high_in_degree_gets_short_code(self):
        # Vertex 0 is referenced everywhere: its Huffman code must be short,
        # so graphs dominated by links to 0 are smaller than uniform graphs.
        n = 30
        skewed = [[0] for _ in range(n)]
        uniform = [[i % n] for i in range(1, n + 1)]
        assert len(encode_supernode_graph(skewed)) < len(
            encode_supernode_graph(uniform)
        )

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=1, max_value=25).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, n - 1), max_size=6, unique=True).map(sorted),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_property_roundtrip(self, adjacency):
        data = encode_supernode_graph(adjacency)
        assert decode_supernode_graph(data) == adjacency


class TestIntranode:
    def test_roundtrip_with_empties(self):
        rows = [[1, 2], [], [0], []]
        assert decode_intranode(encode_intranode(rows)) == rows

    def test_empty_collection(self):
        assert decode_intranode(encode_intranode([])) == []

    def test_no_dictionary_mode(self):
        rows = [[1], [1], [1], [2, 3]]
        data = encode_intranode(rows, use_dictionary=False)
        assert decode_intranode(data) == rows

    def test_similar_rows_compress(self):
        rng = random.Random(0)
        base = sorted(rng.sample(range(200), 15))
        similar = [base for _ in range(40)]
        dissimilar = [sorted(rng.sample(range(200), 15)) for _ in range(40)]
        assert len(encode_intranode(similar)) < len(encode_intranode(dissimilar)) / 2


def make_superedge(rows, negative=False, linked=()):
    return SuperedgeGraph(
        source=0,
        target=1,
        negative=negative,
        rows=tuple(tuple(r) for r in rows),
        linked_sources=tuple(linked),
    )


def dense(rows):
    """Every source local's row of a ``SuperedgeRows``, empties included."""
    return [rows.row(local) for local in range(rows.source_size)]


class TestSuperedge:
    def test_positive_roundtrip(self):
        rows = [[0, 2], [], [1], []]
        payload = encode_superedge(make_superedge(rows))
        negative, linked, decoded = decode_superedge_payload(payload)
        assert not negative
        assert linked == [0, 2]
        assert decoded == [[0, 2], [1]]

    def test_positive_rows_from_payload(self):
        rows = [[0, 2], [], [1], []]
        payload = encode_superedge(make_superedge(rows))
        assert dense(positive_rows_from_payload(payload, 4, 3)) == rows

    def test_negative_roundtrip(self):
        # Sources 0 and 1 link to everything except what's listed.
        rows = [(2,), ()]  # source 0 misses target 2; source 1 misses none
        graph = make_superedge(rows, negative=True, linked=(0, 1))
        payload = encode_superedge(graph)
        positive = positive_rows_from_payload(payload, source_size=2, target_size=3)
        assert dense(positive) == [[0, 1], [0, 1, 2]]

    def test_all_sources_unlinked(self):
        payload = encode_superedge(make_superedge([[], [], []]))
        rows = positive_rows_from_payload(payload, 3, 5)
        assert rows.linked == {}
        assert dense(rows) == [[], [], []]

    def test_repeated_singleton_rows_are_tiny(self):
        many = [[3]] * 100
        few = [[i % 7] for i in range(100)]
        assert len(encode_superedge(make_superedge(many))) < len(
            encode_superedge(make_superedge(few))
        )


class TestSizeAccounting:
    def test_pointer_bytes_constant(self):
        assert POINTER_BYTES == 4

    def test_supernode_graph_size_includes_pointers(self, small_build):
        from repro.snode.encode import supernode_graph_size_bytes

        model = small_build.model
        size = supernode_graph_size_bytes(model)
        payload = len(encode_supernode_graph(model.super_adjacency))
        assert size == payload + 4 * (model.num_supernodes + model.num_superedges)
