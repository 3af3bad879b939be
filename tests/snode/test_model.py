"""Tests for the logical S-Node model (paper section 2 definitions)."""

from __future__ import annotations

from repro.partition.partition import Element, Partition
from repro.snode.model import build_model, decode_superedge
from repro.snode.numbering import build_numbering
from repro.webdata.corpus import Repository


def dense_pair_setup():
    """Figure-3-like setup: N1 = {0,1}, N2 = {2,3,4}.

    Pages 0 and 1 point to ALL pages of N2 (dense -> negative superedge
    wins) and to each other (intranode edges).
    """
    urls = [f"http://a.com/p{i}.html" for i in range(2)] + [
        f"http://b.com/p{i}.html" for i in range(3)
    ]
    edges = [(0, 1), (1, 0)]
    edges += [(0, t) for t in (2, 3, 4)]
    edges += [(1, t) for t in (2, 3, 4)]
    repo = Repository.from_parts(urls, edges)
    partition = Partition(
        5,
        [
            Element(pages=(0, 1), domain="a.com"),
            Element(pages=(2, 3, 4), domain="b.com"),
        ],
    )
    numbering = build_numbering(repo, partition)
    return repo, numbering


class TestSupernodeGraph:
    def test_superedge_exists_iff_some_link(self):
        repo, numbering = dense_pair_setup()
        model = build_model(repo.graph, numbering)
        assert model.super_adjacency[0] == [1]
        assert model.super_adjacency[1] == []

    def test_superedge_count(self):
        repo, numbering = dense_pair_setup()
        model = build_model(repo.graph, numbering)
        assert model.num_superedges == 1


class TestIntranode:
    def test_intranode_holds_internal_links(self):
        repo, numbering = dense_pair_setup()
        model = build_model(repo.graph, numbering)
        rows = model.intranode[0]
        assert rows[0] == [1]
        assert rows[1] == [0]

    def test_empty_intranode_for_unlinked_supernode(self):
        repo, numbering = dense_pair_setup()
        model = build_model(repo.graph, numbering)
        assert all(row == [] for row in model.intranode[1])


class TestSuperedgePolarity:
    def test_dense_links_become_negative_graph(self):
        repo, numbering = dense_pair_setup()
        model = build_model(repo.graph, numbering)
        graph = model.superedges[(0, 1)]
        # Both sources link to ALL three targets: zero negative edges.
        assert graph.negative
        assert graph.num_edges == 0
        assert sorted(graph.linked_sources) == [0, 1]

    def test_force_positive_flag(self):
        repo, numbering = dense_pair_setup()
        model = build_model(repo.graph, numbering, force_positive=True)
        graph = model.superedges[(0, 1)]
        assert not graph.negative
        assert graph.num_edges == 6
        assert model.negative_count == 0

    def test_sparse_links_stay_positive(self):
        urls = [f"http://a.com/p{i}.html" for i in range(3)] + [
            f"http://b.com/p{i}.html" for i in range(5)
        ]
        repo = Repository.from_parts(urls, [(0, 4)])
        partition = Partition(
            8,
            [
                Element(pages=(0, 1, 2), domain="a.com"),
                Element(pages=(3, 4, 5, 6, 7), domain="b.com"),
            ],
        )
        numbering = build_numbering(repo, partition)
        model = build_model(repo.graph, numbering)
        graph = model.superedges[(0, 1)]
        assert not graph.negative
        assert graph.num_edges == 1

    def test_decode_superedge_inverts_negative(self):
        repo, numbering = dense_pair_setup()
        model = build_model(repo.graph, numbering)
        graph = model.superedges[(0, 1)]
        positive = decode_superedge(graph, target_size=3)
        assert positive == [[0, 1, 2], [0, 1, 2]]

class TestModelEquivalence:
    def test_model_preserves_every_edge(self, small_repo, small_partition):
        numbering = build_numbering(small_repo, small_partition)
        model = build_model(small_repo.graph, numbering)
        # Reconstruct the full edge set from the model.
        edges = set()
        boundaries = numbering.boundaries
        for supernode, rows in enumerate(model.intranode):
            base = boundaries[supernode]
            for local, row in enumerate(rows):
                for target in row:
                    edges.add((base + local, base + target))
        for (source, target), graph in model.superedges.items():
            source_base = boundaries[source]
            target_base = boundaries[target]
            target_size = numbering.supernode_size(target)
            for local, row in enumerate(decode_superedge(graph, target_size)):
                for t in row:
                    edges.add((source_base + local, target_base + t))
        expected = {
            (numbering.old_to_new[s], numbering.old_to_new[t])
            for s, t in small_repo.graph.edges()
        }
        assert edges == expected
