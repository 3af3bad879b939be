"""Compressed-sparse-row directed graph.

This is the library's ground-truth graph structure: the synthetic Web
generator produces one, every representation scheme (S-Node, Huffman,
Link3, relational, flat file) is built from one, and tests validate each
scheme by comparing reconstructed adjacency lists against it.

The CSR arrays are numpy ``int64`` so a few-million-edge graph stays cheap;
the class is immutable once built (use :class:`GraphBuilder` to construct).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphError


class Digraph:
    """Immutable directed graph over vertex ids ``0 .. n-1`` in CSR form."""

    def __init__(self, offsets: np.ndarray, targets: np.ndarray) -> None:
        if offsets.ndim != 1 or targets.ndim != 1:
            raise GraphError("CSR arrays must be one-dimensional")
        if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(targets):
            raise GraphError("CSR offsets are inconsistent with targets")
        if np.any(np.diff(offsets) < 0):
            raise GraphError("CSR offsets must be non-decreasing")
        n = len(offsets) - 1
        if len(targets) and (targets.min() < 0 or targets.max() >= n):
            raise GraphError("edge target out of vertex range")
        self._offsets = offsets.astype(np.int64, copy=False)
        self._targets = targets.astype(np.int64, copy=False)

    # -- basic properties ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self._offsets) - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self._targets)

    @property
    def offsets(self) -> np.ndarray:
        """CSR offsets array (read-only view)."""
        return self._offsets

    @property
    def targets(self) -> np.ndarray:
        """CSR targets array (read-only view)."""
        return self._targets

    def __repr__(self) -> str:
        return f"Digraph(vertices={self.num_vertices}, edges={self.num_edges})"

    # -- access ---------------------------------------------------------------

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self.num_vertices:
            raise GraphError(
                f"vertex {vertex} out of range [0, {self.num_vertices})"
            )

    def out_degree(self, vertex: int) -> int:
        """Out-degree of ``vertex``."""
        self._check_vertex(vertex)
        return int(self._offsets[vertex + 1] - self._offsets[vertex])

    def successors(self, vertex: int) -> np.ndarray:
        """Adjacency list of ``vertex`` (numpy view, sorted ascending)."""
        self._check_vertex(vertex)
        return self._targets[self._offsets[vertex] : self._offsets[vertex + 1]]

    def successors_list(self, vertex: int) -> list[int]:
        """Adjacency list of ``vertex`` as plain Python ints."""
        return self.successors(vertex).tolist()

    def has_edge(self, source: int, target: int) -> bool:
        """True iff the edge ``source -> target`` exists."""
        row = self.successors(source)
        index = int(np.searchsorted(row, target))
        return index < len(row) and row[index] == target

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all edges as ``(source, target)`` pairs."""
        for source in range(self.num_vertices):
            for target in self.successors(source):
                yield source, int(target)

    def mean_out_degree(self) -> float:
        """Average out-degree (the paper measured 14 on WebBase)."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    # -- derived graphs ---------------------------------------------------------

    def transpose(self) -> "Digraph":
        """Return the transpose graph (all edges reversed, "backlinks")."""
        n = self.num_vertices
        in_degrees = np.bincount(self._targets, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(in_degrees, out=offsets[1:])
        sources = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self._offsets)
        )
        # Stable counting-sort placement keeps each in-list sorted by source.
        order = np.argsort(self._targets, kind="stable")
        targets = sources[order]
        return Digraph(offsets, targets)

    # -- construction helpers -----------------------------------------------

    @classmethod
    def from_adjacency(cls, adjacency: Sequence[Iterable[int]]) -> "Digraph":
        """Build from a list of adjacency iterables (deduplicated, sorted)."""
        builder = GraphBuilder(len(adjacency))
        for source, row in enumerate(adjacency):
            for target in row:
                builder.add_edge(source, target)
        return builder.build()

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[tuple[int, int]]) -> "Digraph":
        """Build from an iterable of ``(source, target)`` pairs."""
        builder = GraphBuilder(num_vertices)
        for source, target in edges:
            builder.add_edge(source, target)
        return builder.build()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (
            np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._targets, other._targets)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)


class GraphBuilder:
    """Mutable edge accumulator that produces a deduplicated :class:`Digraph`.

    Edges are spilled from a small Python append buffer into packed numpy
    ``int64`` chunks every :data:`CHUNK_EDGES` additions, so ingesting a
    multi-million-edge stream holds at most one small Python list plus the
    compact chunk arrays — the builder's memory stays proportional to the
    *edge count in packed form*, never to boxed Python ints.  Chunked edge
    iterables can be fed incrementally via :meth:`add_edges` /
    :meth:`add_links`; :meth:`build` concatenates the chunks once and
    deduplicates in numpy.
    """

    #: Python-side append buffer size before spilling to a numpy chunk.
    CHUNK_EDGES = 1 << 16

    def __init__(self, num_vertices: int) -> None:
        if num_vertices < 0:
            raise GraphError(f"vertex count must be >= 0, got {num_vertices}")
        self._num_vertices = num_vertices
        self._chunks: list[np.ndarray] = []  # packed (source, target) pairs
        self._sources: list[int] = []
        self._targets: list[int] = []

    @property
    def num_vertices(self) -> int:
        """Number of vertices the built graph will have."""
        return self._num_vertices

    def _spill(self) -> None:
        """Move the Python append buffer into a packed numpy chunk."""
        if not self._sources:
            return
        chunk = np.empty((2, len(self._sources)), dtype=np.int64)
        chunk[0] = self._sources
        chunk[1] = self._targets
        self._chunks.append(chunk)
        self._sources.clear()
        self._targets.clear()

    def add_edge(self, source: int, target: int) -> None:
        """Record the edge ``source -> target`` (duplicates collapse)."""
        if not 0 <= source < self._num_vertices:
            raise GraphError(f"source {source} out of range")
        if not 0 <= target < self._num_vertices:
            raise GraphError(f"target {target} out of range")
        self._sources.append(source)
        self._targets.append(target)
        if len(self._sources) >= self.CHUNK_EDGES:
            self._spill()

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> None:
        """Record many edges (any iterable, consumed incrementally)."""
        for source, target in edges:
            self.add_edge(source, target)

    def add_links(self, source: int, targets: Iterable[int]) -> None:
        """Record one source's out-links (an adjacency-row chunk).

        The natural unit a streaming ingest produces — one page record's
        link list goes straight into the packed buffer without building
        per-edge tuples.
        """
        if not 0 <= source < self._num_vertices:
            raise GraphError(f"source {source} out of range")
        for target in targets:
            if not 0 <= target < self._num_vertices:
                raise GraphError(f"target {target} out of range")
            self._sources.append(source)
            self._targets.append(target)
        if len(self._sources) >= self.CHUNK_EDGES:
            self._spill()

    def build(self) -> Digraph:
        """Produce the immutable CSR graph (edges deduplicated and sorted)."""
        n = self._num_vertices
        self._spill()
        if not self._chunks:
            return Digraph(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
        packed = (
            self._chunks[0]
            if len(self._chunks) == 1
            else np.concatenate(self._chunks, axis=1)
        )
        keys = packed[0] * n + packed[1]
        unique_keys = np.unique(keys)
        sources = unique_keys // n
        targets = unique_keys % n
        degrees = np.bincount(sources, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        return Digraph(offsets, targets)
