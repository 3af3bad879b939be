"""PageRank index over a repository.

Wraps :func:`repro.graph.algorithms.pagerank` with the lookup and top-k
operations the paper's queries use (Query 1 weights pages by "normalized
PageRank value"; Query 3 takes "the top 100 pages in order of PageRank").
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import QueryError
from repro.graph.algorithms import pagerank
from repro.webdata.corpus import Repository


class PageRankIndex:
    """Precomputed PageRank scores with rank/top-k access."""

    def __init__(
        self,
        repository: Repository,
        damping: float = 0.85,
        tolerance: float = 1e-10,
    ) -> None:
        self._scores = pagerank(
            repository.graph, damping=damping, tolerance=tolerance
        )
        self._max = float(self._scores.max()) if len(self._scores) else 0.0

    def score(self, page: int) -> float:
        """Raw PageRank score of ``page`` (scores sum to one)."""
        if not 0 <= page < len(self._scores):
            raise QueryError(f"page {page} out of range")
        return float(self._scores[page])

    def normalized(self, page: int) -> float:
        """Score divided by the maximum score (the paper's page weights)."""
        if self._max == 0.0:
            return 0.0
        return self.score(page) / self._max

    def top_k(self, pages: Iterable[int], k: int) -> list[int]:
        """The ``k`` highest-ranked pages among ``pages`` (best first)."""
        if k < 0:
            raise QueryError(f"k must be >= 0, got {k}")
        candidates = list(pages)
        candidates.sort(key=lambda p: (-self._scores[p], p))
        return candidates[:k]
