"""Tests for the PageRank index."""

from __future__ import annotations

import pytest

from repro.errors import QueryError
from repro.index.pagerank_index import PageRankIndex
from repro.webdata.corpus import Repository


@pytest.fixture()
def index():
    # Star: everyone points at page 0.
    urls = [f"http://a.com/p{i}.html" for i in range(6)]
    edges = [(i, 0) for i in range(1, 6)]
    return PageRankIndex(Repository.from_parts(urls, edges))


class TestPageRankIndex:
    def test_hub_has_top_score(self, index):
        assert index.score(0) == max(index.score(i) for i in range(6))

    def test_normalized_max_is_one(self, index):
        assert index.normalized(0) == pytest.approx(1.0)
        assert 0.0 < index.normalized(3) < 1.0

    def test_scores_sum_to_one(self, index):
        assert sum(index.score(i) for i in range(6)) == pytest.approx(1.0)

    def test_top_k(self, index):
        top = index.top_k(range(6), 3)
        assert len(top) == 3
        assert top[0] == 0

    def test_top_k_restricted_pool(self, index):
        assert index.top_k([3, 4], 1)[0] in (3, 4)

    def test_out_of_range(self, index):
        with pytest.raises(QueryError):
            index.score(100)

    def test_negative_k_rejected(self, index):
        with pytest.raises(QueryError):
            index.top_k([0], -1)

    def test_on_generated_repo(self, small_repo):
        index = PageRankIndex(small_repo)
        total = sum(index.score(page) for page in range(small_repo.num_pages))
        assert total == pytest.approx(1.0)
